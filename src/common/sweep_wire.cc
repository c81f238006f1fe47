#include "common/sweep_wire.h"

#include <concepts>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>

#include "common/wire.h"

namespace hsis::common {

namespace {

// Frame type of each SweepFrame alternative, indexed by
// `SweepFrame::index()` (the order of the variant in sweep_wire.h).
constexpr SweepFrameType kTypeOfIndex[] = {
    SweepFrameType::kLeaseRequest,  SweepFrameType::kHeartbeat,
    SweepFrameType::kComplete,      SweepFrameType::kFail,
    SweepFrameType::kStatusRequest, SweepFrameType::kShutdown,
    SweepFrameType::kLeaseGrant,    SweepFrameType::kNoWork,
    SweepFrameType::kHeartbeatAck,  SweepFrameType::kCompleteAck,
    SweepFrameType::kFailAck,       SweepFrameType::kStatusReply,
    SweepFrameType::kErrorReply,    SweepFrameType::kShutdownAck,
};
static_assert(std::size(kTypeOfIndex) == std::variant_size_v<SweepFrame>);

// `F` is T itself when parsing and `const T` when serializing.
template <typename F, typename T>
concept FrameOf = std::same_as<std::remove_const_t<F>, T>;

// Each payload's fields in wire order (docs/SWEEP_SERVICE.md §4.2),
// declared once: `io` is a FieldWriter or a FieldReader.
void Fields(auto& io, FrameOf<SweepLeaseRequest> auto& f) {
  io.String(f.worker);
}
void Fields(auto& io, FrameOf<SweepHeartbeat> auto& f) {
  io.U64(f.lease_id);
  io.U32(f.shard);
}
void Fields(auto& io, FrameOf<SweepComplete> auto& f) {
  io.U64(f.lease_id);
  io.U32(f.shard);
  io.String(f.payload_sha256);
}
void Fields(auto& io, FrameOf<SweepFail> auto& f) {
  io.U64(f.lease_id);
  io.U32(f.shard);
  io.String(f.message);
}
void Fields(auto&, FrameOf<SweepStatusRequest> auto&) {}
void Fields(auto&, FrameOf<SweepShutdown> auto&) {}
void Fields(auto& io, FrameOf<SweepLeaseGrant> auto& f) {
  io.U64(f.lease_id);
  io.U32(f.shard);
  io.U64(f.begin);
  io.U64(f.end);
  io.U64(f.lease_ms);
  io.String(f.sweep);
  io.U64(f.total);
  io.U32(f.shards);
  io.U64(f.seed);
}
void Fields(auto& io, FrameOf<SweepNoWork> auto& f) {
  io.Bool(f.drained);
  io.U64(f.retry_ms);
  io.U32(f.committed);
  io.U32(f.shards);
}
void Fields(auto& io, FrameOf<SweepHeartbeatAck> auto& f) {
  io.U64(f.lease_id);
  io.U64(f.lease_ms);
}
void Fields(auto& io, FrameOf<SweepCompleteAck> auto& f) {
  io.U32(f.shard);
  io.Bool(f.duplicate);
  io.U32(f.committed);
  io.U32(f.shards);
}
void Fields(auto& io, FrameOf<SweepFailAck> auto& f) {
  io.U32(f.shard);
  io.Bool(f.will_retry);
}
void Fields(auto& io, FrameOf<SweepStatusReply> auto& f) {
  io.String(f.sweep);
  io.U32(f.shards);
  io.U32(f.committed);
  io.U32(f.leased);
  io.U32(f.pending);
  io.U32(f.resumed);
  io.U32(f.retries);
  io.U32(f.expired);
  io.U32(f.quarantined);
  io.Bool(f.drained);
}
void Fields(auto& io, FrameOf<SweepErrorReply> auto& f) {
  io.U8(f.code);
  io.String(f.message);
}
void Fields(auto& io, FrameOf<SweepShutdownAck> auto& f) {
  io.U32(f.committed);
  io.U32(f.shards);
}

class FieldWriter {
 public:
  explicit FieldWriter(Bytes& out) : out_(out) {}
  void U8(uint8_t v) { out_.push_back(v); }
  void Bool(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v) { AppendUint32BE(out_, v); }
  void U64(uint64_t v) { AppendUint64BE(out_, v); }
  void String(const std::string& s) {
    AppendUint32BE(out_, static_cast<uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  Bytes& out_;
};

// Reads fields through the sticky cursor: a failed read leaves its
// field untouched, and `Finish()` reports the first failure.
class FieldReader {
 public:
  explicit FieldReader(WireReader& wire) : wire_(wire) {}
  void U8(uint8_t& v) { Set(wire_.U8(), v); }
  void Bool(uint8_t& v) { Set(wire_.Bool(), v); }
  void U32(uint32_t& v) { Set(wire_.U32(), v); }
  void U64(uint64_t& v) { Set(wire_.U64(), v); }
  void String(std::string& s) {
    auto bytes = wire_.LengthPrefixed(kSweepWireMaxString);
    if (bytes.ok()) s.assign(bytes->begin(), bytes->end());
  }

 private:
  template <typename T, typename U>
  static void Set(const Result<T>& r, U& out) {
    if (r.ok()) out = static_cast<U>(*r);
  }

  WireReader& wire_;
};

Status CheckPayload(const SweepComplete& f, WireReader& wire) {
  if (f.payload_sha256.size() != 64) {
    return wire.Fail("payload_sha256 must be 64 lowercase hex characters, "
                     "got " + std::to_string(f.payload_sha256.size()));
  }
  for (char c : f.payload_sha256) {
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) {
      return wire.Fail(
          "payload_sha256 contains a non-lowercase-hex character");
    }
  }
  return Status::OK();
}

Status CheckPayload(const SweepErrorReply& f, WireReader& wire) {
  if (f.code == static_cast<uint8_t>(StatusCode::kOk) ||
      f.code > static_cast<uint8_t>(StatusCode::kUnimplemented)) {
    return wire.Fail("code byte " + std::to_string(f.code) +
                     " is not a known non-OK status code");
  }
  return Status::OK();
}

Status CheckPayload(const auto&, WireReader&) { return Status::OK(); }

// Parses the payload of alternative `I` if `type` is its tag.
template <size_t I = 0>
Result<SweepFrame> ParsePayload(SweepFrameType type, WireReader& wire) {
  if constexpr (I == std::variant_size_v<SweepFrame>) {
    const auto tag = static_cast<unsigned>(type);
    static const char* kHex = "0123456789abcdef";
    return Status::ProtocolViolation(
        std::string("unknown sweepd frame type 0x") + kHex[tag >> 4] +
        kHex[tag & 0xf]);
  } else {
    if (type != kTypeOfIndex[I]) return ParsePayload<I + 1>(type, wire);
    std::variant_alternative_t<I, SweepFrame> f;
    FieldReader reader(wire);
    Fields(reader, f);
    HSIS_RETURN_IF_ERROR(wire.Finish());
    HSIS_RETURN_IF_ERROR(CheckPayload(f, wire));
    return SweepFrame(std::in_place_index<I>, std::move(f));
  }
}

}  // namespace

Bytes SerializeSweepFrame(const SweepFrame& frame) {
  Bytes body = {kSweepWireVersion,
                static_cast<uint8_t>(SweepFrameTypeOf(frame))};
  FieldWriter writer(body);
  std::visit([&writer](const auto& f) { Fields(writer, f); }, frame);
  return body;
}

Result<SweepFrame> ParseSweepFrame(const Bytes& body) {
  if (body.size() < 2) {
    return Status::ProtocolViolation(
        "sweepd frame body too short: need at least the version and type "
        "bytes, got " + std::to_string(body.size()));
  }
  if (body[0] != kSweepWireVersion) {
    return Status::ProtocolViolation(
        "unsupported sweepd protocol version " + std::to_string(body[0]) +
        " (this build speaks hsis-sweepd-v1)");
  }
  const auto type = static_cast<SweepFrameType>(body[1]);
  const std::string context =
      std::string("sweepd ") + SweepFrameTypeName(type) + " frame";
  WireReader wire(std::span<const uint8_t>(body).subspan(2),
                  StatusCode::kProtocolViolation, context.c_str());
  return ParsePayload(type, wire);
}

SweepFrameType SweepFrameTypeOf(const SweepFrame& frame) {
  return kTypeOfIndex[frame.index()];
}

const char* SweepFrameTypeName(SweepFrameType type) {
  switch (type) {
    case SweepFrameType::kLeaseRequest: return "lease-request";
    case SweepFrameType::kHeartbeat: return "heartbeat";
    case SweepFrameType::kComplete: return "complete";
    case SweepFrameType::kFail: return "fail";
    case SweepFrameType::kStatusRequest: return "status-request";
    case SweepFrameType::kShutdown: return "shutdown";
    case SweepFrameType::kLeaseGrant: return "lease-grant";
    case SweepFrameType::kNoWork: return "no-work";
    case SweepFrameType::kHeartbeatAck: return "heartbeat-ack";
    case SweepFrameType::kCompleteAck: return "complete-ack";
    case SweepFrameType::kFailAck: return "fail-ack";
    case SweepFrameType::kStatusReply: return "status-reply";
    case SweepFrameType::kErrorReply: return "error";
    case SweepFrameType::kShutdownAck: return "shutdown-ack";
  }
  return "unknown";
}

SweepErrorReply ToSweepError(const Status& status) {
  SweepErrorReply error;
  error.code = static_cast<uint8_t>(status.code());
  error.message = status.message();
  if (error.message.size() > kSweepWireMaxString) {
    error.message.resize(kSweepWireMaxString);
  }
  return error;
}

Status FromSweepError(const SweepErrorReply& error) {
  return Status(static_cast<StatusCode>(error.code), error.message);
}

}  // namespace hsis::common
