#include "common/sweep_wire.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <variant>
#include <vector>

namespace hsis::common {
namespace {

const std::string kSha(64, 'a');  // a syntactically valid digest

// One populated exemplar of every frame type, with every field set to
// a distinctive value so a field-order bug cannot round-trip.
std::vector<SweepFrame> Exemplars() {
  SweepComplete complete;
  complete.lease_id = 7;
  complete.shard = 3;
  complete.payload_sha256 = kSha;
  SweepFail fail;
  fail.lease_id = 9;
  fail.shard = 2;
  fail.message = "worker exploded";
  SweepLeaseGrant grant;
  grant.lease_id = 11;
  grant.shard = 4;
  grant.begin = 100;
  grant.end = 125;
  grant.lease_ms = 30000;
  grant.sweep = "figure1";
  grant.total = 201;
  grant.shards = 8;
  grant.seed = 42;
  SweepStatusReply status;
  status.sweep = "figure1";
  status.shards = 8;
  status.committed = 5;
  status.leased = 2;
  status.pending = 1;
  status.resumed = 3;
  status.retries = 4;
  status.expired = 2;
  status.quarantined = 1;
  status.drained = 0;
  return {
      SweepLeaseRequest{"host:123"},
      SweepHeartbeat{5, 1},
      complete,
      fail,
      SweepStatusRequest{},
      SweepShutdown{},
      grant,
      SweepNoWork{1, 250, 8, 8},
      SweepHeartbeatAck{5, 30000},
      SweepCompleteAck{3, 1, 6, 8},
      SweepFailAck{2, 1},
      status,
      SweepErrorReply{static_cast<uint8_t>(StatusCode::kNotFound), "gone"},
      SweepShutdownAck{6, 8},
  };
}

TEST(SweepWireTest, EveryFrameTypeRoundTrips) {
  for (const SweepFrame& frame : Exemplars()) {
    Bytes body = SerializeSweepFrame(frame);
    ASSERT_GE(body.size(), 2u);
    EXPECT_EQ(body[0], kSweepWireVersion);
    EXPECT_EQ(body[1], static_cast<uint8_t>(SweepFrameTypeOf(frame)));
    auto parsed = ParseSweepFrame(body);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, frame) << "frame type "
                              << SweepFrameTypeName(SweepFrameTypeOf(frame));
  }
}

// The exact body of each exemplar, in Exemplars() order, written from
// the field table of docs/SWEEP_SERVICE.md §4.2 (one quoted group per
// field). A round-trip cannot catch a field swap made the same way in
// the serializer and the parser; these bytes can.
const std::vector<std::string>& GoldenHex() {
  static const std::vector<std::string> kHex = {
      // lease-request
      "0101" "00000008" "686f73743a313233",
      // heartbeat
      "0102" "0000000000000005" "00000001",
      // complete
      "0103" "0000000000000007" "00000003" "00000040"
      "6161616161616161616161616161616161616161616161616161616161616161"
      "6161616161616161616161616161616161616161616161616161616161616161",
      // fail
      "0104" "0000000000000009" "00000002" "0000000f"
      "776f726b6572206578706c6f646564",
      // status-request
      "0105",
      // shutdown
      "0106",
      // lease-grant
      "0181" "000000000000000b" "00000004" "0000000000000064"
      "000000000000007d" "0000000000007530" "00000007" "66696775726531"
      "00000000000000c9" "00000008" "000000000000002a",
      // no-work
      "0182" "01" "00000000000000fa" "00000008" "00000008",
      // heartbeat-ack
      "0183" "0000000000000005" "0000000000007530",
      // complete-ack
      "0184" "00000003" "01" "00000006" "00000008",
      // fail-ack
      "0185" "00000002" "01",
      // status-reply
      "0186" "00000007" "66696775726531" "00000008" "00000005" "00000002"
      "00000001" "00000003" "00000004" "00000002" "00000001" "00",
      // error
      "0187" "03" "00000004" "676f6e65",
      // shutdown-ack
      "0188" "00000006" "00000008",
  };
  return kHex;
}

TEST(SweepWireTest, ExemplarsMatchTheSpecifiedBytes) {
  const std::vector<SweepFrame> frames = Exemplars();
  ASSERT_EQ(frames.size(), GoldenHex().size());
  for (size_t i = 0; i < frames.size(); ++i) {
    const char* name = SweepFrameTypeName(SweepFrameTypeOf(frames[i]));
    EXPECT_EQ(HexEncode(SerializeSweepFrame(frames[i])), GoldenHex()[i])
        << name;
    auto parsed = ParseSweepFrame(HexDecode(GoldenHex()[i]).value());
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status();
    EXPECT_EQ(*parsed, frames[i]) << name;
  }
}

TEST(SweepWireTest, FrameTypeNamesAreStable) {
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kLeaseRequest),
               "lease-request");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kHeartbeat), "heartbeat");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kComplete), "complete");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kFail), "fail");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kStatusRequest),
               "status-request");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kShutdown), "shutdown");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kLeaseGrant),
               "lease-grant");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kNoWork), "no-work");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kHeartbeatAck),
               "heartbeat-ack");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kCompleteAck),
               "complete-ack");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kFailAck), "fail-ack");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kStatusReply),
               "status-reply");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kErrorReply), "error");
  EXPECT_STREQ(SweepFrameTypeName(SweepFrameType::kShutdownAck),
               "shutdown-ack");
}

TEST(SweepWireTest, RequestAndReplyTagRanges) {
  for (const SweepFrame& frame : Exemplars()) {
    uint8_t tag = static_cast<uint8_t>(SweepFrameTypeOf(frame));
    bool is_reply = tag >= 0x80;
    bool worker_to_daemon = std::holds_alternative<SweepLeaseRequest>(frame) ||
                            std::holds_alternative<SweepHeartbeat>(frame) ||
                            std::holds_alternative<SweepComplete>(frame) ||
                            std::holds_alternative<SweepFail>(frame) ||
                            std::holds_alternative<SweepStatusRequest>(frame) ||
                            std::holds_alternative<SweepShutdown>(frame);
    EXPECT_NE(is_reply, worker_to_daemon);
  }
}

// ---------------------------------------------------------------------
// Rejection matrix: every structural defect is a ProtocolViolation
// ---------------------------------------------------------------------

void ExpectViolation(const Bytes& body, const char* what) {
  auto parsed = ParseSweepFrame(body);
  ASSERT_FALSE(parsed.ok()) << what;
  EXPECT_EQ(parsed.status().code(), StatusCode::kProtocolViolation) << what;
}

TEST(SweepWireTest, RejectsEmptyAndShortBodies) {
  ExpectViolation({}, "empty body");
  ExpectViolation({kSweepWireVersion}, "version byte only");
}

TEST(SweepWireTest, RejectsWrongVersion) {
  Bytes body = SerializeSweepFrame(SweepFrame(SweepLeaseRequest{"w"}));
  body[0] = 0x02;
  auto parsed = ParseSweepFrame(body);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kProtocolViolation);
  EXPECT_NE(parsed.status().message().find("hsis-sweepd-v1"),
            std::string::npos);
}

TEST(SweepWireTest, RejectsUnknownType) {
  ExpectViolation({kSweepWireVersion, 0x00}, "type 0x00");
  ExpectViolation({kSweepWireVersion, 0x42}, "unassigned request tag");
  ExpectViolation({kSweepWireVersion, 0xFF}, "unassigned reply tag");
}

TEST(SweepWireTest, RejectsTruncationAtEveryByte) {
  for (const SweepFrame& frame : Exemplars()) {
    Bytes body = SerializeSweepFrame(frame);
    for (size_t cut = 2; cut < body.size(); ++cut) {
      Bytes truncated(body.begin(), body.begin() + cut);
      auto parsed = ParseSweepFrame(truncated);
      ASSERT_FALSE(parsed.ok())
          << SweepFrameTypeName(SweepFrameTypeOf(frame)) << " cut at "
          << cut;
      EXPECT_EQ(parsed.status().code(), StatusCode::kProtocolViolation);
    }
  }
}

TEST(SweepWireTest, RejectsTrailingBytes) {
  for (const SweepFrame& frame : Exemplars()) {
    Bytes body = SerializeSweepFrame(frame);
    body.push_back(0x00);
    auto parsed = ParseSweepFrame(body);
    ASSERT_FALSE(parsed.ok())
        << SweepFrameTypeName(SweepFrameTypeOf(frame));
    EXPECT_EQ(parsed.status().code(), StatusCode::kProtocolViolation);
  }
}

TEST(SweepWireTest, RejectsOversizedString) {
  SweepLeaseRequest request;
  request.worker = std::string(kSweepWireMaxString + 1, 'w');
  ExpectViolation(SerializeSweepFrame(SweepFrame(request)),
                  "string above the cap");
  // Exactly at the cap is legal.
  request.worker = std::string(kSweepWireMaxString, 'w');
  auto parsed = ParseSweepFrame(SerializeSweepFrame(SweepFrame(request)));
  EXPECT_TRUE(parsed.ok());
}

TEST(SweepWireTest, RejectsMalformedSha256) {
  SweepComplete complete;
  complete.lease_id = 1;
  complete.shard = 0;
  for (const std::string& bad :
       {std::string(63, 'a'), std::string(65, 'a'), std::string(64, 'G'),
        std::string(64, 'A'), std::string()}) {
    complete.payload_sha256 = bad;
    ExpectViolation(SerializeSweepFrame(SweepFrame(complete)),
                    "malformed digest");
  }
  complete.payload_sha256 = std::string(64, 'f');
  EXPECT_TRUE(ParseSweepFrame(SerializeSweepFrame(SweepFrame(complete))).ok());
}

TEST(SweepWireTest, RejectsBadErrorCodes) {
  ExpectViolation(SerializeSweepFrame(SweepFrame(
                      SweepErrorReply{static_cast<uint8_t>(StatusCode::kOk),
                                      "not an error"})),
                  "OK code in an error reply");
  ExpectViolation(
      SerializeSweepFrame(SweepFrame(SweepErrorReply{200, "junk code"})),
      "code beyond the taxonomy");
}

// Boolean fields carry 0 or 1 (docs/SWEEP_SERVICE.md §4.2); any other
// value is a structural defect, not a truthy byte.
void ExpectBooleanOfTwoRejected(const SweepFrame& frame, size_t offset) {
  Bytes body = SerializeSweepFrame(frame);
  ASSERT_LT(offset, body.size());
  ASSERT_LE(body[offset], 1u);
  body[offset] = 2;
  ExpectViolation(body, SweepFrameTypeName(SweepFrameTypeOf(frame)));
}

TEST(SweepWireTest, RejectsNoWorkDrainedOutsideZeroOne) {
  ExpectBooleanOfTwoRejected(SweepNoWork{1, 250, 8, 8}, 2);
}

TEST(SweepWireTest, RejectsStatusReplyDrainedOutsideZeroOne) {
  SweepStatusReply status;
  status.sweep = "figure1";
  status.shards = 8;
  const size_t last = SerializeSweepFrame(SweepFrame(status)).size() - 1;
  ExpectBooleanOfTwoRejected(status, last);
}

TEST(SweepWireTest, RejectsCompleteAckDuplicateOutsideZeroOne) {
  ExpectBooleanOfTwoRejected(SweepCompleteAck{3, 1, 6, 8}, 2 + 4);
}

TEST(SweepWireTest, RejectsFailAckWillRetryOutsideZeroOne) {
  ExpectBooleanOfTwoRejected(SweepFailAck{2, 0}, 2 + 4);
}

// ---------------------------------------------------------------------
// Seeded mutations: the codec is strict in both directions
// ---------------------------------------------------------------------

// Deterministic mutants of `body`: byte flips, truncations, single-byte
// insertions, and edits of every u32 window past the header (which
// covers each string's length prefix). The raw engine output is used,
// never a std distribution, so the corpus is the same on every
// standard library.
std::vector<Bytes> Mutants(const Bytes& body, std::mt19937_64& rng) {
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<Bytes> out;
  for (int i = 0; i < 64; ++i) {
    Bytes m = body;
    m[pick(m.size())] ^= static_cast<uint8_t>(1 + pick(255));
    out.push_back(std::move(m));
  }
  for (int i = 0; i < 16; ++i) {
    out.emplace_back(body.begin(),
                     body.begin() + static_cast<ptrdiff_t>(pick(body.size())));
  }
  for (int i = 0; i < 32; ++i) {
    Bytes m = body;
    m.insert(m.begin() + static_cast<ptrdiff_t>(pick(m.size() + 1)),
             static_cast<uint8_t>(rng()));
    out.push_back(std::move(m));
  }
  for (size_t at = 2; at + 4 <= body.size(); ++at) {
    uint32_t v = 0;
    for (size_t b = 0; b < 4; ++b) v = (v << 8) | body[at + b];
    for (uint32_t edit : {v + 1, v - 1, 0u, 0xFFFFFFFFu,
                          kSweepWireMaxString + 1}) {
      Bytes m = body;
      for (size_t b = 0; b < 4; ++b) {
        m[at + b] = static_cast<uint8_t>(edit >> (24 - 8 * b));
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

TEST(SweepWireTest, SeededMutantsReserializeExactlyOrViolate) {
  std::mt19937_64 rng(0x5eed5eedULL);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const SweepFrame& frame : Exemplars()) {
    const Bytes body = SerializeSweepFrame(frame);
    const char* name = SweepFrameTypeName(SweepFrameTypeOf(frame));
    for (const Bytes& mutant : Mutants(body, rng)) {
      auto parsed = ParseSweepFrame(mutant);
      if (parsed.ok()) {
        ++accepted;
        EXPECT_EQ(HexEncode(SerializeSweepFrame(*parsed)), HexEncode(mutant))
            << name << " mutant accepted but not re-serialized exactly";
      } else {
        ++rejected;
        EXPECT_EQ(parsed.status().code(), StatusCode::kProtocolViolation)
            << name << ": " << parsed.status();
      }
    }
  }
  // The corpus must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------
// Status <-> error-reply mapping
// ---------------------------------------------------------------------

TEST(SweepWireTest, StatusRoundTripsThroughErrorReply) {
  for (Status status :
       {Status::InvalidArgument("bad flag"), Status::NotFound("lease 5"),
        Status::IntegrityViolation("sha mismatch"),
        Status::ProtocolViolation("trailing bytes"),
        Status::Internal("run failed"), Status::FailedPrecondition("nope")}) {
    SweepErrorReply reply = ToSweepError(status);
    EXPECT_EQ(FromSweepError(reply), status);
    // And the reply itself survives the wire.
    auto parsed = ParseSweepFrame(SerializeSweepFrame(SweepFrame(reply)));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(FromSweepError(std::get<SweepErrorReply>(*parsed)), status);
  }
}

TEST(SweepWireTest, ToSweepErrorTruncatesHugeMessages) {
  SweepErrorReply reply = ToSweepError(
      Status::Internal(std::string(2 * kSweepWireMaxString, 'm')));
  EXPECT_EQ(reply.message.size(), kSweepWireMaxString);
  EXPECT_TRUE(ParseSweepFrame(SerializeSweepFrame(SweepFrame(reply))).ok());
}

}  // namespace
}  // namespace hsis::common
