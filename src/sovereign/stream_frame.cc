#include "sovereign/stream_frame.h"

#include <algorithm>

namespace hsis::sovereign {

namespace {

constexpr size_t kElementBytes = 32;
constexpr size_t kFirstHeaderBytes = 5;          // kind + total
constexpr size_t kContinuationHeaderBytes = 10;  // tag + kind + index + count
// The declared total is peer input, so at most this many elements (32 MiB)
// are reserved up front; a longer stream grows as its chunks arrive.
constexpr size_t kMaxReservedElements = size_t{1} << 20;

// Elements travel as 32-byte big-endian integers: most significant limb
// first, each limb big-endian.
void AppendElements(Bytes& out, std::span<const U256> elements) {
  size_t at = out.size();
  out.resize(at + elements.size() * kElementBytes);
  for (const U256& e : elements) {
    for (size_t l = 0; l < 4; ++l) {
      const uint64_t limb = e.limb[3 - l];
      for (size_t b = 0; b < 8; ++b) {
        out[at++] = static_cast<uint8_t>(limb >> (56 - 8 * b));
      }
    }
  }
}

U256 LoadElement(const uint8_t* in) {
  U256 out;
  for (size_t l = 0; l < 4; ++l) {
    uint64_t limb = 0;
    for (size_t b = 0; b < 8; ++b) limb = (limb << 8) | in[8 * l + b];
    out.limb[3 - l] = limb;
  }
  return out;
}

}  // namespace

Bytes SerializeFirstFrame(uint8_t kind, uint32_t total,
                          std::span<const U256> elements) {
  Bytes out;
  out.reserve(kFirstHeaderBytes + elements.size() * kElementBytes);
  out.push_back(kind);
  AppendUint32BE(out, total);
  AppendElements(out, elements);
  return out;
}

Bytes SerializeContinuationFrame(uint8_t kind, uint32_t index,
                                 std::span<const U256> elements) {
  Bytes out;
  out.reserve(kContinuationHeaderBytes + elements.size() * kElementBytes);
  out.push_back(kMsgStreamChunk);
  out.push_back(kind);
  AppendUint32BE(out, index);
  AppendUint32BE(out, static_cast<uint32_t>(elements.size()));
  AppendElements(out, elements);
  return out;
}

Status ElementStreamReader::Consume(const Bytes& frame) {
  if (failed_) {
    return Status::ProtocolViolation("element stream already failed");
  }
  auto fail = [this](const char* msg) {
    failed_ = true;
    return Status::ProtocolViolation(msg);
  };

  size_t payload_offset;
  size_t count;
  if (!header_seen_) {
    if (frame.size() < kFirstHeaderBytes || frame[0] != kind_) {
      return fail("unexpected message type");
    }
    total_ = ReadUint32BE(frame, 1);
    payload_offset = kFirstHeaderBytes;
    size_t payload = frame.size() - payload_offset;
    if (payload % kElementBytes != 0) {
      return fail("malformed element list");
    }
    count = payload / kElementBytes;
    if (count > total_) {
      return fail("opening frame exceeds declared element total");
    }
    header_seen_ = true;
    elements_.reserve(std::min<size_t>(total_, kMaxReservedElements));
  } else {
    if (complete()) {
      return fail("stream chunk after declared element total was reached");
    }
    if (frame.size() < kContinuationHeaderBytes ||
        frame[0] != kMsgStreamChunk) {
      return fail("expected stream continuation chunk");
    }
    if (frame[1] != kind_) {
      return fail("stream chunk kind mismatch");
    }
    uint32_t index = ReadUint32BE(frame, 2);
    if (index != next_index_) {
      return fail("stream chunk out of order");
    }
    count = ReadUint32BE(frame, 6);
    payload_offset = kContinuationHeaderBytes;
    if (count == 0) {
      return fail("empty stream chunk");
    }
    if (frame.size() != payload_offset + count * kElementBytes) {
      return fail("stream chunk count disagrees with frame length");
    }
    if (elements_.size() + count > total_) {
      return fail("stream chunks exceed declared element total");
    }
    ++next_index_;
  }

  last_frame_begin_ = elements_.size();
  elements_.resize(last_frame_begin_ + count);
  const uint8_t* payload = frame.data() + payload_offset;
  for (size_t i = 0; i < count; ++i) {
    elements_[last_frame_begin_ + i] = LoadElement(payload + i * kElementBytes);
  }
  return Status::OK();
}

}  // namespace hsis::sovereign
