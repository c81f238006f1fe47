#include "sovereign/stream_frame.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/wire.h"

namespace hsis::sovereign {

namespace {

constexpr size_t kFirstHeaderBytes = 5;          // kind + total
constexpr size_t kContinuationHeaderBytes = 10;  // tag + kind + index + count
// The declared total is peer input, so at most this many elements (32 MiB)
// are reserved up front; a longer stream grows as its chunks arrive.
constexpr size_t kMaxReservedElements = size_t{1} << 20;

uint8_t* StoreUint32BE(uint32_t v, uint8_t* out) {
  for (int i = 0; i < 4; ++i) *out++ = static_cast<uint8_t>(v >> (24 - 8 * i));
  return out;
}

/// True iff `word` lies in [1, modulus), given `bound` = modulus - 1:
/// word - 1 < bound, with 0 - 1 wrapping to 2^256 - 1, so one borrow
/// chain checks both ends.
bool InGroupRange(const U256& word, const U256& bound) {
  uint64_t decrement = 1;  // the borrow of word - 1
  uint64_t below = 0;      // the borrow of (word - 1) - bound
  for (size_t l = 0; l < 4; ++l) {
    const uint64_t limb = word.limb[l] - decrement;
    decrement = word.limb[l] < decrement;
    const unsigned __int128 diff =
        static_cast<unsigned __int128>(limb) - bound.limb[l] - below;
    below = static_cast<uint64_t>(diff >> 64) & 1;
  }
  return below != 0;
}

Bytes SerializeFrame(uint8_t kind, size_t index, size_t total,
                     std::span<const U256> elements) {
  Bytes out(FrameSize(index, elements.size()));
  WriteFrame(
      kind, index, total, elements.size(),
      [&](size_t j) -> const U256& { return elements[j]; }, out);
  return out;
}

}  // namespace

size_t FrameSize(size_t index, size_t count) {
  return (index == 0 ? kFirstHeaderBytes : kContinuationHeaderBytes) +
         count * kElementBytes;
}

uint8_t* WriteFrameHeader(uint8_t kind, size_t index, size_t total,
                          size_t count, uint8_t* out) {
  if (index == 0) {
    *out++ = kind;
    return StoreUint32BE(static_cast<uint32_t>(total), out);
  }
  *out++ = kMsgStreamChunk;
  *out++ = kind;
  out = StoreUint32BE(static_cast<uint32_t>(index), out);
  return StoreUint32BE(static_cast<uint32_t>(count), out);
}

Bytes SerializeFirstFrame(uint8_t kind, uint32_t total,
                          std::span<const U256> elements) {
  return SerializeFrame(kind, 0, total, elements);
}

Bytes SerializeContinuationFrame(uint8_t kind, uint32_t index,
                                 std::span<const U256> elements) {
  return SerializeFrame(kind, index, 0, elements);
}

Status ElementStreamReader::Consume(const Bytes& frame) {
  HSIS_ASSIGN_OR_RETURN(const size_t count, CheckFrame(frame));
  if (last_frame_begin_ == 0) {
    elements_.reserve(std::min<size_t>(total_, kMaxReservedElements));
  }
  elements_.resize(last_frame_begin_ + count);
  LoadFrameElements(frame,
                    std::span(elements_).subspan(last_frame_begin_, count));
  return Status::OK();
}

Result<size_t> ElementStreamReader::CheckFrame(const Bytes& frame) {
  if (failed_) {
    return Status::ProtocolViolation("element stream already failed");
  }
  auto fail = [this](const char* msg) {
    failed_ = true;
    return Status::ProtocolViolation(msg);
  };

  // The cursor is sticky: when the last header read succeeds, every
  // earlier one did too.
  WireReader wire(frame, StatusCode::kProtocolViolation, "element stream");
  size_t count;
  if (!header_seen_) {
    const Result<uint8_t> kind = wire.U8();
    const Result<uint32_t> total = wire.U32();
    if (!total.ok() || *kind != kind_) {
      return fail("unexpected message type");
    }
    if (wire.remaining() % kElementBytes != 0) {
      return fail("malformed element list");
    }
    count = wire.remaining() / kElementBytes;
    if (count > *total) {
      return fail("opening frame exceeds declared element total");
    }
    total_ = *total;
    header_seen_ = true;
  } else {
    if (complete()) {
      return fail("stream chunk after declared element total was reached");
    }
    const Result<uint8_t> tag = wire.U8();
    const Result<uint8_t> kind = wire.U8();
    const Result<uint32_t> index = wire.U32();
    const Result<uint32_t> chunk = wire.U32();
    if (!chunk.ok() || *tag != kMsgStreamChunk) {
      return fail("expected stream continuation chunk");
    }
    if (*kind != kind_) {
      return fail("stream chunk kind mismatch");
    }
    if (*index != next_index_) {
      return fail("stream chunk out of order");
    }
    count = *chunk;
    if (count == 0) {
      return fail("empty stream chunk");
    }
    if (received_ + count > total_) {
      return fail("stream chunks exceed declared element total");
    }
    ++next_index_;
  }
  // The payload is the rest of the frame, exactly.
  if (!wire.Raw(count * kElementBytes).ok() || !wire.Finish().ok()) {
    return fail("stream chunk count disagrees with frame length");
  }
  last_frame_begin_ = received_;
  received_ += count;
  return count;
}

void LoadFrameElements(std::span<const uint8_t> frame, std::span<U256> out) {
  const uint8_t* in = frame.data() + frame.size() - out.size() * kElementBytes;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = LoadElement(in + i * kElementBytes);
  }
}

Status LoadGroupElements(std::span<const uint8_t> frame, std::span<U256> out,
                         const U256& modulus) {
  const U256 bound = modulus - U256(1);
  const uint8_t* in = frame.data() + frame.size() - out.size() * kElementBytes;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = LoadElement(in + i * kElementBytes);
    if (!InGroupRange(out[i], bound)) {
      return Status::ProtocolViolation(
          "stream element is not a group element (outside [1, p))");
    }
  }
  return Status::OK();
}

Result<ReceivedStream> ReadElementStream(
    std::span<const Bytes> frames, const Status& received, uint8_t kind,
    const U256& modulus, int threads, std::optional<DeclaredTotal> expected) {
  // Every header on the calling thread, in wire order, up to the first
  // that fails: only the frames before it are read for their words.
  ElementStreamReader reader(kind);
  ReceivedStream stream;
  Status header;
  for (const Bytes& frame : frames) {
    Result<size_t> count = reader.CheckFrame(frame);
    if (count.ok() && stream.frame_ends.empty() && expected &&
        reader.total() != expected->total) {
      count = Status::ProtocolViolation(expected->mismatch);
    }
    if (!count.ok()) {
      header = count.status();
      break;
    }
    stream.frame_ends.push_back(
        (stream.frame_ends.empty() ? 0 : stream.frame_ends.back()) + *count);
  }
  // The payloads on the pool, each at its prefix-summed offset; a bad
  // word in frame f comes before any fault of a later frame. malloc
  // implicitly creates the U256s, which need no construction.
  const size_t decoded = stream.frame_ends.size();
  const size_t total = decoded == 0 ? 0 : stream.frame_ends.back();
  stream.storage.reset(static_cast<U256*>(std::malloc(total * sizeof(U256))));
  HSIS_CHECK(stream.storage != nullptr || total == 0)
      << "out of memory for a " << total << "-element stream";
  stream.elements = std::span(stream.storage.get(), total);
  std::vector<Status> words(decoded);
  common::ParallelFor(threads, decoded, [&](size_t f) {
    const size_t begin = f == 0 ? 0 : stream.frame_ends[f - 1];
    words[f] = LoadGroupElements(
        frames[f], stream.elements.subspan(begin, stream.frame_ends[f] - begin),
        modulus);
  });
  for (const Status& status : words) HSIS_RETURN_IF_ERROR(status);
  HSIS_RETURN_IF_ERROR(header);
  HSIS_RETURN_IF_ERROR(received);
  if (!reader.complete()) {
    return Status::ProtocolViolation("element stream ended early");
  }
  return stream;
}

}  // namespace hsis::sovereign
