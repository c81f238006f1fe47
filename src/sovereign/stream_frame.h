#ifndef HSIS_SOVEREIGN_STREAM_FRAME_H_
#define HSIS_SOVEREIGN_STREAM_FRAME_H_

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/u256.h"

/// \file
/// \brief Chunk-framed wire codec for streamed element lists.
///
/// A whole element list — singly encrypted set, double-encrypted reply
/// pairs — fits one message:
///
///     [kind:1][total:u32][total * 32 element bytes]
///
/// The intersection protocol splits the same logical list into
/// fixed-size frames so neither side ever materializes a million-tuple
/// message. The opening frame keeps the **whole-list layout** (its count
/// field is the stream's total, its payload is the first chunk), so a
/// single-chunk stream is byte-for-byte the whole-list message;
/// continuation frames are
///
///     [kMsgStreamChunk:1][kind:1][index:u32][count:u32][count * 32 bytes]
///
/// with 1-based strictly sequential indices. `ElementStreamReader`
/// validates every structural property on arrival — tag, kind, index
/// order, per-frame count vs byte length, cumulative count vs the
/// declared total — and fails with a typed `ProtocolViolation` instead
/// of ever yielding a wrong element list. Payload bit flips are below
/// this layer: frames travel over the AEAD channel (sovereign/channel.h),
/// which rejects any tampered frame with `IntegrityViolation` before the
/// reader sees it.

namespace hsis::sovereign {

/// Wire message type tags of the intersection protocol.
inline constexpr uint8_t kMsgCommitment = 0x01;
/// Kind tag of a singly-encrypted set stream {E_i(h(t))}.
inline constexpr uint8_t kMsgEncryptedSet = 0x02;
/// Kind tag of a (value, double-encryption) reply-pair stream.
inline constexpr uint8_t kMsgDoubleEncryptedPairs = 0x03;
/// Kind tag of an unpaired double-encrypted set stream (size-only mode).
inline constexpr uint8_t kMsgDoubleEncryptedSet = 0x04;
/// Frame tag of a continuation chunk within a streamed element list.
inline constexpr uint8_t kMsgStreamChunk = 0x05;

/// Bytes per element on the wire: a 32-byte big-endian integer.
inline constexpr size_t kElementBytes = 32;

/// Wire size of frame `index` of a stream when it carries `count`
/// elements: the opening frame (`index == 0`) or a continuation frame.
size_t FrameSize(size_t index, size_t count);

/// Writes the header of frame `index` of a `total`-element stream of
/// `kind` carrying `count` elements at `out` (`total` is read only by
/// the opening frame) and returns the first payload byte.
uint8_t* WriteFrameHeader(uint8_t kind, size_t index, size_t total,
                          size_t count, uint8_t* out);

/// Writes `e` at `out` as 32 big-endian bytes: most significant limb
/// first, each limb big-endian. One 8-byte store per limb.
inline void StoreElement(const U256& e, uint8_t* out) {
  for (size_t l = 0; l < 4; ++l) {
    const uint64_t be = BigEndian64(e.limb[3 - l]);
    std::memcpy(out + 8 * l, &be, sizeof(be));
  }
}

/// Reads the element `StoreElement` wrote at `in`. One 8-byte load per
/// limb.
inline U256 LoadElement(const uint8_t* in) {
  U256 out;
  for (size_t l = 0; l < 4; ++l) {
    uint64_t be;
    std::memcpy(&be, in + 8 * l, sizeof(be));
    out.limb[3 - l] = BigEndian64(be);
  }
  return out;
}

/// Serializes frame `index` of a `total`-element stream of `kind`,
/// carrying `element(0) .. element(count - 1)`, straight into `out`,
/// which must hold exactly `FrameSize(index, count)` bytes. `Get` is any
/// callable `size_t -> const U256&`; the wire layouts are those of
/// `SerializeFirstFrame` and `SerializeContinuationFrame`.
template <typename Get>
void WriteFrame(uint8_t kind, size_t index, size_t total, size_t count,
                const Get& element, std::span<uint8_t> out) {
  uint8_t* at = WriteFrameHeader(kind, index, total, count, out.data());
  for (size_t j = 0; j < count; ++j, at += kElementBytes) {
    StoreElement(element(j), at);
  }
}

/// Serializes the opening frame of a streamed element list of `kind`:
/// whole-list layout, count field = `total` (the whole stream's element
/// count), payload = the first chunk. When `elements.size() == total`
/// the result is exactly the whole-list message.
Bytes SerializeFirstFrame(uint8_t kind, uint32_t total,
                          std::span<const U256> elements);

/// Serializes continuation frame `index` (1-based, strictly sequential
/// on the wire) of a streamed element list of `kind`.
Bytes SerializeContinuationFrame(uint8_t kind, uint32_t index,
                                 std::span<const U256> elements);

/// Incremental, validating reassembler for one streamed element list.
///
/// Feed frames in wire order via `Consume`; accumulated elements are
/// available at any point, so a pipeline can process each chunk as it
/// arrives (`elements()` grows, never shrinks or reorders). Every
/// structural deviation — wrong tag or kind, out-of-order or duplicate
/// chunk index, a count field disagreeing with the frame's byte length,
/// an empty continuation frame, or more elements than the declared
/// total — is a typed `ProtocolViolation`.
class ElementStreamReader {
 public:
  /// `kind` is the expected stream kind tag (kMsgEncryptedSet, ...).
  explicit ElementStreamReader(uint8_t kind) : kind_(kind) {}

  /// Consumes the next frame. The first frame must be an opening frame
  /// of the expected kind; later frames must be sequential continuation
  /// frames. After an error the reader is poisoned: further calls fail.
  Status Consume(const Bytes& frame);

  /// Checks the next frame exactly as `Consume` does — the same checks,
  /// statuses and poisoning — but leaves its payload to the caller:
  /// returns the number of elements the frame carries, which are its
  /// last `count * kElementBytes` bytes (`LoadFrameElements`), and does
  /// not grow `elements()`. `total()` and `complete()` count checked
  /// frames as consumed. A stream is read with one of the two calls.
  Result<size_t> CheckFrame(const Bytes& frame);

  /// Declared element count of the whole stream (valid once the
  /// opening frame was consumed).
  uint32_t total() const { return total_; }

  /// True iff every declared element has arrived.
  bool complete() const { return header_seen_ && received_ == total_; }

  /// Elements received so far, in wire order.
  const std::vector<U256>& elements() const { return elements_; }

  /// Moves the accumulated elements out (the reader is done with them);
  /// callers use this once `complete()`.
  std::vector<U256> TakeElements() { return std::move(elements_); }

  /// Index into `elements()` of the first element delivered by the most
  /// recent successful `Consume` — the window `[last_frame_begin(),
  /// elements().size())` is the newest chunk, ready for pipelining.
  size_t last_frame_begin() const { return last_frame_begin_; }

 private:
  uint8_t kind_;
  bool header_seen_ = false;
  bool failed_ = false;
  uint32_t total_ = 0;
  uint32_t next_index_ = 1;
  size_t received_ = 0;  // elements in the frames accepted so far
  size_t last_frame_begin_ = 0;
  std::vector<U256> elements_;
};

/// Decodes the `out.size()` elements that end `frame`, a frame
/// `ElementStreamReader::CheckFrame` accepted with that count.
void LoadFrameElements(std::span<const uint8_t> frame, std::span<U256> out);

/// Decodes the `out.size()` elements that end `frame`, as
/// `LoadFrameElements` does, and checks that each is a word in [1,
/// modulus): one compare per word. Zero, the modulus and every word
/// above it (which would alias a smaller one) are a ProtocolViolation;
/// `out` is then written only in part.
Status LoadGroupElements(std::span<const uint8_t> frame, std::span<U256> out,
                         const U256& modulus);

/// An element stream read whole: its elements in wire order, and the
/// end of each frame as an index into them. The calling thread
/// allocates the elements and the pool writes them first: unlike a
/// std::vector's, their pages are not zeroed on the calling thread.
struct ReceivedStream {
  struct Free {
    void operator()(U256* p) const { std::free(p); }
  };
  std::unique_ptr<U256[], Free> storage;
  std::span<U256> elements;
  std::vector<size_t> frame_ends;
};

/// The element total a stream's opening frame must declare, and the
/// violation to report when it does not.
struct DeclaredTotal {
  size_t total;
  const char* mismatch;
};

/// Reads `frames`, everything a channel delivered for one stream, as
/// one `kind` stream of words in [1, modulus). Every header is checked
/// in wire order on the calling thread (`expected` right after the
/// opening frame's); the payloads of the frames whose headers passed
/// are decoded and checked on `threads` pool workers
/// (`LoadGroupElements`). The status is the first that reading frame
/// by frame (header, then words) raises, then `received`, the status
/// of the channel after its last delivered frame; a stream cut short
/// is "element stream ended early", and a frame after the complete
/// stream is a ProtocolViolation from the reader.
Result<ReceivedStream> ReadElementStream(
    std::span<const Bytes> frames, const Status& received, uint8_t kind,
    const U256& modulus, int threads,
    std::optional<DeclaredTotal> expected = std::nullopt);

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_STREAM_FRAME_H_
