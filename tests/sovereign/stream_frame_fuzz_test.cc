// Fuzz suite for the chunk-framed element-stream codec
// (sovereign/stream_frame.h), in the style of the shard-merge fuzz
// tests: pristine streams round-trip exactly; every structural mutation
// — truncated frames, reordered or duplicated chunks, wrong kinds,
// patched count fields, mutated totals, trailing garbage — either fails
// with a typed ProtocolViolation or leaves the element list identical
// to the pristine stream. The reader never crashes and never yields a
// wrong-length list. Payload bit flips are opaque to the codec (32-byte
// elements carry no structure), so tamper there is exercised end to end
// through the AEAD channel, which must reject with IntegrityViolation.
// The session reads a stream's words as group elements
// (ReadElementStream): 0, p, p + 1 and 2^256 - 1 in any frame are a
// ProtocolViolation, raised where reading frame by frame would raise it.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "crypto/group.h"
#include "sovereign/channel.h"
#include "sovereign/stream_frame.h"

namespace hsis::sovereign {
namespace {

std::vector<U256> MakeElements(size_t n, uint64_t salt) {
  std::vector<U256> elements;
  elements.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    elements.push_back(U256(salt, i, i * i, 7));
  }
  return elements;
}

/// Serializes `elements` as a pristine stream of `chunk`-sized frames.
std::vector<Bytes> BuildFrames(uint8_t kind, const std::vector<U256>& elements,
                               size_t chunk) {
  std::vector<Bytes> frames;
  const size_t n = elements.size();
  std::vector<U256> first(
      elements.begin(),
      elements.begin() + static_cast<ptrdiff_t>(std::min(chunk, n)));
  frames.push_back(SerializeFirstFrame(kind, static_cast<uint32_t>(n), first));
  for (size_t begin = chunk, index = 1; begin < n; begin += chunk, ++index) {
    const size_t end = std::min(begin + chunk, n);
    frames.push_back(SerializeContinuationFrame(
        kind, static_cast<uint32_t>(index),
        std::vector<U256>(elements.begin() + static_cast<ptrdiff_t>(begin),
                          elements.begin() + static_cast<ptrdiff_t>(end))));
  }
  return frames;
}

/// Feeds `frames` into a fresh reader. Returns the first error, or OK —
/// in which case `*out` holds the accumulated elements and `*complete`
/// whether the declared total was reached.
Status Replay(uint8_t kind, const std::vector<Bytes>& frames,
              std::vector<U256>* out, bool* complete) {
  ElementStreamReader reader(kind);
  for (const Bytes& frame : frames) {
    Status s = reader.Consume(frame);
    if (!s.ok()) return s;
  }
  *complete = reader.complete();
  *out = reader.TakeElements();
  return Status::OK();
}

TEST(StreamFrameFuzzTest, PristineStreamsRoundTrip) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{41}}) {
    for (size_t chunk : {size_t{1}, size_t{3}, size_t{7}, size_t{40},
                         size_t{41}, size_t{42}}) {
      const std::vector<U256> elements = MakeElements(n, 0xabc);
      const std::vector<Bytes> frames =
          BuildFrames(kMsgEncryptedSet, elements, chunk);
      std::vector<U256> got;
      bool complete = false;
      Status s = Replay(kMsgEncryptedSet, frames, &got, &complete);
      ASSERT_TRUE(s.ok()) << "n=" << n << " chunk=" << chunk << ": "
                          << s.message();
      EXPECT_TRUE(complete) << "n=" << n << " chunk=" << chunk;
      EXPECT_EQ(got, elements) << "n=" << n << " chunk=" << chunk;
      // A single-chunk stream is exactly the legacy whole-set message.
      if (chunk >= n) {
        EXPECT_EQ(frames.size(), 1u);
      }
    }
  }
}

TEST(StreamFrameFuzzTest, TruncatedFramesRejectedOrIncomplete) {
  const std::vector<U256> elements = MakeElements(17, 1);
  for (size_t chunk : {size_t{1}, size_t{5}, size_t{17}}) {
    std::vector<Bytes> frames = BuildFrames(kMsgEncryptedSet, elements, chunk);
    // Truncate the last frame at every interesting cut.
    for (size_t cut : {size_t{0}, size_t{1}, size_t{4}, size_t{9},
                       size_t{31}, size_t{33}}) {
      if (cut >= frames.back().size()) continue;
      std::vector<Bytes> mutated = frames;
      mutated.back().resize(cut);
      std::vector<U256> got;
      bool complete = false;
      Status s = Replay(kMsgEncryptedSet, mutated, &got, &complete);
      if (s.ok()) {
        // A clean cut can only look like a shorter (incomplete) stream —
        // never a complete stream with wrong elements.
        EXPECT_FALSE(complete) << "chunk=" << chunk << " cut=" << cut;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);
      }
    }
    // Dropping the final frame entirely: incomplete, not wrong.
    std::vector<Bytes> dropped(frames.begin(), frames.end() - 1);
    std::vector<U256> got;
    bool complete = false;
    Status s = Replay(kMsgEncryptedSet, dropped, &got, &complete);
    if (s.ok()) {
      EXPECT_FALSE(complete && got != elements);
    }
  }
}

TEST(StreamFrameFuzzTest, ReorderedAndDuplicatedChunksRejected) {
  const std::vector<U256> elements = MakeElements(20, 2);
  std::vector<Bytes> frames = BuildFrames(kMsgEncryptedSet, elements, 4);
  ASSERT_EQ(frames.size(), 5u);

  std::vector<U256> got;
  bool complete = false;

  // Swap two continuation frames.
  std::vector<Bytes> swapped = frames;
  std::swap(swapped[2], swapped[3]);
  Status s = Replay(kMsgEncryptedSet, swapped, &got, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);

  // Duplicate a continuation frame.
  std::vector<Bytes> duplicated = frames;
  duplicated.insert(duplicated.begin() + 2, frames[1]);
  s = Replay(kMsgEncryptedSet, duplicated, &got, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);

  // Continuation before the opening frame.
  std::vector<Bytes> headless(frames.begin() + 1, frames.end());
  s = Replay(kMsgEncryptedSet, headless, &got, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);

  // A frame after the stream completed.
  std::vector<Bytes> overrun = frames;
  overrun.push_back(frames.back());
  s = Replay(kMsgEncryptedSet, overrun, &got, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);
}

TEST(StreamFrameFuzzTest, WrongKindsRejected) {
  const std::vector<U256> elements = MakeElements(9, 3);
  std::vector<U256> got;
  bool complete = false;

  // Opening frame of the wrong kind.
  std::vector<Bytes> frames =
      BuildFrames(kMsgDoubleEncryptedSet, elements, 4);
  Status s = Replay(kMsgEncryptedSet, frames, &got, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);

  // Continuation frame whose embedded kind disagrees with the stream.
  frames = BuildFrames(kMsgEncryptedSet, elements, 4);
  Bytes rogue = SerializeContinuationFrame(kMsgDoubleEncryptedPairs, 1,
                                           MakeElements(4, 4));
  frames[1] = rogue;
  s = Replay(kMsgEncryptedSet, frames, &got, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);
}

TEST(StreamFrameFuzzTest, CorruptHeaderFieldsRejected) {
  const std::vector<U256> elements = MakeElements(12, 5);
  const std::vector<Bytes> frames =
      BuildFrames(kMsgEncryptedSet, elements, 5);
  ASSERT_EQ(frames.size(), 3u);
  std::vector<U256> got;
  bool complete = false;

  // Patch the continuation count field (bytes 6..9) to every nearby
  // wrong value: count/length disagreement or total overflow.
  for (uint32_t wrong : {0u, 1u, 4u, 6u, 200u}) {
    std::vector<Bytes> mutated = frames;
    Bytes& frame = mutated[1];
    frame[6] = static_cast<uint8_t>(wrong >> 24);
    frame[7] = static_cast<uint8_t>(wrong >> 16);
    frame[8] = static_cast<uint8_t>(wrong >> 8);
    frame[9] = static_cast<uint8_t>(wrong);
    Status s = Replay(kMsgEncryptedSet, mutated, &got, &complete);
    ASSERT_FALSE(s.ok()) << "count=" << wrong;
    EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);
  }

  // Mutate the declared total in the opening frame.
  for (uint32_t wrong : {0u, 3u, 11u, 13u, 1000u}) {
    std::vector<Bytes> mutated = frames;
    Bytes& frame = mutated[0];
    frame[1] = static_cast<uint8_t>(wrong >> 24);
    frame[2] = static_cast<uint8_t>(wrong >> 16);
    frame[3] = static_cast<uint8_t>(wrong >> 8);
    frame[4] = static_cast<uint8_t>(wrong);
    Status s = Replay(kMsgEncryptedSet, mutated, &got, &complete);
    if (s.ok()) {
      // Only a *larger* total can survive parsing — and then the stream
      // can never be complete, so the caller still detects truncation.
      EXPECT_GT(wrong, elements.size());
      EXPECT_FALSE(complete);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);
    }
  }

  // Trailing garbage after the payload.
  std::vector<Bytes> garbage = frames;
  AppendUint32BE(garbage[0], 0xdeadbeef);
  Status s = Replay(kMsgEncryptedSet, garbage, &got, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);

  // Empty continuation frame.
  std::vector<Bytes> empty_chunk = frames;
  empty_chunk[1] = SerializeContinuationFrame(kMsgEncryptedSet, 1, {});
  s = Replay(kMsgEncryptedSet, empty_chunk, &got, &complete);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);
}

TEST(StreamFrameFuzzTest, RandomizedStructuralMutations) {
  // Random single-byte mutations anywhere in the stream: the reader
  // either fails typed, or — when the mutation lands in opaque payload
  // bytes — still yields a list of exactly the declared length. It
  // never crashes and never over- or under-delivers silently.
  Rng rng(77);
  const std::vector<U256> elements = MakeElements(23, 6);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t chunk = 1 + rng.UniformUint64(25);
    std::vector<Bytes> frames =
        BuildFrames(kMsgEncryptedSet, elements, chunk);
    const size_t victim = rng.UniformUint64(frames.size());
    Bytes& frame = frames[victim];
    const size_t offset = rng.UniformUint64(frame.size());
    frame[offset] ^= static_cast<uint8_t>(1 + rng.UniformUint64(255));

    std::vector<U256> got;
    bool complete = false;
    Status s = Replay(kMsgEncryptedSet, frames, &got, &complete);
    if (s.ok() && complete) {
      EXPECT_EQ(got.size(), elements.size()) << "trial " << trial;
    } else if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kProtocolViolation) << "trial " << trial;
    }
  }
}

TEST(StreamFrameFuzzTest, ReaderIsPoisonedAfterFailure) {
  const std::vector<U256> elements = MakeElements(8, 7);
  std::vector<Bytes> frames = BuildFrames(kMsgEncryptedSet, elements, 3);
  ElementStreamReader reader(kMsgEncryptedSet);
  ASSERT_TRUE(reader.Consume(frames[0]).ok());
  ASSERT_FALSE(reader.Consume(frames[2]).ok());  // out of order
  // Even the correct next frame is now rejected: no resynchronization.
  Status s = reader.Consume(frames[1]);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);
}

TEST(StreamFrameFuzzTest, PayloadBitFlipsCaughtByChannelAead) {
  // The layer split: payload tamper is invisible to the codec but must
  // never reach it — the AEAD channel rejects the sealed frame first.
  Rng rng(78);
  auto pair = SecureChannel::CreatePair(rng.RandomBytes(32), rng);
  ASSERT_TRUE(pair.ok());
  ChannelEndpoint sender = std::move(pair->first);
  ChannelEndpoint receiver = std::move(pair->second);
  const std::vector<U256> elements = MakeElements(10, 8);
  for (const Bytes& frame : BuildFrames(kMsgEncryptedSet, elements, 4)) {
    ASSERT_TRUE(sender.Send(frame).ok());
  }
  receiver.CorruptNextInboundForTest();
  Result<Bytes> tampered = receiver.Receive();
  ASSERT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.status().code(), StatusCode::kIntegrityViolation);
}

// ---------------------------------------------------------------------------
// Words outside the group.
// ---------------------------------------------------------------------------

/// Words no element of Z_p^* can be: zero, the modulus, one above it
/// (which would alias 1) and the largest 256-bit word.
std::vector<U256> OutOfRangeWords(const U256& modulus) {
  return {U256(), modulus, modulus + U256(1),
          U256(~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0})};
}

/// Reading frame by frame: each frame's header, the declared total
/// right after the opening frame's, then the frame's words; then the
/// channel's status; then completeness.
Status ReadFrameByFrame(const std::vector<Bytes>& frames,
                        const Status& received, uint8_t kind,
                        const U256& modulus,
                        std::optional<DeclaredTotal> expected,
                        std::vector<U256>* out) {
  ElementStreamReader reader(kind);
  for (size_t f = 0; f < frames.size(); ++f) {
    HSIS_ASSIGN_OR_RETURN(const size_t count, reader.CheckFrame(frames[f]));
    if (f == 0 && expected && reader.total() != expected->total) {
      return Status::ProtocolViolation(expected->mismatch);
    }
    std::vector<U256> words(count);
    HSIS_RETURN_IF_ERROR(LoadGroupElements(frames[f], words, modulus));
    out->insert(out->end(), words.begin(), words.end());
  }
  HSIS_RETURN_IF_ERROR(received);
  if (!reader.complete()) {
    return Status::ProtocolViolation("element stream ended early");
  }
  return Status::OK();
}

/// The session's read at one and four threads against frame by frame:
/// the same status, and on success the same elements and frame ends.
void ExpectReadsFrameByFrame(const std::vector<Bytes>& frames,
                             const Status& received, uint8_t kind,
                             const U256& modulus,
                             std::optional<DeclaredTotal> expected,
                             const std::string& label) {
  std::vector<U256> want;
  const Status status =
      ReadFrameByFrame(frames, received, kind, modulus, expected, &want);
  for (int threads : {1, 4}) {
    Result<ReceivedStream> got =
        ReadElementStream(frames, received, kind, modulus, threads, expected);
    ASSERT_EQ(got.status(), status) << label << " threads " << threads;
    if (!status.ok()) continue;
    ASSERT_EQ(std::vector<U256>(got->elements.begin(), got->elements.end()),
              want)
        << label << " threads " << threads;
    ASSERT_EQ(got->frame_ends.size(), frames.size()) << label;
    EXPECT_EQ(got->frame_ends.back(), want.size()) << label;
  }
}

TEST(StreamFrameFuzzTest, OutOfRangeWordsRejectedInEveryFrame) {
  const U256& p = crypto::PrimeGroup::Default().modulus();
  // Five frames of four; the honest words include both ends, 1 and p - 1.
  std::vector<U256> elements = MakeElements(20, 9);
  elements[5] = U256(1);
  elements[10] = p - U256(1);
  for (uint8_t kind : {kMsgEncryptedSet, kMsgDoubleEncryptedPairs,
                       kMsgDoubleEncryptedSet}) {
    const std::vector<Bytes> honest = BuildFrames(kind, elements, 4);
    ASSERT_EQ(honest.size(), 5u);
    for (int threads : {1, 4}) {
      Result<ReceivedStream> read =
          ReadElementStream(honest, Status::OK(), kind, p, threads);
      ASSERT_TRUE(read.ok()) << read.status();
      EXPECT_EQ(std::vector<U256>(read->elements.begin(), read->elements.end()),
                elements);
    }
    for (const U256& word : OutOfRangeWords(p)) {
      // The first, a middle and the last frame, at its first, an inner
      // or its last word.
      for (size_t frame : {size_t{0}, size_t{2}, size_t{4}}) {
        std::vector<U256> hostile = elements;
        hostile[4 * frame + frame % 4] = word;
        const std::vector<Bytes> frames = BuildFrames(kind, hostile, 4);
        for (size_t f = 0; f < frames.size(); ++f) {
          std::vector<U256> words(4);
          const Status loaded = LoadGroupElements(frames[f], words, p);
          if (f != frame) {
            EXPECT_TRUE(loaded.ok()) << loaded;
            continue;
          }
          EXPECT_EQ(loaded.code(), StatusCode::kProtocolViolation)
              << word.ToHex() << " in frame " << frame;
        }
        // Frame by frame the unchecked reader accepts the stream; the
        // session's read does not.
        std::vector<U256> unchecked;
        bool complete = false;
        ASSERT_TRUE(Replay(kind, frames, &unchecked, &complete).ok());
        for (int threads : {1, 4}) {
          Result<ReceivedStream> read =
              ReadElementStream(frames, Status::OK(), kind, p, threads);
          EXPECT_EQ(read.status().code(), StatusCode::kProtocolViolation)
              << word.ToHex() << " in frame " << frame << " threads "
              << threads;
        }
        ExpectReadsFrameByFrame(frames, Status::OK(), kind, p, std::nullopt,
                                word.ToHex());
      }
    }
  }
}

TEST(StreamFrameFuzzTest, OutOfRangeWordComesBeforeLaterFaults) {
  const U256& p = crypto::PrimeGroup::Default().modulus();
  const uint8_t kind = kMsgEncryptedSet;
  const std::vector<Bytes> honest =
      BuildFrames(kind, MakeElements(20, 10), 4);
  const Bytes bad_word_frame = SerializeContinuationFrame(
      kind, 1, std::vector<U256>{MakeElements(3, 11)[0], p, U256(5), U256(6)});
  // A bad word in frame 1 comes before an out-of-order frame 3, a
  // channel failure and a stream cut short.
  std::vector<Bytes> frames = honest;
  frames[1] = bad_word_frame;
  std::swap(frames[3], frames[4]);
  const Status integrity = Status::IntegrityViolation("frame 5 tampered");
  for (const Status& received : {Status::OK(), integrity}) {
    for (int threads : {1, 4}) {
      Result<ReceivedStream> read =
          ReadElementStream(frames, received, kind, p, threads);
      EXPECT_EQ(read.status().code(), StatusCode::kProtocolViolation);
      EXPECT_NE(read.status().message().find("group element"),
                std::string::npos)
          << read.status();
    }
    ExpectReadsFrameByFrame(frames, received, kind, p, std::nullopt,
                            "word before reorder");
    std::vector<Bytes> cut(frames.begin(), frames.begin() + 2);
    ExpectReadsFrameByFrame(cut, received, kind, p, std::nullopt,
                            "word before cut");
  }
  // A header fault in frame 1 comes before a bad word in frame 3, and a
  // wrong declared total before the opening frame's words.
  frames = honest;
  frames[3] = SerializeContinuationFrame(
      kind, 3, std::vector<U256>{U256(), U256(2), U256(3), U256(4)});
  std::swap(frames[1], frames[2]);
  for (int threads : {1, 4}) {
    Result<ReceivedStream> read =
        ReadElementStream(frames, Status::OK(), kind, p, threads);
    EXPECT_EQ(read.status(),
              Status::ProtocolViolation("stream chunk out of order"));
  }
  std::vector<Bytes> opening = honest;
  opening[0] = SerializeFirstFrame(kind, 20, std::vector<U256>(4, U256()));
  const DeclaredTotal twenty_one{21, "declared total mismatch"};
  for (int threads : {1, 4}) {
    Result<ReceivedStream> read =
        ReadElementStream(opening, Status::OK(), kind, p, threads, twenty_one);
    EXPECT_EQ(read.status(),
              Status::ProtocolViolation("declared total mismatch"));
  }
  ExpectReadsFrameByFrame(opening, Status::OK(), kind, p, twenty_one,
                          "total before words");
}

TEST(StreamFrameFuzzTest, SessionReadMatchesFrameByFrameOnMutations) {
  // Random byte mutations, out-of-range words in random frames,
  // dropped frames, wrong declared totals and channel failures, alone
  // and together: the session's read raises what reading frame by
  // frame raises first, and otherwise yields the same elements.
  const U256& p = crypto::PrimeGroup::Default().modulus();
  const std::vector<U256> bad = OutOfRangeWords(p);
  const uint8_t kind = kMsgDoubleEncryptedPairs;
  const std::vector<U256> elements = MakeElements(23, 12);
  Rng rng(79);
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<U256> words = elements;
    const int bad_words = static_cast<int>(rng.UniformUint64(3));
    for (int i = 0; i < bad_words; ++i) {
      words[rng.UniformUint64(words.size())] =
          bad[rng.UniformUint64(bad.size())];
    }
    std::vector<Bytes> frames =
        BuildFrames(kind, words, 1 + rng.UniformUint64(9));
    if (rng.UniformUint64(2) == 0) {
      Bytes& frame = frames[rng.UniformUint64(frames.size())];
      frame[rng.UniformUint64(frame.size())] ^=
          static_cast<uint8_t>(1 + rng.UniformUint64(255));
    }
    if (rng.UniformUint64(4) == 0 && frames.size() > 1) {
      frames.erase(frames.begin() +
                   static_cast<ptrdiff_t>(rng.UniformUint64(frames.size())));
    }
    const Status received =
        rng.UniformUint64(4) == 0
            ? Status::IntegrityViolation("message failed authentication")
            : Status::OK();
    std::optional<DeclaredTotal> expected;
    if (rng.UniformUint64(3) == 0) {
      expected = DeclaredTotal{23 + rng.UniformUint64(2),
                               "declared total mismatch"};
    }
    ExpectReadsFrameByFrame(frames, received, kind, p, expected,
                            "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace hsis::sovereign
