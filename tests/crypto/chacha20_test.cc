#include "crypto/chacha20.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"

namespace hsis::crypto {
namespace {

Bytes MustHex(std::string_view h) {
  Result<Bytes> r = HexDecode(h);
  EXPECT_TRUE(r.ok());
  return *r;
}

// RFC 8439 section 2.3.2 block-function test vector.
TEST(ChaCha20Test, Rfc8439BlockFunction) {
  std::array<uint32_t, 8> key;
  for (uint32_t i = 0; i < 8; ++i) {
    key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
             ((4 * i + 3) << 24);
  }
  std::array<uint32_t, 3> nonce = {0x09000000, 0x4a000000, 0x00000000};
  std::array<uint8_t, 64> block = ChaCha20::Block(key, nonce, 1);
  Bytes got(block.begin(), block.end());
  EXPECT_EQ(HexEncode(got),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 section 2.4.2 encryption test vector.
TEST(ChaCha20Test, Rfc8439Encryption) {
  Bytes key = MustHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = MustHex("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Result<Bytes> ct =
      ChaCha20::Apply(key, nonce, ToBytes(plaintext), /*initial_counter=*/1);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, EncryptDecryptRoundTrip) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x07);
  Bytes msg = ToBytes("round trip message of arbitrary length 12345");
  Result<Bytes> ct = ChaCha20::Apply(key, nonce, msg);
  ASSERT_TRUE(ct.ok());
  EXPECT_NE(*ct, msg);
  Result<Bytes> pt = ChaCha20::Apply(key, nonce, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST(ChaCha20Test, StreamingMatchesOneShot) {
  Bytes key(32, 0x11);
  Bytes nonce(12, 0x22);
  Bytes msg(1000);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);

  Result<Bytes> oneshot = ChaCha20::Apply(key, nonce, msg);
  ASSERT_TRUE(oneshot.ok());

  Result<ChaCha20> cipher = ChaCha20::Create(key, nonce);
  ASSERT_TRUE(cipher.ok());
  Bytes streamed;
  for (size_t off = 0; off < msg.size(); off += 37) {
    size_t n = std::min<size_t>(37, msg.size() - off);
    Bytes chunk(msg.begin() + static_cast<ptrdiff_t>(off),
                msg.begin() + static_cast<ptrdiff_t>(off + n));
    ASSERT_TRUE(
        cipher->Process(chunk.data(), chunk.data(), chunk.size()).ok());
    Append(streamed, chunk);
  }
  EXPECT_EQ(streamed, *oneshot);
}

TEST(ChaCha20Test, RejectsBadKeyOrNonceSize) {
  EXPECT_FALSE(ChaCha20::Create(Bytes(31, 0), Bytes(12, 0)).ok());
  EXPECT_FALSE(ChaCha20::Create(Bytes(32, 0), Bytes(11, 0)).ok());
  EXPECT_TRUE(ChaCha20::Create(Bytes(32, 0), Bytes(12, 0)).ok());
}

TEST(ChaCha20Test, DifferentNoncesDifferentStreams) {
  Bytes key(32, 0x01);
  Bytes msg(64, 0x00);
  Result<Bytes> a = ChaCha20::Apply(key, Bytes(12, 0x01), msg);
  Result<Bytes> b = ChaCha20::Apply(key, Bytes(12, 0x02), msg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
}

// Split points on both sides of every 64-byte block edge: each Process
// call starts mid-block, ends mid-block, or spans whole blocks, and the
// concatenation must equal the one-shot keystream.
TEST(ChaCha20Test, ProcessAcrossBlockEdgesMatchesApply) {
  Bytes key(32, 0x3c);
  Bytes nonce(12, 0x5d);
  Bytes msg(700);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i * 7);
  Result<Bytes> oneshot = ChaCha20::Apply(key, nonce, msg, 5);
  ASSERT_TRUE(oneshot.ok());

  const std::vector<std::vector<size_t>> splits = {
      {1, 63, 64, 65, 127, 128, 129, 700},
      {63, 191, 192, 193, 700},
      {64, 128, 320, 321, 700},
      {0, 0, 200, 200, 700},
      {700},
  };
  for (const std::vector<size_t>& cuts : splits) {
    Result<ChaCha20> cipher = ChaCha20::Create(key, nonce, 5);
    ASSERT_TRUE(cipher.ok());
    Bytes streamed;
    size_t from = 0;
    for (size_t to : cuts) {
      Bytes piece(msg.begin() + static_cast<ptrdiff_t>(from),
                  msg.begin() + static_cast<ptrdiff_t>(to));
      ASSERT_TRUE(
          cipher->Process(piece.data(), piece.data(), piece.size()).ok());
      Append(streamed, piece);
      from = to;
    }
    EXPECT_EQ(streamed, *oneshot) << "first cut at " << cuts.front();
  }
}

// RFC 8439 §2.4: the 32-bit block counter must not wrap, or keystream
// block 0 would be reused. Block 0xFFFFFFFF is the last usable one.
TEST(ChaCha20Test, RefusesToWrapTheBlockCounter) {
  Bytes key(32, 0x01);
  Bytes nonce(12, 0x02);
  Result<Bytes> wraps = ChaCha20::Apply(key, nonce, Bytes(65, 0), 0xFFFFFFFF);
  ASSERT_FALSE(wraps.ok());
  EXPECT_EQ(wraps.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ChaCha20::Apply(key, nonce, Bytes(64, 0), 0xFFFFFFFF).ok());
  EXPECT_TRUE(ChaCha20::Apply(key, nonce, Bytes(0, 0), 0xFFFFFFFF).ok());
  EXPECT_FALSE(ChaCha20::Apply(key, nonce, Bytes(129, 0), 0xFFFFFFFE).ok());

  // Streaming: the last block's buffered tail stays usable, one more
  // byte is refused and leaves the data untouched.
  Result<ChaCha20> cipher = ChaCha20::Create(key, nonce, 0xFFFFFFFF);
  ASSERT_TRUE(cipher.ok());
  Bytes head(10, 0), tail(54, 0), over(1, 0xaa);
  ASSERT_TRUE(cipher->Process(head.data(), head.data(), head.size()).ok());
  ASSERT_TRUE(cipher->Process(tail.data(), tail.data(), tail.size()).ok());
  Status refused = cipher->Process(over.data(), over.data(), over.size());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(over, Bytes(1, 0xaa));
  Bytes joined = head;
  Append(joined, tail);
  EXPECT_EQ(joined, *ChaCha20::Apply(key, nonce, Bytes(64, 0), 0xFFFFFFFF));
}


// ---------------------------------------------------------------------------
// Lane differential: the AVX2 eight-block lane against the scalar one.
// Both are called directly, so the scalar lane is exercised on AVX2 hosts
// too; the AVX2 half skips on CPUs without AVX2.
// ---------------------------------------------------------------------------

using XorBlocksFn = void (*)(const ChaCha20::Key&, const ChaCha20::Nonce&,
                             uint32_t, const uint8_t*, uint8_t*, size_t);

#define HSIS_REQUIRE_AVX2()                                          \
  if (!ChaCha20::Avx2Supported()) {                                  \
    GTEST_SKIP() << "CPU or build has no AVX2 lane; scalar only";    \
  }

ChaCha20::Key KeyWords(const Bytes& key) {
  ChaCha20::Key words;
  for (size_t i = 0; i < words.size(); ++i) {
    words[i] = static_cast<uint32_t>(key[4 * i]) |
               (static_cast<uint32_t>(key[4 * i + 1]) << 8) |
               (static_cast<uint32_t>(key[4 * i + 2]) << 16) |
               (static_cast<uint32_t>(key[4 * i + 3]) << 24);
  }
  return words;
}

// `data` XOR keystream from block `counter`, through one lane, with the
// data zero-padded to eight whole blocks so the AVX2 lane runs a full
// vector step.
std::string LaneApplyHex(XorBlocksFn lane, const ChaCha20::Key& key,
                         const ChaCha20::Nonce& nonce, uint32_t counter,
                         const Bytes& data) {
  Bytes padded = data;
  padded.resize(8 * ChaCha20::kBlockSize);
  lane(key, nonce, counter, padded.data(), padded.data(), 8);
  padded.resize(data.size());
  return HexEncode(padded);
}

// RFC 8439 A.1 test vectors #1 and #2 (all-zero key and nonce, counters
// 0 and 1) and the §2.4.2 encryption vector, through `lane`.
void ExpectRfc8439Vectors(XorBlocksFn lane) {
  EXPECT_EQ(LaneApplyHex(lane, {}, {}, 0, Bytes(128, 0)),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
            "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f");
  const ChaCha20::Key key = KeyWords(MustHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const ChaCha20::Nonce nonce = {0x00000000, 0x4a000000, 0x00000000};
  EXPECT_EQ(LaneApplyHex(lane, key, nonce, 1,
                         ToBytes("Ladies and Gentlemen of the class of '99: "
                                 "If I could offer you only one tip for the "
                                 "future, sunscreen would be it.")),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20LaneTest, Rfc8439VectorsThroughScalarLane) {
  ExpectRfc8439Vectors(&ChaCha20::XorBlocksScalar);
}

TEST(ChaCha20LaneTest, Rfc8439VectorsThroughAvx2Lane) {
  HSIS_REQUIRE_AVX2();
  ExpectRfc8439Vectors(&ChaCha20::XorBlocksAvx2);
}

// Random key, nonce and counter, 1..40 blocks: both lanes, into a
// separate buffer and in place, give the same bytes.
TEST(ChaCha20LaneTest, Avx2MatchesScalarOnRandomKeysAndRuns) {
  HSIS_REQUIRE_AVX2();
  Rng rng(0xc4a20);
  for (int trial = 0; trial < 400; ++trial) {
    ChaCha20::Key key;
    for (uint32_t& word : key) word = static_cast<uint32_t>(rng.NextUint64());
    ChaCha20::Nonce nonce;
    for (uint32_t& word : nonce) {
      word = static_cast<uint32_t>(rng.NextUint64());
    }
    const size_t blocks = 1 + static_cast<size_t>(trial % 40);
    const uint32_t counter = static_cast<uint32_t>(
        rng.UniformUint64((uint64_t{1} << 32) - blocks + 1));
    const Bytes data = rng.RandomBytes(blocks * ChaCha20::kBlockSize);
    Bytes scalar(data.size()), avx2(data.size());
    ChaCha20::XorBlocksScalar(key, nonce, counter, data.data(), scalar.data(),
                              blocks);
    ChaCha20::XorBlocksAvx2(key, nonce, counter, data.data(), avx2.data(),
                            blocks);
    ASSERT_EQ(scalar, avx2) << "trial " << trial << ", " << blocks
                            << " blocks from counter " << counter;
    Bytes in_place = data;
    ChaCha20::XorBlocksAvx2(key, nonce, counter, in_place.data(),
                            in_place.data(), blocks);
    ASSERT_EQ(in_place, scalar) << "in place, trial " << trial;
  }
}

TEST(ChaCha20LaneTest, ActiveLaneIsTheProbedOne) {
  EXPECT_STREQ(ChaCha20::KernelName(),
               ChaCha20::Avx2Supported() ? "avx2" : "scalar");
#if defined(__x86_64__)
  // The probe must agree with the compiler runtime's, which also checks
  // that the OS saves the YMM state.
  EXPECT_EQ(ChaCha20::Avx2Supported(), __builtin_cpu_supports("avx2") != 0);
#else
  EXPECT_FALSE(ChaCha20::Avx2Supported());
#endif
}

// Process calls cut at random points — short pieces inside one block,
// pieces ending on either side of a 512-byte group edge, long pieces of
// many groups — concatenate to the one-shot keystream, which is the
// scalar lane's.
TEST(ChaCha20LaneTest, ProcessAtRandomCutsAcrossGroupEdgesMatchesApply) {
  const Bytes key(32, 0x6b);
  const Bytes nonce(12, 0x9e);
  constexpr uint32_t kCounter = 3;
  Rng rng(512);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformUint64(4000));
    const Bytes msg = rng.RandomBytes(len);
    Result<Bytes> oneshot = ChaCha20::Apply(key, nonce, msg, kCounter);
    ASSERT_TRUE(oneshot.ok());
    Bytes oracle = msg;
    oracle.resize((len + 63) / 64 * 64);
    ChaCha20::XorBlocksScalar(KeyWords(key), {0x9e9e9e9e, 0x9e9e9e9e,
                                              0x9e9e9e9e},
                              kCounter, oracle.data(), oracle.data(),
                              oracle.size() / 64);
    oracle.resize(len);
    ASSERT_EQ(*oneshot, oracle) << "trial " << trial;

    // Half the cuts land at a group edge or one byte either side of it.
    std::vector<size_t> cuts = {0, len};
    for (int c = 0; c < 6; ++c) {
      const size_t near_edge = 512 * rng.UniformUint64(len / 512 + 1) +
                               rng.UniformUint64(3);  // edge + 1 at most
      cuts.push_back(std::min(len, rng.Bernoulli(0.5)
                                       ? std::max<size_t>(near_edge, 1) - 1
                                       : rng.UniformUint64(len + 1)));
    }
    std::sort(cuts.begin(), cuts.end());
    Result<ChaCha20> cipher = ChaCha20::Create(key, nonce, kCounter);
    ASSERT_TRUE(cipher.ok());
    Bytes streamed = msg;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      ASSERT_TRUE(cipher
                      ->Process(streamed.data() + cuts[i],
                                streamed.data() + cuts[i],
                                cuts[i + 1] - cuts[i])
                      .ok());
    }
    ASSERT_EQ(streamed, *oneshot) << "trial " << trial;
  }
}

// The last eight blocks before the counter wraps run as one vector step;
// one block further is refused before any byte is written.
TEST(ChaCha20LaneTest, LastEightBlocksBeforeTheWrapRunOnTheVectorPath) {
  const Bytes key(32, 0x21);
  const Bytes nonce(12, 0x43);
  const ChaCha20::Key words = KeyWords(key);
  const ChaCha20::Nonce nonce_words = {0x43434343, 0x43434343, 0x43434343};
  const Bytes data(8 * ChaCha20::kBlockSize, 0x5c);

  Result<Bytes> last = ChaCha20::Apply(key, nonce, data, 0xFFFFFFF8);
  ASSERT_TRUE(last.ok());
  Bytes oracle(data.size());
  ChaCha20::XorBlocksScalar(words, nonce_words, 0xFFFFFFF8, data.data(),
                            oracle.data(), 8);
  EXPECT_EQ(*last, oracle);
  if (ChaCha20::Avx2Supported()) {
    Bytes avx2(data.size());
    ChaCha20::XorBlocksAvx2(words, nonce_words, 0xFFFFFFF8, data.data(),
                            avx2.data(), 8);
    EXPECT_EQ(avx2, oracle);
  }

  EXPECT_EQ(ChaCha20::Apply(key, nonce, data, 0xFFFFFFF9).status().code(),
            StatusCode::kInvalidArgument);
  Result<ChaCha20> cipher = ChaCha20::Create(key, nonce, 0xFFFFFFF9);
  ASSERT_TRUE(cipher.ok());
  Bytes untouched = data;
  Status refused =
      cipher->Process(untouched.data(), untouched.data(), untouched.size());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(untouched, data);
}

}  // namespace
}  // namespace hsis::crypto
