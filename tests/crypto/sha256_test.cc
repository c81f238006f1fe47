#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bytes.h"
#include "common/random.h"

namespace hsis::crypto {
namespace {

std::string HashHex(std::string_view msg) {
  return HexEncode(Sha256::Hash(msg));
}

// NIST FIPS 180-4 / classic test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(reinterpret_cast<const uint8_t*>(msg.data()), split);
    h.Update(reinterpret_cast<const uint8_t*>(msg.data()) + split,
             msg.size() - split);
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, PaddingBoundaryLengths) {
  // Lengths straddling the 55/56/63/64-byte padding boundaries must all
  // produce distinct digests and not crash.
  std::set<std::string> digests;
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    digests.insert(HexEncode(Sha256::Hash(std::string(len, 'x'))));
  }
  EXPECT_EQ(digests.size(), 10u);
}

TEST(Sha256Test, DigestSizeIs32) {
  EXPECT_EQ(Sha256::Hash("x").size(), 32u);
}

// ---------------------------------------------------------------------------
// Lane differential: the SHA-NI compression lane against the scalar one.
// Both are called directly, so the scalar lane is exercised on SHA-NI
// hosts too.
// ---------------------------------------------------------------------------

using CompressFn = void (*)(Sha256::State&, const uint8_t*, size_t);

#define HSIS_REQUIRE_SHA_NI()                                          \
  if (!Sha256::ShaNiSupported()) {                                     \
    GTEST_SKIP() << "CPU or build has no SHA-NI lane; scalar only";    \
  }

// FIPS 180-4 padding and finalization around an explicit lane.
std::string HashHexWith(CompressFn compress, const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != 56) padded.push_back(0);
  AppendUint64BE(padded, static_cast<uint64_t>(msg.size()) * 8);
  Sha256::State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / Sha256::kBlockSize);
  Bytes digest;
  for (uint32_t word : state) AppendUint32BE(digest, word);
  return HexEncode(digest);
}

struct NistVector {
  std::string message;
  const char* digest;
};

std::vector<NistVector> NistVectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256LaneTest, NistVectorsThroughScalarLane) {
  for (const NistVector& v : NistVectors()) {
    EXPECT_EQ(HashHexWith(&Sha256::CompressScalar, ToBytes(v.message)),
              v.digest)
        << "message length " << v.message.size();
  }
}

TEST(Sha256LaneTest, NistVectorsThroughShaNiLane) {
  HSIS_REQUIRE_SHA_NI();
  for (const NistVector& v : NistVectors()) {
    EXPECT_EQ(HashHexWith(&Sha256::CompressShaNi, ToBytes(v.message)),
              v.digest)
        << "message length " << v.message.size();
  }
}

TEST(Sha256LaneTest, ShaNiMatchesScalarOnRandomStatesAndRuns) {
  HSIS_REQUIRE_SHA_NI();
  Rng rng(0x5a256);
  for (int trial = 0; trial < 200; ++trial) {
    Sha256::State start;
    for (uint32_t& word : start) {
      word = static_cast<uint32_t>(rng.NextUint64());
    }
    const size_t blocks = 1 + static_cast<size_t>(trial % 9);  // 1..9
    Bytes data = rng.RandomBytes(blocks * Sha256::kBlockSize);
    Sha256::State scalar = start;
    Sha256::State sha_ni = start;
    Sha256::CompressScalar(scalar, data.data(), blocks);
    Sha256::CompressShaNi(sha_ni, data.data(), blocks);
    ASSERT_EQ(scalar, sha_ni) << "trial " << trial << ", " << blocks
                              << " blocks";
  }
}

TEST(Sha256LaneTest, ActiveLaneIsTheProbedOne) {
  EXPECT_STREQ(Sha256::KernelName(),
               Sha256::ShaNiSupported() ? "sha-ni" : "scalar");
}

// Update at random split points — short pieces that only fill the
// buffer, pieces that complete it, and long pieces compressed straight
// from the input — equals the one-shot hash.
TEST(Sha256Test, UpdateAtRandomSplitPointsMatchesOneShot) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformUint64(1200));
    Bytes msg = rng.RandomBytes(len);
    std::vector<size_t> cuts = {0, len};
    const size_t pieces = static_cast<size_t>(rng.UniformUint64(6));
    for (size_t k = 0; k < pieces; ++k) {
      cuts.push_back(static_cast<size_t>(rng.UniformUint64(len + 1)));
    }
    std::sort(cuts.begin(), cuts.end());
    Sha256 h;
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      h.Update(msg.data() + cuts[k], cuts[k + 1] - cuts[k]);
    }
    ASSERT_EQ(h.Finish(), Sha256::Hash(msg))
        << "trial " << trial << ", length " << len;
    ASSERT_EQ(HexEncode(Sha256::Hash(msg)),
              HashHexWith(&Sha256::CompressScalar, msg))
        << "trial " << trial << ", length " << len;
  }
}

}  // namespace
}  // namespace hsis::crypto
