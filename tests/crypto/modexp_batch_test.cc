// Differential suite for `FixedExponentContext::ModExpBatch` and its two
// lanes: every batch output must equal the per-call `ModExp` (the
// scalar oracle) byte for byte, over the fixed_exponent_test moduli and
// exponent shapes, every window width, boundary and unreduced bases,
// ragged and tile-sized batches, separate outputs and in-place calls.
// The IFMA half skips on CPUs without AVX-512 IFMA. The batch stages of
// crypto/parallel_modexp.h are held to the same contract, and a short
// output span is fatal.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "crypto/commutative_cipher.h"
#include "crypto/group.h"
#include "crypto/modmath.h"
#include "crypto/parallel_modexp.h"
#include "crypto/prime.h"

namespace hsis::crypto {
namespace {

using BatchLane = void (FixedExponentContext::*)(std::span<const U256>,
                                                 std::span<U256>) const;

U256 RandomU256(Rng& rng) { return U256::FromBytesBE(rng.RandomBytes(32)); }

U256 RandBelow(Rng& rng, const U256& m) {
  return DivMod(RandomU256(rng), m).remainder;
}

std::vector<U256> TestModuli() {
  return {
      U256(101),
      U256(0x9390aa633eae9f7fULL),
      DefaultSafePrime(),
      DefaultSubgroupOrder(),
  };
}

/// The exponent shapes of fixed_exponent_test: trivial, single-bit,
/// all-ones, group-order adjacent and random.
std::vector<U256> TestExponents(const U256& m, Rng& rng) {
  std::vector<U256> exps = {U256(0), U256(1), U256(2), U256(3),
                            m - U256(1), m - U256(2)};
  for (size_t k : {size_t{5}, size_t{64}, size_t{255}}) {
    exps.push_back(U256(1) << k);
  }
  for (size_t bits : {size_t{4}, size_t{17}, size_t{255}}) {
    exps.push_back((U256(1) << bits) - U256(1));
  }
  for (int i = 0; i < 3; ++i) exps.push_back(RandBelow(rng, m));
  exps.push_back(RandomU256(rng));  // may exceed m: any U256 is valid
  return exps;
}

/// Boundary bases plus random bases, half of them unreduced.
std::vector<U256> TestBases(const U256& m, Rng& rng) {
  const U256 all_ones(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  std::vector<U256> bases = {U256(0), U256(1), m - U256(1), m, all_ones};
  for (int i = 0; i < 6; ++i) bases.push_back(RandBelow(rng, m));
  for (int i = 0; i < 6; ++i) bases.push_back(RandomU256(rng));
  return bases;
}

std::vector<U256> PerCall(const FixedExponentContext& ctx,
                          const std::vector<U256>& in) {
  std::vector<U256> out;
  out.reserve(in.size());
  for (const U256& b : in) out.push_back(ctx.ModExp(b));
  return out;
}

/// `lane` against per-call ModExp over every modulus, exponent shape and
/// window width, into a separate output and in place.
void ExpectLaneMatchesPerCall(BatchLane lane) {
  Rng rng(16016);
  for (const U256& m : TestModuli()) {
    Result<MontgomeryContext> mont = MontgomeryContext::Create(m);
    ASSERT_TRUE(mont.ok());
    const std::vector<U256> bases = TestBases(m, rng);
    for (const U256& e : TestExponents(m, rng)) {
      for (int w = 0; w <= FixedExponentContext::kMaxWindowBits; ++w) {
        Result<FixedExponentContext> ctx =
            FixedExponentContext::Create(*mont, e, w);
        ASSERT_TRUE(ctx.ok());
        const std::vector<U256> want = PerCall(*ctx, bases);
        std::vector<U256> got(bases.size());
        ((*ctx).*lane)(bases, got);
        std::vector<U256> in_place = bases;
        ((*ctx).*lane)(in_place, in_place);
        for (size_t i = 0; i < bases.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "modulus " << m.ToHex() << " exp " << e.ToHex() << " w " << w
              << " base " << bases[i].ToHex();
          ASSERT_EQ(in_place[i], want[i])
              << "in place, modulus " << m.ToHex() << " exp " << e.ToHex()
              << " w " << w << " base " << bases[i].ToHex();
        }
      }
    }
  }
}

/// `lane(in)` against per-call ModExp, into a separate output and in
/// place.
void ExpectBatchMatchesPerCall(BatchLane lane, const FixedExponentContext& ctx,
                               std::vector<U256> in, const std::string& what) {
  const std::vector<U256> want = PerCall(ctx, in);
  std::vector<U256> got(in.size());
  (ctx.*lane)(in, got);
  EXPECT_EQ(got, want) << "separate output, " << what;
  (ctx.*lane)(in, in);
  EXPECT_EQ(in, want) << "in place, " << what;
}

/// `lane` against per-call ModExp for batch sizes 0..40, 64, 67 and
/// 2^16 on the production group and a production-shaped exponent. The
/// IFMA lane steps sixteen bases as two groups of eight, so this covers
/// every ragged remainder of one and two steps: the boundaries 8/9,
/// 15/16/17, 24/25 and 32/33. Then 17 bases (one full step and a
/// one-base tail) at every window width, with an all-ones exponent so
/// that every digit is 2^w - 1 and both groups fill a 64-entry table
/// at w = 6.
void ExpectLaneHandlesBatchSizes(BatchLane lane) {
  const PrimeGroup& group = PrimeGroup::Default();
  Rng rng(1616);
  Result<FixedExponentContext> ctx = group.FixedExp(group.RandomExponent(rng));
  ASSERT_TRUE(ctx.ok());
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {64, 67, size_t{1} << 16});
  for (size_t n : sizes) {
    std::vector<U256> in(n);
    for (U256& b : in) b = RandomU256(rng);
    ExpectBatchMatchesPerCall(lane, *ctx, std::move(in),
                              "batch of " + std::to_string(n));
  }

  Result<MontgomeryContext> mont = MontgomeryContext::Create(group.modulus());
  ASSERT_TRUE(mont.ok());
  const U256 all_ones(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  for (const U256& e : {all_ones, group.RandomExponent(rng)}) {
    for (int w = 1; w <= FixedExponentContext::kMaxWindowBits; ++w) {
      Result<FixedExponentContext> wide =
          FixedExponentContext::Create(*mont, e, w);
      ASSERT_TRUE(wide.ok());
      std::vector<U256> in(17);
      for (U256& b : in) b = RandomU256(rng);
      ExpectBatchMatchesPerCall(lane, *wide, std::move(in),
                                "batch of 17, exp " + e.ToHex() + " w " +
                                    std::to_string(w));
    }
  }
}

TEST(ModExpBatchTest, ActiveLaneMatchesPerCall) {
  ExpectLaneMatchesPerCall(&FixedExponentContext::ModExpBatch);
}

TEST(ModExpBatchTest, ScalarLaneMatchesPerCall) {
  ExpectLaneMatchesPerCall(&FixedExponentContext::ModExpBatchScalar);
}

TEST(ModExpBatchTest, ActiveLaneHandlesBatchSizes) {
  ExpectLaneHandlesBatchSizes(&FixedExponentContext::ModExpBatch);
}

TEST(ModExpBatchTest, ActiveLaneIsTheProbedLane) {
  EXPECT_STREQ(FixedExponentContext::BatchLaneName(),
               FixedExponentContext::IfmaSupported() ? "avx512-ifma"
                                                     : "scalar");
#if defined(__x86_64__)
  // The probe must agree with the compiler runtime's, which also checks
  // that the OS saves the ZMM state.
  EXPECT_EQ(FixedExponentContext::IfmaSupported(),
            __builtin_cpu_supports("avx512f") &&
                __builtin_cpu_supports("avx512ifma"));
#else
  EXPECT_FALSE(FixedExponentContext::IfmaSupported());
#endif
}

TEST(ModExpBatchTest, IfmaLaneMatchesPerCall) {
  if (!FixedExponentContext::IfmaSupported()) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA; only the scalar lane ran";
  }
  ExpectLaneMatchesPerCall(&FixedExponentContext::ModExpBatchIfma);
}

TEST(ModExpBatchTest, IfmaLaneHandlesBatchSizes) {
  if (!FixedExponentContext::IfmaSupported()) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA; only the scalar lane ran";
  }
  ExpectLaneHandlesBatchSizes(&FixedExponentContext::ModExpBatchIfma);
}

TEST(ModExpBatchTest, BatchStagesMatchPerElementEncrypt) {
  const PrimeGroup& group = PrimeGroup::Default();
  Rng rng(77);
  Result<CommutativeCipher> cipher = CommutativeCipher::Create(group, rng);
  ASSERT_TRUE(cipher.ok());
  for (size_t n : {size_t{0}, size_t{1}, size_t{9}, size_t{16}, size_t{17},
                   size_t{33}, size_t{64}, size_t{131}}) {
    std::vector<Bytes> tuples;
    std::vector<U256> hashed;
    std::vector<U256> want;
    for (size_t i = 0; i < n; ++i) {
      tuples.push_back(ToBytes("batch-" + std::to_string(i)));
      hashed.push_back(group.HashToElement(tuples.back()));
      want.push_back(cipher->Encrypt(hashed.back()));
    }
    for (int threads : {1, 3}) {
      std::vector<U256> out(n);
      EncryptBatch(*cipher, hashed, out, threads);
      EXPECT_EQ(out, want) << "EncryptBatch, n " << n << " threads " << threads;
      std::vector<U256> in_place = hashed;
      EncryptBatch(*cipher, in_place, in_place, threads);
      EXPECT_EQ(in_place, want)
          << "EncryptBatch in place, n " << n << " threads " << threads;
      std::vector<U256> fused(n);
      HashEncryptBatch(
          *cipher, n, [&](size_t i) -> const Bytes& { return tuples[i]; },
          fused, threads);
      EXPECT_EQ(fused, want)
          << "HashEncryptBatch, n " << n << " threads " << threads;
    }
  }
}

using ModExpBatchDeathTest = ::testing::Test;

TEST_F(ModExpBatchDeathTest, ShortOutputAborts) {
  const PrimeGroup& group = PrimeGroup::Default();
  Rng rng(5);
  Result<CommutativeCipher> cipher = CommutativeCipher::Create(group, rng);
  ASSERT_TRUE(cipher.ok());
  std::vector<U256> in(9, U256(4));
  std::vector<U256> out(8);
  EXPECT_DEATH(EncryptBatch(*cipher, in, out, 1), "8 outputs for 9 inputs");
  EXPECT_DEATH(HashEncryptBatch(
                   *cipher, in.size(),
                   [](size_t) -> const Bytes& {
                     static const Bytes kTuple = ToBytes("t");
                     return kTuple;
                   },
                   out, 1),
               "8 outputs for 9 inputs");
  Result<FixedExponentContext> ctx = group.FixedExp(cipher->key());
  ASSERT_TRUE(ctx.ok());
  EXPECT_DEATH(ctx->ModExpBatch(in, out), "8 outputs for 9 inputs");
  EXPECT_DEATH(ctx->ModExpBatchScalar(in, out), "8 outputs for 9 inputs");
}

TEST_F(ModExpBatchDeathTest, PartialOverlapAborts) {
  const PrimeGroup& group = PrimeGroup::Default();
  Result<FixedExponentContext> ctx = group.FixedExp(U256(65537));
  ASSERT_TRUE(ctx.ok());
  std::vector<U256> buf(10, U256(4));
  std::span<const U256> in(buf.data(), 8);
  std::span<U256> shifted(buf.data() + 1, 8);
  EXPECT_DEATH(ctx->ModExpBatch(in, shifted), "partially overlaps");
}

}  // namespace
}  // namespace hsis::crypto
