#include "crypto/modmath.h"

#include <algorithm>
#include <array>
#include <cstdint>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/logging.h"

namespace hsis::crypto {

using uint128 = unsigned __int128;

U256 ModAdd(const U256& a, const U256& b, const U256& m) {
  uint64_t carry = 0;
  U256 sum = U256::AddWithCarry(a, b, &carry);
  if (carry != 0 || sum >= m) sum = sum - m;
  return sum;
}

U256 ModSub(const U256& a, const U256& b, const U256& m) {
  uint64_t borrow = 0;
  U256 diff = U256::SubWithBorrow(a, b, &borrow);
  if (borrow != 0) diff = diff + m;
  return diff;
}

U256 ModMulSlow(const U256& a, const U256& b, const U256& m) {
  return U256::MulFull(a, b).Mod(m);
}

U256 Gcd(const U256& a, const U256& b) {
  U256 x = a, y = b;
  while (!y.IsZero()) {
    U256 r = DivMod(x, y).remainder;
    x = y;
    y = r;
  }
  return x;
}

namespace {

// -n0^{-1} mod 2^64 for odd n0, by Newton–Hensel lifting: each iteration
// doubles the number of correct low bits of the inverse.
uint64_t NegInverse64(uint64_t n0) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  return ~inv + 1;  // negate mod 2^64
}

}  // namespace

Result<MontgomeryContext> MontgomeryContext::Create(const U256& modulus) {
  if (!modulus.IsOdd() || modulus <= U256(1)) {
    return Status::InvalidArgument(
        "Montgomery context requires an odd modulus > 1");
  }
  const uint64_t n0inv = NegInverse64(modulus.limb[0]);

  // r2 = 2^512 mod n, computed by doubling 2^256 mod n 256 times would be
  // slow; instead reduce the 512-bit value (1 << 512 is not representable,
  // so reduce (2^256 mod n)^2 with the generic divider).
  U512 r = U512(1) << 256;
  U256 r_mod_n = r.Mod(modulus);
  U256 r2 = U256::MulFull(r_mod_n, r_mod_n).Mod(modulus);

  return MontgomeryContext(modulus, n0inv, r2);
}

namespace {

// The Montgomery kernel: a 4-limb CIOS written out limb by limb, so every
// intermediate stays in a register and nothing calls into libhsis_common.
// Carries are written as `x += y; hi += x < y`, which compiles to add/adc.

// lo(a * b + t + carry); hi goes to `carry`. The sum fits in 128 bits:
// (2^64 - 1)^2 + 2 (2^64 - 1) = 2^128 - 1.
inline uint64_t MulAdd(uint64_t a, uint64_t b, uint64_t t, uint64_t& carry) {
  const uint128 p = static_cast<uint128>(a) * b;
  uint64_t lo = static_cast<uint64_t>(p);
  uint64_t hi = static_cast<uint64_t>(p >> 64);
  lo += t;
  hi += lo < t;
  lo += carry;
  hi += lo < carry;
  carry = hi;
  return lo;
}

// lo(a - b - borrow); the borrow-out (0 or 1) goes to `borrow`.
inline uint64_t SubBorrow(uint64_t a, uint64_t b, uint64_t& borrow) {
  const uint64_t d = a - borrow;
  const uint64_t b1 = a < borrow;
  borrow = b1 + (d < b);
  return d - b;
}

// One CIOS round: t = (t + ai * b + m * n) / 2^64 over the window t0..t4,
// with m chosen so the low limb cancels. For b < n, a window below 2n
// stays below 2n whatever ai is, so t4 <= 1 between rounds; t5 holds the
// bit that can carry out of t4 inside the round.
inline void CiosRound(uint64_t ai, const U256& b,
                      const std::array<uint64_t, 4>& n, uint64_t n0inv,
                      uint64_t& t0, uint64_t& t1, uint64_t& t2, uint64_t& t3,
                      uint64_t& t4) {
  uint64_t c = 0;
  t0 = MulAdd(ai, b.limb[0], t0, c);
  t1 = MulAdd(ai, b.limb[1], t1, c);
  t2 = MulAdd(ai, b.limb[2], t2, c);
  t3 = MulAdd(ai, b.limb[3], t3, c);
  t4 += c;
  const uint64_t t5 = t4 < c;

  const uint64_t m = t0 * n0inv;
  // lo(m n0) + t0 is 2^64 when t0 != 0 and 0 when t0 == 0, so the carry
  // out of the low limb needs no addition.
  c = static_cast<uint64_t>((static_cast<uint128>(m) * n[0]) >> 64) +
      (t0 != 0);
  t0 = MulAdd(m, n[1], t1, c);
  t1 = MulAdd(m, n[2], t2, c);
  t2 = MulAdd(m, n[3], t3, c);
  t3 = t4 + c;
  t4 = t5 + (t3 < c);
}

// t mod n for a 5-limb t < 2n: subtract n once and keep t when that
// borrows. The select is a mask, not a branch.
inline U256 ReduceOnce(uint64_t t0, uint64_t t1, uint64_t t2, uint64_t t3,
                       uint64_t t4, const std::array<uint64_t, 4>& n) {
  uint64_t borrow = 0;
  const uint64_t s0 = SubBorrow(t0, n[0], borrow);
  const uint64_t s1 = SubBorrow(t1, n[1], borrow);
  const uint64_t s2 = SubBorrow(t2, n[2], borrow);
  const uint64_t s3 = SubBorrow(t3, n[3], borrow);
  SubBorrow(t4, 0, borrow);
  const uint64_t keep = 0 - borrow;  // all ones when t < n
  return U256((t0 & keep) | (s0 & ~keep), (t1 & keep) | (s1 & ~keep),
              (t2 & keep) | (s2 & ~keep), (t3 & keep) | (s3 & ~keep));
}

}  // namespace

U256 MontgomeryContext::MontMul(const U256& a, const U256& b) const {
  uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  CiosRound(a.limb[0], b, n_.limb, n0inv_, t0, t1, t2, t3, t4);
  CiosRound(a.limb[1], b, n_.limb, n0inv_, t0, t1, t2, t3, t4);
  CiosRound(a.limb[2], b, n_.limb, n0inv_, t0, t1, t2, t3, t4);
  CiosRound(a.limb[3], b, n_.limb, n0inv_, t0, t1, t2, t3, t4);
  return ReduceOnce(t0, t1, t2, t3, t4, n_.limb);
}

U256 MontgomeryContext::MontSqr(const U256& a) const { return MontMul(a, a); }

U256 MontgomeryContext::ToMont(const U256& a) const { return MontMul(a, r2_); }

U256 MontgomeryContext::FromMont(const U256& a) const {
  return MontMul(a, U256(1));
}

U256 MontgomeryContext::ModMul(const U256& a, const U256& b) const {
  return MontMul(a, ToMont(b));  // a * bR / R; ToMont(b) < n, so any a works
}

U256 MontgomeryContext::Product(std::span<const U256> factors) const {
  return factors.size() >= kIfmaProductMin &&
                 FixedExponentContext::IfmaSupported()
             ? ProductIfma(factors)
             : ProductScalar(factors);
}

U256 MontgomeryContext::ProductScalar(std::span<const U256> factors) const {
  // Each product drops one factor of R. Four chains, so that their
  // products overlap, each start at R mod n; with k factors in all they
  // leave partial products whose own product is P R^(4-k), and the
  // three products that join them leave P R^(1-k), below n. One
  // product with R^k mod n leaves P.
  const U256 mont_one = ToMont(U256(1));
  std::array<U256, 4> acc = {mont_one, mont_one, mont_one, mont_one};
  size_t i = 0;
  for (; i + 4 <= factors.size(); i += 4) {
    for (size_t c = 0; c < 4; ++c) acc[c] = MontMul(factors[i + c], acc[c]);
  }
  for (; i < factors.size(); ++i) acc[0] = MontMul(factors[i], acc[0]);
  const U256 joined = MontMul(MontMul(acc[0], acc[1]), MontMul(acc[2], acc[3]));
  return MontMul(joined, ModExp(mont_one, U256(factors.size())));
}

U256 MontgomeryContext::ModExp(const U256& base, const U256& exp) const {
  size_t bits = exp.BitLength();
  if (bits == 0) return U256(1);  // x^0 == 1, including 0^0 by convention
  U256 acc = ToMont(base);        // also reduces a base >= n
  if (bits == 1) return FromMont(acc);  // exp == 1
  U256 result = ToMont(U256(1));
  for (size_t i = 0; i < bits; ++i) {
    if (exp.Bit(i)) result = MontMul(result, acc);
    acc = MontMul(acc, acc);
  }
  return FromMont(result);
}

Result<U256> MontgomeryContext::ModInversePrime(const U256& a) const {
  // a R mod n is zero exactly when a == 0 mod n; ModExp reduces a itself.
  if (ToMont(a).IsZero()) {
    return Status::InvalidArgument("zero has no modular inverse");
  }
  return ModExp(a, n_ - U256(2));
}

namespace {

// Window width minimizing squarings + table mults for an exponent of the
// given bit length; every production exponent (256-bit) lands on w=4.
int AutoWindowBits(size_t bits) {
  if (bits <= 6) return 2;
  if (bits <= 24) return 3;
  if (bits <= 336) return 4;
  return 5;
}

constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;

// Radix-2^52 digits of a U256, least significant first. The top digit
// holds bits 208..255, so it is below 2^48.
std::array<uint64_t, 5> ToLimbs52(const U256& v) {
  const auto& l = v.limb;
  return {l[0] & kMask52, ((l[0] >> 52) | (l[1] << 12)) & kMask52,
          ((l[1] >> 40) | (l[2] << 24)) & kMask52,
          ((l[2] >> 28) | (l[3] << 36)) & kMask52, l[3] >> 16};
}

// R mod n for the IFMA lane's R = 2^260, without long division:
// ToMont(1) is 2^256 mod n, and four modular doublings follow.
U256 Radix52RModN(const MontgomeryContext& ctx) {
  U256 r = ctx.ToMont(U256(1));
  for (int i = 0; i < 4; ++i) r = ModAdd(r, r, ctx.modulus());
  return r;
}

// The inverse of ToLimbs52 for digits below 2^52 whose value fits in 256
// bits (d[4] < 2^48).
U256 FromLimbs52(const uint64_t d[5]) {
  return U256(d[0] | (d[1] << 52), (d[1] >> 12) | (d[2] << 40),
              (d[2] >> 24) | (d[3] << 28), (d[3] >> 36) | (d[4] << 16));
}

void CheckBatchSpans(std::span<const U256> in, std::span<U256> out) {
  HSIS_CHECK(out.size() == in.size())
      << "modexp batch: " << out.size() << " outputs for " << in.size()
      << " inputs";
  const auto in_lo = reinterpret_cast<uintptr_t>(in.data());
  const auto out_lo = reinterpret_cast<uintptr_t>(out.data());
  const uintptr_t bytes = in.size() * sizeof(U256);
  HSIS_CHECK(in_lo == out_lo || in_lo + bytes <= out_lo ||
             out_lo + bytes <= in_lo)
      << "modexp batch: output partially overlaps input";
}

}  // namespace

Result<FixedExponentContext> FixedExponentContext::Create(
    const MontgomeryContext& ctx, const U256& exponent, int window_bits) {
  if (window_bits == 0) window_bits = AutoWindowBits(exponent.BitLength());
  if (window_bits < 1 || window_bits > kMaxWindowBits) {
    return Status::InvalidArgument(
        "fixed-exponent window width must be in [1, 6] (0 = auto)");
  }
  return FixedExponentContext(ctx, exponent, window_bits);
}

FixedExponentContext::FixedExponentContext(const MontgomeryContext& ctx,
                                           const U256& exponent,
                                           int window_bits)
    : ctx_(ctx),
      exp_(exponent),
      window_bits_(window_bits),
      n52_(ToLimbs52(ctx.modulus())),
      n0inv52_(NegInverse64(ctx.modulus().limb[0]) & kMask52) {
  // R^2 mod n for R = 2^260: one exact product squares R mod n.
  const U256 r = Radix52RModN(ctx);
  rr52_ = ToLimbs52(ctx.ModMul(r, r));

  // Slide from the most significant bit down: a window opens at the
  // next set bit and closes at the lowest set bit within w bits of it.
  // The zeros before a window become squarings of its step. An exponent
  // of 0 yields an empty schedule.
  uint16_t squarings = 0;
  for (size_t top = exp_.BitLength(); top-- > 0;) {
    if (!exp_.Bit(top)) {
      ++squarings;
      continue;
    }
    size_t low = top + 1 >= static_cast<size_t>(window_bits_)
                     ? top + 1 - static_cast<size_t>(window_bits_)
                     : 0;
    while (!exp_.Bit(low)) ++low;
    uint8_t digit = 0;
    for (size_t b = top + 1; b-- > low;) {
      digit = static_cast<uint8_t>((digit << 1) | (exp_.Bit(b) ? 1 : 0));
    }
    if (first_digit_ == 0) {
      first_digit_ = digit;
    } else {
      steps_.push_back(
          {static_cast<uint16_t>(squarings + (top + 1 - low)), digit});
    }
    max_digit_ = std::max(max_digit_, digit);
    squarings = 0;
    top = low;
  }
  if (squarings > 0) steps_.push_back({squarings, 0});
}

void FixedExponentContext::ModExpBatch(std::span<const U256> in,
                                       std::span<U256> out) const {
  if (IfmaSupported()) {
    ModExpBatchIfma(in, out);
  } else {
    ModExpBatchScalar(in, out);
  }
}

void FixedExponentContext::ModExpBatchScalar(std::span<const U256> in,
                                             std::span<U256> out) const {
  CheckBatchSpans(in, out);
  for (size_t i = 0; i < in.size(); ++i) out[i] = ModExp(in[i]);
}

const char* FixedExponentContext::BatchLaneName() {
  return IfmaSupported() ? "avx512-ifma" : "scalar";
}

#if defined(__x86_64__)

namespace {

// CPUID leaf 7 EBX bits 16 and 21 are AVX-512F and AVX-512 IFMA. They
// are usable only when the OS saves the opmask and ZMM registers on a
// context switch: CPUID leaf 1 ECX bit 27 (OSXSAVE) says XGETBV works,
// and XCR0 bits 1, 2, 5, 6 and 7 (SSE, AVX, opmask, ZMM_Hi256,
// Hi16_ZMM) must all be set.
bool ProbeIfma() {
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & (1u << 27)) == 0) return false;
  unsigned int xcr0_lo, xcr0_hi;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0xE6u) != 0xE6u) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 16)) != 0 && (ebx & (1u << 21)) != 0;
}

#define HSIS_IFMA __attribute__((target("avx512f,avx512ifma")))

constexpr size_t kLanes = 8;

// x >> 52 per lane. Written as a vector-extension shift because GCC 12
// reports a false -Wmaybe-uninitialized inside _mm512_srli_epi64.
using U64x8 = uint64_t __attribute__((vector_size(64)));
HSIS_IFMA [[gnu::always_inline]] inline __m512i Shr52(__m512i x) {
  return reinterpret_cast<__m512i>(reinterpret_cast<U64x8>(x) >> 52);
}

// Eight values side by side: v[j] holds radix-2^52 digit j of every lane.
struct Lanes52 {
  __m512i v[5];
};

// Almost-Montgomery products of G independent groups of eight lane
// pairs: r[g] = a[g] * b[g] * 2^-260 mod n up to one multiple of n.
// Digits of a and b must be below 2^52. For a * b < 4n^2 (both below
// 2n), or a < 2^260 and b < n, the result is below 2n, because
// 4n < 2^260 = R for every U256 modulus; so no subtraction is ever
// needed between products. One operand-scanning round per digit of a:
// add a_i * b, add m * n with m chosen so the low digit cancels, shift
// down one digit. The accumulators are 64-bit and collect up to ~21
// digit products before the closing carry pass, far below overflow.
//
// Each instruction of group 0 is issued next to the matching one of
// group 1: the groups' chains m = t0 * n0inv -> t0 += m * n0 -> shift
// are independent, so the core overlaps them. r may alias a or b; it is
// written only after every read. The unroll pragmas let -O2 keep t and
// m in registers; without them the batch record fell below half.
template <size_t G>
HSIS_IFMA [[gnu::always_inline]] inline void Amm(const Lanes52 (&a)[G],
                                                 const Lanes52 (&b)[G],
                                                 const Lanes52& n,
                                                 __m512i n0inv,
                                                 Lanes52 (&r)[G]) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i t[G][6];
#pragma GCC unroll 2
  for (size_t g = 0; g < G; ++g) {
#pragma GCC unroll 6
    for (int j = 0; j < 6; ++j) t[g][j] = zero;
  }
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
#pragma GCC unroll 2
      for (size_t g = 0; g < G; ++g) {
        t[g][j] = _mm512_madd52lo_epu64(t[g][j], a[g].v[i], b[g].v[j]);
      }
    }
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
#pragma GCC unroll 2
      for (size_t g = 0; g < G; ++g) {
        t[g][j + 1] = _mm512_madd52hi_epu64(t[g][j + 1], a[g].v[i], b[g].v[j]);
      }
    }

    // madd52lo reads only the low 52 bits of t0, so m = t0 * n0inv
    // mod 2^52 needs no mask.
    __m512i m[G];
#pragma GCC unroll 2
    for (size_t g = 0; g < G; ++g) {
      m[g] = _mm512_madd52lo_epu64(zero, t[g][0], n0inv);
    }
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
#pragma GCC unroll 2
      for (size_t g = 0; g < G; ++g) {
        t[g][j] = _mm512_madd52lo_epu64(t[g][j], m[g], n.v[j]);
      }
    }
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
#pragma GCC unroll 2
      for (size_t g = 0; g < G; ++g) {
        t[g][j + 1] = _mm512_madd52hi_epu64(t[g][j + 1], m[g], n.v[j]);
      }
    }

    // The low 52 bits of t0 are now zero; divide by 2^52.
#pragma GCC unroll 2
    for (size_t g = 0; g < G; ++g) {
      t[g][0] = _mm512_add_epi64(t[g][1], Shr52(t[g][0]));
#pragma GCC unroll 4
      for (int j = 1; j < 5; ++j) t[g][j] = t[g][j + 1];
      t[g][5] = zero;
    }
  }
  // Carry pass back to 52-bit digits. The value is below 2n < 2^257, so
  // the top digit needs no mask.
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
#pragma GCC unroll 2
  for (size_t g = 0; g < G; ++g) {
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      t[g][j + 1] = _mm512_add_epi64(t[g][j + 1], Shr52(t[g][j]));
      r[g].v[j] = _mm512_and_si512(t[g][j], mask);
    }
    r[g].v[4] = t[g][4];
  }
}

HSIS_IFMA Lanes52 Broadcast(const std::array<uint64_t, 5>& d) {
  Lanes52 r;
  for (int j = 0; j < 5; ++j) {
    r.v[j] = _mm512_set1_epi64(static_cast<long long>(d[j]));
  }
  return r;
}

// What every step of one batch shares: the sliding-window schedule
// and the broadcast radix-2^52 constants.
template <typename Step>
struct IfmaSchedule {
  std::span<const Step> steps;
  uint8_t first_digit;
  uint8_t max_digit;
  U256 modulus;
  Lanes52 n;
  Lanes52 rr;
  __m512i n0inv;
};

// One step of the ladder over G groups of eight bases (`in.size()` <=
// 8G). Every lane walks the same window schedule, so a table read is one
// shared index and needs no gather. Lanes past `in.size()` are padded
// with copies of the first base and their outputs are dropped. All
// inputs are read before any output is written, so `out` may be `in`.
template <size_t G, typename Step>
HSIS_IFMA [[gnu::always_inline]] inline void LadderStep(
    const IfmaSchedule<Step>& s, std::span<const U256> in,
    std::span<U256> out) {
  constexpr size_t kWidth = G * kLanes;
  alignas(64) uint64_t limbs[G][5][kLanes];
  for (size_t k = 0; k < kWidth; ++k) {
    const std::array<uint64_t, 5> d = ToLimbs52(in[k < in.size() ? k : 0]);
    for (int j = 0; j < 5; ++j) limbs[k / kLanes][j][k % kLanes] = d[j];
  }
  Lanes52 base[G];
  Lanes52 rr[G];
  Lanes52 one[G];
  for (size_t g = 0; g < G; ++g) {
    for (int j = 0; j < 5; ++j) base[g].v[j] = _mm512_load_si512(limbs[g][j]);
    rr[g] = s.rr;
    one[g] = Broadcast({1, 0, 0, 0, 0});
  }

  // A base below 2^256 < R times R^2 mod n < n lands below 2n, so
  // ToMont also reduces an unreduced base. table[k] holds base^(2k+1).
  Lanes52 table[size_t{1} << (FixedExponentContext::kMaxWindowBits - 1)][G];
  Amm<G>(base, rr, s.n, s.n0inv, table[0]);
  if (s.max_digit > 1) {
    Lanes52 square[G];
    Amm<G>(table[0], table[0], s.n, s.n0inv, square);
    for (size_t k = 1; k <= s.max_digit / 2u; ++k) {
      Amm<G>(table[k - 1], square, s.n, s.n0inv, table[k]);
    }
  }
  Lanes52 acc[G];
  for (size_t g = 0; g < G; ++g) acc[g] = table[s.first_digit / 2][g];
  for (const Step& step : s.steps) {
    for (int i = 0; i < step.squarings; ++i) {
      Amm<G>(acc, acc, s.n, s.n0inv, acc);
    }
    if (step.digit != 0) {
      Amm<G>(acc, table[step.digit / 2], s.n, s.n0inv, acc);
    }
  }
  // acc < 2n, so acc * 1 * R^-1 + (< R) * n over R is at most n: one
  // conditional subtraction makes it canonical.
  Amm<G>(acc, one, s.n, s.n0inv, acc);
  for (size_t g = 0; g < G; ++g) {
    for (int j = 0; j < 5; ++j) _mm512_store_si512(limbs[g][j], acc[g].v[j]);
  }
  for (size_t k = 0; k < in.size(); ++k) {
    const size_t g = k / kLanes, lane = k % kLanes;
    const uint64_t d[5] = {limbs[g][0][lane], limbs[g][1][lane],
                           limbs[g][2][lane], limbs[g][3][lane],
                           limbs[g][4][lane]};
    const U256 v = FromLimbs52(d);
    out[k] = v >= s.modulus ? v - s.modulus : v;
  }
}

// Sixteen running products mod n, two groups of eight lanes: lane l
// multiplies factors l, l + 16, l + 32, ... from 1, and a step past the
// end multiplies by 1, so every lane runs the same `steps` products and
// one closing product by 1. Each drops a factor of R = 2^260, so lane l
// ends at its factors' product times R^-(steps + 1). The closing product
// leaves at most n (as in LadderStep), and one conditional subtraction
// makes it canonical. Returns `steps`.
[[gnu::flatten]] HSIS_IFMA size_t IfmaLaneProducts(
    const std::array<uint64_t, 5>& n52, uint64_t n0inv52,
    const U256& modulus, std::span<const U256> factors,
    std::array<U256, 2 * kLanes>& lanes) {
  constexpr size_t G = 2;
  const Lanes52 n = Broadcast(n52);
  const __m512i n0inv = _mm512_set1_epi64(static_cast<long long>(n0inv52));
  Lanes52 acc[G];
  Lanes52 one[G];
  for (size_t g = 0; g < G; ++g) {
    acc[g] = Broadcast({1, 0, 0, 0, 0});
    one[g] = acc[g];
  }
  alignas(64) uint64_t limbs[G][5][kLanes];
  size_t steps = 0;
  for (size_t lo = 0; lo < factors.size(); lo += G * kLanes, ++steps) {
    for (size_t k = 0; k < G * kLanes; ++k) {
      const std::array<uint64_t, 5> d = ToLimbs52(
          lo + k < factors.size() ? factors[lo + k] : U256(1));
      for (int j = 0; j < 5; ++j) limbs[k / kLanes][j][k % kLanes] = d[j];
    }
    Lanes52 f[G];
    for (size_t g = 0; g < G; ++g) {
      for (int j = 0; j < 5; ++j) f[g].v[j] = _mm512_load_si512(limbs[g][j]);
    }
    // acc < 2n and a factor below 2^256 keep every product below 2n.
    Amm<G>(acc, f, n, n0inv, acc);
  }
  Amm<G>(acc, one, n, n0inv, acc);
  for (size_t g = 0; g < G; ++g) {
    for (int j = 0; j < 5; ++j) _mm512_store_si512(limbs[g][j], acc[g].v[j]);
  }
  for (size_t k = 0; k < G * kLanes; ++k) {
    const size_t g = k / kLanes, lane = k % kLanes;
    const uint64_t d[5] = {limbs[g][0][lane], limbs[g][1][lane],
                           limbs[g][2][lane], limbs[g][3][lane],
                           limbs[g][4][lane]};
    const U256 v = FromLimbs52(d);
    lanes[k] = v >= modulus ? v - modulus : v;
  }
  return steps;
}

}  // namespace

U256 MontgomeryContext::ProductIfma(std::span<const U256> factors) const {
  HSIS_CHECK(FixedExponentContext::IfmaSupported())
      << "IFMA lane called on a CPU without IFMA";
  std::array<U256, 2 * kLanes> lanes;
  const size_t steps = IfmaLaneProducts(ToLimbs52(n_), n0inv_ & kMask52, n_,
                                        factors, lanes);
  // The sixteen lanes lost R^(16 (steps + 1)) together, R = 2^260.
  return ModMul(ProductScalar(lanes),
                ModExp(Radix52RModN(*this), U256(lanes.size() * (steps + 1))));
}

void FixedExponentContext::ModExpBatchIfma(std::span<const U256> in,
                                           std::span<U256> out) const {
  HSIS_CHECK(IfmaSupported()) << "IFMA lane called on a CPU without IFMA";
  CheckBatchSpans(in, out);
  // The same exp==0/1 short-circuits as ModExp.
  if (steps_.empty() && first_digit_ <= 1) {
    ModExpBatchScalar(in, out);
    return;
  }
  IfmaLadder(in, out);
}

// Sixteen bases per step: two groups of eight. A remainder of at most
// eight runs one group; nine to fifteen run two, padded.
[[gnu::flatten]] HSIS_IFMA void FixedExponentContext::IfmaLadder(
    std::span<const U256> in, std::span<U256> out) const {
  const IfmaSchedule<Step> s = {
      steps_,
      first_digit_,
      max_digit_,
      ctx_.modulus(),
      Broadcast(n52_),
      Broadcast(rr52_),
      _mm512_set1_epi64(static_cast<long long>(n0inv52_))};
  for (size_t lo = 0; lo < in.size();) {
    const size_t count = std::min(2 * kLanes, in.size() - lo);
    if (count > kLanes) {
      LadderStep<2>(s, in.subspan(lo, count), out.subspan(lo, count));
    } else {
      LadderStep<1>(s, in.subspan(lo, count), out.subspan(lo, count));
    }
    lo += count;
  }
}

bool FixedExponentContext::IfmaSupported() {
  static const bool supported = ProbeIfma();
  return supported;
}

#else

U256 MontgomeryContext::ProductIfma(std::span<const U256> factors) const {
  (void)factors;
  HSIS_LOG_FATAL << "IFMA lane is not compiled on this architecture";
  return U256(1);
}

void FixedExponentContext::ModExpBatchIfma(std::span<const U256> in,
                                           std::span<U256> out) const {
  (void)in;
  (void)out;
  HSIS_LOG_FATAL << "IFMA lane is not compiled on this architecture";
}

bool FixedExponentContext::IfmaSupported() { return false; }

#endif

// Flattened: the Montgomery kernel is inlined into the ladder, so the
// accumulator stays in registers across the squarings.
[[gnu::flatten]] U256 FixedExponentContext::ModExp(const U256& base) const {
  // Same exp==0/1 short-circuits as the naive ladder; ToMont also reduces a
  // base >= n.
  if (first_digit_ == 0) return U256(1);
  const U256 mont_base = ctx_.ToMont(base);
  if (steps_.empty() && first_digit_ == 1) return ctx_.FromMont(mont_base);

  // The odd powers base^(2k+1) at table[k] in the Montgomery domain, up
  // to the largest digit the schedule uses.
  U256 table[size_t{1} << (kMaxWindowBits - 1)];
  table[0] = mont_base;
  if (max_digit_ > 1) {
    const U256 square = ctx_.MontSqr(mont_base);
    for (size_t k = 1; k <= max_digit_ / 2u; ++k) {
      table[k] = ctx_.MontMul(table[k - 1], square);
    }
  }

  // Left-to-right walk: the leading window seeds the accumulator, and
  // every step costs its squarings plus one table product.
  U256 acc = table[first_digit_ / 2];
  for (const Step& step : steps_) {
    for (int s = 0; s < step.squarings; ++s) acc = ctx_.MontSqr(acc);
    if (step.digit != 0) acc = ctx_.MontMul(acc, table[step.digit / 2]);
  }
  return ctx_.FromMont(acc);
}

}  // namespace hsis::crypto
