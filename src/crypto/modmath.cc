#include "crypto/modmath.h"

#include <algorithm>
#include <array>

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

Result<MontgomeryContext> MontgomeryContext::Create(const U256& modulus) {
  if (!modulus.IsOdd() || modulus <= U256(1)) {
    return Status::InvalidArgument(
        "Montgomery context requires an odd modulus > 1");
  }
  // n0inv = -n^{-1} mod 2^64 by Newton–Hensel lifting: each iteration
  // doubles the number of correct low bits of the inverse.
  uint64_t n0 = modulus.limb[0];
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  uint64_t n0inv = ~inv + 1;  // negate mod 2^64

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
      table_size_(1),
      mont_one_(ctx.ToMont(U256(1))) {
  // Slice the exponent into w-bit digits from the most significant bit
  // down; the top digit absorbs the ragged remainder, so every later
  // window is exactly w squarings. An exponent of 0 yields an empty
  // schedule.
  const size_t bits = exp_.BitLength();
  const size_t w = static_cast<size_t>(window_bits_);
  const size_t windows = (bits + w - 1) / w;
  digits_.reserve(windows);
  for (size_t i = 0; i < windows; ++i) {
    const size_t lo = (windows - 1 - i) * w;
    const size_t hi = std::min(lo + w, bits);
    uint8_t digit = 0;
    for (size_t b = hi; b-- > lo;) {
      digit = static_cast<uint8_t>((digit << 1) | (exp_.Bit(b) ? 1 : 0));
    }
    digits_.push_back(digit);
    table_size_ = std::max(table_size_, static_cast<size_t>(digit) + 1);
  }
}

// Flattened: the Montgomery kernel is inlined into the ladder, so the
// accumulator stays in registers across the squarings.
[[gnu::flatten]] U256 FixedExponentContext::ModExp(const U256& base) const {
  // Same exp==0/1 short-circuits as the naive ladder; ToMont also reduces a
  // base >= n.
  if (digits_.empty()) return U256(1);
  const U256 mont_base = ctx_.ToMont(base);
  if (digits_.size() == 1 && digits_[0] == 1) return ctx_.FromMont(mont_base);

  // Power table in the Montgomery domain, built only up to the largest
  // digit the schedule actually uses (<= 2^w entries).
  U256 table[size_t{1} << kMaxWindowBits];
  table[0] = mont_one_;
  table[1] = mont_base;
  for (size_t i = 2; i < table_size_; ++i) {
    table[i] = ctx_.MontMul(table[i - 1], table[1]);
  }

  // Left-to-right walk: the leading digit seeds the accumulator, every
  // later window costs w Montgomery squarings plus one table product
  // when its digit is nonzero.
  U256 acc = table[digits_[0]];
  for (size_t i = 1; i < digits_.size(); ++i) {
    for (int s = 0; s < window_bits_; ++s) acc = ctx_.MontSqr(acc);
    if (digits_[i] != 0) acc = ctx_.MontMul(acc, table[digits_[i]]);
  }
  return ctx_.FromMont(acc);
}

}  // namespace hsis::crypto
