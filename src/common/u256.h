#ifndef HSIS_COMMON_U256_H_
#define HSIS_COMMON_U256_H_

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"

namespace hsis {

struct U512;

/// Fixed-width 256-bit unsigned integer, little-endian 64-bit limbs.
///
/// All arithmetic is wrapping mod 2^256 unless stated otherwise. This is
/// the scalar type for the crypto substrate (prime groups, commutative
/// encryption, MSet-Mu-Hash); it deliberately supports only the
/// operations those layers need, with full-width multiply returning U512.
struct U256 {
  std::array<uint64_t, 4> limb{0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(uint64_t v) : limb{v, 0, 0, 0} {}
  constexpr U256(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3)
      : limb{l0, l1, l2, l3} {}

  /// Parses a hex string (no 0x prefix, up to 64 digits).
  static Result<U256> FromHex(std::string_view hex);

  /// Parses a decimal string.
  static Result<U256> FromDecimal(std::string_view dec);

  /// Interprets up to 32 bytes as a big-endian integer.
  static U256 FromBytesBE(std::span<const uint8_t> bytes);

  /// The same for exactly 32 bytes (a SHA-256 digest, say): inline, one
  /// 8-byte load per limb.
  static U256 FromBytesBE(const std::array<uint8_t, 32>& bytes) {
    U256 out;
    for (size_t l = 0; l < 4; ++l) {
      uint64_t word;
      std::memcpy(&word, bytes.data() + 8 * l, sizeof(word));
      out.limb[3 - l] = BigEndian64(word);
    }
    return out;
  }

  /// Big-endian 32-byte encoding.
  Bytes ToBytesBE() const;

  /// Lowercase hex with leading zeros trimmed (at least one digit).
  std::string ToHex() const;

  /// Decimal representation.
  std::string ToDecimal() const;

  bool IsZero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  bool IsOdd() const { return (limb[0] & 1) != 0; }

  /// Value of bit `i` (0 = least significant); i < 256.
  bool Bit(size_t i) const {
    return (limb[i / 64] >> (i % 64)) & 1;
  }

  /// Index of the highest set bit plus one (0 for zero).
  size_t BitLength() const;

  friend bool operator==(const U256& a, const U256& b) { return a.limb == b.limb; }
  friend std::strong_ordering operator<=>(const U256& a, const U256& b);

  /// Wrapping addition/subtraction.
  friend U256 operator+(const U256& a, const U256& b);
  friend U256 operator-(const U256& a, const U256& b);

  /// Addition reporting carry-out; used by wider arithmetic.
  static U256 AddWithCarry(const U256& a, const U256& b, uint64_t* carry_out);

  /// Subtraction reporting borrow-out (1 when a < b).
  static U256 SubWithBorrow(const U256& a, const U256& b, uint64_t* borrow_out);

  /// Full 512-bit product.
  static U512 MulFull(const U256& a, const U256& b);

  /// Wrapping (low 256 bits) product.
  friend U256 operator*(const U256& a, const U256& b);

  /// Logical shifts; shift counts >= 256 yield zero.
  friend U256 operator<<(const U256& a, size_t n);
  friend U256 operator>>(const U256& a, size_t n);

  friend U256 operator&(const U256& a, const U256& b);
  friend U256 operator|(const U256& a, const U256& b);
  friend U256 operator^(const U256& a, const U256& b);

};

/// Quotient/remainder pair for 256-bit division.
struct U256DivMod {
  U256 quotient;
  U256 remainder;
};

/// Computes quotient and remainder; `divisor` must be nonzero.
U256DivMod DivMod(const U256& dividend, const U256& divisor);

/// 512-bit companion type for products and wide reductions.
struct U512 {
  std::array<uint64_t, 8> limb{0, 0, 0, 0, 0, 0, 0, 0};

  constexpr U512() = default;
  constexpr explicit U512(uint64_t v) : limb{v, 0, 0, 0, 0, 0, 0, 0} {}

  /// Widens a U256 (zero-extends).
  static U512 FromU256(const U256& v);

  /// Low 256 bits.
  U256 Low() const { return U256(limb[0], limb[1], limb[2], limb[3]); }
  /// High 256 bits.
  U256 High() const { return U256(limb[4], limb[5], limb[6], limb[7]); }

  bool IsZero() const;
  size_t BitLength() const;
  bool Bit(size_t i) const { return (limb[i / 64] >> (i % 64)) & 1; }

  friend bool operator==(const U512& a, const U512& b) { return a.limb == b.limb; }
  friend std::strong_ordering operator<=>(const U512& a, const U512& b);

  friend U512 operator+(const U512& a, const U512& b);
  friend U512 operator-(const U512& a, const U512& b);
  friend U512 operator<<(const U512& a, size_t n);
  friend U512 operator>>(const U512& a, size_t n);

  /// Remainder of this value modulo a nonzero 256-bit divisor.
  U256 Mod(const U256& divisor) const;
};

/// Quotient/remainder pair for 512-by-256-bit division (the quotient may
/// need all 512 bits when the divisor is small).
struct U512DivMod {
  U512 quotient;
  U256 remainder;
};

/// Computes quotient and remainder; `divisor` must be nonzero.
U512DivMod DivMod(const U512& dividend, const U256& divisor);

}  // namespace hsis

#endif  // HSIS_COMMON_U256_H_
