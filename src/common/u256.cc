#include "common/u256.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.h"

namespace hsis {

using uint128 = unsigned __int128;

// ---------------------------------------------------------------------------
// U256
// ---------------------------------------------------------------------------

Result<U256> U256::FromHex(std::string_view hex) {
  if (hex.empty()) return Status::InvalidArgument("empty hex string");
  if (hex.size() > 64) return Status::InvalidArgument("hex string exceeds 256 bits");
  U256 out;
  size_t bit = 0;
  for (size_t i = hex.size(); i-- > 0;) {
    char c = hex[i];
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      return Status::InvalidArgument("non-hex character");
    }
    out.limb[bit / 64] |= static_cast<uint64_t>(v) << (bit % 64);
    bit += 4;
  }
  return out;
}

Result<U256> U256::FromDecimal(std::string_view dec) {
  if (dec.empty()) return Status::InvalidArgument("empty decimal string");
  U256 out;
  const U256 ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') return Status::InvalidArgument("non-decimal character");
    U512 wide = U256::MulFull(out, ten);
    if (!wide.High().IsZero()) return Status::OutOfRange("decimal exceeds 256 bits");
    uint64_t carry = 0;
    out = U256::AddWithCarry(wide.Low(), U256(static_cast<uint64_t>(c - '0')), &carry);
    if (carry) return Status::OutOfRange("decimal exceeds 256 bits");
  }
  return out;
}

U256 U256::FromBytesBE(std::span<const uint8_t> bytes) {
  HSIS_CHECK(bytes.size() <= 32);
  // Right-aligned in 32 zeroed bytes.
  std::array<uint8_t, 32> be{};
  if (!bytes.empty()) {  // an empty span may have no data
    std::memcpy(be.data() + 32 - bytes.size(), bytes.data(), bytes.size());
  }
  return FromBytesBE(be);
}

Bytes U256::ToBytesBE() const {
  Bytes out(32);
  for (size_t i = 0; i < 32; ++i) {
    out[31 - i] = static_cast<uint8_t>(limb[i / 8] >> ((i % 8) * 8));
  }
  return out;
}

std::string U256::ToHex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  bool started = false;
  for (size_t nibble = 64; nibble-- > 0;) {
    int v = static_cast<int>((limb[nibble / 16] >> ((nibble % 16) * 4)) & 0xf);
    if (v != 0) started = true;
    if (started) out.push_back(kDigits[v]);
  }
  if (out.empty()) out.push_back('0');
  return out;
}

std::string U256::ToDecimal() const {
  if (IsZero()) return "0";
  U256 v = *this;
  const U256 ten(10);
  std::string out;
  while (!v.IsZero()) {
    U256DivMod qr = DivMod(v, ten);
    out.push_back(static_cast<char>('0' + qr.remainder.limb[0]));
    v = qr.quotient;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

size_t U256::BitLength() const {
  for (size_t i = 4; i-- > 0;) {
    if (limb[i] != 0) {
      return i * 64 + (64 - static_cast<size_t>(__builtin_clzll(limb[i])));
    }
  }
  return 0;
}

std::strong_ordering operator<=>(const U256& a, const U256& b) {
  for (size_t i = 4; i-- > 0;) {
    if (a.limb[i] != b.limb[i]) {
      return a.limb[i] < b.limb[i] ? std::strong_ordering::less
                                   : std::strong_ordering::greater;
    }
  }
  return std::strong_ordering::equal;
}

U256 U256::AddWithCarry(const U256& a, const U256& b, uint64_t* carry_out) {
  U256 out;
  uint64_t carry = 0;
  for (size_t i = 0; i < 4; ++i) {
    uint128 sum = static_cast<uint128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  if (carry_out != nullptr) *carry_out = carry;
  return out;
}

U256 U256::SubWithBorrow(const U256& a, const U256& b, uint64_t* borrow_out) {
  U256 out;
  uint64_t borrow = 0;
  for (size_t i = 0; i < 4; ++i) {
    uint128 diff = static_cast<uint128>(a.limb[i]) - b.limb[i] - borrow;
    out.limb[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
  if (borrow_out != nullptr) *borrow_out = borrow;
  return out;
}

U256 operator+(const U256& a, const U256& b) {
  return U256::AddWithCarry(a, b, nullptr);
}

U256 operator-(const U256& a, const U256& b) {
  return U256::SubWithBorrow(a, b, nullptr);
}

U512 U256::MulFull(const U256& a, const U256& b) {
  U512 out;
  for (size_t i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < 4; ++j) {
      uint128 cur = static_cast<uint128>(a.limb[i]) * b.limb[j] +
                    out.limb[i + j] + carry;
      out.limb[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limb[i + 4] = carry;
  }
  return out;
}

U256 operator*(const U256& a, const U256& b) {
  return U256::MulFull(a, b).Low();
}

U256 operator<<(const U256& a, size_t n) {
  if (n >= 256) return U256();
  U256 out;
  size_t limb_shift = n / 64;
  size_t bit_shift = n % 64;
  for (size_t i = 4; i-- > limb_shift;) {
    uint64_t v = a.limb[i - limb_shift] << bit_shift;
    if (bit_shift != 0 && i > limb_shift) {
      v |= a.limb[i - limb_shift - 1] >> (64 - bit_shift);
    }
    out.limb[i] = v;
  }
  return out;
}

U256 operator>>(const U256& a, size_t n) {
  if (n >= 256) return U256();
  U256 out;
  size_t limb_shift = n / 64;
  size_t bit_shift = n % 64;
  for (size_t i = 0; i + limb_shift < 4; ++i) {
    uint64_t v = a.limb[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < 4) {
      v |= a.limb[i + limb_shift + 1] << (64 - bit_shift);
    }
    out.limb[i] = v;
  }
  return out;
}

U256 operator&(const U256& a, const U256& b) {
  U256 out;
  for (size_t i = 0; i < 4; ++i) out.limb[i] = a.limb[i] & b.limb[i];
  return out;
}

U256 operator|(const U256& a, const U256& b) {
  U256 out;
  for (size_t i = 0; i < 4; ++i) out.limb[i] = a.limb[i] | b.limb[i];
  return out;
}

U256 operator^(const U256& a, const U256& b) {
  U256 out;
  for (size_t i = 0; i < 4; ++i) out.limb[i] = a.limb[i] ^ b.limb[i];
  return out;
}

U256DivMod DivMod(const U256& dividend, const U256& divisor) {
  HSIS_CHECK(!divisor.IsZero()) << "division by zero";
  U512DivMod wide = DivMod(U512::FromU256(dividend), divisor);
  return {wide.quotient.Low(), wide.remainder};
}

// ---------------------------------------------------------------------------
// U512
// ---------------------------------------------------------------------------

U512 U512::FromU256(const U256& v) {
  U512 out;
  for (size_t i = 0; i < 4; ++i) out.limb[i] = v.limb[i];
  return out;
}

bool U512::IsZero() const {
  uint64_t acc = 0;
  for (uint64_t l : limb) acc |= l;
  return acc == 0;
}

size_t U512::BitLength() const {
  for (size_t i = 8; i-- > 0;) {
    if (limb[i] != 0) {
      return i * 64 + (64 - static_cast<size_t>(__builtin_clzll(limb[i])));
    }
  }
  return 0;
}

std::strong_ordering operator<=>(const U512& a, const U512& b) {
  for (size_t i = 8; i-- > 0;) {
    if (a.limb[i] != b.limb[i]) {
      return a.limb[i] < b.limb[i] ? std::strong_ordering::less
                                   : std::strong_ordering::greater;
    }
  }
  return std::strong_ordering::equal;
}

U512 operator+(const U512& a, const U512& b) {
  U512 out;
  uint64_t carry = 0;
  for (size_t i = 0; i < 8; ++i) {
    uint128 sum = static_cast<uint128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  return out;
}

U512 operator-(const U512& a, const U512& b) {
  U512 out;
  uint64_t borrow = 0;
  for (size_t i = 0; i < 8; ++i) {
    uint128 diff = static_cast<uint128>(a.limb[i]) - b.limb[i] - borrow;
    out.limb[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
  return out;
}

U512 operator<<(const U512& a, size_t n) {
  if (n >= 512) return U512();
  U512 out;
  size_t limb_shift = n / 64;
  size_t bit_shift = n % 64;
  for (size_t i = 8; i-- > limb_shift;) {
    uint64_t v = a.limb[i - limb_shift] << bit_shift;
    if (bit_shift != 0 && i > limb_shift) {
      v |= a.limb[i - limb_shift - 1] >> (64 - bit_shift);
    }
    out.limb[i] = v;
  }
  return out;
}

U512 operator>>(const U512& a, size_t n) {
  if (n >= 512) return U512();
  U512 out;
  size_t limb_shift = n / 64;
  size_t bit_shift = n % 64;
  for (size_t i = 0; i + limb_shift < 8; ++i) {
    uint64_t v = a.limb[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < 8) {
      v |= a.limb[i + limb_shift + 1] << (64 - bit_shift);
    }
    out.limb[i] = v;
  }
  return out;
}

U256 U512::Mod(const U256& divisor) const {
  return DivMod(*this, divisor).remainder;
}

U512DivMod DivMod(const U512& dividend, const U256& divisor) {
  HSIS_CHECK(!divisor.IsZero()) << "division by zero";

  // Fast path: divisor fits in one limb — schoolbook short division.
  if (divisor.BitLength() <= 64) {
    uint64_t d = divisor.limb[0];
    U512 quotient;
    uint64_t rem = 0;
    for (size_t i = 8; i-- > 0;) {
      uint128 cur = (static_cast<uint128>(rem) << 64) | dividend.limb[i];
      quotient.limb[i] = static_cast<uint64_t>(cur / d);
      rem = static_cast<uint64_t>(cur % d);
    }
    return {quotient, U256(rem)};
  }

  // General case: bitwise long division (shift-subtract). The divisor has
  // > 64 bits, so the loop runs at most 512 iterations of 4-limb compares;
  // the hot modular paths use Montgomery arithmetic instead (see crypto/).
  U512 quotient;
  U512 rem;
  U512 wide_divisor = U512::FromU256(divisor);
  size_t n = dividend.BitLength();
  for (size_t i = n; i-- > 0;) {
    rem = rem << 1;
    if (dividend.Bit(i)) rem.limb[0] |= 1;
    if (rem >= wide_divisor) {
      rem = rem - wide_divisor;
      quotient.limb[i / 64] |= (1ULL << (i % 64));
    }
  }
  return {quotient, rem.Low()};
}

}  // namespace hsis
