#ifndef HSIS_COMMON_BYTES_H_
#define HSIS_COMMON_BYTES_H_

#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace hsis {

/// Raw byte buffer used throughout the crypto and protocol layers.
using Bytes = std::vector<uint8_t>;

/// Converts a string's characters to bytes (no encoding applied).
Bytes ToBytes(std::string_view s);

/// Converts raw bytes to a std::string (byte-for-byte).
std::string BytesToString(const Bytes& b);

/// Hex-encodes `b` using lowercase digits.
std::string HexEncode(const Bytes& b);

/// Decodes a hex string (case-insensitive). Fails on odd length or
/// non-hex characters.
Result<Bytes> HexDecode(std::string_view hex);

/// Appends `src` to `dst`.
void Append(Bytes& dst, const Bytes& src);

/// Appends a 4-byte big-endian encoding of `v`.
void AppendUint32BE(Bytes& dst, uint32_t v);

/// Appends an 8-byte big-endian encoding of `v`.
void AppendUint64BE(Bytes& dst, uint64_t v);

/// Reads a 4-byte big-endian integer at `offset`; caller guarantees bounds.
uint32_t ReadUint32BE(const Bytes& src, size_t offset);

/// Reads an 8-byte big-endian integer at `offset`; caller guarantees bounds.
uint64_t ReadUint64BE(const Bytes& src, size_t offset);

/// `v` with its bytes in big-endian order, and back: a byte swap on a
/// little-endian host.
inline uint64_t BigEndian64(uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  } else {
    return v;
  }
}

/// The order of `a <=> b` (unsigned bytes, a prefix first), minus the
/// libstdc++ path GCC 12 flags at -O3 (a false -Wstringop-overread).
inline std::strong_ordering CompareBytes(const Bytes& a, const Bytes& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  return c != 0 ? c <=> 0 : a.size() <=> b.size();
}

/// Appends a length-prefixed (uint32 BE) byte string; the standard framing
/// used by the message layer, read back by `WireReader::LengthPrefixed`
/// (common/wire.h).
void AppendLengthPrefixed(Bytes& dst, const Bytes& payload);

/// Constant-time equality (length leaks, contents do not). Use for
/// comparing MACs and hash commitments.
bool ConstantTimeEqual(const Bytes& a, const Bytes& b);

/// Constant-time equality of the `n` bytes at `a` and at `b`.
bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t n);

}  // namespace hsis

#endif  // HSIS_COMMON_BYTES_H_
