#ifndef HSIS_COMMON_WIRE_H_
#define HSIS_COMMON_WIRE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"

/// \file
/// \brief The one strict byte cursor every binary parser reads through.
///
/// Formats write with the `Append*` helpers of common/bytes.h
/// (big-endian integers, `[len:u32 BE][len bytes]` strings) and read
/// back with a `WireReader`. Each accessor checks bounds once, and
/// `Finish()` rejects trailing bytes, so a parser that ends in
/// `Finish()` accepts exactly the bytes its serializer writes.
///
/// Every failure is `Status(code, "<context>: <defect>")`, where `code`
/// is the status code of the format being read (`ProtocolViolation` for
/// the wire protocols, `IntegrityViolation` for shard payloads,
/// `InvalidArgument` for saved state). The first failure poisons the
/// cursor: every later read and `Finish()` returns that same status, so
/// a parser may read a run of fields and check only the last one.

namespace hsis {

/// Sequential strict reader over a borrowed byte span (the bytes must
/// outlive the reader and every span it returns).
class WireReader {
 public:
  /// Reads `bytes`; failures carry `code` and start with `context`.
  WireReader(std::span<const uint8_t> bytes, StatusCode code,
             const char* context)
      : rest_(bytes), code_(code), context_(context) {}

  /// One byte.
  Result<uint8_t> U8();

  /// One byte that must be 0 or 1.
  Result<bool> Bool();

  /// A 4-byte big-endian integer.
  Result<uint32_t> U32();

  /// An 8-byte big-endian integer.
  Result<uint64_t> U64();

  /// The next `n` bytes, as a view into the input.
  Result<std::span<const uint8_t>> Raw(size_t n);

  /// A `[len:u32 BE][len bytes]` field with `len <= max`, as a view
  /// into the input.
  Result<std::span<const uint8_t>> LengthPrefixed(
      uint32_t max = std::numeric_limits<uint32_t>::max());

  /// OK iff no read failed and every byte was consumed.
  Status Finish();

  /// Records `defect` as this format's failure and returns it; for the
  /// value checks only the parser can make (a bad magic, a version).
  Status Fail(std::string_view defect);

  /// Bytes not yet read.
  size_t remaining() const { return rest_.size(); }

 private:
  /// The first `n` unread bytes, consumed; fails naming `field`.
  Result<const uint8_t*> Take(size_t n, const char* field);

  std::span<const uint8_t> rest_;
  StatusCode code_;
  const char* context_;
  Status status_;  ///< First failure; OK until one happens.
};

}  // namespace hsis

#endif  // HSIS_COMMON_WIRE_H_
