#include "common/wire.h"

namespace hsis {

Result<const uint8_t*> WireReader::Take(size_t n, const char* field) {
  if (!status_.ok()) return status_;
  if (n > rest_.size()) {
    return Fail(std::string("truncated ") + field + ": needs " +
                std::to_string(n) + " byte(s), " +
                std::to_string(rest_.size()) + " left");
  }
  const uint8_t* at = rest_.data();
  rest_ = rest_.subspan(n);
  return at;
}

Result<uint8_t> WireReader::U8() {
  HSIS_ASSIGN_OR_RETURN(const uint8_t* p, Take(1, "u8 field"));
  return *p;
}

Result<bool> WireReader::Bool() {
  HSIS_ASSIGN_OR_RETURN(uint8_t v, U8());
  if (v > 1) {
    return Fail("boolean field is " + std::to_string(v) + ", not 0 or 1");
  }
  return v == 1;
}

Result<uint32_t> WireReader::U32() {
  HSIS_ASSIGN_OR_RETURN(const uint8_t* p, Take(4, "u32 field"));
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

Result<uint64_t> WireReader::U64() {
  HSIS_ASSIGN_OR_RETURN(uint32_t hi, U32());
  HSIS_ASSIGN_OR_RETURN(uint32_t lo, U32());
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

Result<std::span<const uint8_t>> WireReader::Raw(size_t n) {
  HSIS_ASSIGN_OR_RETURN(const uint8_t* p, Take(n, "byte run"));
  return std::span<const uint8_t>(p, n);
}

Result<std::span<const uint8_t>> WireReader::LengthPrefixed(uint32_t max) {
  HSIS_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (len > max) {
    return Fail("length-prefixed field of " + std::to_string(len) +
                " bytes exceeds the " + std::to_string(max) + "-byte limit");
  }
  HSIS_ASSIGN_OR_RETURN(const uint8_t* p, Take(len, "length-prefixed field"));
  return std::span<const uint8_t>(p, len);
}

Status WireReader::Finish() {
  if (!status_.ok()) return status_;
  if (!rest_.empty()) {
    return Fail(std::to_string(rest_.size()) + " trailing byte(s)");
  }
  return Status::OK();
}

Status WireReader::Fail(std::string_view defect) {
  if (status_.ok()) {
    status_ = Status(code_, std::string(context_) + ": " + std::string(defect));
  }
  return status_;
}

}  // namespace hsis
