#ifndef HSIS_COMMON_FLAGS_H_
#define HSIS_COMMON_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/result.h"

/// \file
/// \brief The one strict reader of operator-typed numbers: CLI flags,
/// positional arguments and request-line fields.
///
/// A value is the whole text in plain decimal (no whitespace, no '+',
/// no radix prefix, nothing trailing), finite, inside a closed range.
/// A rejected value is InvalidArgument naming the flag, the text and
/// the range. Every CLI exits `kExitUsage` (2) on a rejected flag and
/// 1 on a runtime failure.

namespace hsis::common {

/// Exit status of every CLI for bad usage or a rejected flag.
inline constexpr int kExitUsage = 2;

/// Strict whole-text decimal parse into `T` (`std::from_chars`): false
/// on empty text, junk, trailing bytes or a value outside `T`.
template <typename T>
bool ParseDecimal(std::string_view text, T* out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// `text` as an integer in `[min, max]`.
Result<int64_t> ParseIntFlag(std::string_view flag, std::string_view text,
                             int64_t min, int64_t max);

/// `text` as a finite number in `[min, max]`; "nan", "inf" and
/// overflowing values such as "1e999" are rejected.
Result<double> ParseNumberFlag(std::string_view flag, std::string_view text,
                               double min, double max);

/// For CLI `main`s: the parsed value, or prints the status to stderr
/// and exits `kExitUsage`.
template <typename T>
T FlagOrExit(Result<T> parsed) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    std::exit(kExitUsage);
  }
  return std::move(parsed).value();
}

}  // namespace hsis::common

#endif  // HSIS_COMMON_FLAGS_H_
