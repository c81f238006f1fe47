#ifndef HSIS_COMMON_FLAGS_H_
#define HSIS_COMMON_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/result.h"

/// \file
/// \brief The one strict reader of operator-typed numbers (CLI flags,
/// positional arguments and request-line fields) and the one flag table
/// every CLI and bench reads its command line through.
///
/// A value is the whole text in plain decimal (no whitespace, no '+',
/// no radix prefix, nothing trailing), finite, inside a closed range.
/// A rejected value is InvalidArgument naming the flag, the text and
/// the range. Every CLI exits `kExitUsage` (2) on a rejected flag and
/// 1 on a runtime failure (`Fail`).
///
/// A binary declares its flags once, as a table of `Flag` entries
/// (`SwitchFlag`, `TextFlag`, `IntFlag`, `NumberFlag`, and the shared
/// ones next to the option they set: `ThreadsFlag`, `ShardsFlag`,
/// `ScheduleFlags`, `serve::StreamFlags`). `ReadFlags` matches argv
/// against it in argv order: `--name=value` for a value flag, the bare
/// `--name` for a switch; anything else is left over. A rejected value
/// exits `kExitUsage` through `FlagOrExit`.
///
/// The leftover rule: a CLI (`ReadCommandLine`) refuses any leftover
/// that starts with "--", so an unknown flag, a switch given "=value"
/// and a value flag given without "=" all exit `kExitUsage`; the rest
/// are its positionals. The benches (`HSIS_BENCH_MAIN`) hand their
/// leftovers to google-benchmark. Leftovers are handed over as they are
/// reached, so the first bad argument in argv order decides the message.

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

/// For CLI `main`s: prints `status` to stderr and returns 1, the exit
/// status of a runtime failure.
int Fail(const Status& status);

/// For CLI `main`s: prints `usage` to stderr and returns `kExitUsage`.
int PrintUsage(const char* usage);

/// One entry of a flag table.
struct Flag {
  /// The flag with its leading "--", e.g. "--threads". Must outlive the
  /// table (a string literal).
  std::string_view name;
  /// True for `--name=value`; false for the bare switch `--name`.
  bool takes_value = true;
  /// Stores the text after '=' ("" for a switch); a non-OK status
  /// rejects the argument.
  std::function<Status(std::string_view value)> set;
};

/// The switch `name`: sets `*on` to true.
Flag SwitchFlag(std::string_view name, bool* on);

/// `name=TEXT`: stores the text verbatim in `*text`, a `std::string`
/// or a `std::optional<std::string>` (which tells an empty value from
/// an absent flag).
template <typename T>
Flag TextFlag(std::string_view name, T* text) {
  return {name, true, [text](std::string_view value) {
            *text = std::string(value);
            return Status::OK();
          }};
}

/// `name=V`: the value `parse(V)` returns (a `Result`, such as
/// `ParseThreadsValue`), stored in `*out`; a failed parse rejects the
/// argument with its status.
template <typename T, typename Parse>
Flag ParsedFlag(std::string_view name, T* out, Parse parse) {
  return {name, true, [out, parse](std::string_view text) {
            auto value = parse(text);
            if (value.ok()) *out = static_cast<T>(*value);
            return value.status();
          }};
}

/// `name=N`: an integer in `[min, max]` (`ParseIntFlag`) stored in
/// `*out`, whose type must hold every value of the range.
template <typename T>
Flag IntFlag(std::string_view name, int64_t min, int64_t max, T* out) {
  return ParsedFlag(name, out, [name, min, max](std::string_view text) {
    return ParseIntFlag(name, text, min, max);
  });
}

/// `name=X`: a finite number in `[min, max]` (`ParseNumberFlag`) stored
/// in `*out`.
Flag NumberFlag(std::string_view name, double min, double max, double* out);

/// Matches `argv[1..argc)` against `table` in argv order and runs the
/// matching entry's setter; a rejected value exits `kExitUsage`
/// (`FlagOrExit`). Each argument no entry consumes goes to `leftover`
/// when it is reached, before any later argument is read.
void ReadFlags(int argc, char** argv, const std::vector<Flag>& table,
               const std::function<void(char* arg)>& leftover);

/// For CLI `main`s: `ReadFlags`, then the leftover rule. Returns the
/// positional arguments, at most `max_positionals` of them. A leftover
/// starting with "--" prints "unknown flag ARG", a positional past the
/// cap prints "unexpected argument ARG"; either then prints `usage` and
/// exits `kExitUsage`.
std::vector<std::string> ReadCommandLine(int argc, char** argv,
                                         const std::vector<Flag>& table,
                                         const char* usage,
                                         size_t max_positionals = 0);

}  // namespace hsis::common

#endif  // HSIS_COMMON_FLAGS_H_
