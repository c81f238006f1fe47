#include "common/flags.h"

#include <cmath>
#include <string>

namespace hsis::common {

Result<int64_t> ParseIntFlag(std::string_view flag, std::string_view text,
                             int64_t min, int64_t max) {
  int64_t value = 0;
  if (ParseDecimal(text, &value) && value >= min && value <= max) {
    return value;
  }
  return Status::InvalidArgument(
      std::string(flag) + " expects an integer in [" + std::to_string(min) +
      ", " + std::to_string(max) + "], got '" + std::string(text) + "'");
}

Result<double> ParseNumberFlag(std::string_view flag, std::string_view text,
                               double min, double max) {
  double value = 0;
  if (ParseDecimal(text, &value) && std::isfinite(value) && value >= min &&
      value <= max) {
    return value;
  }
  char range[64];
  std::snprintf(range, sizeof(range), "[%g, %g]", min, max);
  return Status::InvalidArgument(std::string(flag) +
                                 " expects a finite number in " + range +
                                 ", got '" + std::string(text) + "'");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

int PrintUsage(const char* usage) {
  std::fputs(usage, stderr);
  return kExitUsage;
}

Flag SwitchFlag(std::string_view name, bool* on) {
  return {name, false, [on](std::string_view) {
            *on = true;
            return Status::OK();
          }};
}

Flag NumberFlag(std::string_view name, double min, double max, double* out) {
  return ParsedFlag(name, out, [name, min, max](std::string_view text) {
    return ParseNumberFlag(name, text, min, max);
  });
}

void ReadFlags(int argc, char** argv, const std::vector<Flag>& table,
               const std::function<void(char* arg)>& leftover) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* match = nullptr;
    std::string_view value;
    for (const Flag& flag : table) {
      if (!arg.starts_with(flag.name)) continue;
      const std::string_view rest = arg.substr(flag.name.size());
      if (flag.takes_value ? rest.starts_with('=') : rest.empty()) {
        match = &flag;
        value = flag.takes_value ? rest.substr(1) : rest;
        break;
      }
    }
    if (match == nullptr) {
      leftover(argv[i]);
      continue;
    }
    if (Status status = match->set(value); !status.ok()) {
      FlagOrExit<int>(std::move(status));
    }
  }
}

std::vector<std::string> ReadCommandLine(int argc, char** argv,
                                         const std::vector<Flag>& table,
                                         const char* usage,
                                         size_t max_positionals) {
  std::vector<std::string> positionals;
  ReadFlags(argc, argv, table, [&](char* arg) {
    const bool flag = std::string_view(arg).starts_with("--");
    if (flag || positionals.size() >= max_positionals) {
      std::fprintf(stderr, "%s %s\n",
                   flag ? "unknown flag" : "unexpected argument", arg);
      std::exit(PrintUsage(usage));
    }
    positionals.emplace_back(arg);
  });
  return positionals;
}

}  // namespace hsis::common
