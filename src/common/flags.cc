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

}  // namespace hsis::common
