#include "common/perf_record.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/flags.h"

namespace hsis::common {

namespace {

void AppendJsonString(std::string& out, std::string_view value) {
  out += '"';
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        // JSON forbids raw control characters inside strings; anything
        // below 0x20 without a short escape goes out as \u00XX so a
        // hostile bench/sweep label can never emit an invalid record.
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendJsonNumber(std::string& out, double value) {
  char buf[40];
  int len = std::snprintf(buf, sizeof(buf), "%.17g", value);
  out.append(buf, static_cast<size_t>(len));
}

/// Minimal strict scanner over the flat record object. Tracks a cursor
/// into the input; every helper fails with InvalidArgument, prefixed by
/// the record's label, on the first byte that does not fit the expected
/// token.
class Scanner {
 public:
  Scanner(std::string_view input, const char* what)
      : input_(input), what_(what) {}

  Status Error(const std::string& defect) const {
    return Status::InvalidArgument(what_ + (": " + defect));
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\t' ||
            input_[pos_] == '\n' || input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ == input_.size();
  }

  Result<std::string> String() {
    SkipSpace();
    if (pos_ >= input_.size() || input_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < input_.size() && input_[pos_] != '"') {
      char c = input_[pos_++];
      if (c == '\\') {
        if (pos_ >= input_.size()) break;
        char esc = input_[pos_++];
        if (esc == 'n') {
          out += '\n';
        } else if (esc == 't') {
          out += '\t';
        } else if (esc == 'r') {
          out += '\r';
        } else if (esc == '"' || esc == '\\') {
          out += esc;
        } else if (esc == 'u') {
          // \uXXXX — the serializer only emits code points below 0x20,
          // but accept anything in the single-byte range; multi-byte
          // code points are rejected (labels are byte strings here).
          if (pos_ + 4 > input_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = input_[pos_++];
            unsigned digit;
            if (h >= '0' && h <= '9') {
              digit = static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              digit = static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              digit = static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("malformed \\u escape");
            }
            code = code * 16 + digit;
          }
          if (code > 0xFF) {
            return Error("\\u escape beyond single-byte range");
          }
          out += static_cast<char>(code);
        } else {
          return Error("unsupported escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        // Raw control characters are invalid JSON — exactly the bytes
        // the serializer escapes; a record containing one was produced
        // by a broken writer.
        return Error("raw control character in string");
      } else {
        out += c;
      }
    }
    if (pos_ >= input_.size()) {
      return Error("unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  Result<double> Number() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '-' || input_[pos_] == '+' ||
            input_[pos_] == '.' || input_[pos_] == 'e' ||
            input_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected number");
    }
    std::string token(input_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("malformed number");
    }
    return value;
  }

 private:
  std::string_view input_;
  std::string what_;
  size_t pos_ = 0;
};

/// How a field's key may be absent from a record.
enum class Presence {
  kRequired,   ///< Always written; parsing fails without it.
  kDefaulted,  ///< Always written; absent parses as the struct default.
  kOmitEmpty,  ///< Written only when non-empty; absent parses as empty.
};

/// One key of a flat record: its JSON name, the member it holds (whose
/// type is the key's kind: string, int or double) and its presence.
template <typename R>
struct Field {
  std::string_view key;
  std::variant<std::string R::*, int R::*, double R::*> member;
  Presence presence = Presence::kRequired;
};

void AppendJsonValue(std::string& out, const std::string& value) {
  AppendJsonString(out, value);
}
void AppendJsonValue(std::string& out, int value) {
  out += std::to_string(value);
}
void AppendJsonValue(std::string& out, double value) {
  AppendJsonNumber(out, value);
}

Status ReadJsonValue(Scanner& scanner, std::string_view, std::string& out) {
  HSIS_ASSIGN_OR_RETURN(out, scanner.String());
  return Status::OK();
}
Status ReadJsonValue(Scanner& scanner, std::string_view, double& out) {
  HSIS_ASSIGN_OR_RETURN(out, scanner.Number());
  return Status::OK();
}
Status ReadJsonValue(Scanner& scanner, std::string_view key, int& out) {
  HSIS_ASSIGN_OR_RETURN(double value, scanner.Number());
  if (!(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max()) ||
      value != std::trunc(value)) {
    return scanner.Error("'" + std::string(key) + "' must be an integer");
  }
  out = static_cast<int>(value);
  return Status::OK();
}

/// Writes `record` as one line: the schema tag, then `fields` in order.
template <typename R>
std::string RecordToJson(const R& record, const char* schema,
                         std::span<const Field<R>> fields) {
  std::string out = "{\"schema\":";
  AppendJsonString(out, schema);
  for (const Field<R>& field : fields) {
    std::visit(
        [&](auto member) {
          const auto& value = record.*member;
          if constexpr (std::is_same_v<decltype(value), const std::string&>) {
            if (field.presence == Presence::kOmitEmpty && value.empty()) {
              return;
            }
          }
          out += ",\"";
          out += field.key;
          out += "\":";
          AppendJsonValue(out, value);
        },
        field.member);
  }
  out += "}\n";
  return out;
}

/// Strict inverse of `RecordToJson`: keys in any order, each at most
/// once, none unknown, every required one present; then `Validate()`.
template <typename R>
Result<R> ParseRecord(std::string_view json, const char* schema,
                      const char* what, std::span<const Field<R>> fields) {
  Scanner scanner(json, what);
  if (!scanner.Consume('{')) return scanner.Error("expected '{'");
  R record;
  // Index i marks fields[i]; the last slot marks the schema tag.
  std::vector<bool> seen(fields.size() + 1, false);
  bool first = true;
  while (!scanner.Consume('}')) {
    if (!first && !scanner.Consume(',')) {
      return scanner.Error("expected ',' or '}'");
    }
    first = false;
    HSIS_ASSIGN_OR_RETURN(std::string key, scanner.String());
    if (!scanner.Consume(':')) return scanner.Error("expected ':' after key");
    size_t i = 0;
    while (i < fields.size() && fields[i].key != key) ++i;
    if (i == fields.size() && key != "schema") {
      return scanner.Error("unknown key '" + key + "'");
    }
    if (seen[i]) return scanner.Error("duplicate key '" + key + "'");
    seen[i] = true;
    if (i == fields.size()) {
      HSIS_ASSIGN_OR_RETURN(std::string tag, scanner.String());
      if (tag != schema) return scanner.Error("unknown schema '" + tag + "'");
      continue;
    }
    HSIS_RETURN_IF_ERROR(std::visit(
        [&](auto member) {
          return ReadJsonValue(scanner, key, record.*member);
        },
        fields[i].member));
  }
  if (!scanner.AtEnd()) {
    return scanner.Error("trailing bytes after record object");
  }
  if (!seen[fields.size()]) return scanner.Error("missing key 'schema'");
  for (size_t i = 0; i < fields.size(); ++i) {
    if (!seen[i] && fields[i].presence == Presence::kRequired) {
      return scanner.Error("missing required key '" +
                           std::string(fields[i].key) + "'");
    }
  }
  HSIS_RETURN_IF_ERROR(record.Validate());
  return record;
}

const Field<PerfRecord> kPerfRecordFields[] = {
    {"bench", &PerfRecord::bench},
    {"threads", &PerfRecord::threads},
    // Absent in records written before BENCH_8: "scalar".
    {"lane", &PerfRecord::lane, Presence::kDefaulted},
    // Only benches that compare algorithm variants write it.
    {"algo", &PerfRecord::algo, Presence::kOmitEmpty},
    {"cells_per_sec", &PerfRecord::cells_per_sec},
    {"wall_ms", &PerfRecord::wall_ms},
    {"git_describe", &PerfRecord::git_describe},
};

const Field<ScheduleRecord> kScheduleRecordFields[] = {
    {"sweep", &ScheduleRecord::sweep},
    {"shards", &ScheduleRecord::shards},
    {"resumed", &ScheduleRecord::resumed},
    {"retries", &ScheduleRecord::retries},
    {"quarantined", &ScheduleRecord::quarantined},
    {"timeouts", &ScheduleRecord::timeouts},
    {"attempts", &ScheduleRecord::attempts},
    {"wall_ms", &ScheduleRecord::wall_ms},
};

/// Parses `text` as comma-joined per-shard attempt counts ("1,2,0"),
/// each in [0, INT_MAX]; used by `ScheduleRecord::Validate`.
Result<std::vector<int64_t>> ParseAttemptsList(std::string_view text) {
  std::vector<int64_t> out;
  for (;;) {
    size_t comma = text.find(',');
    auto attempts = ParseIntFlag("attempts", text.substr(0, comma), 0,
                                 std::numeric_limits<int>::max());
    if (!attempts.ok()) {
      return Status::InvalidArgument("schedule record: " +
                                     attempts.status().message());
    }
    out.push_back(*attempts);
    if (comma == std::string_view::npos) return out;
    text.remove_prefix(comma + 1);
  }
}

}  // namespace

Status PerfRecord::Validate() const {
  if (bench.empty()) {
    return Status::InvalidArgument("perf record: bench name is empty");
  }
  if (git_describe.empty()) {
    return Status::InvalidArgument("perf record: git_describe is empty");
  }
  if (threads < 1) {
    return Status::InvalidArgument("perf record: threads must be >= 1");
  }
  if (lane.empty()) {
    return Status::InvalidArgument("perf record: lane is empty");
  }
  if (!std::isfinite(cells_per_sec) || cells_per_sec <= 0) {
    return Status::InvalidArgument(
        "perf record: cells_per_sec must be finite and > 0");
  }
  if (!std::isfinite(wall_ms) || wall_ms < 0) {
    return Status::InvalidArgument(
        "perf record: wall_ms must be finite and >= 0");
  }
  return Status::OK();
}

std::string PerfRecordToJson(const PerfRecord& record) {
  return RecordToJson<PerfRecord>(record, kPerfRecordSchema,
                                  kPerfRecordFields);
}

Result<PerfRecord> ParsePerfRecord(std::string_view json) {
  return ParseRecord<PerfRecord>(json, kPerfRecordSchema, "perf record",
                                 kPerfRecordFields);
}

Status ScheduleRecord::Validate() const {
  if (sweep.empty()) {
    return Status::InvalidArgument("schedule record: sweep name is empty");
  }
  if (shards < 1) {
    return Status::InvalidArgument("schedule record: shards must be >= 1");
  }
  if (resumed < 0 || retries < 0 || quarantined < 0 || timeouts < 0) {
    return Status::InvalidArgument(
        "schedule record: counters must be non-negative");
  }
  if (!std::isfinite(wall_ms) || wall_ms < 0) {
    return Status::InvalidArgument(
        "schedule record: wall_ms must be finite and >= 0");
  }
  HSIS_ASSIGN_OR_RETURN(std::vector<int64_t> per_shard,
                        ParseAttemptsList(attempts));
  if (per_shard.size() != static_cast<size_t>(shards)) {
    return Status::InvalidArgument(
        "schedule record: attempts lists " +
        std::to_string(per_shard.size()) + " shards, record claims " +
        std::to_string(shards));
  }
  int64_t beyond_first = 0;
  for (int64_t a : per_shard) beyond_first += a > 1 ? a - 1 : 0;
  if (beyond_first != retries) {
    return Status::InvalidArgument(
        "schedule record: attempts imply " + std::to_string(beyond_first) +
        " retries, record claims " + std::to_string(retries));
  }
  return Status::OK();
}

std::string ScheduleRecordToJson(const ScheduleRecord& record) {
  return RecordToJson<ScheduleRecord>(record, kScheduleRecordSchema,
                                      kScheduleRecordFields);
}

Result<ScheduleRecord> ParseScheduleRecord(std::string_view json) {
  return ParseRecord<ScheduleRecord>(json, kScheduleRecordSchema,
                                     "schedule record", kScheduleRecordFields);
}

}  // namespace hsis::common
