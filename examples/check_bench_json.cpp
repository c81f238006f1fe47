// Validates machine-readable bench records (`--json=PATH` output of
// the benches): reads the file, parses it against the strict
// hsis-bench-v1 schema (common/perf_record.h), and prints the decoded
// fields. Exit code 0 means every record is well-formed and sensible;
// CI's bench smoke steps pipe fresh records through this checker so a
// schema regression fails the build rather than silently producing
// garbage artifacts.
//
//   check_bench_json FILE.json [--min-cells-per-sec=X] [--lines=N]
//                    [--min-lines=N]
//
// By default the file must hold exactly one record. Multi-record
// artifacts (one JSON object per line, e.g. the serving-latency bench's
// BENCH_6.json) pass --lines=N to require exactly N records; every line
// must parse and --min-cells-per-sec applies to each. --min-lines=N
// requires *at least* N records instead — the right check for the
// committed BENCH_*.json archives, whose record counts differ.

#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "common/flags.h"
#include "common/perf_record.h"

using namespace hsis;

namespace {

constexpr char kUsage[] =
    "usage: check_bench_json FILE.json "
    "[--min-cells-per-sec=X] [--lines=N] [--min-lines=N]\n";

}  // namespace

int main(int argc, char** argv) {
  constexpr int64_t kMaxLines = std::numeric_limits<int64_t>::max();
  double min_cells_per_sec = 0;
  int64_t expected_lines = -1;  // -1: legacy single-record mode
  int64_t min_lines = -1;       // -1: exact count mode (expected_lines)
  const std::vector<std::string> positionals = common::ReadCommandLine(
      argc, argv,
      {common::NumberFlag("--min-cells-per-sec", 0,
                          std::numeric_limits<double>::max(),
                          &min_cells_per_sec),
       common::IntFlag("--lines", 1, kMaxLines, &expected_lines),
       common::IntFlag("--min-lines", 1, kMaxLines, &min_lines)},
      kUsage, /*max_positionals=*/1);
  if (positionals.empty()) return common::PrintUsage(kUsage);
  const char* path = positionals[0].c_str();

  auto content = ReadFile(path);
  if (!content.ok()) return common::Fail(content.status());

  // Split into non-empty lines; each line is one strict record.
  std::vector<std::string_view> lines;
  std::string_view rest = *content;
  while (!rest.empty()) {
    size_t eol = rest.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    if (!line.empty()) lines.push_back(line);
  }
  if (min_lines >= 0) {
    if (lines.size() < static_cast<size_t>(min_lines)) {
      std::fprintf(stderr, "%s: expected at least %lld record line(s), found "
                   "%zu\n", path, static_cast<long long>(min_lines),
                   lines.size());
      return 1;
    }
  } else {
    size_t want = expected_lines < 0 ? 1 : static_cast<size_t>(expected_lines);
    if (lines.size() != want) {
      std::fprintf(stderr, "%s: expected %zu record line(s), found %zu\n",
                   path, want, lines.size());
      return 1;
    }
  }

  for (size_t i = 0; i < lines.size(); ++i) {
    auto record = common::ParsePerfRecord(lines[i]);
    if (!record.ok()) {
      std::fprintf(stderr, "%s line %zu: %s\n", path, i + 1,
                   record.status().ToString().c_str());
      return 1;
    }
    if (record->cells_per_sec < min_cells_per_sec) {
      std::fprintf(stderr,
                   "%s line %zu (%s): cells_per_sec %.0f below required "
                   "minimum %.0f\n",
                   path, i + 1, record->bench.c_str(), record->cells_per_sec,
                   min_cells_per_sec);
      return 1;
    }
    std::printf("%s line %zu: ok\n", path, i + 1);
    std::printf("  bench         %s\n", record->bench.c_str());
    std::printf("  threads       %d\n", record->threads);
    std::printf("  lane          %s\n", record->lane.c_str());
    if (!record->algo.empty()) {
      std::printf("  algo          %s\n", record->algo.c_str());
    }
    std::printf("  cells_per_sec %.0f\n", record->cells_per_sec);
    std::printf("  wall_ms       %.3f\n", record->wall_ms);
    std::printf("  git_describe  %s\n", record->git_describe.c_str());
  }
  return 0;
}
