// hsis_perfbench: one benchmark run of one workload.
//
//   hsis_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--scratch <dir>] [--git-describe <text>]
//
// Prints a human-readable report, a provenance line, and as its last
// line one JSON object: {"correct", "attempted", "failed", "values"},
// where "values" maps the name of every metric the run measured to its
// value. With --trace 0 these are the end-to-end metrics. With --trace 1
// they are the per-layer metrics of a traced run: `<layer>.count`,
// `.busy_ms` and `.self_ms` per layer, `<span>.calls` and
// `<span>.busy_ms` per span name, and the workload's own counters and
// ratios. perfbench/run.py picks from them the metrics BENCHMARK.json
// lists. Exits 1 when an output check fails, 2 on bad arguments.

#include <sys/resource.h>
#include <unistd.h>

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "common/simd_dispatch.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr const char* kLayers[] = {"crypto", "sovereign", "audit", "core",
                                   "serve",  "game",      "common"};
// The end-to-end metrics each layer should move.
constexpr const char* kLayerMoves[] = {
    "session_tuples_per_s, exchange_p50_ms",
    "session_tuples_per_s, exchange_p95_ms",
    "exchanges_per_s, exchange_p50_ms",
    "exchanges_per_s",
    "query_p50_ns, query_p99_ns, batch_queries_per_s, explain_per_s",
    "query_p99_ns",
    "session_tuples_per_s"};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: hsis_perfbench --workload "
               "<session_bulk|exchange_mix|query_zipf> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--git-describe <text>]\n",
               why);
  std::exit(2);
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

std::string Provenance(const std::string& git_describe) {
  auto lane = hsis::common::ActiveSimdLane();
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + JsonEscape(CpuModel()) + "\", \"simd_lane\": \"" +
         (lane.ok() ? hsis::common::SimdLaneName(*lane) : "unresolved") +
         "\", \"ndebug\": " + (ndebug ? "true" : "false") +
         ", \"compiler\": \"" + JsonEscape(kCompiler) +
         "\", \"git_describe\": \"" + JsonEscape(git_describe) + "\"}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string git_describe = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed must be a number");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (value.empty() || *end != '\0' || options.seconds < 1) {
        Usage("--seconds must be a positive number");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--git-describe") {
      git_describe = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.scratch.empty()) options.scratch = ".";

  WorkloadResult (*run)(const RunOptions&, Tracer&) = nullptr;
  if (options.workload == "session_bulk") run = RunSessionBulk;
  if (options.workload == "exchange_mix") run = RunExchangeMix;
  if (options.workload == "query_zipf") run = RunQueryZipf;
  if (run == nullptr) Usage(("unknown workload " + options.workload).c_str());

  std::printf("== hsis benchmark: workload %s, seed %llu, %d s, trace %d ==\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Tracer tracer(options.trace);
  WorkloadResult r = run(options, tracer);
  const double rss_mb = PeakRssMb();

  std::map<std::string, double> values;
  if (!options.trace) {
    const double error_rate =
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0;
    std::printf("\nend-to-end metrics (workload name -> role in "
                "BENCHMARK.json):\n");
    std::printf("  %-24s %-18s %16s %-6s %9s  %s\n", "metric", "role", "value",
                "unit", "samples", "detail");
    auto row = [](const std::string& role, const Timing& t) {
      std::printf("  %-24s %-18s %16.6g %-6s %9zu  %s\n", t.name.c_str(),
                  role.c_str(), t.value, t.unit.c_str(), t.samples,
                  t.detail.c_str());
    };
    row("setup_s", {"setup_s", r.setup_s, "s", 0,
                    "repeated set-ups, see perfbench/README.md"});
    row("(attempted/failed)",
        {"error_rate", error_rate, "ratio", r.attempted,
         std::to_string(r.failed) + " of " + std::to_string(r.attempted)});
    row("peak_rss_mb", {"peak_rss_mb", rss_mb, "MiB", 1, "getrusage ru_maxrss"});
    row("throughput_per_s", r.throughput);
    row("latency_p50_ms", r.p50);
    row("latency_tail_ms", r.tail);
    row("secondary_ms", r.secondary);
    for (const Timing& t : r.extra) row("-", t);
    values = {{"setup_s", r.setup_s},
              {"peak_rss_mb", rss_mb},
              {"throughput_per_s", r.throughput.value},
              {"latency_p50_ms", r.p50.value},
              {"latency_tail_ms", r.tail.value},
              {"secondary_ms", r.secondary.value}};
  } else {
    for (const auto& [name, t] : tracer.TotalsByName()) {
      values[name + ".calls"] = static_cast<double>(t.count);
      values[name + ".busy_ms"] = t.busy_ms;
    }
    const auto by_layer = tracer.TotalsByLayer();
    std::printf("\nper-layer totals of the traced run:\n");
    std::printf("  %-10s %10s %12s %12s  %s\n", "layer", "count", "busy_ms",
                "self_ms", "moves");
    for (size_t i = 0; i < std::size(kLayers); ++i) {
      const std::string layer = kLayers[i];
      SpanTotals t;
      if (auto it = by_layer.find(layer); it != by_layer.end()) t = it->second;
      std::printf("  %-10s %10llu %12.3f %12.3f  %s\n", layer.c_str(),
                  static_cast<unsigned long long>(t.count), t.busy_ms,
                  t.self_ms, kLayerMoves[i]);
      values[layer + ".count"] = static_cast<double>(t.count);
      values[layer + ".busy_ms"] = t.busy_ms;
      values[layer + ".self_ms"] = t.self_ms;
    }
    values["trace.spans"] = static_cast<double>(tracer.Collect().size());
    std::printf("\nworkload counters and ratios:\n");
    for (const auto& [name, value] : r.layer) {
      std::printf("  %-36s %16.6g\n", name.c_str(), value);
      values[name] = value;
    }
    const std::string trace_path = options.scratch + "/trace-" +
                                   options.workload + "-" +
                                   std::to_string(options.seed) + ".json";
    if (tracer.WriteChromeTrace(trace_path, 200000)) {
      std::printf("  spans written to %s\n", trace_path.c_str());
    }
  }
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::map<std::string, int> failures;
  for (const std::string& failure : r.gate_failures) ++failures[failure];
  for (const auto& [failure, times] : failures) {
    std::printf("CHECK FAILED (%dx): %s\n", times, failure.c_str());
  }
  std::printf("# provenance %s\n", Provenance(git_describe).c_str());
  std::string json;
  for (const auto& [name, value] : values) {
    if (!json.empty()) json += ", ";
    json += "\"" + name + "\": " + Num(value);
  }
  const bool correct = r.gate_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"values\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  return correct ? 0 : 1;
}
