// Serving-latency bench for the online mechanism-design query service
// (src/serve): replays a Zipf-skewed synthetic stream — the repetitive
// traffic production serving sees — through the uncached analytic path
// and the batch+memoized path, and reports throughput plus per-request
// latency percentiles for the warm-cache hot path.
//
//   bench_query_service [--count=N] [--domain=K] [--skew=S] [--seed=U]
//                       [--min-speedup=X] [--json=PATH]
//
// The analytic path serves what a single-query client receives: the
// full answer plus its structured derivation proof. The memoized batch
// path serves compact numeric answers (derivations materialize lazily
// on request), which is exactly why it can be an order of magnitude
// faster — and the cross-validation suite pins that both paths serve
// bit-identical numbers.
//
// --json writes five hsis-bench-v1 records (one JSON line each):
// query_service_analytic and query_service_warm_cache carry stream
// throughput (requests/sec) and total wall time; query_service_p50/
// p95/p99 carry the warm-cache per-request latency percentile as
// wall_ms and its reciprocal as requests/sec. CI's serving smoke step
// validates the shape with `check_bench_json --lines=5` and enforces a
// conservative --min-speedup floor.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/file.h"
#include "common/flags.h"
#include "common/perf_record.h"
#include "serve/query_service.h"
#include "serve/stream.h"

using namespace hsis;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

[[noreturn]] void Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  serve::StreamConfig stream_config;
  double min_speedup = 0;  // 0 = report only, no enforcement

  // Strip the bench-specific flags, then let bench_util consume the
  // standard ones (--json).
  constexpr int64_t kMaxCount = std::numeric_limits<int64_t>::max();
  constexpr double kMaxNumber = std::numeric_limits<double>::max();
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--count=", 8) == 0) {
      stream_config.count = static_cast<size_t>(common::FlagOrExit(
          common::ParseIntFlag("--count", argv[i] + 8, 0, kMaxCount)));
    } else if (std::strncmp(argv[i], "--domain=", 9) == 0) {
      stream_config.domain = static_cast<size_t>(common::FlagOrExit(
          common::ParseIntFlag("--domain", argv[i] + 9, 0, kMaxCount)));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      stream_config.seed = static_cast<uint64_t>(common::FlagOrExit(
          common::ParseIntFlag("--seed", argv[i] + 7, 0, kMaxCount)));
    } else if (std::strncmp(argv[i], "--skew=", 7) == 0) {
      stream_config.skew = common::FlagOrExit(
          common::ParseNumberFlag("--skew", argv[i] + 7, 0, kMaxNumber));
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = common::FlagOrExit(common::ParseNumberFlag(
          "--min-speedup", argv[i] + 14, 0, kMaxNumber));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  bench::ConsumeFlags(&argc, argv);

  auto stream_or = serve::MakeSyntheticStream(stream_config);
  if (!stream_or.ok()) Fail(stream_or.status());
  const std::vector<serve::QueryRequest>& stream = *stream_or;
  const size_t count = stream.size();

  auto service_or = serve::QueryService::Create({});
  if (!service_or.ok()) Fail(service_or.status());
  serve::QueryService service = std::move(*service_or);

  bench::PrintRule("query service: serving-latency bench");
  std::printf("stream: %zu requests over %zu points, skew %g, seed %llu\n\n",
              count, stream_config.domain, stream_config.skew,
              static_cast<unsigned long long>(stream_config.seed));

  // --- Path 1: uncached analytic serving (answer + derivation proof),
  // what a proof-carrying single-query client costs per request.
  auto analytic_start = std::chrono::steady_clock::now();
  size_t dominant = 0;
  for (const serve::QueryRequest& request : stream) {
    auto derivation = service.Explain(request);
    if (!derivation.ok()) Fail(derivation.status());
    dominant += derivation->honest_is_dominant ? 1 : 0;
  }
  const double analytic_ms = MsSince(analytic_start);
  const double analytic_rps = 1000.0 * static_cast<double>(count) /
                              analytic_ms;
  std::printf("analytic (answer+proof): %10.1f ms  %12.0f req/s\n",
              analytic_ms, analytic_rps);

  // --- Path 2: batch + memoized serving. Warm the cache with one full
  // pass, then measure the steady state.
  game::kernel::DeviceAnswersSoA answers;
  if (Status s = service.AnswerBatchCached(stream.data(), count, answers);
      !s.ok()) {
    Fail(s);
  }
  auto warm_start = std::chrono::steady_clock::now();
  if (Status s = service.AnswerBatchCached(stream.data(), count, answers);
      !s.ok()) {
    Fail(s);
  }
  const double warm_ms = MsSince(warm_start);
  const double warm_rps = 1000.0 * static_cast<double>(count) / warm_ms;
  const double speedup = warm_rps / analytic_rps;
  std::printf("warm memoized batch:     %10.1f ms  %12.0f req/s  "
              "(speedup %.1fx)\n",
              warm_ms, warm_rps, speedup);

  serve::CacheStats stats = service.Stats();
  std::printf("cache: %llu hits / %llu misses / %llu entries\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.entries));

  // Sanity: the two paths agreed on every verdict.
  size_t batch_dominant = 0;
  for (size_t i = 0; i < count; ++i) {
    batch_dominant += answers.effectiveness[i] ==
                              game::DeviceEffectiveness::kTransformative
                          ? 1
                          : 0;
  }
  if (batch_dominant != dominant) {
    std::fprintf(stderr,
                 "verdict mismatch: analytic %zu vs batch %zu dominant\n",
                 dominant, batch_dominant);
    return 1;
  }

  // --- Per-request latency percentiles on the warm single-query
  // cached path (the online serving hot path).
  std::vector<double> latency_ns;
  latency_ns.reserve(count);
  for (const serve::QueryRequest& request : stream) {
    auto start = std::chrono::steady_clock::now();
    auto answer = service.AnswerCached(request);
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!answer.ok()) Fail(answer.status());
    latency_ns.push_back(std::max(ns, 1.0));  // clock-resolution floor
  }
  std::sort(latency_ns.begin(), latency_ns.end());
  auto percentile = [&](double p) {
    size_t index = static_cast<size_t>(p * static_cast<double>(count - 1));
    return latency_ns[index];
  };
  const double p50 = percentile(0.50), p95 = percentile(0.95),
               p99 = percentile(0.99);
  std::printf("warm cached single-query latency: p50 %.0f ns, p95 %.0f ns, "
              "p99 %.0f ns\n",
              p50, p95, p99);

  if (!bench::JsonPath().empty()) {
    auto record = [&](const char* name, double rps, double wall_ms) {
      common::PerfRecord r;
      r.bench = name;
      r.threads = 1;
      r.cells_per_sec = rps;
      r.wall_ms = wall_ms;
      r.git_describe = bench::GitDescribe();
      if (Status s = r.Validate(); !s.ok()) Fail(s);
      return common::PerfRecordToJson(r);
    };
    std::string lines;
    lines += record("query_service_analytic", analytic_rps, analytic_ms);
    lines += record("query_service_warm_cache", warm_rps, warm_ms);
    lines += record("query_service_p50", 1e9 / p50, p50 / 1e6);
    lines += record("query_service_p95", 1e9 / p95, p95 / 1e6);
    lines += record("query_service_p99", 1e9 / p99, p99 / 1e6);
    if (Status s = hsis::WriteFile(bench::JsonPath(), lines); !s.ok()) {
      Fail(s);
    }
    std::printf("wrote perf records -> %s\n", bench::JsonPath().c_str());
  }

  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "warm-cache speedup %.2fx below required minimum %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
