#ifndef HSIS_PERFBENCH_BENCH_H_
#define HSIS_PERFBENCH_BENCH_H_

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "trace.h"

/// \file
/// \brief Shared types of the benchmark driver: run options, the result
/// every workload returns, and small statistics helpers.

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;     ///< Nominal measured time; sizes each workload.
  bool trace = false;   ///< Traced run: per-layer metrics instead.
  std::string scratch;  ///< Directory for files the run writes.
};

/// A timing with its sample count, for the human-readable table.
struct Timing {
  std::string name;      ///< The workload's own metric name.
  double value = 0;      ///< In `unit`.
  std::string unit;      ///< ms, ns, 1/s, ...
  size_t samples = 0;    ///< Samples the value was taken from.
  std::string detail;    ///< e.g. "p95, 12 samples beyond".
};

/// What a workload hands back to the driver. End-to-end roles are
/// filled by untraced runs; traced runs fill `layer` instead.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;        ///< Operations returning a non-OK status.
  std::vector<std::string> gate_failures;  ///< Empty iff outputs correct.

  double setup_s = 0;         ///< Program set-up time, from repeated set-ups.
  Timing throughput;          ///< Role `throughput_per_s`.
  Timing p50;                 ///< Role `latency_p50_ms` (value in ms).
  Timing tail;                ///< Role `latency_tail_ms` (value in ms).
  Timing secondary;           ///< Role `secondary_ms` (value in ms).
  std::vector<Timing> extra;  ///< Further named metrics, table only.

  /// The workload's own per-layer counters and ratios of a traced run
  /// (name -> value). They take precedence over span-derived values of
  /// the same name.
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::string> notes;  ///< Extra report lines.

  void Gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

WorkloadResult RunSessionBulk(const RunOptions& options, Tracer& tracer);
WorkloadResult RunExchangeMix(const RunOptions& options, Tracer& tracer);
WorkloadResult RunQueryZipf(const RunOptions& options, Tracer& tracer);

/// Median of `v` (0 for an empty vector).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile `p` (0..100] of `sorted` (ascending).
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The tail timing: the highest of `target` and the standard percentiles
/// below it that leaves at least ten samples beyond it, or the maximum
/// when there are too few samples for any.
inline Timing TailTiming(const std::string& name, std::vector<double> v,
                         double target, const std::string& unit) {
  std::sort(v.begin(), v.end());
  Timing t;
  t.name = name;
  t.unit = unit;
  t.samples = v.size();
  const double candidates[] = {99.9, 99, 95, 90, 75};
  for (double p : candidates) {
    if (p > target) continue;
    const size_t beyond = v.size() - std::min(v.size(), static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size()))));
    if (beyond >= 10) {
      t.value = PercentileSorted(v, p);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "p%g of %zu, %zu beyond", p, v.size(),
                    beyond);
      t.detail = buf;
      return t;
    }
  }
  t.value = v.empty() ? 0 : v.back();
  t.detail = "max of " + std::to_string(v.size()) + " (too few for a tail)";
  return t;
}

/// Quantile `q` in [0, 1] of `v` by linear interpolation (0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The set-up time a run reports for set-ups of milliseconds: the
/// fastest of its repeated set-ups, which run on each CPU in turn (see
/// CpuRotation). Interference from other tenants only adds time.
inline double QuietSetupSeconds(const std::vector<double>& seconds) {
  return Quantile(seconds, 0);
}

/// Median timing with its sample count.
inline Timing MedianTiming(const std::string& name, const std::vector<double>& v,
                           const std::string& unit) {
  Timing t;
  t.name = name;
  t.value = Median(v);
  t.unit = unit;
  t.samples = v.size();
  t.detail = "median of " + std::to_string(v.size());
  return t;
}

/// Wall times of a replayed operation without and with tracing.
struct ReplayTimes {
  double untraced_ms = 0;
  double traced_ms = 0;
};

/// Runs `replay(Tracer&)`, which returns a `hsis::Status`, untraced and
/// traced in turn, twice, and keeps the fastest of each, so neither side
/// always runs on a colder process; the difference is the tracing
/// overhead. The first traced run records into a scratch tracer and the
/// second into `tracer`, so the kept trace holds one replay. A failed
/// replay fails a check of `r`.
template <typename Replay>
ReplayTimes TimeReplay(Tracer& tracer, WorkloadResult& r, Replay&& replay) {
  Tracer untraced(false), scratch(true);
  ReplayTimes times{HUGE_VAL, HUGE_VAL};
  for (Tracer* t : {&untraced, &scratch, &untraced, &tracer}) {
    const int64_t t0 = NowNs();
    const hsis::Status status = replay(*t);
    const double ms = MsSince(t0);
    r.Gate(status.ok(), "replay: " + status.ToString());
    double& best = t->enabled() ? times.traced_ms : times.untraced_ms;
    best = std::min(best, ms);
  }
  return times;
}

/// Pins the calling thread to the allowed CPUs in turn. On a shared host
/// the vCPUs differ in speed (their neighbours differ), so a
/// single-threaded stream that stays on whichever CPU it started on reads
/// fast or slow by luck; rotating it over every CPU and taking medians
/// over the rotation removes that luck. Restores the original affinity
/// on destruction; threads started while pinned inherit the pin.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the `k`-th allowed CPU (mod their count).
  void Pin(size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Zipf(s) ranks over [0, n) drawn from a precomputed CDF by binary
/// search: O(log n) per draw.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(hsis::Rng& rng) const {
    const double u = rng.UniformDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // HSIS_PERFBENCH_BENCH_H_
