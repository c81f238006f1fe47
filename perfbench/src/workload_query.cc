// query_zipf: one client on a default `serve::QueryService` sending, in
// order, a single-query `AnswerCached` stream, the same stream shape
// through `AnswerBatchCached` in 1024-request batches, and `Explain` on
// a prefix. 95% of requests are Zipf(1.1) over a 1024-point catalogue;
// 5% are fresh points that never repeat.

#include <cstdio>
#include <cstring>
#include <optional>

#include "bench.h"
#include "game/kernel.h"
#include "serve/query_service.h"

namespace perfbench {

namespace {

using hsis::Rng;
using hsis::serve::QueryAnswer;
using hsis::serve::QueryRequest;
using hsis::serve::QueryService;

constexpr size_t kCatalogue = 1024;
constexpr double kZipfS = 1.1;
constexpr double kFreshShare = 0.05;
constexpr size_t kBatch = 1024;
constexpr size_t kBlock = 4096;  // requests generated per untimed step
constexpr size_t kSinglePerSecond = 400000;
constexpr size_t kBatchPerSecond = 2000000;
constexpr size_t kExplainPerSecond = 20000;
constexpr uint64_t kSampleEvery = 257;  // gate sample stride
constexpr int kSetupBlocks = 16;
constexpr int kSetupsPerBlock = 256;
constexpr int kRounds = 40;
// Interference from other tenants only ever adds time, and it comes and
// goes within a run; the metrics take the quietest tenth of the rounds.
constexpr double kQuietQuantile = 0.1;

QueryRequest RandomPoint(Rng& rng) {
  QueryRequest q;
  q.benefit = 1 + 19 * rng.UniformDouble();
  q.cheat_gain = q.benefit * (1.2 + 1.8 * rng.UniformDouble());
  q.frequency = rng.UniformDouble();
  q.penalty = 200 * rng.UniformDouble();
  q.n = 2 + static_cast<int>(rng.UniformUint64(7));
  return q;
}

/// Seeded request stream: catalogue points by Zipf rank, plus fresh
/// points whose penalty carries a unique offset so no two ever share a
/// cache key. Generated block by block so no stream is held whole.
class StreamGen {
 public:
  StreamGen(const std::vector<QueryRequest>& catalogue,
            const ZipfSampler& zipf, uint64_t seed, uint64_t fresh_base)
      : catalogue_(catalogue), zipf_(zipf), rng_(seed), fresh_(fresh_base) {}

  /// Replaces `*block` with the next `count` requests; appends the fresh
  /// ones to `*fresh` when it is not null.
  void Next(size_t count, std::vector<QueryRequest>* block,
            std::vector<QueryRequest>* fresh) {
    block->clear();
    for (size_t i = 0; i < count; ++i) {
      if (rng_.UniformDouble() < kFreshShare) {
        QueryRequest q = RandomPoint(rng_);
        q.penalty = 1000 + 1e-3 * static_cast<double>(fresh_++);
        if (fresh != nullptr) fresh->push_back(q);
        block->push_back(q);
      } else {
        block->push_back(catalogue_[zipf_.Draw(rng_)]);
      }
    }
  }

 private:
  const std::vector<QueryRequest>& catalogue_;
  const ZipfSampler& zipf_;
  Rng rng_;
  uint64_t fresh_;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameAnswer(const QueryAnswer& a, const QueryAnswer& b) {
  return a.effectiveness == b.effectiveness &&
         a.honest_is_dominant == b.honest_is_dominant &&
         SameBits(a.min_frequency, b.min_frequency) &&
         SameBits(a.min_penalty, b.min_penalty) &&
         SameBits(a.zero_penalty_frequency, b.zero_penalty_frequency);
}

/// Single-query pass over the next `count` requests of `gen`; returns
/// per-request latencies in ns and sets `*wall_ms` to the summed timed
/// blocks.
std::vector<double> SinglePass(QueryService& service, StreamGen& gen,
                               size_t count, Tracer& tracer,
                               WorkloadResult& r, double* wall_ms,
                               std::vector<QueryRequest>* fresh) {
  std::vector<double> ns;
  ns.reserve(count);
  std::vector<std::pair<QueryRequest, QueryAnswer>> sample;
  std::vector<QueryRequest> block;
  *wall_ms = 0;
  for (size_t done = 0; done < count; done += kBlock) {
    gen.Next(std::min(kBlock, count - done), &block, fresh);
    const int64_t start = NowNs();
    for (size_t i = 0; i < block.size(); ++i) {
      const int64_t t0 = NowNs();
      hsis::Result<QueryAnswer> answer = [&] {
        auto span = tracer.Busy("serve.answer_cached", done + i);
        return service.AnswerCached(block[i]);
      }();
      ns.push_back(static_cast<double>(NowNs() - t0));
      ++r.attempted;
      if (!answer.ok()) {
        ++r.failed;
      } else if ((done + i) % kSampleEvery == 0) {
        sample.emplace_back(block[i], *answer);
      }
    }
    *wall_ms += MsSince(start);
  }
  for (const auto& [request, got] : sample) {
    auto want = service.Answer(request);
    r.Gate(want.ok() && SameAnswer(got, *want),
           "cached answer bit-equal to uncached Answer");
  }
  return ns;
}

}  // namespace

WorkloadResult RunQueryZipf(const RunOptions& options, Tracer& tracer) {
  WorkloadResult r;
  Rng rng(options.seed);
  std::vector<QueryRequest> catalogue;
  for (size_t i = 0; i < kCatalogue; ++i) catalogue.push_back(RandomPoint(rng));
  const ZipfSampler zipf(kCatalogue, kZipfS);
  const size_t seconds = static_cast<size_t>(options.seconds);
  // A traced run records one span per request; it sends a tenth of the
  // single stream so the spans fit comfortably in memory.
  const size_t single_count =
      kSinglePerSecond * seconds / (tracer.enabled() ? 10 : 1);
  const size_t batch_count = kBatchPerSecond * seconds;
  const size_t explain_count = kExplainPerSecond * seconds;
  const StreamGen single(catalogue, zipf, rng.NextUint64(), 0);
  StreamGen batch(catalogue, zipf, rng.NextUint64(), uint64_t{1} << 32);

  // QueryService::Create takes about two microseconds, too short to time
  // alone: set-up is timed in blocks of kSetupsPerBlock Creates, one
  // block on each CPU in turn (see CpuRotation), and setup_s is the
  // median block's time per Create. Block 0 is not timed; it grows the
  // heap the later blocks reuse. Services are destroyed between blocks,
  // outside the timed intervals.
  std::vector<double> setup_s;
  std::vector<QueryService> built;
  built.reserve(kSetupsPerBlock);
  {
    CpuRotation setup_rotation;
    for (int block = 0; block <= kSetupBlocks; ++block) {
      setup_rotation.Pin(block);
      built.clear();
      const int64_t t0 = NowNs();
      for (int i = 0; i < kSetupsPerBlock; ++i) {
        auto created = QueryService::Create({});
        if (!created.ok()) {
          r.Gate(false, "QueryService::Create: " + created.status().ToString());
          return r;
        }
        built.push_back(std::move(*created));
      }
      const double block_ms = MsSince(t0);
      if (block > 0) setup_s.push_back(block_ms / 1e3 / kSetupsPerBlock);
    }
  }
  r.setup_s = Median(setup_s);
  std::optional<QueryService> service(std::move(built.back()));
  built.clear();

  // Warm-up: one untimed query on a point outside every stream.
  QueryRequest warm = RandomPoint(rng);
  warm.penalty = 999;
  r.Gate(service->AnswerCached(warm).ok(), "warm-up query");

  double single_wall_ms = 0;
  std::optional<QueryService> traced_service;
  if (tracer.enabled()) {
    // The untraced reference pass, then everything below runs traced on
    // a fresh service.
    Tracer off(false);
    WorkloadResult scratch;
    StreamGen reference = single;
    SinglePass(*service, reference, single_count, off, scratch,
               &single_wall_ms, nullptr);
    traced_service.emplace(QueryService::Create({}).value());
    r.Gate(traced_service->AnswerCached(warm).ok(), "warm-up query");
  }
  QueryService& svc = tracer.enabled() ? *traced_service : *service;

  // The three streams advance together in rounds, each round sending a
  // slice of the single stream, then of the batch stream, then of the
  // Explain prefix; every metric is the median over rounds, so a burst
  // of interference on the host moves only the rounds it overlaps. Round
  // k runs on the k-th CPU (see CpuRotation).
  StreamGen single_gen = single;
  StreamGen explain_gen = single;  // Explain walks the single stream's prefix
  std::vector<QueryRequest> fresh;
  std::vector<QueryRequest> block;
  hsis::game::kernel::DeviceAnswersSoA out;
  std::vector<double> round_p50, round_p99, round_rate, round_explain;
  double pass_ms = 0, explain_total_ms = 0;
  size_t batch_sent = 0, explained = 0;
  CpuRotation rotation;
  for (int round = 0; round < kRounds; ++round) {
    rotation.Pin(round);
    double ms = 0;
    std::vector<double> ns =
        SinglePass(svc, single_gen, single_count / kRounds, tracer, r, &ms,
                   tracer.enabled() ? &fresh : nullptr);
    pass_ms += ms;
    std::sort(ns.begin(), ns.end());
    round_p50.push_back(PercentileSorted(ns, 50) / 1e6);
    round_p99.push_back(PercentileSorted(ns, 99) / 1e6);

    double batch_ms = 0;
    const size_t batch_round = batch_count / kRounds;
    for (size_t begin = 0; begin < batch_round; begin += kBatch) {
      const size_t count = std::min(kBatch, batch_round - begin);
      batch.Next(count, &block, nullptr);
      const int64_t t0 = NowNs();
      hsis::Status status = [&] {
        auto span = tracer.Busy("serve.batch", batch_sent);
        return svc.AnswerBatchCached(block.data(), count, out);
      }();
      batch_ms += MsSince(t0);
      r.attempted += count;
      if (!status.ok()) {
        r.failed += count;
        continue;
      }
      for (size_t k = (batch_sent / kBatch) % kSampleEvery; k < count;
           k += kSampleEvery) {
        hsis::game::kernel::DeviceAnswerKernel slot{
            out.effectiveness[k], out.min_frequency[k], out.min_penalty[k],
            out.zero_penalty_frequency[k]};
        auto want = svc.Answer(block[k]);
        r.Gate(want.ok() &&
                   SameAnswer(hsis::serve::AnswerFromKernel(slot), *want),
               "batch answer bit-equal to uncached Answer");
      }
      batch_sent += count;
    }
    round_rate.push_back(static_cast<double>(batch_round) / (batch_ms / 1e3));

    std::vector<double> explain_ms;
    explain_gen.Next(explain_count / kRounds, &block, nullptr);
    for (size_t i = 0; i < block.size(); ++i) {
      const int64_t t0 = NowNs();
      auto derivation = [&] {
        auto span = tracer.Busy("serve.explain", explained++);
        return svc.Explain(block[i]);
      }();
      explain_ms.push_back(MsSince(t0));
      explain_total_ms += explain_ms.back();
      ++r.attempted;
      if (!derivation.ok()) {
        ++r.failed;
      } else {
        r.Gate(!derivation->steps.empty() && !derivation->conclusion.empty(),
               "explain returns a derivation");
      }
    }
    round_explain.push_back(Median(explain_ms));
  }

  auto list = [](const char* label, const std::vector<double>& v,
                 double scale) {
    std::string line = label;
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof(buf), " %.4g", x * scale);
      line += buf;
    }
    return line;
  };
  r.notes.push_back(list("rounds, AnswerCached p50 ns:", round_p50, 1e6));
  r.notes.push_back(list("rounds, AnswerCached p99 ns:", round_p99, 1e6));
  r.notes.push_back(list("rounds, batch Mreq/s:", round_rate, 1e-6));
  r.notes.push_back(list("rounds, Explain p50 us:", round_explain, 1e3));
  auto quiet = [&](const std::string& name, const std::vector<double>& v,
                   bool higher_is_better, const std::string& unit,
                   const std::string& what) {
    Timing t;
    t.name = name;
    t.value = Quantile(v, higher_is_better ? 1 - kQuietQuantile
                                           : kQuietQuantile);
    t.unit = unit;
    t.samples = v.size();
    t.detail = (higher_is_better ? "upper decile over " : "lower decile over ") +
               std::to_string(kRounds) + " rounds of " + what;
    return t;
  };
  r.throughput = quiet("batch_queries_per_s", round_rate, true, "1/s",
                       "AnswerBatchCached rate, 1024 per batch");
  r.p50 = quiet("query_p50_ns", round_p50, false, "ms",
                "p50 of " + std::to_string(single_count / kRounds) +
                    " AnswerCached");
  r.tail = quiet("query_p99_ns", round_p99, false, "ms",
                 "p99 (" + std::to_string(single_count / kRounds / 100) +
                     " beyond per round)");
  r.secondary = quiet("explain_p50_ms", round_explain, false, "ms",
                      "Explain p50");
  r.extra.push_back({"query_p50_ns", r.p50.value * 1e6, "ns", kRounds,
                     r.p50.detail});
  r.extra.push_back({"query_p99_ns", r.tail.value * 1e6, "ns", kRounds,
                     r.tail.detail});
  r.extra.push_back({"explain_per_s",
                     static_cast<double>(explained) / (explain_total_ms / 1e3),
                     "1/s", explained, "Explain on the single stream's prefix"});
  const hsis::serve::CacheStats stats = svc.Stats();
  r.extra.push_back({"cache_hit_ratio",
                     static_cast<double>(stats.hits) /
                         static_cast<double>(stats.hits + stats.misses),
                     "ratio", stats.hits + stats.misses, "QueryService::Stats"});

  if (!tracer.enabled()) return r;

  // Replays on the fresh points of the single stream: the uncached
  // analytic path and the kernel the batch path runs on misses.
  hsis::game::kernel::DevicePointsSoA points;
  points.Resize(fresh.size());
  for (size_t k = 0; k < fresh.size(); ++k) {
    const QueryRequest& q = fresh[k];
    points.benefit[k] = q.benefit;
    points.cheat_gain[k] = q.cheat_gain;
    points.frequency[k] = q.frequency;
    points.penalty[k] = q.penalty;
    auto span = tracer.Busy("serve.answer", k);
    r.Gate(svc.Answer(q).ok(), "uncached Answer on a miss point");
  }
  {
    hsis::game::kernel::DeviceAnswersSoA answers;
    auto span = tracer.Busy("game.device_points");
    r.Gate(hsis::game::kernel::EvalDevicePoints(points, svc.margin(), 0,
                                                points.size(), answers)
               .ok(),
           "EvalDevicePoints on the miss points");
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "single stream: untraced %.3f ms, traced %.3f ms (overhead "
                "%.3f ms over %zu spans)",
                single_wall_ms, pass_ms, pass_ms - single_wall_ms,
                single_count);
  r.notes.push_back(line);
  r.layer = {
      {"serve.cache.hits", static_cast<double>(stats.hits)},
      {"serve.cache.misses", static_cast<double>(stats.misses)},
      {"serve.cache.evictions", static_cast<double>(stats.evictions)},
      {"serve.cache.hit_ratio",
       static_cast<double>(stats.hits) /
           static_cast<double>(stats.hits + stats.misses)},
      {"trace.overhead_ms", pass_ms - single_wall_ms},
  };
  return r;
}

}  // namespace perfbench
