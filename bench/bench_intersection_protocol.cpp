// Experiment E10a — the sovereign set-intersection substrate (Section 2
// and footnote 3): protocol cost vs set size, full vs size-only
// variants, 64-bit test group vs the production 256-bit group.
//
// Protocol-scale mode (`--tuples=N`): runs one N-tuples-per-party
// two-firm intersection (50% overlap, 64-bit test group so throughput
// measures the pipeline rather than 256-bit modexp) through the
// chunk-framed protocol (`--chunk-size=C --threads=T`), checks both
// parties' outcomes against the plaintext oracle — Dataset::Intersect
// and the commitment family's one-by-one hash — then runs the size-only
// variant on the same sets and checks both parties' |A ∩ B| and
// commitments the same way (exit 1 on any mismatch; this is CI's
// protocol-scale smoke), and reports the wall time of both parties'
// dataset builds and the full-mode tuples/sec.
// With `--shards=K` (K > 1) it also drives a K-session heavy-traffic
// campaign (mixed honest/withhold/probe behavior plus commitment
// audits) with K session workers. `--json=PATH` writes one
// hsis-bench-v1 record per measured run — intersection_streamed and
// (under --shards) intersection_campaign — with tuples/sec as
// cells_per_sec.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>

#include "bench_util.h"
#include "common/file.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/perf_record.h"
#include "sim/protocol_traffic.h"
#include "sim/workload.h"
#include "sovereign/intersection_protocol.h"
#include "sovereign/multiparty.h"

namespace {

using namespace hsis;
using namespace hsis::sovereign;

crypto::MultisetHashFamily FamilyFor(const crypto::PrimeGroup& group) {
  return std::move(crypto::MultisetHashFamily::CreateMu(group).value());
}

Dataset MakeSet(size_t n, const char* prefix) {
  std::vector<std::string> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(std::string(prefix) + std::to_string(i));
  }
  return Dataset::FromStrings(values);
}

void PrintReproduction() {
  bench::PrintRule(
      "E10a / sovereign set intersection: wire and compute costs");

  std::printf("Two-party protocol on the production 256-bit safe-prime "
              "group;\n50%% overlap; wall time per run and sealed bytes on "
              "the wire:\n\n");
  std::printf("  %-8s %-12s %-14s %-12s %s\n", "|D|", "result", "bytes/party",
              "ms/run", "checks");
  Rng rng(1);
  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  crypto::MultisetHashFamily family = FamilyFor(group);
  for (size_t n : {size_t{16}, size_t{64}, size_t{256}}) {
    Dataset a = MakeSet(n, "shared-");           // first n/2 shared
    Dataset b = MakeSet(n / 2, "shared-");
    Dataset b_extra = MakeSet(n / 2, "b-only-");
    b = b.Union(b_extra);

    auto t0 = std::chrono::steady_clock::now();
    auto outcomes =
        RunTwoPartyIntersection(a, b, group, family, rng).value();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    bool correct = outcomes.first.intersection == a.Intersect(b);
    std::printf("  %-8zu %-12zu %-14zu %-12.1f %s\n", n,
                outcomes.first.intersection_size, outcomes.first.bytes_sent,
                ms, correct ? "correct" : "WRONG");
  }

  std::printf("\nSize-only variant (footnote 3): same cost shape, members "
              "hidden:\n\n");
  IntersectionOptions size_only;
  size_only.size_only = true;
  Dataset a = MakeSet(64, "shared-");
  Dataset b = MakeSet(32, "shared-").Union(MakeSet(32, "b-only-"));
  auto outcomes =
      RunTwoPartyIntersection(a, b, group, family, rng, size_only).value();
  std::printf("  |A| = 64, |B| = 64 -> |A ∩ B| = %zu, members learned: %zu\n",
              outcomes.first.intersection_size,
              outcomes.first.intersection.size());

  std::printf("\nMulti-party ring (64-bit test group), catalog 100, "
              "p(hold) = 0.8, threads=%d:\n\n", bench::Flags().threads);
  const crypto::PrimeGroup& small = crypto::PrimeGroup::SmallTestGroup();
  crypto::MultisetHashFamily small_family = FamilyFor(small);
  MultiPartyOptions mp_options;
  mp_options.threads = bench::Flags().threads;
  for (int parties : {2, 4, 8}) {
    auto stocks = sim::MakeSupplyChainWorkload(parties, 100, 0.8, rng);
    std::vector<Dataset> reported;
    for (const auto& s : stocks) reported.push_back(Dataset::FromStrings(s));
    auto t0 = std::chrono::steady_clock::now();
    auto result =
        RunMultiPartyIntersection(reported, small, small_family, rng,
                                  mp_options)
            .value();
    auto t1 = std::chrono::steady_clock::now();
    Dataset truth = reported[0];
    for (size_t p = 1; p < reported.size(); ++p) {
      truth = truth.Intersect(reported[p]);
    }
    std::printf("  n = %d: global intersection %zu parts, %.1f ms, %s\n",
                parties, result[0].intersection.size(),
                std::chrono::duration<double, std::milli>(t1 - t0).count(),
                result[0].intersection == truth ? "correct" : "WRONG");
  }
  std::printf("\nCost model: O(|D|) commutative exponentiations per party "
              "per hop\n(2 hops for two-party, n hops for the ring) — "
              "matching AES03.\n");
}

bool OutcomesIdentical(const std::vector<MultiPartyOutcome>& a,
                       const std::vector<MultiPartyOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].intersection == b[i].intersection) ||
        a[i].own_commitment != b[i].own_commitment) {
      return false;
    }
  }
  return true;
}

/// `--speedup` mode: times the 8-party ring (production 256-bit group,
/// catalog 96) serially and with `--threads=N` (default: hardware) and
/// verifies every party's intersection and commitment is bit-identical.
void PrintSpeedup() {
  bench::PrintRule(
      "Multi-party ring: serial vs parallel per-party encryption");
  int threads = bench::Flags().threads == 1 ? 0 : bench::Flags().threads;
  int resolved = common::ResolveThreadCount(threads);

  Rng workload_rng(11);
  const int kParties = 8;
  auto stocks = sim::MakeSupplyChainWorkload(kParties, 96, 0.8, workload_rng);
  std::vector<Dataset> reported;
  for (const auto& s : stocks) reported.push_back(Dataset::FromStrings(s));
  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  crypto::MultisetHashFamily family = FamilyFor(group);

  using Clock = std::chrono::steady_clock;
  auto time_run = [&](int t, std::vector<MultiPartyOutcome>* out) {
    MultiPartyOptions options;
    options.threads = t;
    Rng rng(23);  // fresh protocol stream per run: identical keys
    Clock::time_point start = Clock::now();
    *out = RunMultiPartyIntersection(reported, group, family, rng, options)
               .value();
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<MultiPartyOutcome> serial, two, parallel;
  double serial_s = time_run(1, &serial);
  double two_s = time_run(2, &two);
  double parallel_s = time_run(resolved, &parallel);

  size_t tuples = 0;
  for (const Dataset& d : reported) tuples += d.size();
  std::printf("ring: %d parties, %zu tuples, %d hops each (256-bit group)\n\n",
              kParties, tuples, kParties);
  std::printf("  threads=1   %8.3f s\n", serial_s);
  std::printf("  threads=2   %8.3f s   speedup %.2fx\n", two_s,
              serial_s / two_s);
  std::printf("  threads=%-3d %8.3f s   speedup %.2fx\n", resolved, parallel_s,
              serial_s / parallel_s);
  std::printf("\nbit-identical across thread counts: %s\n",
              bench::Verdict(OutcomesIdentical(serial, two) &&
                             OutcomesIdentical(serial, parallel))
                  ? "yes"
                  : "NO — DETERMINISM VIOLATION");
}

void PrintMain() {
  if (bench::Flags().speedup) {
    PrintSpeedup();
  } else {
    PrintReproduction();
  }
}

// --- Protocol-scale mode (--tuples=N) ------------------------------------

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Bytes FamilyHash(const crypto::MultisetHashFamily& family, const Dataset& d) {
  std::unique_ptr<crypto::MultisetHash> hash = family.NewHash();
  for (const Tuple& t : d.tuples()) hash->Add(t.value);
  return hash->Serialize();
}

/// True iff `got` is what the plaintext oracle says the party reporting
/// `own` learns from a run against `peer`: in size-only mode the size of
/// the intersection but none of its tuples.
bool MatchesOracle(const IntersectionOutcome& got, const Dataset& own,
                   const Dataset& peer,
                   const crypto::MultisetHashFamily& family, bool size_only) {
  const Dataset want = own.Intersect(peer);
  return got.intersection == (size_only ? Dataset() : want) &&
         got.intersection_size == want.size() &&
         got.own_commitment == FamilyHash(family, own) &&
         got.peer_commitment == FamilyHash(family, peer);
}

/// Runs the protocol on an N-per-party workload, checks it against the
/// plaintext oracle, reports tuples/sec, and (with --shards=K > 1) adds
/// a K-session traffic campaign. Returns the process exit code.
int RunProtocolScale(size_t tuples, size_t chunk_size) {
  const crypto::PrimeGroup& group = crypto::PrimeGroup::SmallTestGroup();
  crypto::MultisetHashFamily family = FamilyFor(group);
  const int threads = bench::Flags().threads;

  bench::PrintRule("protocol-scale: chunk-framed intersection");
  std::printf("workload: %zu tuples/party, 50%% overlap, 64-bit test group\n"
              "protocol: chunk-size %zu, threads %d\n\n",
              tuples, chunk_size, threads);

  const size_t half = tuples / 2;
  const auto build_start = std::chrono::steady_clock::now();
  Dataset a = MakeSet(half, "shared-").Union(MakeSet(tuples - half,
                                                     "a-only-"));
  Dataset b = MakeSet(half, "shared-").Union(MakeSet(tuples - half,
                                                     "b-only-"));
  std::printf("datasets: %10.1f ms  (both parties, MakeSet + Union)\n",
              MsSince(build_start));
  const double total = static_cast<double>(a.size() + b.size());

  IntersectionOptions options;
  options.chunk_size = chunk_size;
  options.threads = threads;
  auto streamed_start = std::chrono::steady_clock::now();
  Rng rng(42);
  auto streamed = RunTwoPartyIntersection(a, b, group, family, rng, options);
  if (!streamed.ok()) {
    std::fprintf(stderr, "protocol run failed: %s\n",
                 streamed.status().ToString().c_str());
    return 1;
  }
  const double streamed_ms = MsSince(streamed_start);
  const double streamed_tps = 1000.0 * total / streamed_ms;
  std::printf("protocol: %10.1f ms  %12.0f tuples/s\n", streamed_ms,
              streamed_tps);

  // The differential gate: both parties' outcomes must equal the
  // plaintext oracle's.
  if (!MatchesOracle(streamed->first, a, b, family, /*size_only=*/false) ||
      !MatchesOracle(streamed->second, b, a, family, /*size_only=*/false)) {
    std::fprintf(stderr,
                 "DIFFERENTIAL FAILURE: protocol outcome diverged from the "
                 "plaintext oracle\n");
    return 1;
  }
  std::printf("matches the plaintext oracle: yes  (|A ∩ B| = %zu, "
              "expected %zu)\n",
              streamed->first.intersection_size, half);

  // The size-only variant on the same sets and knobs: its unpaired,
  // reshuffled reply streams must still give both parties |A ∩ B|.
  IntersectionOptions size_only = options;
  size_only.size_only = true;
  Rng size_rng(43);
  auto sized =
      RunTwoPartyIntersection(a, b, group, family, size_rng, size_only);
  if (!sized.ok()) {
    std::fprintf(stderr, "size-only protocol run failed: %s\n",
                 sized.status().ToString().c_str());
    return 1;
  }
  if (!MatchesOracle(sized->first, a, b, family, /*size_only=*/true) ||
      !MatchesOracle(sized->second, b, a, family, /*size_only=*/true)) {
    std::fprintf(stderr,
                 "DIFFERENTIAL FAILURE: size-only outcome diverged from the "
                 "plaintext oracle\n");
    return 1;
  }
  std::printf("size-only matches the plaintext oracle: yes  (|A ∩ B| = %zu "
              "at both parties)\n",
              sized->first.intersection_size);

  // Optional heavy-traffic campaign: --shards=K sessions, K workers.
  double campaign_tps = 0, campaign_ms = 0;
  const int sessions = bench::Flags().shards;
  if (sessions > 1) {
    sim::ProtocolTrafficOptions traffic;
    traffic.sessions = static_cast<size_t>(sessions);
    traffic.tuples_per_party = std::min<size_t>(tuples, 512);
    traffic.common_tuples = traffic.tuples_per_party / 4;
    traffic.chunk_size = chunk_size;
    traffic.threads = 1;  // parallelism across sessions instead
    traffic.session_threads = sessions;
    auto campaign_start = std::chrono::steady_clock::now();
    auto stats = sim::RunProtocolTrafficCampaign(traffic, group, family);
    if (!stats.ok()) {
      std::fprintf(stderr, "campaign failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    campaign_ms = MsSince(campaign_start);
    campaign_tps =
        1000.0 * static_cast<double>(stats->tuples_processed) / campaign_ms;
    std::printf("\ncampaign: %zu sessions (%zu honest / %zu withheld / %zu "
                "probed), %zu audits -> %zu flags,\n          %zu tuples, "
                "%.1f ms, %.0f tuples/s, %zu protocol failures\n",
                stats->sessions, stats->honest, stats->withheld,
                stats->probed, stats->audited, stats->audit_flags,
                stats->tuples_processed, campaign_ms, campaign_tps,
                stats->protocol_failures);
    if (stats->protocol_failures != 0) {
      std::fprintf(stderr, "campaign sessions failed\n");
      return 1;
    }
  }

  if (!bench::Flags().json_path.empty()) {
    auto record = [&](const char* name, double tps, double wall_ms) {
      common::PerfRecord r;
      r.bench = name;
      r.threads = threads;
      r.cells_per_sec = tps;
      r.wall_ms = wall_ms;
      r.git_describe = bench::GitDescribe();
      if (Status s = r.Validate(); !s.ok()) {
        std::fprintf(stderr, "--json: %s\n", s.ToString().c_str());
        std::exit(1);
      }
      return common::PerfRecordToJson(r);
    };
    std::string lines;
    lines += record("intersection_streamed", streamed_tps, streamed_ms);
    if (sessions > 1) {
      lines += record("intersection_campaign", campaign_tps, campaign_ms);
    }
    if (Status s = hsis::WriteFile(bench::Flags().json_path, lines); !s.ok()) {
      std::fprintf(stderr, "--json: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote perf records -> %s\n", bench::Flags().json_path.c_str());
  }
  return 0;
}

void BM_TwoPartyIntersection(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bool production = state.range(1) == 1;
  const crypto::PrimeGroup& group = production
                                        ? crypto::PrimeGroup::Default()
                                        : crypto::PrimeGroup::SmallTestGroup();
  crypto::MultisetHashFamily family = FamilyFor(group);
  Dataset a = MakeSet(n, "shared-");
  Dataset b = MakeSet(n / 2, "shared-").Union(MakeSet(n / 2, "b-only-"));
  Rng rng(2);
  for (auto _ : state) {
    auto r = RunTwoPartyIntersection(a, b, group, family, rng);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * n));
  state.SetLabel(production ? "256-bit group" : "64-bit test group");
}
BENCHMARK(BM_TwoPartyIntersection)
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({256, 0})
    ->Args({16, 1})
    ->Args({64, 1});

void BM_HashToElement(benchmark::State& state) {
  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  Bytes value = ToBytes("customer-record");
  for (auto _ : state) {
    auto e = group.HashToElement(value);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_HashToElement);

void BM_MultiPartyRing(benchmark::State& state) {
  int parties = static_cast<int>(state.range(0));
  Rng rng(3);
  auto stocks = sim::MakeSupplyChainWorkload(parties, 64, 0.8, rng);
  std::vector<Dataset> reported;
  for (const auto& s : stocks) reported.push_back(Dataset::FromStrings(s));
  const crypto::PrimeGroup& group = crypto::PrimeGroup::SmallTestGroup();
  crypto::MultisetHashFamily family = FamilyFor(group);
  for (auto _ : state) {
    auto r = RunMultiPartyIntersection(reported, group, family, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MultiPartyRing)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  size_t tuples = 0;       // 0 = reproduction mode, no scale run
  size_t chunk_size = kDefaultIntersectionChunkSize;

  constexpr int64_t kMaxCount = std::numeric_limits<int64_t>::max();
  bench::ConsumeFlags(&argc, argv,
                      {common::IntFlag("--tuples", 1, kMaxCount, &tuples),
                       common::IntFlag("--chunk-size", 1, kMaxCount,
                                       &chunk_size)});

  if (tuples > 0) return RunProtocolScale(tuples, chunk_size);

  PrintMain();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bench::VerdictExitCode();
}
