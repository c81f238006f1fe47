// Experiment E8b — Section 6.2 feasibility: "The auditing service must
// be space as well as time efficient. It must also not see any private
// data of any of the participants."
//
// Measures the device's update and audit costs, shows O(1) per-player
// state across tuple-stream sizes, verifies detection soundness and
// completeness on randomized cheat scenarios, and ablates the audit
// scheduler (per-round Bernoulli vs deterministic every-k).

#include "audit/auditing_device.h"
#include "audit/tuple_generator.h"
#include "bench_util.h"
#include "sovereign/dataset.h"

namespace {

using namespace hsis;
using namespace hsis::audit;
using sovereign::Dataset;
using sovereign::Tuple;

crypto::MultisetHashFamily MuFamily() {
  return std::move(
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup())
          .value());
}

Bytes Commit(const crypto::MultisetHashFamily& family, const Dataset& data) {
  auto h = family.NewHash();
  for (const Tuple& t : data.tuples()) h->Add(t.value);
  return h->Serialize();
}

void PrintReproduction() {
  bench::PrintRule("E8b / Section 6.2: auditing device feasibility");

  // Space: device state vs stream size.
  std::printf("Space efficiency (per-player device state vs tuples issued):\n");
  std::printf("  %-12s %-14s %s\n", "tuples", "state bytes", "hash count");
  for (size_t stream : {size_t{100}, size_t{10000}, size_t{1000000}}) {
    crypto::MultisetHashFamily family = MuFamily();
    AuditingDevice device =
        std::move(AuditingDevice::Create(1.0, 50).value());
    TupleGenerator tg =
        std::move(TupleGenerator::Create("p", family, &device).value());
    for (size_t i = 0; i < stream; ++i) {
      (void)tg.IssueString(std::string("t").append(std::to_string(i)));
    }
    std::printf("  %-12zu %-14zu %llu\n", stream, device.StateBytes(),
                static_cast<unsigned long long>(device.RecordedTupleCount("p")));
  }
  std::printf("  -> state constant in the stream size, as required.\n\n");

  // Detection soundness & completeness over random scenarios.
  std::printf("Detection check (1000 randomized scenarios, Mu hash):\n");
  Rng rng(12345);
  int false_positive = 0, false_negative = 0, trials = 1000;
  for (int trial = 0; trial < trials; ++trial) {
    crypto::MultisetHashFamily family = MuFamily();
    AuditingDevice device =
        std::move(AuditingDevice::Create(1.0, 50).value());
    TupleGenerator tg =
        std::move(TupleGenerator::Create("p", family, &device).value());
    Dataset data;
    size_t n = 1 + rng.UniformUint64(40);
    for (size_t i = 0; i < n; ++i) {
      data.Add(tg.IssueString(std::string("v")
                                  .append(std::to_string(trial))
                                  .append("-")
                                  .append(std::to_string(i)))
                   .value());
    }
    bool cheat = rng.Bernoulli(0.5);
    Dataset reported = data;
    if (cheat) {
      if (rng.Bernoulli(0.5) || reported.empty()) {
        reported.Add(Tuple::FromString("fake-" + std::to_string(trial)));
      } else {
        reported.RemoveRandom(1, rng);
      }
    }
    AuditOutcome outcome =
        std::move(device.Audit("p", Commit(family, reported)).value());
    if (outcome.cheating_detected && !cheat) ++false_positive;
    if (!outcome.cheating_detected && cheat) ++false_negative;
  }
  std::printf("  false positives: %d/%d   false negatives: %d/%d\n\n",
              false_positive, trials, false_negative, trials);

  // Scheduler ablation: Bernoulli(f) vs deterministic every-k audits.
  std::printf("Scheduler ablation at f = 0.25 over 4000 rounds of a\n"
              "persistent cheater:\n");
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(0.25, 50).value());
  TupleGenerator tg =
      std::move(TupleGenerator::Create("p", family, &device).value());
  Dataset data;
  data.Add(tg.IssueString("legit").value());
  Dataset cheated = data;
  cheated.Add(Tuple::FromString("fake"));
  Bytes bad = Commit(family, cheated);

  Rng sched_rng(7);
  int bernoulli_checks = 0, bernoulli_catches = 0;
  int64_t first_catch_round = -1;
  for (int round = 0; round < 4000; ++round) {
    AuditOutcome o = std::move(device.MaybeAudit("p", bad, sched_rng).value());
    bernoulli_checks += o.audited;
    bernoulli_catches += o.cheating_detected;
    if (o.cheating_detected && first_catch_round < 0) first_catch_round = round;
  }
  int deterministic_checks = 0, deterministic_catches = 0;
  for (int round = 0; round < 4000; ++round) {
    if (round % 4 == 3) {  // every-k with k = 1/f
      AuditOutcome o = std::move(device.Audit("p", bad).value());
      ++deterministic_checks;
      deterministic_catches += o.cheating_detected;
    }
  }
  std::printf("  Bernoulli(f):     %d checks, %d catches (first at round %lld)\n",
              bernoulli_checks, bernoulli_catches,
              static_cast<long long>(first_catch_round));
  std::printf("  every-k (k=4):    %d checks, %d catches\n",
              deterministic_checks, deterministic_catches);
  std::printf("  -> same realized frequency and detection power against a\n"
              "     persistent cheater; Bernoulli is unpredictable, which\n"
              "     also deters cheaters who could otherwise time their\n"
              "     cheating between known audit slots.\n");
}

void BM_RecordTupleHash(benchmark::State& state) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 50).value());
  (void)device.RegisterPlayer("p", family);
  auto singleton = family.NewHash();
  singleton->Add(ToBytes("tuple"));
  Bytes wire = singleton->Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.RecordTupleHash("p", wire));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordTupleHash);

// Counts `tuples` per iteration and prints the time per tuple as the
// `per_tuple` counter (e.g. `per_tuple=70.1ns`).
void CountTuples(benchmark::State& state, size_t tuples) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples));
  state.counters["per_tuple"] = benchmark::Counter(
      static_cast<double>(tuples),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_IssueThroughGenerator(benchmark::State& state) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 50).value());
  TupleGenerator tg =
      std::move(TupleGenerator::Create("p", family, &device).value());
  Bytes value = ToBytes("customer-record");
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.Issue(value));
  }
  CountTuples(state, 1);
}
BENCHMARK(BM_IssueThroughGenerator);

// One TG -> AD message for the whole batch: H_i(batch) on the batch lane.
void BM_IssueAll(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 50).value());
  TupleGenerator tg =
      std::move(TupleGenerator::Create("p", family, &device).value());
  std::vector<Tuple> batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(Tuple::FromString(std::string("customer-record-")
                                          .append(std::to_string(i))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.IssueAll(batch));
  }
  CountTuples(state, n);
}
BENCHMARK(BM_IssueAll)->Arg(1024);

void BM_AuditAgainstCommitment(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 50).value());
  TupleGenerator tg =
      std::move(TupleGenerator::Create("p", family, &device).value());
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    data.Add(
        tg.IssueString(std::string("t").append(std::to_string(i))).value());
  }
  Bytes commitment = Commit(family, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.Audit("p", commitment));
  }
  state.SetLabel("audit is O(1) regardless of dataset size");
}
BENCHMARK(BM_AuditAgainstCommitment)->Arg(10)->Arg(1000)->Arg(100000);

}  // namespace

HSIS_BENCH_MAIN(PrintReproduction)
