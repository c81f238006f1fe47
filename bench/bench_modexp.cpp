// Modexp ladder comparison — the per-tuple cost every protocol path
// pays (PR 9). Measures the naive right-to-left square-and-multiply
// ladder (`MontgomeryContext::ModExp`) against the sliding-window
// per-key schedule (`FixedExponentContext`, crypto/modmath.h) on the
// production 256-bit group, single thread, the batch lane on a
// tile-aligned and a 42-base ragged batch, the two batch stages
// (`EncryptBatch` / `HashEncryptBatch`) that every protocol,
// multiparty, and audit path funnels through, and the batched
// hash-to-group (`PrimeGroup::HashToElements`) on its own.
//
// Every windowed result is differentially checked against the naive
// ladder before it is timed — a divergence exits nonzero, so CI's
// bench smoke doubles as a correctness gate. `--min-speedup=X` exits
// nonzero unless windowed/naive >= X (CI pins 1.15x). `--json=PATH`
// writes one hsis-bench-v1 record per measured path with the `algo`
// field ("naive" vs "window4") distinguishing the ladders.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "crypto/commutative_cipher.h"
#include "crypto/group.h"
#include "crypto/modmath.h"
#include "crypto/parallel_modexp.h"

namespace {

using namespace hsis;

constexpr size_t kBases = 512;    // distinct group elements per pass
constexpr int kPasses = 3;        // timed passes; best-of wins
constexpr double kMinPassMs = 5;  // shortest timed pass
constexpr size_t kBatch = 2048;   // elements per batch-stage measurement
// The smallest exchange_mix party: on the IFMA lane two full 16-base
// steps plus one padded 10-base step.
constexpr size_t kRagged = 42;
constexpr int kRaggedReps = 64;  // ragged batches per timed pass

std::vector<U256> MakeBases(const crypto::PrimeGroup& group, size_t n) {
  std::vector<U256> bases;
  bases.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(group.HashToElement(ToBytes("modexp-" + std::to_string(i))));
  }
  return bases;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Times `fn()`, one pass's worth of work, and returns the best of
/// `kPasses` passes' wall time per `fn()` call. Each pass repeats `fn()`
/// until it lasts at least `kMinPassMs`, so sub-millisecond work is not
/// read from one short burst on a shared host. `fn()` runs an odd
/// number of times in all (one sizing call, then `kPasses` passes of an
/// even count), which the xor sink check below relies on.
template <typename Fn>
double BestPassMs(const Fn& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  const double once_ms = std::max(MsSince(start), 1e-3);
  const int reps = 2 * static_cast<int>(std::ceil(kMinPassMs / (2 * once_ms)));
  double best = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const double ms = MsSince(start) / reps;
    if (pass == 0 || ms < best) best = ms;
  }
  return best;
}

void PrintMain() {
  bench::PrintRule("modexp: naive ladder vs sliding-window per-key schedule");

  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  Rng rng(9);
  const U256 key = group.RandomExponent(rng);
  Result<crypto::FixedExponentContext> windowed = group.FixedExp(key);
  if (!windowed.ok()) {
    std::fprintf(stderr, "FixedExp failed: %s\n",
                 windowed.status().ToString().c_str());
    std::exit(1);
  }
  Result<crypto::CommutativeCipher> cipher =
      crypto::CommutativeCipher::CreateWithKey(group, key);
  if (!cipher.ok()) {
    std::fprintf(stderr, "CreateWithKey failed: %s\n",
                 cipher.status().ToString().c_str());
    std::exit(1);
  }

  const std::vector<U256> bases = MakeBases(group, kBases);
  std::printf("modexp batch lane: %s\n\n",
              crypto::FixedExponentContext::BatchLaneName());

  // Differential gate first: the windowed schedule, the cipher built on
  // it, and the decrypt roundtrip must all agree with the naive ladder
  // on every base before anything is timed.
  for (const U256& base : bases) {
    const U256 naive = group.Exp(base, key);
    const U256 fast = windowed->ModExp(base);
    if (!(naive == fast) || !(cipher->Encrypt(base) == naive) ||
        !(cipher->Decrypt(naive) == base)) {
      std::fprintf(stderr,
                   "DIFFERENTIAL FAILURE: windowed modexp diverged from the "
                   "naive ladder\n");
      std::exit(1);
    }
  }

  // The batch lane against the per-call ladder, over all kBases (a
  // whole number of 64-element tiles) and over two ragged prefixes.
  for (size_t n : {kBases, kBases - 5, kRagged}) {
    const std::span<const U256> in(bases.data(), n);
    std::vector<U256> out(n);
    windowed->ModExpBatch(in, out);
    for (size_t i = 0; i < n; ++i) {
      if (!(out[i] == windowed->ModExp(in[i]))) {
        std::fprintf(stderr,
                     "DIFFERENTIAL FAILURE: batch modexp (%s lane, %zu "
                     "bases) diverged from the per-call ladder\n",
                     crypto::FixedExponentContext::BatchLaneName(), n);
        std::exit(1);
      }
    }
  }

  std::printf("production 256-bit group, one fixed %zu-bit exponent, "
              "%zu bases,\nbest of %d passes of at least %.0f ms, single "
              "thread:\n\n",
              key.BitLength(), kBases, kPasses, kMinPassMs);

  U256 sink(0);
  const double naive_ms = BestPassMs([&] {
    for (const U256& base : bases) sink = sink ^ group.Exp(base, key);
  });
  const double naive_ops = 1000.0 * kBases / naive_ms;
  std::printf("  naive ladder:   %10.1f ms  %10.0f modexp/s\n", naive_ms,
              naive_ops);

  const double windowed_ms = BestPassMs([&] {
    for (const U256& base : bases) sink = sink ^ windowed->ModExp(base);
  });
  const double windowed_ops = 1000.0 * kBases / windowed_ms;
  const double ratio = windowed_ops / naive_ops;
  const std::string algo = "window" + std::to_string(windowed->window_bits());
  std::printf("  %s ladder: %10.1f ms  %10.0f modexp/s  (speedup %.2fx)\n\n",
              algo.c_str(), windowed_ms, windowed_ops, ratio);
  // Both ladders ran an odd number of times over the same bases, so the
  // xor sink cancels to zero iff the timed results were bit-identical
  // too — the differential gate applied to the measurement itself.
  if (!sink.IsZero()) {
    std::fprintf(stderr,
                 "DIFFERENTIAL FAILURE: timed ladder outputs diverged\n");
    std::exit(1);
  }

  const char* lane = crypto::FixedExponentContext::BatchLaneName();
  std::vector<U256> lane_out(kBases);
  const double lane_ms =
      BestPassMs([&] { windowed->ModExpBatch(bases, lane_out); });
  const double lane_ops = 1000.0 * kBases / lane_ms;
  std::printf("  batch (%s): %8.1f ms  %10.0f modexp/s  (%.2fx windowed)\n",
              lane, lane_ms, lane_ops, lane_ops / windowed_ops);

  const std::span<const U256> ragged_in(bases.data(), kRagged);
  const std::span<U256> ragged_out(lane_out.data(), kRagged);
  const double ragged_ms = BestPassMs([&] {
    for (int r = 0; r < kRaggedReps; ++r) {
      windowed->ModExpBatch(ragged_in, ragged_out);
    }
  });
  const double ragged_ops = 1000.0 * kRagged * kRaggedReps / ragged_ms;
  std::printf("  batch of %zu:   %8.1f ms  %10.0f modexp/s  (%d batches)\n\n",
              kRagged, ragged_ms, ragged_ops, kRaggedReps);

  // Batch stages on the same cipher: the throughput every protocol path
  // actually sees.
  const int threads = bench::Flags().threads;
  std::vector<U256> batch_in = MakeBases(group, kBatch);
  std::vector<U256> batch_out(kBatch);
  const double batch_ms = BestPassMs([&] {
    crypto::EncryptBatch(*cipher, batch_in, batch_out, threads);
  });
  const double batch_tps = 1000.0 * kBatch / batch_ms;
  std::printf("  EncryptBatch:     %8.1f ms  %10.0f tuples/s  (threads=%d)\n",
              batch_ms, batch_tps, threads);

  std::vector<Bytes> tuples;
  tuples.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    tuples.push_back(ToBytes("tuple-" + std::to_string(i)));
  }
  const double hash_ms = BestPassMs([&] {
    crypto::HashEncryptBatch(
        *cipher, kBatch,
        [&tuples](size_t i) -> const Bytes& { return tuples[i]; }, batch_out,
        threads);
  });
  const double hash_tps = 1000.0 * kBatch / hash_ms;
  std::printf("  HashEncryptBatch: %8.1f ms  %10.0f tuples/s  (threads=%d)\n",
              hash_ms, hash_tps, threads);

  // The batched hash-to-group alone (the commitment's and
  // HashEncryptBatch's first half), single thread, on the probed lane;
  // checked against the per-call hash before it is timed.
  const auto tuple = [&tuples](size_t i) -> const Bytes& { return tuples[i]; };
  std::vector<U256> hashed(kBatch);
  group.HashToElements(tuple, hashed);
  for (size_t i = 0; i < kBatch; ++i) {
    if (!(hashed[i] == group.HashToElement(tuples[i]))) {
      std::fprintf(stderr,
                   "DIFFERENTIAL FAILURE: batched hash-to-group (%s lane) "
                   "diverged from the per-call hash\n",
                   lane);
      std::exit(1);
    }
  }
  const double h2g_ms =
      BestPassMs([&] { group.HashToElements(tuple, hashed); });
  const double h2g_tps = 1000.0 * kBatch / h2g_ms;
  std::printf(
      "  HashToElements:   %8.1f ms  %10.0f tuples/s  (%s, threads=1)\n",
      h2g_ms, h2g_tps, lane);

  // `--min-speedup` gate: windowed vs naive, single thread.
  if (bench::Flags().min_speedup > 0) {
    if (ratio < bench::Flags().min_speedup) {
      std::fprintf(stderr,
                   "modexp: windowed speedup %.2fx below required minimum "
                   "%.2fx\n",
                   ratio, bench::Flags().min_speedup);
      std::exit(1);
    }
    std::printf("\n--min-speedup gate: %.2fx >= %.2fx, ok\n", ratio,
                bench::Flags().min_speedup);
  }

  bench::WriteJsonRecordAlgo("modexp_fixed_exponent", 1, "naive", naive_ops,
                             naive_ms);
  bench::WriteJsonRecordAlgo("modexp_fixed_exponent", 1, algo.c_str(),
                             windowed_ops, windowed_ms);
  bench::WriteJsonRecordAlgo("modexp_encrypt_batch", threads, algo.c_str(),
                             batch_tps, batch_ms);
  bench::WriteJsonRecordAlgo("modexp_hash_encrypt_batch", threads,
                             algo.c_str(), hash_tps, hash_ms);
  bench::WriteJsonRecordAlgo("modexp_fixed_exponent", 1, lane, lane_ops,
                             lane_ms);
  bench::WriteJsonRecordAlgo("modexp_ragged_batch", 1, lane, ragged_ops,
                             ragged_ms);
  bench::WriteJsonRecordAlgo("hash_to_group_batch", 1, lane, h2g_tps, h2g_ms);
}

void BM_ModExpNaive(benchmark::State& state) {
  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  Rng rng(9);
  const U256 key = group.RandomExponent(rng);
  const U256 base = group.HashToElement(ToBytes("bench-base"));
  for (auto _ : state) {
    U256 r = group.Exp(base, key);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ModExpNaive);

void BM_ModExpWindowed(benchmark::State& state) {
  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  Rng rng(9);
  const U256 key = group.RandomExponent(rng);
  crypto::FixedExponentContext ctx = group.FixedExp(key).value();
  const U256 base = group.HashToElement(ToBytes("bench-base"));
  for (auto _ : state) {
    U256 r = ctx.ModExp(base);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ModExpWindowed);

void BM_EncryptBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  Rng rng(9);
  crypto::CommutativeCipher cipher =
      crypto::CommutativeCipher::Create(group, rng).value();
  std::vector<U256> in = MakeBases(group, n);
  std::vector<U256> out(n);
  for (auto _ : state) {
    crypto::EncryptBatch(cipher, in, out, bench::Flags().threads);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EncryptBatch)->Arg(64)->Arg(256);

}  // namespace

HSIS_BENCH_MAIN(PrintMain)
