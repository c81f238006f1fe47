#ifndef HSIS_COMMON_PARALLEL_H_
#define HSIS_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// \file
/// \brief Deterministic data-parallel engine for the sweep / simulation
/// hot paths.
///
/// The contract every user relies on:
///
///  1. **Ordered slots** — `ParallelFor(threads, n, body)` runs
///     `body(i)` exactly once for each index in `[0, n)`; callers write
///     result `i` into a pre-sized output slot `i`, so the assembled
///     output is in input order no matter how indices were scheduled.
///  2. **Static chunking** — indices are split into `size()` contiguous
///     chunks up front (no work stealing), so a run never depends on
///     scheduling races.
///  3. **Per-index randomness** — stochastic bodies must draw from
///     `Rng::ForIndex(base_seed, i)` (see common/random.h) instead of a
///     shared generator, which makes every index's stream a pure
///     function of `(base_seed, i)`.
///
/// Together these make results bit-identical across thread counts:
/// `threads = 1`, `threads = 2`, and hardware concurrency all produce
/// the same bytes.
///
/// \par Usage
/// \code
///   std::vector<double> out(n);
///   common::ParallelFor(threads, n, [&](size_t i) {
///     Rng rng = Rng::ForIndex(base_seed, i);   // per-index stream
///     out[i] = Simulate(rng);                  // ordered slot i
///   });
///   // `out` is bit-identical for every `threads` value.
/// \endcode

/// \namespace hsis
/// \brief Reproduction of "On Honesty in Sovereign Information Sharing"
/// (Agrawal & Terzi, EDBT 2006): crypto substrate, game-theoretic core,
/// simulation and audit layers.

/// \namespace hsis::common
/// \brief Infrastructure shared by every layer: status/result error
/// model, deterministic parallelism, sharding, scheduling, file and
/// record utilities.

namespace hsis::common {

/// Number of hardware threads, never less than 1.
int HardwareConcurrency();

/// Resolves a user-facing `threads` knob: 0 selects hardware
/// concurrency, negative values are clamped to 1.
int ResolveThreadCount(int threads);

/// Resolves the value of a user-facing `--threads=` flag: an integer in
/// [0, INT_MAX] read by `ParseIntFlag` (common/flags.h), where "0"
/// selects hardware concurrency; anything else is InvalidArgument. All
/// bench and example CLIs share this parser and `ParseShardsValue`
/// (common/shard.h), its `--shards=` twin.
Result<int> ParseThreadsValue(std::string_view value);

/// A fixed-size pool of worker threads executing index-range jobs. The
/// calling thread participates as worker 0, so `ThreadPool(1)` spawns
/// no threads at all and degenerates to a plain loop.
class ThreadPool {
 public:
  /// `threads` is resolved via `ResolveThreadCount` (0 = hardware).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers including the calling thread.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `body(i)` for every `i` in `[0, n)` and returns once all
  /// calls completed. Chunk `w` of `size()` static contiguous chunks is
  /// executed by worker `w`; the calling thread runs chunk 0. `body`
  /// must be safe to invoke concurrently for distinct indices. Not
  /// reentrant: do not call `Run` from inside `body`.
  void Run(size_t n, const std::function<void(size_t)>& body);

  /// Static chunk `w` of `[0, n)` split into `k` contiguous chunks:
  /// `[n*w/k, n*(w+1)/k)`. Exposed for callers that need to reason
  /// about the partition (e.g. per-chunk scratch buffers).
  static std::pair<size_t, size_t> ChunkBounds(size_t n, int k, int w);

 private:
  void WorkerLoop(int worker_id);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;  // bumped per job; workers watch it
  size_t job_n_ = 0;
  const std::function<void(size_t)>* job_body_ = nullptr;
  int pending_workers_ = 0;
  bool shutdown_ = false;
};

/// One-shot facade: runs `body(i)` for `i` in `[0, n)` on a transient
/// pool of `ResolveThreadCount(threads)` workers. `threads == 1` (the
/// serial-compatible default everywhere) executes inline with zero
/// threading overhead, and a range smaller than the resolved thread
/// count falls back to the same inline loop instead of spawning
/// workers that would receive empty or single-index chunks.
void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& body);

/// Batched variant for fine grids: `[0, n)` is split into
/// `ceil(n / batch_size)` contiguous batches and whole batches become
/// the scheduling unit. `body(i)` still runs exactly once per index in
/// ascending order within each batch, so results are bit-identical to
/// the unbatched call for every `batch_size`; only the per-index
/// `std::function` dispatch overhead shrinks to one call per batch.
/// `batch_size <= 1` degenerates to the unbatched `ParallelFor`.
void ParallelFor(int threads, size_t n, size_t batch_size,
                 const std::function<void(size_t)>& body);

/// Tile-granular variant: `[0, n)` is split into the same
/// `ceil(n / tile_size)` contiguous tiles as the batched `ParallelFor`
/// and `body(lo, hi)` receives each whole half-open tile exactly once,
/// with the identical static schedule. This is the entry point for
/// callers that process a tile internally (e.g. the batch evaluators
/// of game/kernel.h, which loop over a tile's rows inside one call):
/// the tile boundaries are the same for every thread count,
/// preserving the bit-identical-results contract.
/// `tile_size == 0` is treated as 1.
void ParallelForTiles(int threads, size_t n, size_t tile_size,
                      const std::function<void(size_t, size_t)>& body);

/// Like `ParallelFor` for fallible bodies: every index still runs, and
/// the returned status is OK iff all bodies succeeded, otherwise the
/// error with the **smallest index** — the same error a serial
/// first-failure loop would report, independent of thread count.
Status ParallelForWithStatus(int threads, size_t n,
                             const std::function<Status(size_t)>& body);

/// Batched `ParallelForWithStatus`: batching semantics of the batched
/// `ParallelFor`, error semantics (smallest failing index wins) of
/// `ParallelForWithStatus`.
Status ParallelForWithStatus(int threads, size_t n, size_t batch_size,
                             const std::function<Status(size_t)>& body);

/// Maps `i -> fn(i)` over `[0, n)` into an order-preserving vector
/// (slot `i` holds `fn(i)`). The element type must be default
/// constructible.
template <typename Fn>
auto ParallelMap(int threads, size_t n, Fn&& fn)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(n);
  ParallelFor(threads, n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace hsis::common

#endif  // HSIS_COMMON_PARALLEL_H_
