#ifndef HSIS_COMMON_PARALLEL_H_
#define HSIS_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <string_view>

#include "common/flags.h"
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
///  2. **Dynamic claiming** — participants claim indices one at a time
///     from a shared counter on one persistent pool; no body depends on
///     which participant runs it, so the claim order never reaches a
///     result.
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
/// selects hardware concurrency; anything else is InvalidArgument
/// naming `flag`, the flag the value was given to (`--workers` reads
/// the same values). All bench and example CLIs share this parser and
/// `ParseShardsValue` (common/shard.h), its `--shards=` twin.
Result<int> ParseThreadsValue(std::string_view value,
                              std::string_view flag = "--threads");

/// The `--threads=N` flag (common/flags.h) read by `ParseThreadsValue`
/// into `*threads`.
Flag ThreadsFlag(int* threads);

/// Runs `body(i)` for every `i` in `[0, n)` with up to
/// `k = ResolveThreadCount(threads)` participants and returns once every
/// call has finished. The participants are the calling thread and at
/// most `k - 1` helpers from the process-wide worker pool; each claims
/// the next unclaimed index until none is left. The pool is created on
/// first use and grows to the largest `k - 1` any call has asked for
/// (it never shrinks); a `k`-participant call is only ever joined by
/// pool workers `0 .. k - 2`. The caller never waits for a helper to
/// start, only for indices a helper has already claimed, so `body` may
/// itself call `ParallelFor` and several threads may call it at once.
/// `body` must be safe to invoke concurrently for distinct indices.
/// `threads == 1` (the serial-compatible default everywhere) executes
/// inline with zero threading overhead, and so does a range smaller
/// than `k`.
void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& body);

/// Tile-granular variant: `[0, n)` is split into `ceil(n / tile_size)`
/// contiguous tiles, whole tiles become the scheduling unit, and
/// `body(lo, hi)` receives each whole half-open tile exactly once.
/// This is the entry point for callers that process a tile internally
/// (e.g. `EvalDevicePoints` in game/kernel.h, which loops over a
/// tile's points inside one call): the tile boundaries are the same for
/// every thread count, preserving the bit-identical-results contract.
/// `tile_size == 0` is treated as 1.
void ParallelForTiles(int threads, size_t n, size_t tile_size,
                      const std::function<void(size_t, size_t)>& body);

/// Like `ParallelFor` for fallible bodies: every index still runs, and
/// the returned status is OK iff all bodies succeeded, otherwise the
/// error with the **smallest index** — the same error a serial
/// first-failure loop would report, independent of thread count.
Status ParallelForWithStatus(int threads, size_t n,
                             const std::function<Status(size_t)>& body);

/// Batched `ParallelForWithStatus` for fine grids: the batches are the
/// tiles of `ParallelForTiles(threads, n, batch_size, ...)`, each run
/// on one participant with `body(i)` once per index in ascending order,
/// so results are bit-identical to the unbatched call for every
/// `batch_size`; the error is the smallest failing index's, as in
/// `ParallelForWithStatus`. `batch_size <= 1` runs one index per batch.
Status ParallelForWithStatus(int threads, size_t n, size_t batch_size,
                             const std::function<Status(size_t)>& body);

}  // namespace hsis::common

#endif  // HSIS_COMMON_PARALLEL_H_
