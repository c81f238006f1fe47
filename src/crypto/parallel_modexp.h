#ifndef HSIS_CRYPTO_PARALLEL_MODEXP_H_
#define HSIS_CRYPTO_PARALLEL_MODEXP_H_

#include <span>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/u256.h"
#include "crypto/commutative_cipher.h"

/// \file
/// \brief Deterministic parallel batch stages for the commutative
/// cipher — the modexp hot loop of the intersection protocol.
///
/// Per-tuple SRA encryption is a full 256-bit modular exponentiation, so
/// at production data sizes (10^5–10^6 tuples) the crypto throughput,
/// not the set logic, bounds the protocol. Both stages here follow the
/// batched-crypto idiom: amortize the fixed per-batch cost, fan the
/// independent exponentiations out over `common::ParallelForTiles`, and
/// write each result into its ordered output slot, so a batch is
/// bit-identical for every thread count (the determinism contract of
/// common/parallel.h). Encryption itself is deterministic — no RNG is
/// consumed — which is what makes the fan-out safe.
///
/// The element accessor of `HashEncryptBatch` is a template parameter
/// (not `std::function`), and both stages hand the pool whole tiles of
/// `kModexpBatchTile` elements: the only indirect call is the per-tile
/// dispatch into the worker body, never per element.

namespace hsis::crypto {

/// Elements per scheduling unit. One modexp is microseconds of work, so
/// a tile this size makes the per-tile dispatch cost invisible while
/// still splitting a 4096-element list across every worker.
inline constexpr size_t kModexpBatchTile = 64;

/// out[i] = cipher.Encrypt(in[i]) for every i, fanned out over
/// `threads` workers (0 = hardware concurrency; resolved via
/// `common::ResolveThreadCount`). Each tile is one
/// `CommutativeCipher::EncryptBatch` call. `out.size()` must equal
/// `in.size()` (checked, fatal); `out` may be `in` itself (in place) but
/// must not partially overlap it.
void EncryptBatch(const CommutativeCipher& cipher, std::span<const U256> in,
                  std::span<U256> out, int threads);

/// Fused hash-to-group + encrypt over a batch of opaque byte strings:
/// out[i] = cipher.Encrypt(HashToElement(get(i))). `Get` is any callable
/// `size_t -> const Bytes&` (a read-only indexed view such as a dataset
/// chunk); it is instantiated directly into the tile loop, and must be
/// safe to call concurrently for distinct i. Each tile hashes into its
/// output slots as one `PrimeGroup::HashToElements` batch and encrypts
/// them in place. `out.size()` must equal `n` (checked, fatal).
template <typename Get>
void HashEncryptBatch(const CommutativeCipher& cipher, size_t n,
                      const Get& get, std::span<U256> out, int threads) {
  HSIS_CHECK(out.size() == n)
      << "HashEncryptBatch: " << out.size() << " outputs for " << n
      << " inputs";
  const PrimeGroup& group = cipher.group();
  common::ParallelForTiles(threads, n, kModexpBatchTile,
                           [&](size_t lo, size_t hi) {
                             std::span<U256> tile = out.subspan(lo, hi - lo);
                             group.HashToElements(
                                 [&](size_t i) -> const Bytes& {
                                   return get(lo + i);
                                 },
                                 tile);
                             cipher.EncryptBatch(tile, tile);
                           });
}

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_PARALLEL_MODEXP_H_
