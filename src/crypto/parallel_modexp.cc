#include "crypto/parallel_modexp.h"

namespace hsis::crypto {

void EncryptBatch(const CommutativeCipher& cipher, std::span<const U256> in,
                  std::span<U256> out, int threads) {
  HSIS_CHECK(out.size() == in.size())
      << "EncryptBatch: " << out.size() << " outputs for " << in.size()
      << " inputs";
  common::ParallelForTiles(threads, in.size(), kModexpBatchTile,
                           [&](size_t lo, size_t hi) {
                             cipher.EncryptBatch(in.subspan(lo, hi - lo),
                                                 out.subspan(lo, hi - lo));
                           });
}

}  // namespace hsis::crypto
