#ifndef HSIS_CRYPTO_CHACHA20_H_
#define HSIS_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/result.h"

namespace hsis::crypto {

/// ChaCha20 stream cipher (RFC 8439). 256-bit key, 96-bit nonce, 32-bit
/// block counter. Encryption and decryption are the same XOR operation.
///
/// Whole keystream blocks have two lanes: a portable scalar one, compiled
/// everywhere, and an AVX2 one that computes eight blocks per step,
/// compiled on x86-64 only. A one-time CPUID probe picks the AVX2 lane
/// when the CPU and the OS support it. Both lanes produce the bytes of
/// `Block`, so the choice never changes a ciphertext; the scalar lane is
/// the oracle the tests hold the AVX2 lane to (DESIGN §6.9).
class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kBlockSize = 64;

  using Key = std::array<uint32_t, 8>;
  using Nonce = std::array<uint32_t, 3>;

  /// Creates a cipher; fails unless key is 32 bytes and nonce 12 bytes.
  static Result<ChaCha20> Create(std::span<const uint8_t> key,
                                 std::span<const uint8_t> nonce,
                                 uint32_t initial_counter = 0);

  /// XORs the next `len` keystream bytes into the `len` bytes at `in`,
  /// writing them to `out` (`in` may equal `out`), and advances the
  /// stream. Fails with InvalidArgument, leaving `out` and the stream as
  /// they were, when the bytes would need a block past counter
  /// 2^32 - 1: the 32-bit counter never wraps, so no keystream block is
  /// used twice (RFC 8439 §2.4).
  Status Process(const uint8_t* in, uint8_t* out, size_t len);

  /// One-shot: returns `data` XOR keystream(key, nonce, counter).
  /// InvalidArgument when `initial_counter + ceil(len / 64) - 1` exceeds
  /// 2^32 - 1.
  static Result<Bytes> Apply(const Bytes& key, const Bytes& nonce,
                             const Bytes& data, uint32_t initial_counter = 0);

  /// The raw 64-byte block function, exposed for test vectors.
  static std::array<uint8_t, 64> Block(const Key& key, const Nonce& nonce,
                                       uint32_t counter);

  /// XORs keystream blocks `counter`, `counter + 1`, ... into `blocks`
  /// whole 64-byte blocks at `in`, writing them to `out` (`in` may equal
  /// `out`), on the portable lane: `Block` per block. The blocks must
  /// not pass counter 2^32 - 1 (checked, fatal).
  static void XorBlocksScalar(const Key& key, const Nonce& nonce,
                              uint32_t counter, const uint8_t* in,
                              uint8_t* out, size_t blocks);

  /// The same on the AVX2 lane: eight blocks per step, the remainder on
  /// the scalar lane. Call it only when `Avx2Supported()`; on other CPUs
  /// and architectures it aborts.
  static void XorBlocksAvx2(const Key& key, const Nonce& nonce,
                            uint32_t counter, const uint8_t* in, uint8_t* out,
                            size_t blocks);

  /// True iff this build has the AVX2 lane, the CPU reports AVX2 and the
  /// OS saves the YMM registers (probed once, on first use).
  static bool Avx2Supported();

  /// The lane every `Process` runs: "avx2" or "scalar".
  static const char* KernelName();

 private:
  ChaCha20(Key key, Nonce nonce, uint32_t counter)
      : key_(key), nonce_(nonce), next_block_(counter) {}

  Key key_;
  Nonce nonce_;
  // Counter of the next fresh keystream block; reaches 2^32 once block
  // 2^32 - 1 is used, after which only the buffered tail remains.
  uint64_t next_block_;
  std::array<uint8_t, 64> keystream_{};
  size_t keystream_pos_ = 64;  // exhausted; fetch on first use
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_CHACHA20_H_
