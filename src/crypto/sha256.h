#ifndef HSIS_CRYPTO_SHA256_H_
#define HSIS_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"

namespace hsis::crypto {

/// Incremental SHA-256 (FIPS 180-4). Implemented from scratch — the
/// project uses no external crypto libraries. Verified against the NIST
/// test vectors in tests/crypto/sha256_test.cc.
///
/// The compression function has two lanes: a portable scalar one,
/// compiled everywhere, and one on the x86 SHA extensions (SHA-NI),
/// compiled on x86-64 only. A one-time CPUID probe picks the SHA-NI lane
/// when the CPU has it. Both lanes compute the same function, so the
/// choice never changes a digest; the scalar lane is the oracle the
/// differential tests hold the SHA-NI lane to (DESIGN §6.9).
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  /// The eight 32-bit chaining words H0..H7.
  using State = std::array<uint32_t, 8>;

  /// A digest held by value, for the forms that do not allocate.
  using Digest = std::array<uint8_t, kDigestSize>;

  Sha256();

  /// Absorbs `data` into the running hash. Whole blocks are compressed
  /// straight from `data`; only a partial tail is buffered.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finalizes into `out`. The object may not be updated afterwards;
  /// construct a fresh instance for a new message.
  void Finish(Digest& out);

  /// `Finish` into a fresh 32-byte buffer.
  Bytes Finish();

  /// One-shot digest into `out`, with no heap allocation.
  static void Hash(std::span<const uint8_t> data, Digest& out);

  /// out[i] = the digest of messages[i] for every i (`out.size()` must
  /// equal `messages.size()`, checked, fatal), with no heap allocation.
  /// Short messages hash ~1.4x as fast as one by one through `Hash`: the
  /// compressions of neighbouring messages overlap.
  static void HashEach(std::span<const std::span<const uint8_t>> messages,
                       std::span<Digest> out);

  /// One-shot convenience.
  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

  /// The compression function over `n` consecutive 64-byte blocks, on
  /// the portable lane.
  static void CompressScalar(State& state, const uint8_t* blocks, size_t n);

  /// The same on the SHA-NI lane. Call it only when `ShaNiSupported()`;
  /// on other CPUs and architectures it aborts.
  static void CompressShaNi(State& state, const uint8_t* blocks, size_t n);

  /// True iff this build has the SHA-NI lane and the CPU reports the SHA
  /// and SSE4.1 extensions (probed once, on first use).
  static bool ShaNiSupported();

  /// The lane every `Sha256` runs: "sha-ni" or "scalar".
  static const char* KernelName();

 private:
  /// Runs the lane the CPU probe selected.
  static void Compress(State& state, const uint8_t* blocks, size_t n);

  State state_;
  std::array<uint8_t, kBlockSize> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_SHA256_H_
