#include "crypto/chacha20.h"

#include <algorithm>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/logging.h"

namespace hsis::crypto {

namespace {

constexpr uint32_t kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32,
                                0x6b206574};  // "expand 32-byte k"

uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Blocks `counter` .. `counter + blocks - 1` must all exist.
void CheckCounterRange(uint32_t counter, size_t blocks) {
  HSIS_CHECK(blocks <= (uint64_t{1} << 32) - counter)
      << "ChaCha20 lane called past block counter 2^32 - 1";
}

#if defined(__x86_64__)

// CPUID leaf 7 EBX bit 5 is AVX2. It is usable only when the OS saves
// the YMM registers on a context switch: CPUID leaf 1 ECX bit 27
// (OSXSAVE) says XGETBV works, bit 28 is AVX, and XCR0 bits 1 and 2
// (SSE, AVX) must both be set.
bool ProbeAvx2() {
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & (1u << 27)) == 0 || (ecx & (1u << 28)) == 0) return false;
  unsigned int xcr0_lo, xcr0_hi;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6u) != 0x6u) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) != 0;
}

#define HSIS_AVX2 __attribute__((target("avx2")))

template <int N>
HSIS_AVX2 [[gnu::always_inline]] inline __m256i RotlBits(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N),
                         _mm256_srli_epi32(x, 32 - N));
}

// One quarter round on eight blocks at once; rotations by 16 and 8 are
// byte shuffles within each 32-bit word.
HSIS_AVX2 [[gnu::always_inline]] inline void QuarterRound8(
    __m256i& a, __m256i& b, __m256i& c, __m256i& d, __m256i rot16,
    __m256i rot8) {
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = RotlBits<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = RotlBits<7>(_mm256_xor_si256(b, c));
}

// w[j] holds word j of eight blocks, block b in 32-bit lane b. Transposes
// the 8x8 word matrix so that each register holds eight consecutive
// words of one block, and XORs them into bytes `offset` .. `offset + 31`
// of each of the eight 64-byte blocks at `in`, writing `out`.
HSIS_AVX2 [[gnu::always_inline]] inline void XorTransposed(
    const __m256i* w, const uint8_t* in, uint8_t* out, size_t offset) {
  // Pairs of words: t0 = (w0[0] w1[0] w0[1] w1[1] | w0[4] w1[4] ...).
  const __m256i t0 = _mm256_unpacklo_epi32(w[0], w[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(w[0], w[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(w[2], w[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(w[2], w[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(w[4], w[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(w[4], w[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(w[6], w[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(w[6], w[7]);
  // Quads: u0 = words 0-3 of block 0 | of block 4; u1 blocks 1 | 5, ...
  const __m256i u[8] = {
      _mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
      _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3),
      _mm256_unpacklo_epi64(t4, t6), _mm256_unpackhi_epi64(t4, t6),
      _mm256_unpacklo_epi64(t5, t7), _mm256_unpackhi_epi64(t5, t7),
  };
  const __m256i rows[8] = {
      _mm256_permute2x128_si256(u[0], u[4], 0x20),
      _mm256_permute2x128_si256(u[1], u[5], 0x20),
      _mm256_permute2x128_si256(u[2], u[6], 0x20),
      _mm256_permute2x128_si256(u[3], u[7], 0x20),
      _mm256_permute2x128_si256(u[0], u[4], 0x31),
      _mm256_permute2x128_si256(u[1], u[5], 0x31),
      _mm256_permute2x128_si256(u[2], u[6], 0x31),
      _mm256_permute2x128_si256(u[3], u[7], 0x31),
  };
  for (size_t b = 0; b < 8; ++b) {
    const size_t at = 64 * b + offset;
    const __m256i data =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + at));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + at),
                        _mm256_xor_si256(rows[b], data));
  }
}

// Eight blocks per step: register j holds state word j of blocks
// counter .. counter + 7, one block per 32-bit lane.
HSIS_AVX2 void XorGroupsAvx2(const ChaCha20::Key& key,
                             const ChaCha20::Nonce& nonce, uint32_t counter,
                             const uint8_t* in, uint8_t* out, size_t groups) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,  //
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,  //
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  const __m256i lane_offsets = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i state[16];
  for (int i = 0; i < 4; ++i) {
    state[i] = _mm256_set1_epi32(static_cast<int>(kSigma[i]));
  }
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = _mm256_set1_epi32(static_cast<int>(key[i]));
  }
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = _mm256_set1_epi32(static_cast<int>(nonce[i]));
  }
  for (size_t g = 0; g < groups; ++g, counter += 8, in += 512, out += 512) {
    state[12] = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(counter)), lane_offsets);
    __m256i x[16];
    for (int i = 0; i < 16; ++i) x[i] = state[i];
    for (int round = 0; round < 10; ++round) {
      QuarterRound8(x[0], x[4], x[8], x[12], rot16, rot8);
      QuarterRound8(x[1], x[5], x[9], x[13], rot16, rot8);
      QuarterRound8(x[2], x[6], x[10], x[14], rot16, rot8);
      QuarterRound8(x[3], x[7], x[11], x[15], rot16, rot8);
      QuarterRound8(x[0], x[5], x[10], x[15], rot16, rot8);
      QuarterRound8(x[1], x[6], x[11], x[12], rot16, rot8);
      QuarterRound8(x[2], x[7], x[8], x[13], rot16, rot8);
      QuarterRound8(x[3], x[4], x[9], x[14], rot16, rot8);
    }
    for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], state[i]);
    XorTransposed(x, in, out, 0);
    XorTransposed(x + 8, in, out, 32);
  }
}

#else

bool ProbeAvx2() { return false; }

#endif  // defined(__x86_64__)

using XorBlocksFn = void (*)(const ChaCha20::Key&, const ChaCha20::Nonce&,
                             uint32_t, const uint8_t*, uint8_t*, size_t);

XorBlocksFn ActiveXorBlocks() {
  static const XorBlocksFn active = ChaCha20::Avx2Supported()
                                        ? &ChaCha20::XorBlocksAvx2
                                        : &ChaCha20::XorBlocksScalar;
  return active;
}

}  // namespace

std::array<uint8_t, 64> ChaCha20::Block(const Key& key, const Nonce& nonce,
                                        uint32_t counter) {
  uint32_t state[16] = {
      kSigma[0], kSigma[1], kSigma[2], kSigma[3],
      key[0],    key[1],    key[2],    key[3],
      key[4],    key[5],    key[6],    key[7],
      counter,   nonce[0],  nonce[1],  nonce[2],
  };
  uint32_t working[16];
  for (int i = 0; i < 16; ++i) working[i] = state[i];

  for (int round = 0; round < 10; ++round) {
    QuarterRound(working[0], working[4], working[8], working[12]);
    QuarterRound(working[1], working[5], working[9], working[13]);
    QuarterRound(working[2], working[6], working[10], working[14]);
    QuarterRound(working[3], working[7], working[11], working[15]);
    QuarterRound(working[0], working[5], working[10], working[15]);
    QuarterRound(working[1], working[6], working[11], working[12]);
    QuarterRound(working[2], working[7], working[8], working[13]);
    QuarterRound(working[3], working[4], working[9], working[14]);
  }

  std::array<uint8_t, 64> out;
  for (int i = 0; i < 16; ++i) {
    uint32_t v = working[i] + state[i];
    out[4 * i] = static_cast<uint8_t>(v);
    out[4 * i + 1] = static_cast<uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(v >> 24);
  }
  return out;
}

void ChaCha20::XorBlocksScalar(const Key& key, const Nonce& nonce,
                               uint32_t counter, const uint8_t* in,
                               uint8_t* out, size_t blocks) {
  CheckCounterRange(counter, blocks);
  for (; blocks > 0; --blocks, ++counter) {
    const std::array<uint8_t, 64> block = Block(key, nonce, counter);
    for (size_t i = 0; i < kBlockSize; ++i) out[i] = in[i] ^ block[i];
    in += kBlockSize;
    out += kBlockSize;
  }
}

void ChaCha20::XorBlocksAvx2(const Key& key, const Nonce& nonce,
                             uint32_t counter, const uint8_t* in,
                             uint8_t* out, size_t blocks) {
#if defined(__x86_64__)
  HSIS_CHECK(Avx2Supported()) << "AVX2 lane called on a CPU without AVX2";
  CheckCounterRange(counter, blocks);
  const size_t groups = blocks / 8;
  XorGroupsAvx2(key, nonce, counter, in, out, groups);
  const size_t done = groups * 8;
  XorBlocksScalar(key, nonce, counter + static_cast<uint32_t>(done),
                  in + done * kBlockSize, out + done * kBlockSize,
                  blocks - done);
#else
  (void)key;
  (void)nonce;
  (void)counter;
  (void)in;
  (void)out;
  (void)blocks;
  HSIS_LOG_FATAL << "AVX2 lane is not compiled on this architecture";
#endif
}

bool ChaCha20::Avx2Supported() {
  static const bool supported = ProbeAvx2();
  return supported;
}

const char* ChaCha20::KernelName() {
  return ActiveXorBlocks() == &XorBlocksAvx2 ? "avx2" : "scalar";
}

Result<ChaCha20> ChaCha20::Create(std::span<const uint8_t> key,
                                  std::span<const uint8_t> nonce,
                                  uint32_t initial_counter) {
  if (key.size() != kKeySize) {
    return Status::InvalidArgument("ChaCha20 key must be 32 bytes");
  }
  if (nonce.size() != kNonceSize) {
    return Status::InvalidArgument("ChaCha20 nonce must be 12 bytes");
  }
  Key k;
  for (int i = 0; i < 8; ++i) k[i] = LoadLE32(&key[4 * static_cast<size_t>(i)]);
  Nonce n;
  for (int i = 0; i < 3; ++i) n[i] = LoadLE32(&nonce[4 * static_cast<size_t>(i)]);
  return ChaCha20(k, n, initial_counter);
}

Status ChaCha20::Process(const uint8_t* in, uint8_t* out, size_t len) {
  constexpr uint64_t kCounterLimit = uint64_t{1} << 32;
  const size_t buffered = std::min(len, kBlockSize - keystream_pos_);
  const uint64_t fresh_blocks = (len - buffered + kBlockSize - 1) / kBlockSize;
  if (fresh_blocks > kCounterLimit - next_block_) {
    return Status::InvalidArgument(
        "ChaCha20 block counter would wrap past 2^32 - 1");
  }

  // The rest of the last block, then whole blocks, then a buffered tail.
  for (size_t i = 0; i < buffered; ++i) {
    out[i] = in[i] ^ keystream_[keystream_pos_ + i];
  }
  keystream_pos_ += buffered;
  in += buffered;
  out += buffered;
  len -= buffered;
  const size_t whole = len / kBlockSize;
  if (whole > 0) {
    ActiveXorBlocks()(key_, nonce_, static_cast<uint32_t>(next_block_), in,
                      out, whole);
    next_block_ += whole;
    in += whole * kBlockSize;
    out += whole * kBlockSize;
    len -= whole * kBlockSize;
  }
  if (len > 0) {
    keystream_ = Block(key_, nonce_, static_cast<uint32_t>(next_block_++));
    for (size_t i = 0; i < len; ++i) out[i] = in[i] ^ keystream_[i];
    keystream_pos_ = len;
  }
  return Status::OK();
}

Result<Bytes> ChaCha20::Apply(const Bytes& key, const Bytes& nonce,
                              const Bytes& data, uint32_t initial_counter) {
  HSIS_ASSIGN_OR_RETURN(ChaCha20 cipher, Create(key, nonce, initial_counter));
  Bytes out(data.size());
  HSIS_RETURN_IF_ERROR(cipher.Process(data.data(), out.data(), data.size()));
  return out;
}

}  // namespace hsis::crypto
