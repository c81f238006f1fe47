#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/logging.h"

namespace hsis::crypto {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// CPUID leaf 7 EBX bit 29 is the SHA extensions; leaf 1 ECX bits 9 and
// 19 are SSSE3 and SSE4.1, which the SHA-NI lane also uses.
bool ProbeShaNi() {
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse41 = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return sse41 && (ebx & (1u << 29)) != 0;
}

// Four rounds per step i (0..15). The state lives in the ABEF/CDGH
// register split SHA256RNDS2 expects; the message schedule is a ring of
// four vectors, w[i % 4] = words 4i..4i+3. Step i derives the words of
// step i + 1 before it runs SHA256MSG1 on the words of step i - 1,
// which step i + 1 still reads raw. Fully unrolled, the ring indices
// are constants and the ring stays in registers.
__attribute__((target("sha,sse4.1"))) void CompressShaNiImpl(
    Sha256::State& state, const uint8_t* blocks, size_t n) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);          // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; n > 0; --n, blocks += Sha256::kBlockSize) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
            kByteSwap);
      }
      __m128i msg = _mm_add_epi32(
          w[i % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        &kRoundConstants[4 * i])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (i >= 3 && i <= 14) {
        // w[(i + 1) % 4] holds SHA256MSG1 of the words of step i - 3.
        w[(i + 1) % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(w[(i + 1) % 4],
                          _mm_alignr_epi8(w[i % 4], w[(i + 3) % 4], 4)),
            w[i % 4]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (i >= 1 && i <= 12) {
        w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], w[i % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // ABEF
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#else

bool ProbeShaNi() { return false; }

#endif  // defined(__x86_64__)

using CompressFn = void (*)(Sha256::State&, const uint8_t*, size_t);

CompressFn ActiveCompress() {
  static const CompressFn active = Sha256::ShaNiSupported()
                                       ? &Sha256::CompressShaNi
                                       : &Sha256::CompressScalar;
  return active;
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::CompressScalar(State& state, const uint8_t* blocks, size_t n) {
  for (; n > 0; --n, blocks += kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

void Sha256::CompressShaNi(State& state, const uint8_t* blocks, size_t n) {
#if defined(__x86_64__)
  HSIS_CHECK(ShaNiSupported()) << "SHA-NI lane called on a CPU without SHA";
  CompressShaNiImpl(state, blocks, n);
#else
  (void)state;
  (void)blocks;
  (void)n;
  HSIS_LOG_FATAL << "SHA-NI lane is not compiled on this architecture";
#endif
}

bool Sha256::ShaNiSupported() {
  static const bool supported = ProbeShaNi();
  return supported;
}

const char* Sha256::KernelName() {
  return ActiveCompress() == &CompressShaNi ? "sha-ni" : "scalar";
}

void Sha256::Compress(State& state, const uint8_t* blocks, size_t n) {
  ActiveCompress()(state, blocks, n);
}

void Sha256::Update(const uint8_t* data, size_t len) {
  HSIS_CHECK(!finished_) << "Sha256 updated after Finish()";
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    Compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const size_t blocks = len / kBlockSize;
  if (blocks > 0) {
    Compress(state_, data, blocks);
    data += blocks * kBlockSize;
    len -= blocks * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Bytes Sha256::Finish() {
  HSIS_CHECK(!finished_) << "Sha256::Finish() called twice";
  finished_ = true;

  // 0x80, zeros up to byte 56 of a block, then the 64-bit bit length.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    Compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(state_, buffer_.data(), 1);

  Bytes digest(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  return h.Finish();
}

}  // namespace hsis::crypto
