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

constexpr Sha256::State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                         0xa54ff53a, 0x510e527f, 0x9b05688c,
                                         0x1f83d9ab, 0x5be0cd19};

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

Sha256::Sha256() : state_(kInitialState) {}

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

namespace {

// Writes the padded tail of a `total_len`-byte message, whose last `len`
// (< 64) bytes are at `tail`, over the blocks at `last` (room for two):
// the tail, 0x80, zeros, then the 64-bit bit length. Returns its block
// count: one when the length fits after the 0x80, two otherwise.
size_t PadTail(const uint8_t* tail, size_t len, uint64_t total_len,
               uint8_t* last) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  const size_t blocks = len + 1 + 8 <= kBlock ? 1 : 2;
  std::memset(last, 0, blocks * kBlock);
  if (len > 0) std::memcpy(last, tail, len);  // an empty message has no data
  last[len] = 0x80;
  const uint64_t bit_len = BigEndian64(total_len * 8);
  std::memcpy(last + blocks * kBlock - 8, &bit_len, 8);
  return blocks;
}

// Two chaining words per big-endian 8-byte store.
void StoreDigest(const Sha256::State& state, Sha256::Digest& out) {
  for (size_t i = 0; i < 4; ++i) {
    const uint64_t word = BigEndian64(uint64_t{state[2 * i]} << 32 |
                                      state[2 * i + 1]);
    std::memcpy(out.data() + 8 * i, &word, sizeof(word));
  }
}

}  // namespace

void Sha256::Finish(Digest& out) {
  HSIS_CHECK(!finished_) << "Sha256::Finish() called twice";
  finished_ = true;
  uint8_t last[2 * kBlockSize];
  Compress(state_, last,
           PadTail(buffer_.data(), buffer_len_, total_len_, last));
  StoreDigest(state_, out);
}

Bytes Sha256::Finish() {
  Digest digest;
  Finish(digest);
  return Bytes(digest.begin(), digest.end());
}

void Sha256::Hash(std::span<const uint8_t> data, Digest& out) {
  HashEach(std::span(&data, 1), std::span(&out, 1));
}

void Sha256::HashEach(std::span<const std::span<const uint8_t>> messages,
                      std::span<Digest> out) {
  HSIS_CHECK(out.size() == messages.size())
      << "Sha256::HashEach: " << out.size() << " digests for "
      << messages.size() << " messages";
  // Every tail of a group is padded before any is compressed: a
  // compression that loads padding stored just before it waits for
  // those stores, and the compressions of consecutive messages could
  // not overlap.
  constexpr size_t kGroup = 16;
  uint8_t last[kGroup][2 * kBlockSize];
  size_t blocks[kGroup];
  for (size_t lo = 0; lo < messages.size(); lo += kGroup) {
    const size_t count = std::min(kGroup, messages.size() - lo);
    for (size_t k = 0; k < count; ++k) {
      const std::span<const uint8_t> data = messages[lo + k];
      const size_t whole = data.size() - data.size() % kBlockSize;
      blocks[k] = PadTail(data.data() + whole, data.size() - whole,
                          data.size(), last[k]);
    }
    for (size_t k = 0; k < count; ++k) {
      const std::span<const uint8_t> data = messages[lo + k];
      State state = kInitialState;
      if (data.size() >= kBlockSize) {
        Compress(state, data.data(), data.size() / kBlockSize);
      }
      Compress(state, last[k], blocks[k]);
      StoreDigest(state, out[lo + k]);
    }
  }
}

Bytes Sha256::Hash(const Bytes& data) {
  Digest digest;
  Hash(data, digest);
  return Bytes(digest.begin(), digest.end());
}

Bytes Sha256::Hash(std::string_view data) {
  Digest digest;
  Hash(std::span(reinterpret_cast<const uint8_t*>(data.data()), data.size()),
       digest);
  return Bytes(digest.begin(), digest.end());
}

}  // namespace hsis::crypto
