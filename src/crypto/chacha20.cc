#include "crypto/chacha20.h"

#include <algorithm>

namespace hsis::crypto {

namespace {

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

}  // namespace

std::array<uint8_t, 64> ChaCha20::Block(const std::array<uint32_t, 8>& key,
                                        const std::array<uint32_t, 3>& nonce,
                                        uint32_t counter) {
  uint32_t state[16] = {
      0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,  // "expand 32-byte k"
      key[0],     key[1],     key[2],     key[3],
      key[4],     key[5],     key[6],     key[7],
      counter,    nonce[0],   nonce[1],   nonce[2],
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

Result<ChaCha20> ChaCha20::Create(std::span<const uint8_t> key,
                                  std::span<const uint8_t> nonce,
                                  uint32_t initial_counter) {
  if (key.size() != kKeySize) {
    return Status::InvalidArgument("ChaCha20 key must be 32 bytes");
  }
  if (nonce.size() != kNonceSize) {
    return Status::InvalidArgument("ChaCha20 nonce must be 12 bytes");
  }
  std::array<uint32_t, 8> k;
  for (int i = 0; i < 8; ++i) k[i] = LoadLE32(&key[4 * static_cast<size_t>(i)]);
  std::array<uint32_t, 3> n;
  for (int i = 0; i < 3; ++i) n[i] = LoadLE32(&nonce[4 * static_cast<size_t>(i)]);
  return ChaCha20(k, n, initial_counter);
}

Status ChaCha20::Process(const uint8_t* in, uint8_t* out, size_t len) {
  constexpr size_t kBlockBytes = 64;
  constexpr uint64_t kCounterLimit = uint64_t{1} << 32;
  const size_t buffered = std::min(len, kBlockBytes - keystream_pos_);
  const uint64_t fresh_blocks =
      (len - buffered + kBlockBytes - 1) / kBlockBytes;
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
  for (; len >= kBlockBytes; len -= kBlockBytes) {
    const std::array<uint8_t, 64> block =
        Block(key_, nonce_, static_cast<uint32_t>(next_block_++));
    for (size_t i = 0; i < kBlockBytes; ++i) out[i] = in[i] ^ block[i];
    in += kBlockBytes;
    out += kBlockBytes;
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
