#include "crypto/chacha20.h"

#include <gtest/gtest.h>

namespace hsis::crypto {
namespace {

Bytes MustHex(std::string_view h) {
  Result<Bytes> r = HexDecode(h);
  EXPECT_TRUE(r.ok());
  return *r;
}

// RFC 8439 section 2.3.2 block-function test vector.
TEST(ChaCha20Test, Rfc8439BlockFunction) {
  std::array<uint32_t, 8> key;
  for (uint32_t i = 0; i < 8; ++i) {
    key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
             ((4 * i + 3) << 24);
  }
  std::array<uint32_t, 3> nonce = {0x09000000, 0x4a000000, 0x00000000};
  std::array<uint8_t, 64> block = ChaCha20::Block(key, nonce, 1);
  Bytes got(block.begin(), block.end());
  EXPECT_EQ(HexEncode(got),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 section 2.4.2 encryption test vector.
TEST(ChaCha20Test, Rfc8439Encryption) {
  Bytes key = MustHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = MustHex("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Result<Bytes> ct =
      ChaCha20::Apply(key, nonce, ToBytes(plaintext), /*initial_counter=*/1);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, EncryptDecryptRoundTrip) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x07);
  Bytes msg = ToBytes("round trip message of arbitrary length 12345");
  Result<Bytes> ct = ChaCha20::Apply(key, nonce, msg);
  ASSERT_TRUE(ct.ok());
  EXPECT_NE(*ct, msg);
  Result<Bytes> pt = ChaCha20::Apply(key, nonce, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST(ChaCha20Test, StreamingMatchesOneShot) {
  Bytes key(32, 0x11);
  Bytes nonce(12, 0x22);
  Bytes msg(1000);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);

  Result<Bytes> oneshot = ChaCha20::Apply(key, nonce, msg);
  ASSERT_TRUE(oneshot.ok());

  Result<ChaCha20> cipher = ChaCha20::Create(key, nonce);
  ASSERT_TRUE(cipher.ok());
  Bytes streamed;
  for (size_t off = 0; off < msg.size(); off += 37) {
    size_t n = std::min<size_t>(37, msg.size() - off);
    Bytes chunk(msg.begin() + static_cast<ptrdiff_t>(off),
                msg.begin() + static_cast<ptrdiff_t>(off + n));
    ASSERT_TRUE(
        cipher->Process(chunk.data(), chunk.data(), chunk.size()).ok());
    Append(streamed, chunk);
  }
  EXPECT_EQ(streamed, *oneshot);
}

TEST(ChaCha20Test, RejectsBadKeyOrNonceSize) {
  EXPECT_FALSE(ChaCha20::Create(Bytes(31, 0), Bytes(12, 0)).ok());
  EXPECT_FALSE(ChaCha20::Create(Bytes(32, 0), Bytes(11, 0)).ok());
  EXPECT_TRUE(ChaCha20::Create(Bytes(32, 0), Bytes(12, 0)).ok());
}

TEST(ChaCha20Test, DifferentNoncesDifferentStreams) {
  Bytes key(32, 0x01);
  Bytes msg(64, 0x00);
  Result<Bytes> a = ChaCha20::Apply(key, Bytes(12, 0x01), msg);
  Result<Bytes> b = ChaCha20::Apply(key, Bytes(12, 0x02), msg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
}

// Split points on both sides of every 64-byte block edge: each Process
// call starts mid-block, ends mid-block, or spans whole blocks, and the
// concatenation must equal the one-shot keystream.
TEST(ChaCha20Test, ProcessAcrossBlockEdgesMatchesApply) {
  Bytes key(32, 0x3c);
  Bytes nonce(12, 0x5d);
  Bytes msg(700);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i * 7);
  Result<Bytes> oneshot = ChaCha20::Apply(key, nonce, msg, 5);
  ASSERT_TRUE(oneshot.ok());

  const std::vector<std::vector<size_t>> splits = {
      {1, 63, 64, 65, 127, 128, 129, 700},
      {63, 191, 192, 193, 700},
      {64, 128, 320, 321, 700},
      {0, 0, 200, 200, 700},
      {700},
  };
  for (const std::vector<size_t>& cuts : splits) {
    Result<ChaCha20> cipher = ChaCha20::Create(key, nonce, 5);
    ASSERT_TRUE(cipher.ok());
    Bytes streamed;
    size_t from = 0;
    for (size_t to : cuts) {
      Bytes piece(msg.begin() + static_cast<ptrdiff_t>(from),
                  msg.begin() + static_cast<ptrdiff_t>(to));
      ASSERT_TRUE(
          cipher->Process(piece.data(), piece.data(), piece.size()).ok());
      Append(streamed, piece);
      from = to;
    }
    EXPECT_EQ(streamed, *oneshot) << "first cut at " << cuts.front();
  }
}

// RFC 8439 §2.4: the 32-bit block counter must not wrap, or keystream
// block 0 would be reused. Block 0xFFFFFFFF is the last usable one.
TEST(ChaCha20Test, RefusesToWrapTheBlockCounter) {
  Bytes key(32, 0x01);
  Bytes nonce(12, 0x02);
  Result<Bytes> wraps = ChaCha20::Apply(key, nonce, Bytes(65, 0), 0xFFFFFFFF);
  ASSERT_FALSE(wraps.ok());
  EXPECT_EQ(wraps.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ChaCha20::Apply(key, nonce, Bytes(64, 0), 0xFFFFFFFF).ok());
  EXPECT_TRUE(ChaCha20::Apply(key, nonce, Bytes(0, 0), 0xFFFFFFFF).ok());
  EXPECT_FALSE(ChaCha20::Apply(key, nonce, Bytes(129, 0), 0xFFFFFFFE).ok());

  // Streaming: the last block's buffered tail stays usable, one more
  // byte is refused and leaves the data untouched.
  Result<ChaCha20> cipher = ChaCha20::Create(key, nonce, 0xFFFFFFFF);
  ASSERT_TRUE(cipher.ok());
  Bytes head(10, 0), tail(54, 0), over(1, 0xaa);
  ASSERT_TRUE(cipher->Process(head.data(), head.data(), head.size()).ok());
  ASSERT_TRUE(cipher->Process(tail.data(), tail.data(), tail.size()).ok());
  Status refused = cipher->Process(over.data(), over.data(), over.size());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(over, Bytes(1, 0xaa));
  Bytes joined = head;
  Append(joined, tail);
  EXPECT_EQ(joined, *ChaCha20::Apply(key, nonce, Bytes(64, 0), 0xFFFFFFFF));
}

}  // namespace
}  // namespace hsis::crypto
