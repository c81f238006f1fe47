#include "crypto/authenticated_cipher.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace hsis::crypto {
namespace {

AuthenticatedCipher MakeCipher() {
  Result<AuthenticatedCipher> c = AuthenticatedCipher::Create(Bytes(32, 0x5a));
  EXPECT_TRUE(c.ok());
  return *c;
}

TEST(AuthenticatedCipherTest, SealOpenRoundTrip) {
  AuthenticatedCipher c = MakeCipher();
  Bytes nonce(12, 0x01);
  Bytes msg = ToBytes("secret payload");
  Bytes aad = ToBytes("header");

  Result<Bytes> sealed = c.Seal(nonce, msg, aad);
  ASSERT_TRUE(sealed.ok());
  Result<Bytes> opened = c.Open(*sealed, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, msg);
}

TEST(AuthenticatedCipherTest, CiphertextHidesPlaintext) {
  AuthenticatedCipher c = MakeCipher();
  Bytes msg = ToBytes("secret payload");
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x01), msg, {});
  ASSERT_TRUE(sealed.ok());
  std::string blob = BytesToString(*sealed);
  EXPECT_EQ(blob.find("secret"), std::string::npos);
}

TEST(AuthenticatedCipherTest, DetectsCiphertextTamper) {
  AuthenticatedCipher c = MakeCipher();
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x01), ToBytes("data"), {});
  ASSERT_TRUE(sealed.ok());
  for (size_t i = 0; i < sealed->size(); i += 7) {
    Bytes corrupted = *sealed;
    corrupted[i] ^= 0x01;
    Result<Bytes> opened = c.Open(corrupted, {});
    EXPECT_FALSE(opened.ok()) << "tamper at byte " << i << " not detected";
    EXPECT_EQ(opened.status().code(), StatusCode::kIntegrityViolation);
  }
}

TEST(AuthenticatedCipherTest, DetectsAadMismatch) {
  AuthenticatedCipher c = MakeCipher();
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x01), ToBytes("data"), ToBytes("aad1"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(c.Open(*sealed, ToBytes("aad2")).ok());
  EXPECT_TRUE(c.Open(*sealed, ToBytes("aad1")).ok());
}

TEST(AuthenticatedCipherTest, DetectsTruncation) {
  AuthenticatedCipher c = MakeCipher();
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x01), ToBytes("data"), {});
  ASSERT_TRUE(sealed.ok());
  Bytes truncated(sealed->begin(), sealed->end() - 1);
  EXPECT_FALSE(c.Open(truncated, {}).ok());
  EXPECT_FALSE(c.Open(Bytes(10, 0x00), {}).ok());
}

TEST(AuthenticatedCipherTest, DifferentKeysCannotOpen) {
  AuthenticatedCipher a = MakeCipher();
  Result<AuthenticatedCipher> b = AuthenticatedCipher::Create(Bytes(32, 0x77));
  ASSERT_TRUE(b.ok());
  Result<Bytes> sealed = a.Seal(Bytes(12, 0x01), ToBytes("data"), {});
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(b->Open(*sealed, {}).ok());
}

TEST(AuthenticatedCipherTest, RejectsBadSizes) {
  EXPECT_FALSE(AuthenticatedCipher::Create(Bytes(16, 0)).ok());
  AuthenticatedCipher c = MakeCipher();
  EXPECT_FALSE(c.Seal(Bytes(8, 0), ToBytes("x"), {}).ok());
}

TEST(AuthenticatedCipherTest, EmptyPlaintextAllowed) {
  AuthenticatedCipher c = MakeCipher();
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x09), Bytes{}, ToBytes("aad"));
  ASSERT_TRUE(sealed.ok());
  Result<Bytes> opened = c.Open(*sealed, ToBytes("aad"));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

// Channel bytes frozen before the copy-free Seal/Open rewrite: SHA-256 of
// the sealed message for a fixed key, nonce and aad, across plaintext
// lengths on both sides of the 64-byte ChaCha20 and SHA-256 block edges.
TEST(AuthenticatedCipherTest, SealIsByteIdenticalToFrozenDigests) {
  Bytes master(32);
  for (size_t i = 0; i < master.size(); ++i) {
    master[i] = static_cast<uint8_t>(i);
  }
  Bytes nonce(12);
  for (size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<uint8_t>(0xa0 + i);
  }
  const Bytes aad = ToBytes("hsis.aead.golden");
  Result<AuthenticatedCipher> c = AuthenticatedCipher::Create(master);
  ASSERT_TRUE(c.ok());

  const std::vector<std::pair<size_t, const char*>> golden = {
      {0, "3692d581844eedb3558d89f05b781324c38df4ee1880e75598da2c56be675c00"},
      {1, "80f304b28e29955f3194f5f7f7d1096851b3dc3b913a50bc76e387a534d546e5"},
      {63, "8e5c90486eff06b43cd64b7b27bc31d7d06257a148546ba07dc479aa03576044"},
      {64, "13b60a956f391c1d6788d37fe948918e98ed3a65ea90575512799ee016cbaf91"},
      {65, "8c9220c00415e9ddc222e5152bc07b9be9994a2bb6d65824b7243bafca0c2bdb"},
      {127,
       "5ce747d55b8a8512fe701d9b7a4df032f51ea9ce5c80df0f178d7190851a22f5"},
      {128,
       "1e7d8ff265d4d77c6c782eac8c69edb36caade6c2120b3aa5beec099954352f8"},
      {4101,
       "bfadf3f5512caeb57a18f657e2143e9a3ffddba425b53939cc5e7be67a3e0a0b"},
  };
  for (const auto& [len, digest] : golden) {
    Bytes plaintext(len);
    for (size_t i = 0; i < len; ++i) {
      plaintext[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    Result<Bytes> sealed = c->Seal(nonce, plaintext, aad);
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(sealed->size(), AuthenticatedCipher::kNonceSize + len +
                                  AuthenticatedCipher::kTagSize);
    EXPECT_EQ(HexEncode(Sha256::Hash(*sealed)), digest) << "length " << len;
    Result<Bytes> opened = c->Open(*sealed, aad);
    ASSERT_TRUE(opened.ok()) << "length " << len;
    EXPECT_EQ(*opened, plaintext) << "length " << len;
  }
}

TEST(AuthenticatedCipherTest, InPlaceCoreMatchesSealAndOpen) {
  AuthenticatedCipher c = MakeCipher();
  const Bytes nonce(12, 0x07);
  const Bytes aad = ToBytes("side+seq");
  for (size_t len : {size_t{0}, size_t{1}, size_t{64}, size_t{4101}}) {
    Bytes plaintext(len);
    for (size_t i = 0; i < len; ++i) plaintext[i] = static_cast<uint8_t>(i);
    Result<Bytes> sealed = c.Seal(nonce, plaintext, aad);
    ASSERT_TRUE(sealed.ok());

    Bytes message(nonce);
    Append(message, plaintext);
    message.resize(message.size() + AuthenticatedCipher::kTagSize);
    ASSERT_TRUE(c.SealInPlace(message, aad).ok());
    EXPECT_EQ(message, *sealed) << "length " << len;

    // A failed open leaves the sealed bytes untouched.
    EXPECT_EQ(c.OpenInPlace(message, ToBytes("other")).code(),
              StatusCode::kIntegrityViolation);
    EXPECT_EQ(message, *sealed);

    ASSERT_TRUE(c.OpenInPlace(message, aad).ok());
    EXPECT_EQ(Bytes(message.begin() + 12, message.end() - 32), plaintext);
    // Sealing an opened message again restores its wire bytes.
    ASSERT_TRUE(c.SealInPlace(message, aad).ok());
    EXPECT_EQ(message, *sealed);
  }
  Bytes too_short(43);
  EXPECT_EQ(c.SealInPlace(too_short, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.OpenInPlace(too_short, {}).code(),
            StatusCode::kIntegrityViolation);
}

}  // namespace
}  // namespace hsis::crypto
