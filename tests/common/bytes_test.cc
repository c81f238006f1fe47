#include "common/bytes.h"

#include <gtest/gtest.h>

namespace hsis {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(b), "0001abff");
  Result<Bytes> back = HexDecode("0001abff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, b);
}

TEST(BytesTest, HexDecodeAcceptsUppercase) {
  Result<Bytes> r = HexDecode("ABFF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (Bytes{0xab, 0xff}));
}

TEST(BytesTest, HexDecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(BytesTest, HexDecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(BytesTest, StringConversionRoundTrip) {
  Bytes b = ToBytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(BytesToString(b), "hello");
}

TEST(BytesTest, BigEndianRoundTrip32) {
  Bytes b;
  AppendUint32BE(b, 0xdeadbeef);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(ReadUint32BE(b, 0), 0xdeadbeefu);
}

TEST(BytesTest, BigEndianRoundTrip64) {
  Bytes b;
  AppendUint64BE(b, 0x0123456789abcdefULL);
  ASSERT_EQ(b.size(), 8u);
  EXPECT_EQ(ReadUint64BE(b, 0), 0x0123456789abcdefULL);
}

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual(ToBytes("same"), ToBytes("same")));
  EXPECT_FALSE(ConstantTimeEqual(ToBytes("same"), ToBytes("diff")));
  EXPECT_FALSE(ConstantTimeEqual(ToBytes("short"), ToBytes("longer")));
  EXPECT_TRUE(ConstantTimeEqual(Bytes{}, Bytes{}));
}

TEST(BytesTest, CompareBytesIsTheVectorOrder) {
  // Every pair from a set with empties, prefixes, equal lengths and
  // bytes on both sides of 0x80 (unsigned, not char-signed, order).
  const std::vector<Bytes> values = {
      {},           {0x00},       {0x00, 0x00}, {0x01},
      {0x7f},       {0x80},       {0xff},       {0x80, 0x00},
      {0x7f, 0xff}, {0xff, 0x00}, {0x01, 0x02, 0x03},
      {0x01, 0x02}};
  for (const Bytes& a : values) {
    for (const Bytes& b : values) {
      EXPECT_EQ(CompareBytes(a, b), a <=> b)
          << HexEncode(a) << " vs " << HexEncode(b);
    }
  }
}

}  // namespace
}  // namespace hsis
