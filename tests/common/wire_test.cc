#include "common/wire.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace hsis {
namespace {

WireReader Reader(const Bytes& buf) {
  return WireReader(buf, StatusCode::kInvalidArgument, "test blob");
}

std::string AsString(std::span<const uint8_t> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

TEST(WireTest, LengthPrefixedRoundTrip) {
  Bytes buf;
  AppendLengthPrefixed(buf, ToBytes("first"));
  AppendLengthPrefixed(buf, ToBytes(""));
  AppendLengthPrefixed(buf, ToBytes("second"));

  WireReader wire = Reader(buf);
  auto a = wire.LengthPrefixed();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(AsString(*a), "first");

  auto b = wire.LengthPrefixed();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->empty());

  auto c = wire.LengthPrefixed();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(AsString(*c), "second");
  EXPECT_EQ(wire.remaining(), 0u);
  EXPECT_TRUE(wire.Finish().ok());
}

TEST(WireTest, LengthPrefixedDetectsTruncation) {
  Bytes buf;
  AppendLengthPrefixed(buf, ToBytes("payload"));
  buf.pop_back();
  WireReader wire = Reader(buf);
  EXPECT_FALSE(wire.LengthPrefixed().ok());
}

TEST(WireTest, LengthPrefixedDetectsMissingHeader) {
  Bytes buf = {0x00, 0x00};
  WireReader wire = Reader(buf);
  EXPECT_FALSE(wire.LengthPrefixed().ok());
}

TEST(WireTest, LengthPrefixedReturnsAViewNotACopy) {
  Bytes buf;
  AppendLengthPrefixed(buf, ToBytes("view"));
  WireReader wire = Reader(buf);
  auto view = wire.LengthPrefixed();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data(), buf.data() + 4);
}

TEST(WireTest, LengthPrefixedEnforcesItsLimit) {
  Bytes buf;
  AppendLengthPrefixed(buf, ToBytes("12345"));
  WireReader at_limit = Reader(buf);
  EXPECT_TRUE(at_limit.LengthPrefixed(5).ok());
  WireReader over = Reader(buf);
  auto r = over.LengthPrefixed(4);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, ReadsBigEndianIntegers) {
  Bytes buf = {0xab};
  AppendUint32BE(buf, 0xdeadbeefu);
  AppendUint64BE(buf, 0x0123456789abcdefULL);
  WireReader wire = Reader(buf);
  EXPECT_EQ(wire.U8().value(), 0xab);
  EXPECT_EQ(wire.U32().value(), 0xdeadbeefu);
  EXPECT_EQ(wire.U64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(wire.Finish().ok());
}

TEST(WireTest, BoolAcceptsOnlyZeroAndOne) {
  Bytes buf = {0, 1, 2};
  WireReader wire = Reader(buf);
  EXPECT_EQ(wire.Bool().value(), false);
  EXPECT_EQ(wire.Bool().value(), true);
  auto two = wire.Bool();
  ASSERT_FALSE(two.ok());
  EXPECT_EQ(two.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, RawChecksBoundsOnce) {
  Bytes buf = {1, 2, 3, 4, 5};
  WireReader wire = Reader(buf);
  auto run = wire.Raw(3);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->data(), buf.data());
  EXPECT_EQ(run->size(), 3u);
  EXPECT_FALSE(wire.Raw(3).ok());
}

TEST(WireTest, FinishRejectsTrailingBytes) {
  Bytes buf = {0, 0, 0, 7, 0xff};
  WireReader wire = Reader(buf);
  EXPECT_EQ(wire.U32().value(), 7u);
  Status s = wire.Finish();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("1 trailing byte"), std::string::npos) << s;
}

TEST(WireTest, FailuresCarryTheFormatCodeAndContext) {
  Bytes buf = {0x01};
  WireReader wire(buf, StatusCode::kIntegrityViolation,
                  "corrupt shard payload");
  auto r = wire.U32();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIntegrityViolation);
  EXPECT_EQ(r.status().message().rfind("corrupt shard payload: ", 0), 0u)
      << r.status();
}

TEST(WireTest, FirstFailurePoisonsTheCursor) {
  Bytes buf = {0x00, 0x00, 0x00, 0x09, 0x01, 0x02};
  WireReader wire = Reader(buf);
  Status first = wire.U64().status();
  ASSERT_FALSE(first.ok());
  // Later reads and Finish report the first failure, even when the
  // bytes left would satisfy them.
  EXPECT_EQ(wire.U8().status(), first);
  EXPECT_EQ(wire.Fail("a later defect"), first);
  EXPECT_EQ(wire.Finish(), first);
}

}  // namespace
}  // namespace hsis
