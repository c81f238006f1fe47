#include "common/flags.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hsis::common {
namespace {

constexpr double kMaxDouble = std::numeric_limits<double>::max();

TEST(ParseIntFlagTest, AcceptsWholeDecimalsInsideTheClosedRange) {
  struct Case {
    const char* text;
    int64_t min, max, want;
  };
  const Case cases[] = {
      {"0", 0, 10, 0},
      {"10", 0, 10, 10},  // both bounds inclusive
      {"-3", -3, 3, -3},
      {"007", 0, 10, 7},
      {"2147483647", 0, INT_MAX, INT_MAX},
      {"-9223372036854775808", INT64_MIN, 0, INT64_MIN},
      {"9223372036854775807", 0, INT64_MAX, INT64_MAX},
  };
  for (const Case& c : cases) {
    Result<int64_t> parsed = ParseIntFlag("--n", c.text, c.min, c.max);
    ASSERT_TRUE(parsed.ok()) << c.text << ": " << parsed.status();
    EXPECT_EQ(*parsed, c.want) << c.text;
  }
}

TEST(ParseIntFlagTest, RejectsJunkAndOutOfRangeNamingTheFlag) {
  for (const char* bad :
       {"", " 3", "3 ", "+3", "0x10", "1e3", "3.0", "abc", "-", "--3",
        "4294967296", "-1", "11", "9223372036854775808"}) {
    Result<int64_t> parsed = ParseIntFlag("--shard", bad, 0, 10);
    ASSERT_FALSE(parsed.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    const std::string message = parsed.status().message();
    EXPECT_NE(message.find("--shard"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("'").append(bad).append("'")),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("[0, 10]"), std::string::npos) << message;
  }
  // A value that overflows `int` but not int64 is rejected by an int
  // range, so the caller's cast to int is always defined.
  EXPECT_FALSE(ParseIntFlag("--shard", "4294967296", 0, INT_MAX).ok());
}

TEST(ParseNumberFlagTest, AcceptsFiniteNumbersInsideTheClosedRange) {
  struct Case {
    const char* text;
    double min, max, want;
  };
  const Case cases[] = {
      {"0", 0, 1, 0},       {"1", 0, 1, 1},  // both bounds inclusive
      {"0.25", 0, 1, 0.25}, {".5", 0, 1, 0.5},
      {"-2.5", -3, 0, -2.5}, {"1e3", 0, kMaxDouble, 1000},
      {"3", 0, kMaxDouble, 3},
  };
  for (const Case& c : cases) {
    Result<double> parsed = ParseNumberFlag("--x", c.text, c.min, c.max);
    ASSERT_TRUE(parsed.ok()) << c.text << ": " << parsed.status();
    EXPECT_EQ(*parsed, c.want) << c.text;
  }
}

TEST(ParseNumberFlagTest, RejectsJunkNonFiniteAndOutOfRangeNamingTheFlag) {
  for (const char* bad :
       {"", " 3", "3 ", "+3", "0x10", "abc", "3,5", "nan", "NaN", "inf",
        "-inf", "infinity", "1e999", "-1e999", "-0.5", "1.5"}) {
    Result<double> parsed = ParseNumberFlag("--min-speedup", bad, 0, 1);
    ASSERT_FALSE(parsed.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    const std::string message = parsed.status().message();
    EXPECT_NE(message.find("--min-speedup"), std::string::npos) << message;
    EXPECT_NE(message.find("[0, 1]"), std::string::npos) << message;
  }
  // An unbounded range still refuses the non-finite values, so a
  // `--min-...=nan` gate can never silently pass every input.
  for (const char* bad : {"nan", "inf", "1e999"}) {
    EXPECT_FALSE(ParseNumberFlag("--x", bad, -kMaxDouble, kMaxDouble).ok())
        << bad;
  }
}

TEST(ParseDecimalTest, ReadsUnsignedFieldsAcrossTheirWholeRange) {
  uint64_t seed = 0;
  EXPECT_TRUE(ParseDecimal("18446744073709551615", &seed));
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_FALSE(ParseDecimal("18446744073709551616", &seed));
  EXPECT_FALSE(ParseDecimal("-1", &seed));
  EXPECT_FALSE(ParseDecimal("", &seed));
}

/// argv for `args` with argv[0] prepended; `args` must outlive it.
std::vector<char*> Argv(std::vector<std::string>& args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return argv;
}

/// `ReadFlags` over `args`; returns the leftovers.
std::vector<std::string> Read(std::vector<std::string> args,
                              const std::vector<Flag>& table) {
  std::vector<char*> argv = Argv(args);
  std::vector<std::string> leftovers;
  ReadFlags(static_cast<int>(argv.size()), argv.data(), table,
            [&](char* arg) { leftovers.emplace_back(arg); });
  return leftovers;
}

TEST(ReadFlagsTest, MatchesTheWholeNameAndItsForm) {
  bool plan = false;
  int shard = -1;
  std::string out;
  const std::vector<Flag> table = {SwitchFlag("--plan", &plan),
                                   IntFlag("--shard", 0, 10, &shard),
                                   TextFlag("--out", &out)};
  // A longer name sharing the prefix, a switch given "=value" and a
  // value flag given bare are left over, in argv order.
  const std::vector<std::string> leftovers =
      Read({"--shards=3", "--shard=2", "--plan=1", "pos", "--out",
            "--shard-timeout-ms=1", "--plan", "--out=x=y", "--shard=4"},
           table);
  EXPECT_EQ(leftovers,
            (std::vector<std::string>{"--shards=3", "--plan=1", "pos", "--out",
                                      "--shard-timeout-ms=1"}));
  EXPECT_TRUE(plan);
  EXPECT_EQ(shard, 4);  // the last occurrence wins
  EXPECT_EQ(out, "x=y");
}

TEST(ReadFlagsTest, RejectedValueExitsWithTheUsageStatusNamingTheFlag) {
  int shard = 0;
  EXPECT_EXIT(Read({"--shard=1", "--shard=x"},
                   {IntFlag("--shard", 0, 10, &shard)}),
              ::testing::ExitedWithCode(kExitUsage),
              "--shard expects an integer in \\[0, 10\\], got 'x'");
}

TEST(ReadCommandLineTest, FirstBadArgumentInArgvOrderDecides) {
  int shard = 0;
  const std::vector<Flag> table = {IntFlag("--shard", 0, 10, &shard)};
  auto read = [&](std::vector<std::string> args, size_t max_positionals) {
    std::vector<char*> argv = Argv(args);
    return ReadCommandLine(static_cast<int>(argv.size()), argv.data(), table,
                           "usage: prog\n", max_positionals);
  };
  EXPECT_EQ(read({"a", "--shard=3", "b"}, 2),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(shard, 3);
  EXPECT_EXIT(read({"--bogus", "--shard=x"}, 0),
              ::testing::ExitedWithCode(kExitUsage),
              "unknown flag --bogus\nusage: prog");
  EXPECT_EXIT(read({"--shard=x", "--bogus"}, 0),
              ::testing::ExitedWithCode(kExitUsage), "--shard expects");
  EXPECT_EXIT(read({"a", "b", "--shard=x"}, 1),
              ::testing::ExitedWithCode(kExitUsage),
              "unexpected argument b\nusage: prog");
}

}  // namespace
}  // namespace hsis::common
