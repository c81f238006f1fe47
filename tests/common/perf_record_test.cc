#include "common/perf_record.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <vector>

namespace hsis::common {
namespace {

PerfRecord SampleRecord() {
  PerfRecord record;
  record.bench = "figure1_frequency_sweep_kernel";
  record.threads = 4;
  record.cells_per_sec = 46188699.114145041;
  record.wall_ms = 0.433028;
  record.git_describe = "ce4340e-dirty";
  return record;
}

TEST(PerfRecordTest, RoundTripsThroughJson) {
  PerfRecord record = SampleRecord();
  std::string json = PerfRecordToJson(record);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"schema\":\"hsis-bench-v1\""), std::string::npos);

  PerfRecord parsed = ParsePerfRecord(json).value();
  EXPECT_EQ(parsed.bench, record.bench);
  EXPECT_EQ(parsed.threads, record.threads);
  // %.17g serialization round-trips doubles bit-exactly.
  EXPECT_EQ(parsed.cells_per_sec, record.cells_per_sec);
  EXPECT_EQ(parsed.wall_ms, record.wall_ms);
  EXPECT_EQ(parsed.git_describe, record.git_describe);
}

TEST(PerfRecordTest, AcceptsWhitespaceAndAnyKeyOrder) {
  auto parsed = ParsePerfRecord(
      "{ \"wall_ms\": 1.5, \"bench\": \"b\", \"git_describe\": \"g\",\n"
      "  \"threads\": 2, \"cells_per_sec\": 1e6,\n"
      "  \"schema\": \"hsis-bench-v1\" }\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->threads, 2);
  EXPECT_EQ(parsed->cells_per_sec, 1e6);
}

TEST(PerfRecordTest, RejectsMalformedRecords) {
  std::string valid = PerfRecordToJson(SampleRecord());

  // Wrong schema tag.
  std::string wrong_schema = valid;
  wrong_schema.replace(wrong_schema.find("hsis-bench-v1"), 13, "hsis-bench-v9");
  EXPECT_FALSE(ParsePerfRecord(wrong_schema).ok());

  // Missing key.
  EXPECT_FALSE(ParsePerfRecord("{\"schema\":\"hsis-bench-v1\"}").ok());

  // Unknown key.
  std::string extra = valid;
  extra.insert(extra.find('}'), ",\"surprise\":1");
  EXPECT_FALSE(ParsePerfRecord(extra).ok());

  // Duplicate key.
  std::string dup = valid;
  dup.insert(dup.find('}'), ",\"threads\":4");
  EXPECT_FALSE(ParsePerfRecord(dup).ok());

  // Trailing bytes.
  EXPECT_FALSE(ParsePerfRecord(valid + "{}").ok());

  // Not even JSON.
  EXPECT_FALSE(ParsePerfRecord("cells/sec: lots").ok());
  EXPECT_FALSE(ParsePerfRecord("").ok());
}

TEST(PerfRecordTest, ValidatesFieldRanges) {
  EXPECT_TRUE(SampleRecord().Validate().ok());

  PerfRecord record = SampleRecord();
  record.bench = "";
  EXPECT_FALSE(record.Validate().ok());

  record = SampleRecord();
  record.threads = 0;
  EXPECT_FALSE(record.Validate().ok());

  record = SampleRecord();
  record.cells_per_sec = 0;
  EXPECT_FALSE(record.Validate().ok());

  record = SampleRecord();
  record.cells_per_sec = -5;
  EXPECT_FALSE(record.Validate().ok());

  record = SampleRecord();
  record.wall_ms = -1;
  EXPECT_FALSE(record.Validate().ok());

  record = SampleRecord();
  record.git_describe = "";
  EXPECT_FALSE(record.Validate().ok());

  // Non-integer threads value is rejected at parse time.
  std::string json = PerfRecordToJson(SampleRecord());
  std::string frac = json;
  frac.replace(frac.find("\"threads\":4"), 11, "\"threads\":4.5");
  EXPECT_FALSE(ParsePerfRecord(frac).ok());
}

TEST(PerfRecordTest, AlgoFieldRoundTrips) {
  PerfRecord record = SampleRecord();
  record.algo = "window4";
  std::string json = PerfRecordToJson(record);
  EXPECT_NE(json.find("\"algo\":\"window4\""), std::string::npos);
  PerfRecord parsed = ParsePerfRecord(json).value();
  EXPECT_EQ(parsed.algo, "window4");
  EXPECT_EQ(parsed.lane, record.lane);
}

TEST(PerfRecordTest, EmptyAlgoIsOmittedFromSerialization) {
  // Single-algorithm benches leave algo at its empty default; the
  // serialized record must then be byte-identical to a pre-algo one, so
  // frozen artifacts from earlier PRs round-trip unchanged.
  PerfRecord record = SampleRecord();
  std::string json = PerfRecordToJson(record);
  EXPECT_EQ(json.find("algo"), std::string::npos);
  record.algo = "";
  EXPECT_EQ(PerfRecordToJson(record), json);
  // Absent on the wire parses back to the empty default.
  EXPECT_EQ(ParsePerfRecord(json).value().algo, "");
}

TEST(PerfRecordTest, RejectsDuplicateAlgoKey) {
  PerfRecord record = SampleRecord();
  record.algo = "naive";
  std::string dup = PerfRecordToJson(record);
  dup.insert(dup.find('}'), ",\"algo\":\"naive\"");
  EXPECT_FALSE(ParsePerfRecord(dup).ok());
}

TEST(PerfRecordTest, HostileAlgoLabelRoundTrips) {
  PerfRecord record = SampleRecord();
  record.algo = "win\"dow\\4\ttab\nnl";
  std::string json = PerfRecordToJson(record);
  EXPECT_EQ(json.find('\n'), json.size() - 1);
  EXPECT_EQ(ParsePerfRecord(json).value().algo, record.algo);
}

// Literal lines of committed bench artifacts, one per record shape.
// Every one must still parse; those written with a `lane` key (every
// record since the SIMD lanes) must re-serialize byte-identically.
const std::vector<std::string>& ArchivedRecords() {
  static const std::vector<std::string> kLines = {
      // BENCH_4.json: written before records had a lane.
      "{\"schema\":\"hsis-bench-v1\""
      ",\"bench\":\"figure1_frequency_sweep_kernel\",\"threads\":1"
      ",\"cells_per_sec\":29476914.098250486,\"wall_ms\":0.678531"
      ",\"git_describe\":\"ce4340e-dirty\"}",
      // BENCH_8.json: one record per SIMD lane.
      "{\"schema\":\"hsis-bench-v1\""
      ",\"bench\":\"figure1_frequency_sweep_kernel\",\"threads\":1"
      ",\"lane\":\"scalar\",\"cells_per_sec\":58237077.110770121"
      ",\"wall_ms\":0.343441,\"git_describe\":\"0cbc9a5-dirty\"}",
      "{\"schema\":\"hsis-bench-v1\""
      ",\"bench\":\"figure1_frequency_sweep_kernel\",\"threads\":1"
      ",\"lane\":\"sse2\",\"cells_per_sec\":133086248.88545839"
      ",\"wall_ms\":0.150286,\"git_describe\":\"0cbc9a5-dirty\"}",
      "{\"schema\":\"hsis-bench-v1\""
      ",\"bench\":\"figure2_penalty_sweep_kernel\",\"threads\":1"
      ",\"lane\":\"avx2\",\"cells_per_sec\":206564284.7552852"
      ",\"wall_ms\":0.096826999999999996"
      ",\"git_describe\":\"0cbc9a5-dirty\"}",
      // BENCH_9.json: algorithm variants.
      "{\"schema\":\"hsis-bench-v1\",\"bench\":\"modexp_fixed_exponent\""
      ",\"threads\":1,\"lane\":\"scalar\",\"algo\":\"naive\""
      ",\"cells_per_sec\":31429.777405967878,\"wall_ms\":16.290284"
      ",\"git_describe\":\"aa4f063-dirty\"}",
      "{\"schema\":\"hsis-bench-v1\",\"bench\":\"modexp_fixed_exponent\""
      ",\"threads\":1,\"lane\":\"scalar\",\"algo\":\"window4\""
      ",\"cells_per_sec\":43338.320343828622"
      ",\"wall_ms\":11.814025000000001"
      ",\"git_describe\":\"aa4f063-dirty\"}",
  };
  return kLines;
}

TEST(PerfRecordTest, ArchivedRecordsParseAndReserialize) {
  for (const std::string& line : ArchivedRecords()) {
    auto parsed = ParsePerfRecord(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status();
    if (line.find("\"lane\":") != std::string::npos) {
      EXPECT_EQ(PerfRecordToJson(*parsed), line + "\n");
    } else {
      EXPECT_EQ(parsed->lane, "scalar") << line;
    }
  }
}

ScheduleRecord SampleScheduleRecord() {
  ScheduleRecord record;
  record.sweep = "figure1";
  record.shards = 4;
  record.resumed = 1;
  record.retries = 2;
  record.quarantined = 1;
  record.timeouts = 1;
  record.attempts = "0,2,1,2";
  record.wall_ms = 118.25;
  return record;
}

TEST(ScheduleRecordTest, RoundTripsThroughJson) {
  ScheduleRecord record = SampleScheduleRecord();
  std::string json = ScheduleRecordToJson(record);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"schema\":\"hsis-schedule-v1\""), std::string::npos);

  ScheduleRecord parsed = ParseScheduleRecord(json).value();
  EXPECT_EQ(parsed.sweep, record.sweep);
  EXPECT_EQ(parsed.shards, record.shards);
  EXPECT_EQ(parsed.resumed, record.resumed);
  EXPECT_EQ(parsed.retries, record.retries);
  EXPECT_EQ(parsed.quarantined, record.quarantined);
  EXPECT_EQ(parsed.timeouts, record.timeouts);
  EXPECT_EQ(parsed.attempts, record.attempts);
  EXPECT_EQ(parsed.wall_ms, record.wall_ms);
}

TEST(ScheduleRecordTest, RejectsMalformedRecords) {
  std::string valid = ScheduleRecordToJson(SampleScheduleRecord());

  std::string wrong_schema = valid;
  wrong_schema.replace(wrong_schema.find("hsis-schedule-v1"), 16,
                       "hsis-schedule-v9");
  EXPECT_FALSE(ParseScheduleRecord(wrong_schema).ok());

  EXPECT_FALSE(ParseScheduleRecord("{\"schema\":\"hsis-schedule-v1\"}").ok());

  std::string extra = valid;
  extra.insert(extra.find('}'), ",\"surprise\":1");
  EXPECT_FALSE(ParseScheduleRecord(extra).ok());

  std::string dup = valid;
  dup.insert(dup.find('}'), ",\"shards\":4");
  EXPECT_FALSE(ParseScheduleRecord(dup).ok());

  EXPECT_FALSE(ParseScheduleRecord(valid + "{}").ok());
  EXPECT_FALSE(ParseScheduleRecord("").ok());
}

TEST(ScheduleRecordTest, ValidatesInternalConsistency) {
  EXPECT_TRUE(SampleScheduleRecord().Validate().ok());

  // Attempts list must have exactly `shards` entries...
  ScheduleRecord record = SampleScheduleRecord();
  record.attempts = "1,1";
  EXPECT_FALSE(record.Validate().ok());

  // ...of non-negative integers...
  record = SampleScheduleRecord();
  record.attempts = "0,2,x,2";
  EXPECT_FALSE(record.Validate().ok());
  record.attempts = "0,2,-1,2";
  EXPECT_FALSE(record.Validate().ok());
  record.attempts = "";
  EXPECT_FALSE(record.Validate().ok());

  // ...whose beyond-first total matches `retries`.
  record = SampleScheduleRecord();
  record.retries = 5;
  EXPECT_FALSE(record.Validate().ok());

  record = SampleScheduleRecord();
  record.sweep = "";
  EXPECT_FALSE(record.Validate().ok());

  record = SampleScheduleRecord();
  record.shards = 0;
  EXPECT_FALSE(record.Validate().ok());

  record = SampleScheduleRecord();
  record.quarantined = -1;
  EXPECT_FALSE(record.Validate().ok());

  record = SampleScheduleRecord();
  record.wall_ms = -0.5;
  EXPECT_FALSE(record.Validate().ok());
}

// Hostile attempt counts: a sum that overflows `int`, and a count
// beyond `int` itself. Both are InvalidArgument naming the field, with
// no undefined behaviour on the way (the ASan + UBSan job runs this).
TEST(ScheduleRecordTest, RejectsAttemptSumsThatOverflowInt) {
  ScheduleRecord record = SampleScheduleRecord();
  record.shards = 2;
  record.attempts = "2147483647,2147483647";
  auto parsed = ParseScheduleRecord(ScheduleRecordToJson(record));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("attempts"), std::string::npos)
      << parsed.status();
}

TEST(ScheduleRecordTest, RejectsAttemptCountsBeyondInt) {
  ScheduleRecord record = SampleScheduleRecord();
  record.shards = 1;
  record.attempts = "99999999999";
  auto parsed = ParseScheduleRecord(ScheduleRecordToJson(record));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("attempts"), std::string::npos)
      << parsed.status();
  EXPECT_EQ(parsed.status().message().find("1215752190"), std::string::npos)
      << parsed.status();
}

TEST(PerfRecordTest, HostileLabelsRoundTripThroughJson) {
  // Every control character below 0x20 plus the quote/backslash family:
  // each must serialize to valid JSON (no raw control bytes) and parse
  // back to the identical byte string.
  std::string hostile = "tab\tcr\rnl\nquote\"backslash\\bell\x07";
  for (int c = 1; c < 0x20; ++c) hostile += static_cast<char>(c);

  PerfRecord record = SampleRecord();
  record.bench = hostile;
  std::string json = PerfRecordToJson(record);
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), c == '\n' ? 0u : 0x20u)
        << "raw control byte in serialized record";
  }
  // The one raw newline is the record terminator, not string content.
  EXPECT_EQ(json.find('\n'), json.size() - 1);

  PerfRecord parsed = ParsePerfRecord(json).value();
  EXPECT_EQ(parsed.bench, hostile);

  ScheduleRecord sched;
  sched.sweep = hostile;
  sched.shards = 1;
  sched.attempts = "1";
  std::string sched_json = ScheduleRecordToJson(sched);
  EXPECT_EQ(sched_json.find('\n'), sched_json.size() - 1);
  EXPECT_EQ(ParseScheduleRecord(sched_json).value().sweep, hostile);
}

TEST(PerfRecordTest, RejectsRawControlCharactersInStrings) {
  // The pre-fix serializer emitted raw tabs; the strict parser must
  // reject such records rather than silently accepting invalid JSON.
  std::string bad = PerfRecordToJson(SampleRecord());
  bad.replace(bad.find("figure1"), 7, "fig\tre1");
  EXPECT_FALSE(ParsePerfRecord(bad).ok());
}

TEST(PerfRecordTest, RejectsMalformedUnicodeEscapes) {
  auto with_bench = [](const std::string& bench_literal) {
    return "{\"schema\":\"hsis-bench-v1\",\"bench\":\"" + bench_literal +
           "\",\"threads\":1,\"cells_per_sec\":1,\"wall_ms\":0,"
           "\"git_describe\":\"g\"}\n";
  };
  EXPECT_TRUE(ParsePerfRecord(with_bench("a\\u0007b")).ok());
  EXPECT_FALSE(ParsePerfRecord(with_bench("a\\u00")).ok());      // truncated
  EXPECT_FALSE(ParsePerfRecord(with_bench("a\\u00zz")).ok());    // bad hex
  EXPECT_FALSE(ParsePerfRecord(with_bench("a\\u1234")).ok());    // multi-byte
  EXPECT_FALSE(ParsePerfRecord(with_bench("a\\v")).ok());        // unknown esc
}

// ---------------------------------------------------------------------
// Seeded mutation corpus: byte flips, truncations and insertions of the
// archived bench lines and a schedule record. Every mutant either
// parses to a valid record that round-trips through its serializer to
// an equal record, or is rejected as InvalidArgument — never another
// code, never a crash (the ASan + UBSan job runs this suite).
// ---------------------------------------------------------------------

// Draws come from the raw engine output (`rng() % n`), never a std
// distribution, so the corpus is the same on every standard library.
std::vector<std::string> TextMutants(const std::string& line,
                                     std::mt19937_64& rng) {
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<std::string> out;
  for (int i = 0; i < 96; ++i) {
    std::string m = line;
    m[pick(m.size())] ^= static_cast<char>(1 + pick(255));
    out.push_back(std::move(m));
  }
  for (int i = 0; i < 24; ++i) out.push_back(line.substr(0, pick(line.size())));
  for (int i = 0; i < 48; ++i) {
    std::string m = line;
    m.insert(m.begin() + static_cast<ptrdiff_t>(pick(m.size() + 1)),
             static_cast<char>(rng()));
    out.push_back(std::move(m));
  }
  return out;
}

auto Fields(const PerfRecord& r) {
  return std::tie(r.bench, r.threads, r.lane, r.algo, r.cells_per_sec,
                  r.wall_ms, r.git_describe);
}

auto Fields(const ScheduleRecord& r) {
  return std::tie(r.sweep, r.shards, r.resumed, r.retries, r.quarantined,
                  r.timeouts, r.attempts, r.wall_ms);
}

/// Parses every mutant of every line with `parse`; accepted ones must
/// validate and survive `parse(to_json(record))` unchanged.
template <typename Parse, typename ToJson>
void ExpectMutantsRoundTripOrInvalid(const std::vector<std::string>& lines,
                                     Parse parse, ToJson to_json,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const std::string& line : lines) {
    for (const std::string& mutant : TextMutants(line, rng)) {
      auto parsed = parse(mutant);
      if (!parsed.ok()) {
        ++rejected;
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
            << mutant << ": " << parsed.status();
        continue;
      }
      ++accepted;
      EXPECT_TRUE(parsed->Validate().ok()) << mutant;
      auto again = parse(to_json(*parsed));
      ASSERT_TRUE(again.ok()) << mutant << ": " << again.status();
      EXPECT_TRUE(Fields(*again) == Fields(*parsed))
          << mutant << " does not round-trip";
    }
  }
  // The corpus must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(PerfRecordTest, SeededMutantsRoundTripOrAreInvalid) {
  ExpectMutantsRoundTripOrInvalid(
      ArchivedRecords(),
      [](const std::string& json) { return ParsePerfRecord(json); },
      PerfRecordToJson, 0xbe7c4f00dULL);
}

TEST(ScheduleRecordTest, SeededMutantsRoundTripOrAreInvalid) {
  ExpectMutantsRoundTripOrInvalid(
      {ScheduleRecordToJson(SampleScheduleRecord())},
      [](const std::string& json) { return ParseScheduleRecord(json); },
      ScheduleRecordToJson, 0x5c4edULL);
}

}  // namespace
}  // namespace hsis::common
