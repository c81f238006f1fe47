#include "serve/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/mechanism_designer.h"
#include "game/thresholds.h"
#include "serve/derivation.h"
#include "serve/query_service.h"
#include "serve/stream.h"

namespace hsis::serve {
namespace {

constexpr double kB = 10, kF = 25;

TEST(ValidateQueryRequestTest, AcceptsTheCanonicalPoint) {
  EXPECT_TRUE(ValidateQueryRequest({kB, kF, 0.3, 40, 2}).ok());
  EXPECT_TRUE(ValidateQueryRequest({0, 1, 0, 0, 2}).ok());
  EXPECT_TRUE(ValidateQueryRequest({kB, kF, 1.0, 0, 17}).ok());
}

TEST(ValidateQueryRequestTest, NamesTheOffendingField) {
  auto message = [](const QueryRequest& request) {
    return ValidateQueryRequest(request).ToString();
  };
  EXPECT_NE(message({-1, kF, 0.3, 40, 2}).find("benefit"), std::string::npos);
  EXPECT_NE(message({kB, kB, 0.3, 40, 2}).find("cheating gain"),
            std::string::npos);
  EXPECT_NE(message({kB, kF, -0.1, 40, 2}).find("frequency"),
            std::string::npos);
  EXPECT_NE(message({kB, kF, 1.1, 40, 2}).find("frequency"),
            std::string::npos);
  EXPECT_NE(message({kB, kF, 0.3, -1, 2}).find("penalty"), std::string::npos);
  EXPECT_NE(message({kB, kF, 0.3, 40, 1}).find("n >= 2"), std::string::npos);
  const double kInf = std::numeric_limits<double>::infinity();
  EXPECT_NE(message({kInf, kF, 0.3, 40, 2}).find("finite"), std::string::npos);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(message({kB, kF, kNan, 40, 2}).find("finite"), std::string::npos);
}

TEST(AnswerQueryTest, MatchesTheMechanismDesignerBitForBit) {
  core::MechanismDesigner designer =
      std::move(core::MechanismDesigner::Create(kB, kF).value());
  for (double f : {0.05, 0.2, 0.3, 0.6, 0.9}) {
    for (double p : {0.0, 10.0, 40.0, 200.0}) {
      QueryAnswer answer = AnswerQuery({kB, kF, f, p, 2}).value();
      EXPECT_EQ(answer.effectiveness, designer.Classify(f, p));
      EXPECT_EQ(answer.min_frequency, designer.MinFrequency(p));
      EXPECT_EQ(answer.min_penalty, designer.MinPenalty(f).value());
      EXPECT_EQ(answer.zero_penalty_frequency, designer.ZeroPenaltyFrequency());
      EXPECT_EQ(answer.honest_is_dominant,
                answer.effectiveness ==
                    game::DeviceEffectiveness::kTransformative);
    }
  }
}

TEST(AnswerQueryTest, NeverAuditedMeansInfiniteMinPenalty) {
  QueryAnswer answer = AnswerQuery({kB, kF, 0.0, 1000, 2}).value();
  EXPECT_TRUE(std::isinf(answer.min_penalty));
  EXPECT_GT(answer.min_penalty, 0);
  EXPECT_FALSE(answer.honest_is_dominant);
}

TEST(AnswerQueryTest, RejectsNonFiniteMargin) {
  EXPECT_FALSE(
      AnswerQuery({kB, kF, 0.3, 40, 2},
                  std::numeric_limits<double>::infinity())
          .ok());
}

TEST(AnswerFromKernelTest, DominanceTracksTheTransformativeRegime) {
  game::kernel::DeviceAnswerKernel kernel;
  kernel.effectiveness = game::DeviceEffectiveness::kTransformative;
  kernel.min_frequency = 0.25;
  kernel.min_penalty = 12.5;
  kernel.zero_penalty_frequency = 0.6;
  QueryAnswer answer = AnswerFromKernel(kernel);
  EXPECT_TRUE(answer.honest_is_dominant);
  EXPECT_EQ(answer.min_frequency, 0.25);
  EXPECT_EQ(answer.min_penalty, 12.5);
  EXPECT_EQ(answer.zero_penalty_frequency, 0.6);
  kernel.effectiveness = game::DeviceEffectiveness::kEffective;
  EXPECT_FALSE(AnswerFromKernel(kernel).honest_is_dominant);
}

TEST(QueryServiceTest, CreateRejectsBadConfigs) {
  QueryServiceConfig config;
  config.margin = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(QueryService::Create(config).ok());
}

TEST(QueryServiceTest, ConfigErrorsNameTheField) {
  struct Case {
    const char* field;
    void (*mutate)(QueryServiceConfig*);
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Case& c : {
           Case{"QueryServiceConfig.margin",
                [](QueryServiceConfig* k) { k->margin = kNaN; }},
           Case{"QueryServiceConfig.margin",
                [](QueryServiceConfig* k) { k->margin = kInf; }},
           Case{"QueryServiceConfig.cache: CacheConfig.quantum",
                [](QueryServiceConfig* k) { k->cache.quantum = -1; }},
           Case{"QueryServiceConfig.cache: CacheConfig.quantum",
                [](QueryServiceConfig* k) { k->cache.quantum = kInf; }},
       }) {
    QueryServiceConfig config;
    c.mutate(&config);
    Result<QueryService> service = QueryService::Create(config);
    ASSERT_FALSE(service.ok()) << c.field;
    EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(service.status().message().find(c.field), std::string::npos)
        << service.status().ToString();
  }
}

TEST(StreamConfigTest, ErrorsNameTheField) {
  struct Case {
    const char* field;
    void (*mutate)(StreamConfig*);
  };
  for (const Case& c : {
           Case{"StreamConfig.count", [](StreamConfig* k) { k->count = 0; }},
           Case{"StreamConfig.domain", [](StreamConfig* k) { k->domain = 0; }},
           Case{"StreamConfig.skew", [](StreamConfig* k) { k->skew = -1; }},
           Case{"StreamConfig.skew",
                [](StreamConfig* k) {
                  k->skew = std::numeric_limits<double>::quiet_NaN();
                }},
           Case{"StreamConfig.n", [](StreamConfig* k) { k->n = 1; }},
       }) {
    StreamConfig config;
    config.count = 16;
    c.mutate(&config);
    auto stream = MakeSyntheticStream(config);
    ASSERT_FALSE(stream.ok()) << c.field;
    EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(stream.status().message().find(c.field), std::string::npos)
        << stream.status().ToString();
  }
}

TEST(QueryServiceTest, ServedFrequenciesStayInTheUnitInterval) {
  // The designer clamp (core::MechanismDesigner::MinFrequency) is the
  // serving tier's guarantee; exercise the extremes that used to escape
  // it: enormous penalties (negative critical frequency) and P = 0.
  QueryService service = std::move(QueryService::Create({}).value());
  for (double p : {0.0, 1.0, 1e6, 1e15}) {
    QueryAnswer answer = service.Answer({kB, kF, 0.5, p, 2}).value();
    EXPECT_GE(answer.min_frequency, 0.0);
    EXPECT_LE(answer.min_frequency, 1.0);
    EXPECT_GE(answer.zero_penalty_frequency, 0.0);
    EXPECT_LE(answer.zero_penalty_frequency, 1.0);
  }
}

TEST(DerivationTest, ExplainsTheServedAnswerDeterministically) {
  QueryService service = std::move(QueryService::Create({}).value());
  QueryRequest request{kB, kF, 0.3, 40, 5};
  Derivation derivation = service.Explain(request).value();
  ASSERT_EQ(derivation.steps.size(), 5u);
  QueryAnswer answer = service.Answer(request).value();
  EXPECT_EQ(derivation.honest_is_dominant, answer.honest_is_dominant);
  // The verdict restates the regime and mentions the party count.
  EXPECT_NE(derivation.conclusion.find("transformative"), std::string::npos);
  EXPECT_NE(derivation.conclusion.find("5 parties"), std::string::npos);
  // Deterministic: two builds render byte-identically.
  EXPECT_EQ(DerivationToText(derivation),
            DerivationToText(service.Explain(request).value()));
}

TEST(DerivationTest, RegimeLineMatchesTheClassificationEverywhere) {
  QueryService service = std::move(QueryService::Create({}).value());
  for (double f : {0.0, 0.1, 0.3, 0.6, 1.0}) {
    for (double p : {0.0, 10.0, 40.0}) {
      QueryRequest request{kB, kF, f, p, 2};
      QueryAnswer answer = service.Answer(request).value();
      Derivation derivation = service.Explain(request).value();
      switch (answer.effectiveness) {
        case game::DeviceEffectiveness::kTransformative:
        case game::DeviceEffectiveness::kHighlyEffective:
          EXPECT_NE(derivation.steps[1].inequality.find(" > "),
                    std::string::npos);
          break;
        case game::DeviceEffectiveness::kEffective:
          EXPECT_NE(derivation.steps[1].inequality.find(" = "),
                    std::string::npos);
          break;
        case game::DeviceEffectiveness::kIneffective:
          EXPECT_NE(derivation.steps[1].inequality.find(" < "),
                    std::string::npos);
          break;
      }
    }
  }
}

TEST(DerivationTest, NeverAuditedStepSaysSo) {
  QueryService service = std::move(QueryService::Create({}).value());
  Derivation derivation = service.Explain({kB, kF, 0.0, 40, 2}).value();
  EXPECT_NE(derivation.steps[2].conclusion.find("never audited"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Request lines (`--query` and `--requests` files)
// ---------------------------------------------------------------------

auto Fields(const QueryRequest& r) {
  return std::tie(r.benefit, r.cheat_gain, r.frequency, r.penalty, r.n);
}

/// Prints `request` back as a request line that parses to the same
/// doubles (%.17g round-trips every finite double).
std::string RequestLine(const QueryRequest& request) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%.17g,%.17g,%d",
                request.benefit, request.cheat_gain, request.frequency,
                request.penalty, request.n);
  return buf;
}

TEST(ParseQueryRequestTest, ReadsFourOrFiveFields) {
  QueryRequest four = ParseQueryRequest("10,25,0.3,40").value();
  EXPECT_TRUE(Fields(four) == Fields(QueryRequest{kB, kF, 0.3, 40, 2}));
  QueryRequest five = ParseQueryRequest("10,25,0.3,40,5").value();
  EXPECT_TRUE(Fields(five) == Fields(QueryRequest{kB, kF, 0.3, 40, 5}));
  // Syntax only: ValidateQueryRequest owns the ranges.
  QueryRequest unservable = ParseQueryRequest("-1,2e3,7,-4,0").value();
  EXPECT_TRUE(Fields(unservable) ==
              Fields(QueryRequest{-1, 2000, 7, -4, 0}));
  EXPECT_FALSE(ValidateQueryRequest(unservable).ok());
}

TEST(ParseQueryRequestTest, RejectsMalformedLinesNamingTheField) {
  struct Case {
    const char* line;
    const char* names;  // substring the message must contain
  };
  const Case cases[] = {
      {"10,25,0.3,40,2.9", "query: n"},         // n is an integer...
      {"10,25,0.3,40,4294967298", "query: n"},  // ...that fits in int
      {"10,25,nan,40", "query: f"},
      {"10,inf,0.3,40", "query: F"},
      {"1e999,25,0.3,40", "query: B"},
      {"10,25,0.3, 40", "query: P"},
      {"10,25,0.3,40,", "query: n"},
      {"10,25,0.3", "B,F,f,P[,n]"},
      {"", "B,F,f,P[,n]"},
      {"10,25,0.3,40,2,7", "B,F,f,P[,n]"},
  };
  for (const Case& c : cases) {
    Result<QueryRequest> parsed = ParseQueryRequest(c.line);
    ASSERT_FALSE(parsed.ok()) << "accepted '" << c.line << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << c.line;
    EXPECT_NE(parsed.status().message().find(c.names), std::string::npos)
        << c.line << ": " << parsed.status();
  }
}

// Seeded mutation corpus over request lines, in the style of the
// perf-record suite: byte flips, truncations and insertions. Every
// mutant either parses to a request that prints back to an equal
// request, or is rejected as InvalidArgument — never another code,
// never a crash. Draws use the raw engine output, so the corpus is the
// same on every standard library.
TEST(ParseQueryRequestTest, SeededMutantsRoundTripOrAreInvalid) {
  std::mt19937_64 rng(0x9e3779b9ULL);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  size_t accepted = 0;
  size_t rejected = 0;
  for (const std::string line :
       {"10,25,0.3,40", "10,25,0.3,40,5", "0,1,0,0", "1e3,2.5e3,0.125,7,17",
        "-0.5,12.75,1,1e-3,2"}) {
    std::vector<std::string> mutants;
    for (int i = 0; i < 96; ++i) {
      std::string m = line;
      m[pick(m.size())] ^= static_cast<char>(1 + pick(255));
      mutants.push_back(std::move(m));
    }
    for (int i = 0; i < 24; ++i) {
      mutants.push_back(line.substr(0, pick(line.size())));
    }
    for (int i = 0; i < 48; ++i) {
      std::string m = line;
      m.insert(m.begin() + static_cast<ptrdiff_t>(pick(m.size() + 1)),
               static_cast<char>(rng()));
      mutants.push_back(std::move(m));
    }
    for (const std::string& mutant : mutants) {
      Result<QueryRequest> parsed = ParseQueryRequest(mutant);
      if (!parsed.ok()) {
        ++rejected;
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
            << mutant << ": " << parsed.status();
        continue;
      }
      ++accepted;
      Result<QueryRequest> again = ParseQueryRequest(RequestLine(*parsed));
      ASSERT_TRUE(again.ok()) << mutant << ": " << again.status();
      EXPECT_TRUE(Fields(*again) == Fields(*parsed))
          << mutant << " does not round-trip";
    }
  }
  // The corpus must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace hsis::serve
