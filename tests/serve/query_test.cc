#include "serve/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/mechanism_designer.h"
#include "crypto/sha256.h"
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

/// The proof rendered from its views alone, in `DerivationToText`'s
/// layout.
std::string RenderFromViews(const Derivation& derivation) {
  std::string out;
  for (size_t i = 0; i < derivation.steps.size(); ++i) {
    const DerivationStep& step = derivation.steps[i];
    out.append("step ").append(std::to_string(i + 1)).append(":\n");
    out.append("  premise:    ").append(step.premise).append("\n");
    out.append("  inequality: ").append(step.inequality).append("\n");
    out.append("  conclusion: ").append(step.conclusion).append("\n");
  }
  return out.append("verdict: ").append(derivation.conclusion).append("\n");
}

// The views point into the shared text, not into the service or the
// original: a copy and a moved-from-then-moved-to derivation read every
// view after both are gone (ASan flags a dangling view).
TEST(DerivationTest, ViewsOutliveTheOriginalAndTheService) {
  const QueryRequest request{kB, kF, 0.3, 40, 5};
  std::optional<Derivation> copy;
  Derivation moved;
  std::string expected;
  {
    auto service = std::make_unique<QueryService>(
        std::move(QueryService::Create({}).value()));
    Derivation original = service->Explain(request).value();
    expected = DerivationToText(original);
    copy = original;
    moved = original;
    Derivation elsewhere = std::move(moved);
    moved = std::move(elsewhere);
  }
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(RenderFromViews(*copy), expected);
  EXPECT_EQ(DerivationToText(*copy), expected);
  EXPECT_EQ(RenderFromViews(moved), expected);
  EXPECT_EQ(DerivationToText(moved), expected);
  EXPECT_TRUE(copy->honest_is_dominant);
  EXPECT_EQ(copy->steps[4].inequality, "f0 = 0.6");
}

// Each step's three views are exactly its premise:, inequality: and
// conclusion: lines of the text, and the verdict view its verdict: line,
// on every branch of the proof.
TEST(DerivationTest, ViewsAreTheLinesOfTheText) {
  QueryService service = std::move(QueryService::Create({}).value());
  std::vector<Derivation> derivations;
  for (const QueryRequest& request :
       {QueryRequest{1e-7, 3e9, 0.25, 1.5e12, 4},
        QueryRequest{kB, kF, 0.5, 5, 2}, QueryRequest{kB, kF, 0.0, 40, 2},
        QueryRequest{kB, kF, 0.8, 0, 3}, QueryRequest{kB, kF, 0.3, 40, 7}}) {
    derivations.push_back(service.Explain(request).value());
  }
  QueryAnswer highly_effective;
  highly_effective.effectiveness = game::DeviceEffectiveness::kHighlyEffective;
  highly_effective.min_frequency = 0.123456789;
  highly_effective.min_penalty = -std::numeric_limits<double>::infinity();
  highly_effective.zero_penalty_frequency = 0.6;
  derivations.push_back(
      BuildDerivation({kB, kF, 0.3, 40, 2}, highly_effective, 2.5e-7));
  for (const Derivation& derivation : derivations) {
    const std::string text = DerivationToText(derivation);
    std::vector<std::string> lines;
    for (size_t begin = 0, end = 0; begin < text.size(); begin = end + 1) {
      end = text.find('\n', begin);
      lines.push_back(text.substr(begin, end - begin));
    }
    ASSERT_EQ(lines.size(), 21u) << text;
    for (size_t i = 0; i < derivation.steps.size(); ++i) {
      const DerivationStep& step = derivation.steps[i];
      EXPECT_EQ(lines[4 * i], "step " + std::to_string(i + 1) + ":");
      EXPECT_EQ(lines[4 * i + 1], "  premise:    " + std::string(step.premise));
      EXPECT_EQ(lines[4 * i + 2],
                "  inequality: " + std::string(step.inequality));
      EXPECT_EQ(lines[4 * i + 3],
                "  conclusion: " + std::string(step.conclusion));
    }
    EXPECT_EQ(lines[20], "verdict: " + std::string(derivation.conclusion));
    EXPECT_EQ(derivation.conclusion, derivation.steps[1].conclusion);
  }
}

// Byte-for-byte pin of the rendered proof: one transformative point
// whose numbers %g prints in exponent form, the effective boundary, an
// unaudited ineffective point (infinite bound), a frequency that needs
// no penalty (min_penalty == 0, negative thresholds), and a hand-built
// highly-effective answer carrying -infinity and an exponent-form
// margin.
TEST(DerivationTest, TextIsPinnedByteForByte) {
  QueryService service = std::move(QueryService::Create({}).value());
  const QueryRequest explained[] = {{1e-7, 3e9, 0.25, 1.5e12, 4},
                                    {kB, kF, 0.5, 5, 2},
                                    {kB, kF, 0.0, 40, 2},
                                    {kB, kF, 0.8, 0, 3}};
  QueryAnswer highly_effective;
  highly_effective.effectiveness = game::DeviceEffectiveness::kHighlyEffective;
  highly_effective.min_frequency = 0.123456789;
  highly_effective.min_penalty = -std::numeric_limits<double>::infinity();
  highly_effective.zero_penalty_frequency = 0.6;
  std::vector<std::string> texts;
  for (const QueryRequest& request : explained) {
    texts.push_back(DerivationToText(service.Explain(request).value()));
  }
  texts.push_back(DerivationToText(
      BuildDerivation({kB, kF, 0.3, 40, 2}, highly_effective, 2.5e-7)));
  const char* const kGolden[] = {
R"(step 1:
  premise:    a cheating party keeps the gross gain F = 3e+09 only when the audit misses (probability 1 - f = 0.75) and forfeits honesty's benefit B = 1e-07; detection (probability f = 0.25) costs the penalty P = 1.5e+12
  inequality: net cheating gain (1 - f)*F - B = 2.25e+09, expected penalty f*P = 3.75e+11
  conclusion: cheating is deterred exactly when the expected penalty exceeds the net cheating gain
step 2:
  premise:    Observation 2/3 regime test at (f = 0.25, P = 1.5e+12)
  inequality: f*P = 3.75e+11 > (1 - f)*F - B = 2.25e+09
  conclusion: honesty is the unique dominant-strategy equilibrium for all 4 parties: the device is transformative
step 3:
  premise:    Observation 3: at fixed frequency f the critical penalty is P* = ((1 - f)*F - B) / f
  inequality: P* = 9e+09, served minimum 9e+09
  conclusion: any penalty of at least 9e+09 (margin 1e-06 included) makes honesty dominant at f = 0.25
step 4:
  premise:    Observation 2: at fixed penalty P the critical frequency is f* = (F - B) / (P + F)
  inequality: f* = 0.00199601, served minimum clamp(f* + 1e-06, [0, 1]) = 0.00199701
  conclusion: auditing at frequency 0.00199701 or above makes honesty dominant at P = 1.5e+12
step 5:
  premise:    above f0 = (F - B) / F the expected cheating gain falls below B with no penalty at all
  inequality: f0 = 1
  conclusion: auditing more often than 1 needs no penalty whatsoever
verdict: honesty is the unique dominant-strategy equilibrium for all 4 parties: the device is transformative
)",
R"(step 1:
  premise:    a cheating party keeps the gross gain F = 25 only when the audit misses (probability 1 - f = 0.5) and forfeits honesty's benefit B = 10; detection (probability f = 0.5) costs the penalty P = 5
  inequality: net cheating gain (1 - f)*F - B = 2.5, expected penalty f*P = 2.5
  conclusion: cheating is deterred exactly when the expected penalty exceeds the net cheating gain
step 2:
  premise:    Observation 2/3 regime test at (f = 0.5, P = 5)
  inequality: f*P = 2.5 = (1 - f)*F - B = 2.5
  conclusion: the operating point lies on the critical boundary: all-honest is among the equilibria, but so is cheating — the device is merely effective
step 3:
  premise:    Observation 3: at fixed frequency f the critical penalty is P* = ((1 - f)*F - B) / f
  inequality: P* = 5, served minimum 5
  conclusion: any penalty of at least 5 (margin 1e-06 included) makes honesty dominant at f = 0.5
step 4:
  premise:    Observation 2: at fixed penalty P the critical frequency is f* = (F - B) / (P + F)
  inequality: f* = 0.5, served minimum clamp(f* + 1e-06, [0, 1]) = 0.500001
  conclusion: auditing at frequency 0.500001 or above makes honesty dominant at P = 5
step 5:
  premise:    above f0 = (F - B) / F the expected cheating gain falls below B with no penalty at all
  inequality: f0 = 0.6
  conclusion: auditing more often than 0.6 needs no penalty whatsoever
verdict: the operating point lies on the critical boundary: all-honest is among the equilibria, but so is cheating — the device is merely effective
)",
R"(step 1:
  premise:    a cheating party keeps the gross gain F = 25 only when the audit misses (probability 1 - f = 1) and forfeits honesty's benefit B = 10; detection (probability f = 0) costs the penalty P = 40
  inequality: net cheating gain (1 - f)*F - B = 15, expected penalty f*P = 0
  conclusion: cheating is deterred exactly when the expected penalty exceeds the net cheating gain
step 2:
  premise:    Observation 2/3 regime test at (f = 0, P = 40)
  inequality: f*P = 0 < (1 - f)*F - B = 15
  conclusion: cheating dominates for every party: the device is ineffective at this operating point
step 3:
  premise:    Observation 3: at fixed frequency f the critical penalty is P* = ((1 - f)*F - B) / f
  inequality: P* = infinity, served minimum infinity
  conclusion: a party that is never audited cannot be deterred by any finite penalty
step 4:
  premise:    Observation 2: at fixed penalty P the critical frequency is f* = (F - B) / (P + F)
  inequality: f* = 0.230769, served minimum clamp(f* + 1e-06, [0, 1]) = 0.23077
  conclusion: auditing at frequency 0.23077 or above makes honesty dominant at P = 40
step 5:
  premise:    above f0 = (F - B) / F the expected cheating gain falls below B with no penalty at all
  inequality: f0 = 0.6
  conclusion: auditing more often than 0.6 needs no penalty whatsoever
verdict: cheating dominates for every party: the device is ineffective at this operating point
)",
R"(step 1:
  premise:    a cheating party keeps the gross gain F = 25 only when the audit misses (probability 1 - f = 0.2) and forfeits honesty's benefit B = 10; detection (probability f = 0.8) costs the penalty P = 0
  inequality: net cheating gain (1 - f)*F - B = -5, expected penalty f*P = 0
  conclusion: cheating is deterred exactly when the expected penalty exceeds the net cheating gain
step 2:
  premise:    Observation 2/3 regime test at (f = 0.8, P = 0)
  inequality: f*P = 0 > (1 - f)*F - B = -5
  conclusion: honesty is the unique dominant-strategy equilibrium for all 3 parties: the device is transformative
step 3:
  premise:    Observation 3: at fixed frequency f the critical penalty is P* = ((1 - f)*F - B) / f
  inequality: P* = -6.25, served minimum 0
  conclusion: the frequency alone already deters cheating — no penalty is needed
step 4:
  premise:    Observation 2: at fixed penalty P the critical frequency is f* = (F - B) / (P + F)
  inequality: f* = 0.6, served minimum clamp(f* + 1e-06, [0, 1]) = 0.600001
  conclusion: auditing at frequency 0.600001 or above makes honesty dominant at P = 0
step 5:
  premise:    above f0 = (F - B) / F the expected cheating gain falls below B with no penalty at all
  inequality: f0 = 0.6
  conclusion: auditing more often than 0.6 needs no penalty whatsoever
verdict: honesty is the unique dominant-strategy equilibrium for all 3 parties: the device is transformative
)",
R"(step 1:
  premise:    a cheating party keeps the gross gain F = 25 only when the audit misses (probability 1 - f = 0.7) and forfeits honesty's benefit B = 10; detection (probability f = 0.3) costs the penalty P = 40
  inequality: net cheating gain (1 - f)*F - B = 7.5, expected penalty f*P = 12
  conclusion: cheating is deterred exactly when the expected penalty exceeds the net cheating gain
step 2:
  premise:    Observation 2/3 regime test at (f = 0.3, P = 40)
  inequality: f*P = 12 > (1 - f)*F - B = 7.5
  conclusion: honesty is the unique dominant-strategy equilibrium for all 2 parties: the device is transformative
step 3:
  premise:    Observation 3: at fixed frequency f the critical penalty is P* = ((1 - f)*F - B) / f
  inequality: P* = 25, served minimum -infinity
  conclusion: any penalty of at least -infinity (margin 2.5e-07 included) makes honesty dominant at f = 0.3
step 4:
  premise:    Observation 2: at fixed penalty P the critical frequency is f* = (F - B) / (P + F)
  inequality: f* = 0.230769, served minimum clamp(f* + 2.5e-07, [0, 1]) = 0.123457
  conclusion: auditing at frequency 0.123457 or above makes honesty dominant at P = 40
step 5:
  premise:    above f0 = (F - B) / F the expected cheating gain falls below B with no penalty at all
  inequality: f0 = 0.6
  conclusion: auditing more often than 0.6 needs no penalty whatsoever
verdict: honesty is the unique dominant-strategy equilibrium for all 2 parties: the device is transformative
)",
  };
  ASSERT_EQ(texts.size(), std::size(kGolden));
  for (size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(texts[i], kGolden[i]) << "case " << i;
  }
}

// Digest pin over many served proofs: 10 000 seeded requests drawn as
// perfbench's query workload draws its points, then the pinned points
// above, rendered and concatenated. The digest was taken while proofs
// still formatted their numbers with std::to_chars, so any byte the
// game::AppendCsvDouble writer changes in any number fails here.
TEST(DerivationTest, SeededProofsMatchTheirDigest) {
  QueryService service = std::move(QueryService::Create({}).value());
  Rng rng(20260601);
  std::string text;
  for (int i = 0; i < 10000; ++i) {
    QueryRequest request;
    request.benefit = 1 + 19 * rng.UniformDouble();
    request.cheat_gain = request.benefit * (1.2 + 1.8 * rng.UniformDouble());
    request.frequency = rng.UniformDouble();
    request.penalty = 200 * rng.UniformDouble();
    request.n = 2 + static_cast<int>(rng.UniformUint64(7));
    text += DerivationToText(service.Explain(request).value());
  }
  for (const QueryRequest& request :
       {QueryRequest{1e-7, 3e9, 0.25, 1.5e12, 4},
        QueryRequest{kB, kF, 0.5, 5, 2}, QueryRequest{kB, kF, 0.0, 40, 2},
        QueryRequest{kB, kF, 0.8, 0, 3}}) {
    text += DerivationToText(service.Explain(request).value());
  }
  QueryAnswer highly_effective;
  highly_effective.effectiveness = game::DeviceEffectiveness::kHighlyEffective;
  highly_effective.min_frequency = 0.123456789;
  highly_effective.min_penalty = -std::numeric_limits<double>::infinity();
  highly_effective.zero_penalty_frequency = 0.6;
  text += DerivationToText(
      BuildDerivation({kB, kF, 0.3, 40, 2}, highly_effective, 2.5e-7));
  EXPECT_EQ(HexEncode(crypto::Sha256::Hash(text)),
            "b0b27d8bc1b3f87adc57721bd5df3bf869d91b7590afc50d20946e0333dbbcba");
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
