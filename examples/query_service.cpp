// Online mechanism-design query service, from the command line.
//
// The serving tier answers "is honesty dominant at this operating
// point, and if not, what would make it so?" — Section 4's
// observations packaged as an online API (src/serve). This driver
// exposes all three serving paths:
//
//   Single query, with the full step-by-step proof:
//     query_service --query=10,25,0.3,40
//     query_service --query=10,25,0.3,40,5     (5 sharing parties)
//
//   Batch-serve a request file (one B,F,f,P[,n] line per request;
//   blank lines and #-comments skipped) through the memoized cache:
//     query_service --requests=queries.csv
//
//   Synthetic Zipf-skewed stream (the repetitive traffic production
//   serving sees), printing the regime histogram and cache counters:
//     query_service --stream=100000 --domain=1024 --skew=1.1 --seed=42
//
// Cache and service knobs: --quantum=Q (key quantization step; 0 =
// lossless bit-pattern keys), --capacity=C (entries in the cache, 0 =
// unbounded), --margin=M.

#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "common/flags.h"
#include "game/thresholds.h"
#include "serve/query_service.h"
#include "serve/stream.h"

using namespace hsis;
using common::Fail;

namespace {

constexpr char kUsage[] =
    "usage:\n"
    "  query_service --query=B,F,f,P[,n]\n"
    "  query_service --requests=FILE\n"
    "  query_service --stream=N [--domain=K --skew=S --seed=U]\n"
    "options: --quantum=Q --capacity=C --margin=M\n";

void PrintAnswer(const serve::QueryAnswer& answer) {
  std::printf("regime:                 %s\n",
              game::DeviceEffectivenessName(answer.effectiveness));
  std::printf("honest is dominant:     %s\n",
              answer.honest_is_dominant ? "yes" : "no");
  std::printf("min deterring frequency: %g\n", answer.min_frequency);
  std::printf("min deterring penalty:   %g\n", answer.min_penalty);
  std::printf("zero-penalty frequency:  %g\n", answer.zero_penalty_frequency);
}

void PrintStats(const serve::CacheStats& stats) {
  std::printf("cache: %llu hits, %llu misses, %llu evictions, "
              "%llu resident entries\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<unsigned long long>(stats.entries));
}

int ServeBatch(serve::QueryService& service,
               const std::vector<serve::QueryRequest>& requests,
               bool per_request) {
  game::kernel::DeviceAnswersSoA answers;
  if (Status s = service.AnswerBatchCached(requests.data(), requests.size(),
                                           answers);
      !s.ok()) {
    return Fail(s);
  }
  size_t histogram[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < requests.size(); ++i) {
    histogram[static_cast<size_t>(answers.effectiveness[i])]++;
    if (per_request) {
      std::printf("%zu: %s  min_f=%g  min_P=%g  f0=%g\n", i + 1,
                  game::DeviceEffectivenessName(answers.effectiveness[i]),
                  answers.min_frequency[i], answers.min_penalty[i],
                  answers.zero_penalty_frequency[i]);
    }
  }
  std::printf("served %zu requests\n", requests.size());
  for (int e = 0; e < 4; ++e) {
    std::printf("  %-18s %zu\n",
                game::DeviceEffectivenessName(
                    static_cast<game::DeviceEffectiveness>(e)),
                histogram[static_cast<size_t>(e)]);
  }
  PrintStats(service.Stats());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> query_spec;
  std::optional<std::string> requests_path;
  int64_t stream_count = 0;
  serve::StreamConfig stream;
  serve::QueryServiceConfig config;

  constexpr int64_t kMaxCount = std::numeric_limits<int64_t>::max();
  constexpr double kMaxNumber = std::numeric_limits<double>::max();
  std::vector<common::Flag> flags = serve::StreamFlags(&stream);
  flags.insert(
      flags.end(),
      {common::TextFlag("--query", &query_spec),
       common::TextFlag("--requests", &requests_path),
       common::IntFlag("--stream", 0, kMaxCount, &stream_count),
       common::NumberFlag("--quantum", 0, kMaxNumber, &config.cache.quantum),
       common::IntFlag("--capacity", 0, kMaxCount, &config.cache.capacity),
       common::NumberFlag("--margin", 0, kMaxNumber, &config.margin)});
  common::ReadCommandLine(argc, argv, flags, kUsage);

  auto service_or = serve::QueryService::Create(config);
  if (!service_or.ok()) return Fail(service_or.status());
  serve::QueryService service = std::move(*service_or);

  if (query_spec) {
    serve::QueryRequest request =
        common::FlagOrExit(serve::ParseQueryRequest(*query_spec));
    auto answer = service.Answer(request);
    if (!answer.ok()) return Fail(answer.status());
    std::printf("query: B=%g F=%g f=%g P=%g n=%d\n", request.benefit,
                request.cheat_gain, request.frequency, request.penalty,
                request.n);
    PrintAnswer(*answer);
    auto derivation = service.Explain(request);
    if (!derivation.ok()) return Fail(derivation.status());
    std::printf("\n%s", serve::DerivationToText(*derivation).c_str());
    return 0;
  }

  if (requests_path) {
    auto content = ReadFile(*requests_path);
    if (!content.ok()) return Fail(content.status());
    std::vector<serve::QueryRequest> requests;
    std::string_view rest = *content;
    size_t line_no = 0;
    while (!rest.empty()) {
      size_t eol = rest.find('\n');
      std::string_view line =
          eol == std::string_view::npos ? rest : rest.substr(0, eol);
      rest = eol == std::string_view::npos ? std::string_view()
                                           : rest.substr(eol + 1);
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      auto request = serve::ParseQueryRequest(line);
      if (!request.ok()) {
        std::fprintf(stderr, "%s:%zu: %s\n", requests_path->c_str(), line_no,
                     request.status().ToString().c_str());
        return common::kExitUsage;
      }
      requests.push_back(*request);
    }
    return ServeBatch(service, requests, /*per_request=*/true);
  }

  if (stream_count > 0) {
    stream.count = static_cast<size_t>(stream_count);
    auto requests = serve::MakeSyntheticStream(stream);
    if (!requests.ok()) return Fail(requests.status());
    std::printf("stream: %zu requests over %zu points, skew %g, seed %llu\n",
                requests->size(), stream.domain, stream.skew,
                static_cast<unsigned long long>(stream.seed));
    return ServeBatch(service, *requests, /*per_request=*/false);
  }

  return common::PrintUsage(kUsage);
}
