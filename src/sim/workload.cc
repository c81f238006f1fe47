#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"

namespace hsis::sim {

namespace {
std::string CustomerName(const char* pool, size_t i) {
  return std::string(pool) + "-" + std::to_string(i);
}
}  // namespace

TwoFirmWorkload MakeTwoFirmWorkload(size_t a_private, size_t b_private,
                                    size_t common, Rng& rng) {
  TwoFirmWorkload w;
  for (size_t i = 0; i < common; ++i) {
    w.common.push_back(CustomerName("shared", i));
  }
  for (size_t i = 0; i < a_private; ++i) {
    w.a_private.push_back(CustomerName("a-only", i));
  }
  for (size_t i = 0; i < b_private; ++i) {
    w.b_private.push_back(CustomerName("b-only", i));
  }
  w.firm_a = w.a_private;
  w.firm_a.insert(w.firm_a.end(), w.common.begin(), w.common.end());
  w.firm_b = w.b_private;
  w.firm_b.insert(w.firm_b.end(), w.common.begin(), w.common.end());
  rng.Shuffle(w.firm_a);
  rng.Shuffle(w.firm_b);
  return w;
}

std::vector<std::vector<std::string>> MakeSupplyChainWorkload(
    int parties, size_t catalog_size, double hold_probability, Rng& rng) {
  HSIS_CHECK(parties >= 1);
  HSIS_CHECK(hold_probability >= 0.0 && hold_probability <= 1.0)
      << "hold_probability must be in [0, 1], got " << hold_probability;
  std::vector<std::vector<std::string>> out(static_cast<size_t>(parties));
  for (size_t part = 0; part < catalog_size; ++part) {
    std::string id = "part-" + std::to_string(part);
    for (int p = 0; p < parties; ++p) {
      if (rng.Bernoulli(hold_probability)) {
        out[static_cast<size_t>(p)].push_back(id);
      }
    }
  }
  return out;
}

std::vector<size_t> MakeZipfIndexDraws(size_t draws, size_t domain_size,
                                       double s, Rng& rng) {
  HSIS_CHECK(domain_size >= 1);
  std::vector<size_t> out;
  out.reserve(draws);
  if (domain_size == 1 || s <= 0.0) {
    for (size_t i = 0; i < draws; ++i) out.push_back(rng.Zipf(domain_size, s));
    return out;
  }
  // `Rng::Zipf`'s inverse CDF, summed once in its order rather than once
  // per draw: the same partial sums, so the same index for the same
  // uniform draw.
  std::vector<double> cdf(domain_size);
  double acc = 0.0;
  for (size_t k = 0; k < domain_size; ++k) {
    acc += std::pow(static_cast<double>(k + 1), -s);
    cdf[k] = acc;
  }
  for (size_t i = 0; i < draws; ++i) {
    const double u = rng.UniformDouble() * acc;
    const size_t k = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.push_back(std::min(k, domain_size - 1));
  }
  return out;
}

std::vector<std::string> MakeProbeList(
    const std::vector<std::string>& peer_private, size_t count,
    double hit_rate, Rng& rng) {
  std::vector<std::string> hits = peer_private;
  rng.Shuffle(hits);
  size_t n_hits =
      std::min(hits.size(), static_cast<size_t>(
                                static_cast<double>(count) * hit_rate + 0.5));
  std::vector<std::string> out(hits.begin(),
                               hits.begin() + static_cast<ptrdiff_t>(n_hits));
  // Filler misses must be unique — among themselves (duplicates would
  // silently shrink the effective probe count below `count`) and
  // against the whole peer set (a peer may hold probe-shaped names, and
  // a colliding "miss" would really be an extra hit). The counter
  // guarantees termination and uniqueness; the random tag keeps the
  // misses unguessable-looking.
  std::unordered_set<std::string> used(peer_private.begin(),
                                       peer_private.end());
  used.insert(out.begin(), out.end());
  size_t miss = 0;
  while (out.size() < count) {
    std::string id = "guess-" + std::to_string(miss++) + "-" +
                     std::to_string(rng.NextUint64() % 100000);
    if (!used.insert(id).second) continue;
    out.push_back(std::move(id));
  }
  rng.Shuffle(out);
  return out;
}

}  // namespace hsis::sim
