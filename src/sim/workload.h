#ifndef HSIS_SIM_WORKLOAD_H_
#define HSIS_SIM_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/random.h"

namespace hsis::sim {

/// The Rowi/Colie scenario of Section 3: two competing firms with
/// partially overlapping customer lists.
struct TwoFirmWorkload {
  std::vector<std::string> firm_a;   // all of A's customers
  std::vector<std::string> firm_b;   // all of B's customers
  std::vector<std::string> common;   // ground-truth overlap
  std::vector<std::string> a_private;  // A-only customers
  std::vector<std::string> b_private;  // B-only customers
};

/// Generates disjoint private pools plus a shared pool of the requested
/// sizes, with globally unique customer identifiers.
TwoFirmWorkload MakeTwoFirmWorkload(size_t a_private, size_t b_private,
                                    size_t common, Rng& rng);

/// n-party supply-chain workload: a catalog of `catalog_size` part
/// numbers; each party stocks each part independently with probability
/// `hold_probability`. Returns one part list per party.
std::vector<std::vector<std::string>> MakeSupplyChainWorkload(
    int parties, size_t catalog_size, double hold_probability, Rng& rng);

/// Draws `draws` item indices (with duplicates) from a Zipf(s)
/// distribution over `[0, domain_size)`, for consumers that index into
/// their own catalogs (e.g. the serving tier's repetitive query
/// streams).
std::vector<size_t> MakeZipfIndexDraws(size_t draws, size_t domain_size,
                                       double s, Rng& rng);

/// The cheater's probe list (Section 1: "inserting some additional
/// names"): `count` guesses about the peer's private data, of which a
/// `hit_rate` fraction are actual members of `peer_private` and the rest
/// are misses that exist nowhere.
std::vector<std::string> MakeProbeList(
    const std::vector<std::string>& peer_private, size_t count,
    double hit_rate, Rng& rng);

}  // namespace hsis::sim

#endif  // HSIS_SIM_WORKLOAD_H_
