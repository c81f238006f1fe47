#include "sovereign/session_core.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"

namespace hsis::sovereign {

namespace {

// Inline limb order (U256's operator<=> is out of line).
bool Less(const U256& a, const U256& b) {
  for (size_t i = 4; i-- > 0;) {
    if (a.limb[i] != b.limb[i]) return a.limb[i] < b.limb[i];
  }
  return false;
}

}  // namespace

Bytes CommitTuples(const crypto::MultisetHashFamily& family,
                   std::span<const Tuple> tuples, int threads) {
  const size_t tiles = (tuples.size() + kCommitmentTile - 1) / kCommitmentTile;
  std::vector<std::unique_ptr<crypto::MultisetHash>> tile_hashes(tiles);
  common::ParallelForTiles(
      threads, tuples.size(), kCommitmentTile, [&](size_t lo, size_t hi) {
        std::unique_ptr<crypto::MultisetHash> hash = family.NewHash();
        for (size_t i = lo; i < hi; ++i) hash->Add(tuples[i].value);
        tile_hashes[lo / kCommitmentTile] = std::move(hash);
      });
  std::unique_ptr<crypto::MultisetHash> total = family.NewHash();
  for (const std::unique_ptr<crypto::MultisetHash>& hash : tile_hashes) {
    Status united = total->Union(*hash);
    HSIS_CHECK(united.ok()) << united.ToString();  // same family throughout
  }
  return total->Serialize();
}

ElementMultiset::ElementMultiset(std::vector<U256> values) {
  std::sort(values.begin(), values.end(), Less);
  for (const U256& v : values) {
    if (!entries_.empty() && entries_.back().first == v) {
      ++entries_.back().second;
    } else {
      entries_.emplace_back(v, 1);
    }
  }
}

bool ElementMultiset::Take(const U256& value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), value,
      [](const std::pair<U256, size_t>& e, const U256& v) {
        return Less(e.first, v);
      });
  if (it == entries_.end() || it->first != value || it->second == 0) {
    return false;
  }
  --it->second;
  return true;
}

Result<Dataset> ResolvePairs(std::span<const U256> pairs,
                             std::span<const U256> self_encrypted,
                             const std::vector<Tuple>& tuples,
                             ElementMultiset& peer) {
  // E_self(h(t)) -> E_peer(E_self(h(t))), sorted by the first value. The
  // stable sort keeps wire order within a run of equal first values, so
  // keeping each run's last pair is std::map::operator[]'s last write.
  std::vector<std::pair<U256, U256>> mapping;
  mapping.reserve(pairs.size() / 2);
  for (size_t i = 0; i + 1 < pairs.size(); i += 2) {
    mapping.emplace_back(pairs[i], pairs[i + 1]);
  }
  auto by_first = [](const std::pair<U256, U256>& a,
                     const std::pair<U256, U256>& b) {
    return Less(a.first, b.first);
  };
  std::stable_sort(mapping.begin(), mapping.end(), by_first);
  size_t kept_pairs = 0;
  for (size_t i = 0; i < mapping.size(); ++i) {
    if (kept_pairs > 0 && mapping[kept_pairs - 1].first == mapping[i].first) {
      mapping[kept_pairs - 1] = mapping[i];
    } else {
      mapping[kept_pairs++] = mapping[i];
    }
  }
  mapping.resize(kept_pairs);

  std::vector<Tuple> kept;
  for (size_t i = 0; i < self_encrypted.size(); ++i) {
    auto it = std::lower_bound(mapping.begin(), mapping.end(),
                               std::make_pair(self_encrypted[i], U256()),
                               by_first);
    if (it == mapping.end() || it->first != self_encrypted[i]) {
      return Status::ProtocolViolation(
          "peer reply omits one of our encrypted values");
    }
    if (peer.Take(it->second)) kept.push_back(tuples[i]);
  }
  return Dataset(std::move(kept));
}

}  // namespace hsis::sovereign
