#ifndef HSIS_SOVEREIGN_SESSION_CORE_H_
#define HSIS_SOVEREIGN_SESSION_CORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/u256.h"
#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"

/// \file
/// \brief The commitment and resolve steps the two-party protocol
/// (intersection_protocol.cc) and the n-party ring (multiparty.cc) share.

namespace hsis::sovereign {

/// Tuples per commitment tile: the scheduling unit of `CommitTuples`.
inline constexpr size_t kCommitmentTile = 256;

/// The serialized multiset-hash commitment of `tuples` under `family`.
/// Each tile of `kCommitmentTile` tuples is hashed on the pool
/// (`threads` workers, 0 = hardware concurrency) into its own hash, and
/// the tile hashes are `Union`ed in tile order. A kMu tile of eight
/// tuples or more is hashed to the group sixteen tuples at a time
/// (`HashToElements`) into a tile-sized scratch and multiplied on the
/// `Product` lane (`MuHashOfFactors`); other tiles `Add` each tuple to a
/// `family.NewHash()`. The bytes equal adding the tuples one by one into
/// a single `NewHash()`, for every scheme and thread count: `NewHash`
/// draws no randomness, and all four schemes combine elements with a
/// commutative group operation (XOR, addition mod 2^256, multiplication
/// mod p, word-wise addition).
Bytes CommitTuples(const crypto::MultisetHashFamily& family,
                   std::span<const Tuple> tuples, int threads);

/// True when `family` hashes each tuple to the element the protocol over
/// `group` encrypts — a kMu family over `group`'s modulus — so one
/// `HashToElement` per tuple can serve both (`CommitAndHashTuples`).
bool SharesTupleHash(const crypto::MultisetHashFamily& family,
                     const crypto::PrimeGroup& group);

/// `CommitTuples` for a kMu family (`family.mu_group()` set, checked)
/// that also leaves h(t_i) = `family.mu_group()->HashToElement(t_i)` in
/// `hashed[i]` (`hashed.size() == tuples.size()`, checked): each tuple
/// is hashed once, for the commitment and for the caller's next use of
/// h(t). The bytes equal `CommitTuples`'s.
Bytes CommitAndHashTuples(const crypto::MultisetHashFamily& family,
                          std::span<const Tuple> tuples, std::span<U256> hashed,
                          int threads);

/// The key of the resolve's hash tables: four 64-bit words, one per limb
/// of the values they index.
using ResolveKey = std::array<uint64_t, 4>;

/// The resolve key of the party whose commutative-cipher key is
/// `cipher_key`: the `HmacPrf` of that key under a fixed label. Secret
/// as long as the cipher key is, and it draws no randomness.
ResolveKey DeriveResolveKey(const U256& cipher_key);

class ElementMultiset;

/// Full-mode resolve. `pairs` is the peer's flat (v, E_peer(v)) reply
/// about our set; of pairs sharing a first value, the one latest in
/// `pairs` wins. Each own tuple i maps through the reply from
/// `self_encrypted[i]` to its double encryption and is kept when that
/// value has a remaining copy in `peer` (tuples are visited in order).
/// A self-encrypted value with no pair is a ProtocolViolation. Our own
/// values are indexed under `peer`'s key, and the reply is walked once.
///
/// Runs on `threads` workers (0 = hardware concurrency), one partition
/// of each table at a time: every value lives in one partition, whose
/// worker walks its pairs in wire order and its takes in tuple order,
/// so the kept tuples and the status are the same for every count.
Result<Dataset> ResolvePairs(std::span<const U256> pairs,
                             std::span<const U256> self_encrypted,
                             const std::vector<Tuple>& tuples,
                             ElementMultiset& peer, int threads = 1);

/// A multiset of group elements: the moved-in values and a keyed hash
/// table with the remaining count of each distinct value. The values
/// come from the peer, which can compute them without our key
/// (E(x^k) = E(x)^k for any k it picks), so an unkeyed table could be
/// flooded with values that share a bucket. Keyed with the party's own
/// `DeriveResolveKey`, the peer cannot tell which values collide; the
/// key moves only the table layout, never an answer.
class ElementMultiset {
 public:
  /// A fixed key, known to everyone.
  static constexpr ResolveKey kPublicResolveKey = {
      0x243f6a8885a308d3, 0x13198a2e03707344, 0xa4093822299f31d0,
      0x082efa98ec4e6c89};

  /// The multiset of `values`, in any order. The default key is public:
  /// pass a secret one (`DeriveResolveKey`) for peer-chosen values. The
  /// table is split into partitions for `threads` workers (0 = hardware
  /// concurrency; one partition at 1) and built on them; the answers
  /// are the same for every count.
  explicit ElementMultiset(std::vector<U256> values,
                           const ResolveKey& key = kPublicResolveKey,
                           int threads = 1);

  /// The matching rule of the resolve: consumes one remaining copy of
  /// `value` and returns true, or returns false when none is left.
  bool Take(const U256& value);

  /// `Take`s each of `values` in order and returns how many found a
  /// copy. Each partition's values are taken in list order by one of
  /// `threads` workers, so the count and the copies left are those of
  /// the one-by-one loop.
  size_t TakeAll(std::span<const U256> values, int threads);

 private:
  friend Result<Dataset> ResolvePairs(std::span<const U256>,
                                      std::span<const U256>,
                                      const std::vector<Tuple>&,
                                      ElementMultiset&, int);

  // An open-addressed, linearly probed table over values held
  // elsewhere, split by the top bits of a keyed hash of all four limbs
  // into 2^bits partitions: each value lives in one, so distinct
  // partitions can be filled and probed on different workers. A
  // partition has one 8-byte slot per distinct value, holding the
  // index of its first occurrence and a 32-bit payload, and is sized
  // for the values it holds: load factor at most 1/2. With zero bits
  // it is one table.
  class KeyedIndex {
   public:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    struct Slot {
      uint32_t index;  // kEmpty: no value here
      uint32_t payload;
    };

    // The partition bits for `threads` workers (0 = hardware
    // concurrency): none at one, else about two partitions per worker.
    static int PartitionBits(int threads);

    // An empty index of `1 << bits` partitions; `Allocate` sizes them.
    KeyedIndex(const ResolveKey& key, int bits) : key_(key), bits_(bits) {}

    // Items 0 .. n - 1 grouped by partition within each tile, so each
    // partition's items, tile after tile, come in ascending order: the
    // work list of one partitioned pass. A worker writes the result of
    // the item at position k to slot k of an array, so workers write
    // apart. With one partition the plan is the identity.
    struct Plan {
      size_t parts = 1;
      std::vector<uint32_t> order;  // the items, as grouped
      std::vector<uint32_t> rank;   // rank[i]: the position of item i
      // Per tile, parts + 1 positions: partition q of tile t is
      // [bounds[t * (parts + 1) + q], bounds[t * (parts + 1) + q + 1]).
      std::vector<size_t> bounds;

      size_t item(size_t k) const { return order.empty() ? k : order[k]; }
      size_t position(size_t i) const { return rank.empty() ? i : rank[i]; }

      // The number of items in partition q.
      size_t count(size_t q) const;

      // body(k, item(k)) for partition q's positions k, in order.
      template <typename Body>
      void ForEach(size_t q, const Body& body) const {
        for (size_t t = 0; t < bounds.size(); t += parts + 1) {
          for (size_t k = bounds[t + q]; k < bounds[t + q + 1]; ++k) {
            body(k, item(k));
          }
        }
      }
    };

    // The plan of the items `value(0) .. value(n - 1)` (n below 2^32),
    // made on `threads` workers.
    template <typename Get>
    Plan MakePlan(size_t n, const Get& value, int threads) const;

    // Makes room for the values `plan` groups (fatal unless fewer than
    // kEmpty). Nothing is stored until `Clear` readies a partition.
    void Allocate(const Plan& plan);

    size_t partitions() const { return regions_.size(); }

    // Empties partition `q`; each partition is emptied once, before
    // its first `Find`.
    void Clear(size_t q);

    // The slot of `value` among `values`, the array every stored index
    // points into: the slot holding it, or the empty slot where it
    // would go.
    Slot& Find(std::span<const U256> values, const U256& value);

    const ResolveKey& key() const { return key_; }

   private:
    struct Region {
      size_t offset;  // first slot
      size_t size;    // a power of two
      int shift;      // 64 - log2(size)
    };

    ResolveKey key_;
    int bits_;
    std::vector<Region> regions_;
    std::unique_ptr<Slot[]> slots_;
  };

  // Takes `value(i)` for every i < n (see TakeAll). Returns the plan
  // of the n items and, at each item's position, whether it was taken.
  template <typename Get>
  std::pair<KeyedIndex::Plan, std::vector<uint8_t>> TakeEach(
      size_t n, const Get& value, int threads);

  std::vector<U256> values_;
  KeyedIndex index_;  // payload: remaining copies
};

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_SESSION_CORE_H_
