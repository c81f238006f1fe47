// Width-generic vector implementation of the kernel lane tile
// evaluators (game/kernel_lanes.h). This header is the single source
// of truth for every vector lane: each lane translation unit defines
// its ISA macro plus a namespace name and includes this file once —
//
//   #define HSIS_SIMD_IMPL_SSE2 1      (or HSIS_SIMD_IMPL_AVX2)
//   #define HSIS_SIMD_LANE_NS lane_sse2
//   #include "game/kernel_simd_impl.h"
//
// so SSE2 and AVX2 compile the *same* expressions and can only differ
// in vector width, never in arithmetic.
//
// Bit-identity contract (what makes lane choice a pure throughput
// decision):
//  * Only elementwise IEEE-754 operations are used — add, sub, mul,
//    div, ordered compares, sign-bit masking for abs — each of which
//    is required by IEEE 754 to produce exactly the scalar result per
//    element. No rsqrt/rcp approximations, no horizontal reductions.
//  * The lane TUs compile with -ffp-contract=off (and -mno-fma on
//    AVX2), so the compiler cannot contract the mul/add pairs below
//    into FMAs the scalar path does not perform.
//  * std::max / std::clamp are reproduced with explicit compare +
//    select in the scalar functions' exact operand order instead of
//    max_pd/min_pd, whose ±0.0 behavior differs from the C++ ternary.
//  * CriticalPenalty's early return of +inf at f == 0 is reproduced
//    with a select on f == 0.0 *before* trusting the vector division:
//    f may be -0.0 (passes [0,1] validation), and num / -0.0 is -inf
//    while the scalar path returns +inf without ever dividing.
//  * Per-row enums/bitmasks are assembled scalar-per-element from
//    movemask bits; doubles are written with vector stores. Tile
//    remainders (hi - lo not a multiple of kWidth) run the same
//    per-row scalar functions as the scalar lane.

#if !defined(HSIS_SIMD_LANE_NS) || \
    !(defined(HSIS_SIMD_IMPL_SSE2) || defined(HSIS_SIMD_IMPL_AVX2))
#error "kernel_simd_impl.h must be included from a lane TU (see header)"
#endif

#if defined(HSIS_SIMD_IMPL_AVX2)
#include <immintrin.h>
#else
#include <emmintrin.h>
#endif

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "game/equilibrium.h"
#include "game/kernel_lanes.h"
#include "game/thresholds.h"

namespace hsis::game::kernel::detail {
namespace HSIS_SIMD_LANE_NS {
namespace {

#if defined(HSIS_SIMD_IMPL_AVX2)

/// 4-wide double vector (AVX2). Compares use the ordered, non-signaling
/// _CMP_*_OQ predicates — identical truth table to the scalar C++
/// operators for the non-NaN operands these kernels see.
struct Vec {
  static constexpr size_t kWidth = 4;
  __m256d v;
};
inline Vec VBroadcast(double x) { return {_mm256_set1_pd(x)}; }
inline Vec VLoad(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void VStore(double* p, Vec a) { _mm256_storeu_pd(p, a.v); }
inline Vec VAdd(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
inline Vec VSub(Vec a, Vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline Vec VMul(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline Vec VDiv(Vec a, Vec b) { return {_mm256_div_pd(a.v, b.v)}; }
inline Vec VGt(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)}; }
inline Vec VGe(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)}; }
inline Vec VLt(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)}; }
inline Vec VLe(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)}; }
inline Vec VEq(Vec a, Vec b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)}; }
inline Vec VOr(Vec a, Vec b) { return {_mm256_or_pd(a.v, b.v)}; }
/// Per-element `mask ? a : b`; compare results are all-ones/all-zeros,
/// so blendv's sign-bit semantics select exactly per element.
inline Vec VSelect(Vec mask, Vec a, Vec b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}
/// |a| as the scalar std::abs: clear the sign bit.
inline Vec VAbs(Vec a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
/// One bit per element (bit w = element w's compare result).
inline uint32_t VBits(Vec mask) {
  return static_cast<uint32_t>(_mm256_movemask_pd(mask.v));
}

#else  // HSIS_SIMD_IMPL_SSE2

/// 2-wide double vector (x86-64 baseline SSE2).
struct Vec {
  static constexpr size_t kWidth = 2;
  __m128d v;
};
inline Vec VBroadcast(double x) { return {_mm_set1_pd(x)}; }
inline Vec VLoad(const double* p) { return {_mm_loadu_pd(p)}; }
inline void VStore(double* p, Vec a) { _mm_storeu_pd(p, a.v); }
inline Vec VAdd(Vec a, Vec b) { return {_mm_add_pd(a.v, b.v)}; }
inline Vec VSub(Vec a, Vec b) { return {_mm_sub_pd(a.v, b.v)}; }
inline Vec VMul(Vec a, Vec b) { return {_mm_mul_pd(a.v, b.v)}; }
inline Vec VDiv(Vec a, Vec b) { return {_mm_div_pd(a.v, b.v)}; }
inline Vec VGt(Vec a, Vec b) { return {_mm_cmpgt_pd(a.v, b.v)}; }
inline Vec VGe(Vec a, Vec b) { return {_mm_cmpge_pd(a.v, b.v)}; }
inline Vec VLt(Vec a, Vec b) { return {_mm_cmplt_pd(a.v, b.v)}; }
inline Vec VLe(Vec a, Vec b) { return {_mm_cmple_pd(a.v, b.v)}; }
inline Vec VEq(Vec a, Vec b) { return {_mm_cmpeq_pd(a.v, b.v)}; }
inline Vec VOr(Vec a, Vec b) { return {_mm_or_pd(a.v, b.v)}; }
inline Vec VSelect(Vec mask, Vec a, Vec b) {
  return {_mm_or_pd(_mm_and_pd(mask.v, a.v), _mm_andnot_pd(mask.v, b.v))};
}
inline Vec VAbs(Vec a) { return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)}; }
inline uint32_t VBits(Vec mask) {
  return static_cast<uint32_t>(_mm_movemask_pd(mask.v));
}

#endif

/// std::max(a, b) per element in the library's exact form
/// `(a < b) ? b : a` — NOT max_pd, whose result for (+0.0, -0.0)
/// differs from the ternary.
inline Vec VMaxStd(Vec a, Vec b) { return VSelect(VLt(a, b), b, a); }

/// BoundaryTolerance of thresholds.cc, vectorized verbatim:
/// kBoundaryEpsilon * max(1.0, max(|a|, |b|)).
inline Vec BoundaryToleranceVec(Vec a, Vec b) {
  return VMul(VBroadcast(kBoundaryEpsilon),
              VMaxStd(VBroadcast(1.0), VMaxStd(VAbs(a), VAbs(b))));
}

/// The element index vector {base, base+1, ...} as doubles — the
/// GridPoint numerator. Built through the same size_t → double
/// conversion the scalar path performs. The sweep tiles advance this
/// vector incrementally (idx += kWidth per block), which is
/// bit-identical to re-converting because every sweep index fits in an
/// int (< 2^31), far below the 2^53 bound where double addition of
/// small integers is exact.
inline Vec VIndices(size_t base) {
  double idx[Vec::kWidth];
  for (size_t w = 0; w < Vec::kWidth; ++w) {
    idx[w] = static_cast<double>(base + w);
  }
  return VLoad(idx);
}

/// Spreads the low kWidth bits of `bits` into one byte per element
/// (bit w -> byte w, value 0 or 1), so a whole block of uint8 flags
/// becomes shifts + ors + one small store instead of per-element
/// read-modify-write.
inline constexpr uint32_t kSpreadBitsToBytes[16] = {
    0x00000000u, 0x00000001u, 0x00000100u, 0x00000101u,
    0x00010000u, 0x00010001u, 0x00010100u, 0x00010101u,
    0x01000000u, 0x01000001u, 0x01000100u, 0x01000101u,
    0x01010000u, 0x01010001u, 0x01010100u, 0x01010101u};
inline uint32_t SpreadBits(uint32_t bits) {
  return kSpreadBitsToBytes[bits & 0xFu];
}

/// Stores the low kWidth bytes of `packed` at `dst` (little-endian
/// byte w = element w).
inline void StorePackedBytes(uint8_t* dst, uint32_t packed) {
  if constexpr (Vec::kWidth == 4) {
    std::memcpy(dst, &packed, 4);
  } else {
    const uint16_t low = static_cast<uint16_t>(packed);
    std::memcpy(dst, &low, 2);
  }
}

/// ClassifySymmetricDevice, vectorized: bit w of `transformative`
/// (resp. `effective`) is the corresponding scalar branch for element
/// w. Expression-for-expression: ep = f P, ncg = (1-f) F - B,
/// tol = BoundaryTolerance(ep, ncg).
struct RegionBits {
  uint32_t transformative = 0;
  uint32_t effective = 0;
};
inline RegionBits SymmetricRegionBits(Vec benefit, Vec cheat_gain, Vec f,
                                      Vec p) {
  const Vec ep = VMul(f, p);
  const Vec ncg = VSub(VMul(VSub(VBroadcast(1.0), f), cheat_gain), benefit);
  const Vec tol = BoundaryToleranceVec(ep, ncg);
  RegionBits bits;
  bits.transformative = VBits(VGt(ep, VAdd(ncg, tol)));
  bits.effective = VBits(VLe(VAbs(VSub(ep, ncg)), tol));
  return bits;
}

/// The eight payoff columns of an audited 2x2 game, one vector per
/// (row, col, player) — MakeAudited2x2 in SoA form.
struct Payoffs2x2 {
  Vec u00_0, u00_1;  ///< (H,H)
  Vec u01_0, u01_1;  ///< (H,C)
  Vec u10_0, u10_1;  ///< (C,H)
  Vec u11_0, u11_1;  ///< (C,C)
};

/// MakeAudited2x2 payoff arithmetic from per-element cheat payoffs and
/// spillovers (each already computed in the scalar expression order).
inline Payoffs2x2 MakePayoffs2x2(Vec b1, Vec b2, Vec cheat1, Vec cheat2,
                                 Vec spill_on_1, Vec spill_on_2) {
  Payoffs2x2 u;
  u.u00_0 = b1;
  u.u00_1 = b2;
  u.u01_0 = VSub(b1, spill_on_1);
  u.u01_1 = cheat2;
  u.u10_0 = cheat1;
  u.u10_1 = VSub(b2, spill_on_2);
  u.u11_0 = VSub(cheat1, spill_on_1);
  u.u11_1 = VSub(cheat2, spill_on_2);
  return u;
}

/// PureNashMask's deviation test per element: excl[r*2+c] bit w set
/// iff profile (r, c) of element w is rejected (some unilateral flip
/// pays more than current + kPayoffEpsilon).
struct NashBits {
  uint32_t excl[4] = {0, 0, 0, 0};
};
inline NashBits NashExclusionBits(const Payoffs2x2& u) {
  const Vec eps = VBroadcast(kPayoffEpsilon);
  const auto excl = [&](Vec cur0, Vec alt0, Vec cur1, Vec alt1) {
    return VBits(
        VOr(VGt(alt0, VAdd(cur0, eps)), VGt(alt1, VAdd(cur1, eps))));
  };
  NashBits bits;
  bits.excl[0] = excl(u.u00_0, u.u10_0, u.u00_1, u.u01_1);  // (H,H)
  bits.excl[1] = excl(u.u01_0, u.u11_0, u.u01_1, u.u00_1);  // (H,C)
  bits.excl[2] = excl(u.u10_0, u.u00_0, u.u10_1, u.u11_1);  // (C,H)
  bits.excl[3] = excl(u.u11_0, u.u01_0, u.u11_1, u.u10_1);  // (C,C)
  return bits;
}

/// HonestIsDse2x2 per element: bit w set iff honesty FAILS weak
/// dominance for element w (some column/row has
/// honest < cheat - kPayoffEpsilon).
inline uint32_t DseFailBits(const Payoffs2x2& u) {
  const Vec eps = VBroadcast(kPayoffEpsilon);
  const auto fail = [&](Vec honest, Vec cheat) {
    return VGt(VSub(cheat, eps), honest);
  };
  // Scalar test is honest < cheat - eps; a < b and b > a are the same
  // ordered predicate, so the operand swap is bit-exact.
  return VBits(VOr(VOr(fail(u.u00_0, u.u10_0), fail(u.u01_0, u.u11_0)),
                   VOr(fail(u.u00_1, u.u01_1), fail(u.u10_1, u.u11_1))));
}

/// Precomputed classification tables: region keys are
/// `transformative << 1 | effective` (mutually exclusive branches of
/// ClassifySymmetricDevice, so key 3 never occurs) and the matches
/// flag is tabulated from the real SymmetricMaskMatches over all
/// region x mask combinations — a per-element table lookup instead of
/// a cross-TU call per row. Built once on first use (thread-safe magic
/// static; batch dispatch reaches the lane only through ParallelFor,
/// whose first tile always runs before any sibling thread exists for
/// n < threads, and the guard is safe regardless).
struct SymmetricTables {
  SymmetricRegion region[4];
  uint8_t matches[4 * 16];
};
inline const SymmetricTables& GetSymmetricTables() {
  static const SymmetricTables tables = [] {
    SymmetricTables t;
    t.region[0] = SymmetricRegion::kAllCheatUniqueDse;
    t.region[1] = SymmetricRegion::kBoundary;
    t.region[2] = SymmetricRegion::kAllHonestUniqueDse;
    t.region[3] = SymmetricRegion::kAllHonestUniqueDse;  // unreachable
    for (int key = 0; key < 4; ++key) {
      for (int mask = 0; mask < 16; ++mask) {
        t.matches[key * 16 + mask] =
            SymmetricMaskMatches(t.region[key],
                                 static_cast<ProfileMask2x2>(mask))
                ? 1
                : 0;
      }
    }
    return t;
  }();
  return tables;
}

/// ClassifyAsymmetricRegion as an 8-entry table over
/// `boundary << 2 | p1_cheats << 1 | p2_cheats` (boundary wins
/// regardless of the cheat bits), with AsymmetricMaskMatches tabulated
/// per key x mask like the symmetric tables.
struct AsymmetricTables {
  AsymmetricRegion region[8];
  uint8_t matches[8 * 16];
};
inline const AsymmetricTables& GetAsymmetricTables() {
  static const AsymmetricTables tables = [] {
    AsymmetricTables t;
    for (int key = 0; key < 8; ++key) {
      const bool boundary = (key & 4) != 0;
      const bool c1 = (key & 2) != 0;
      const bool c2 = (key & 1) != 0;
      t.region[key] = boundary ? AsymmetricRegion::kBoundary
                      : c1 && c2 ? AsymmetricRegion::kBothCheat
                      : c1       ? AsymmetricRegion::kOnlyP1Cheats
                      : c2       ? AsymmetricRegion::kOnlyP2Cheats
                                 : AsymmetricRegion::kBothHonest;
      for (int mask = 0; mask < 16; ++mask) {
        t.matches[key * 16 + mask] =
            AsymmetricMaskMatches(t.region[key],
                                  static_cast<ProfileMask2x2>(mask))
                ? 1
                : 0;
      }
    }
    return t;
  }();
  return tables;
}

/// Scatter one vector block of symmetric-row classification results:
/// region enum from the region bits, nash mask from the exclusion
/// bits, DSE flag, and the region/mask agreement flag.
inline void WriteSymmetricBlock(const RegionBits& region_bits,
                                const NashBits& nash_bits, uint32_t dse_fail,
                                SymmetricRegion* region,
                                ProfileMask2x2* nash_mask, uint8_t* dse,
                                uint8_t* matches, size_t k) {
  const SymmetricTables& tables = GetSymmetricTables();
  // Byte w of packed_mask is element w's profile mask; assembled from
  // the four per-profile inclusion bit-planes in three shifted spreads.
  const uint32_t packed_mask = SpreadBits(~nash_bits.excl[0]) |
                               (SpreadBits(~nash_bits.excl[1]) << 1) |
                               (SpreadBits(~nash_bits.excl[2]) << 2) |
                               (SpreadBits(~nash_bits.excl[3]) << 3);
  StorePackedBytes(&nash_mask[k], packed_mask);
  StorePackedBytes(&dse[k], SpreadBits(~dse_fail));
  uint32_t packed_matches = 0;
  for (size_t w = 0; w < Vec::kWidth; ++w) {
    const unsigned mask = (packed_mask >> (8 * w)) & 0xFu;
    const unsigned key = (((region_bits.transformative >> w) & 1u) << 1) |
                         ((region_bits.effective >> w) & 1u);
    region[k + w] = tables.region[key];
    packed_matches |= static_cast<uint32_t>(tables.matches[key * 16 + mask])
                      << (8 * w);
  }
  StorePackedBytes(&matches[k], packed_matches);
}

}  // namespace

void EvalFrequencyRowsTile(const FrequencyBatchArgs& args, size_t lo,
                           size_t hi, FrequencyRowsSoA& out) {
  constexpr size_t W = Vec::kWidth;
  size_t k = lo;
  if (args.steps > 1) {
    const Vec one = VBroadcast(1.0);
    const Vec b = VBroadcast(args.benefit);
    const Vec cg = VBroadcast(args.cheat_gain);
    const Vec loss = VBroadcast(args.loss);
    const Vec p = VBroadcast(args.penalty);
    const Vec denom = VBroadcast(static_cast<double>(args.steps - 1));
    const Vec wstep = VBroadcast(static_cast<double>(W));
    Vec idx = VIndices(args.begin + k);
    for (; k + W <= hi; k += W, idx = VAdd(idx, wstep)) {
      const Vec f = VDiv(idx, denom);  // GridPoint
      VStore(&out.frequency[k], f);
      const RegionBits region = SymmetricRegionBits(b, cg, f, p);
      // MakeAudited2x2 on the symmetric parameterization.
      const Vec one_minus_f = VSub(one, f);
      const Vec cheat = VSub(VMul(one_minus_f, cg), VMul(f, p));
      const Vec spill = VMul(one_minus_f, loss);
      const Payoffs2x2 u = MakePayoffs2x2(b, b, cheat, cheat, spill, spill);
      WriteSymmetricBlock(region, NashExclusionBits(u), DseFailBits(u),
                          out.region.data(), out.nash_mask.data(),
                          out.honest_is_dse.data(), out.matches.data(), k);
    }
  }
  for (; k < hi; ++k) {
    StoreFrequencyRow(FrequencyRowAt(args.benefit, args.cheat_gain, args.loss,
                                     args.penalty, args.steps, args.begin + k),
                      out, k);
  }
}

void EvalPenaltyRowsTile(const PenaltyBatchArgs& args, size_t lo, size_t hi,
                         PenaltyRowsSoA& out) {
  constexpr size_t W = Vec::kWidth;
  size_t k = lo;
  if (args.steps > 1) {
    const Vec one = VBroadcast(1.0);
    const Vec b = VBroadcast(args.benefit);
    const Vec cg = VBroadcast(args.cheat_gain);
    const Vec loss = VBroadcast(args.loss);
    const Vec f = VBroadcast(args.frequency);
    const Vec maxp = VBroadcast(args.max_penalty);
    const Vec denom = VBroadcast(static_cast<double>(args.steps - 1));
    // Loop invariants of the scalar row: (1-f), cheat's first term and
    // the spillover are row-independent but still computed with vector
    // ops on the same values, so every element stays bit-identical.
    const Vec one_minus_f = VSub(one, f);
    const Vec cheat_gain_term = VMul(one_minus_f, cg);
    const Vec spill = VMul(one_minus_f, loss);
    const Vec wstep = VBroadcast(static_cast<double>(W));
    Vec idx = VIndices(args.begin + k);
    for (; k + W <= hi; k += W, idx = VAdd(idx, wstep)) {
      // row.penalty = max_penalty * index / (steps - 1), left-to-right.
      const Vec p = VDiv(VMul(maxp, idx), denom);
      VStore(&out.penalty[k], p);
      const RegionBits region = SymmetricRegionBits(b, cg, f, p);
      const Vec cheat = VSub(cheat_gain_term, VMul(f, p));
      const Payoffs2x2 u = MakePayoffs2x2(b, b, cheat, cheat, spill, spill);
      WriteSymmetricBlock(region, NashExclusionBits(u), DseFailBits(u),
                          out.region.data(), out.nash_mask.data(),
                          out.honest_is_dse.data(), out.matches.data(), k);
    }
  }
  for (; k < hi; ++k) {
    StorePenaltyRow(
        PenaltyRowAt(args.benefit, args.cheat_gain, args.loss, args.frequency,
                     args.max_penalty, args.steps, args.begin + k),
        out, k);
  }
}

void EvalAsymmetricCellsTile(const AsymmetricBatchArgs& args, size_t lo,
                             size_t hi, AsymmetricCellsSoA& out) {
  constexpr size_t W = Vec::kWidth;
  const TwoPlayerGameParams& prm = args.params;
  size_t k = lo;
  if (args.steps > 1) {
    const size_t steps = static_cast<size_t>(args.steps);
    // The critical frequencies are cell-independent; computing them
    // once per tile runs the exact CriticalFrequency expressions the
    // scalar path evaluates per cell.
    const double crit1_s = CriticalFrequency(
        prm.player1.benefit, prm.player1.cheat_gain, prm.audit1.penalty);
    const double crit2_s = CriticalFrequency(
        prm.player2.benefit, prm.player2.cheat_gain, prm.audit2.penalty);
    const Vec crit1 = VBroadcast(crit1_s);
    const Vec crit2 = VBroadcast(crit2_s);
    const Vec eps = VBroadcast(kBoundaryEpsilon);
    const Vec one = VBroadcast(1.0);
    const Vec b1 = VBroadcast(prm.player1.benefit);
    const Vec b2 = VBroadcast(prm.player2.benefit);
    const Vec cg1 = VBroadcast(prm.player1.cheat_gain);
    const Vec cg2 = VBroadcast(prm.player2.cheat_gain);
    const Vec p1 = VBroadcast(prm.audit1.penalty);
    const Vec p2 = VBroadcast(prm.audit2.penalty);
    const Vec l_to_1 = VBroadcast(prm.loss_to_1);
    const Vec l_to_2 = VBroadcast(prm.loss_to_2);
    const Vec denom = VBroadcast(static_cast<double>(args.steps - 1));
    for (; k + W <= hi; k += W) {
      // Row-major grid decode: i = index / steps, j = index % steps.
      double fi[W], fj[W];
      for (size_t w = 0; w < W; ++w) {
        const size_t index = args.begin + k + w;
        fi[w] = static_cast<double>(index / steps);
        fj[w] = static_cast<double>(index % steps);
      }
      const Vec f1 = VDiv(VLoad(fi), denom);  // GridPoint(steps, i)
      const Vec f2 = VDiv(VLoad(fj), denom);  // GridPoint(steps, j)
      VStore(&out.f1[k], f1);
      VStore(&out.f2[k], f2);

      // ClassifyAsymmetricRegion per element.
      const uint32_t boundary =
          VBits(VOr(VLe(VAbs(VSub(f1, crit1)), eps),
                    VLe(VAbs(VSub(f2, crit2)), eps)));
      const uint32_t p1_cheats = VBits(VLt(f1, crit1));
      const uint32_t p2_cheats = VBits(VLt(f2, crit2));

      // MakeAudited2x2 with per-player frequencies.
      const Vec cheat1 = VSub(VMul(VSub(one, f1), cg1), VMul(f1, p1));
      const Vec cheat2 = VSub(VMul(VSub(one, f2), cg2), VMul(f2, p2));
      const Vec spill_on_1 = VMul(VSub(one, f2), l_to_1);
      const Vec spill_on_2 = VMul(VSub(one, f1), l_to_2);
      const Payoffs2x2 u =
          MakePayoffs2x2(b1, b2, cheat1, cheat2, spill_on_1, spill_on_2);
      const NashBits nash_bits = NashExclusionBits(u);
      const AsymmetricTables& tables = GetAsymmetricTables();
      const uint32_t packed_mask = SpreadBits(~nash_bits.excl[0]) |
                                   (SpreadBits(~nash_bits.excl[1]) << 1) |
                                   (SpreadBits(~nash_bits.excl[2]) << 2) |
                                   (SpreadBits(~nash_bits.excl[3]) << 3);
      StorePackedBytes(&out.nash_mask[k], packed_mask);
      uint32_t packed_matches = 0;
      for (size_t w = 0; w < W; ++w) {
        const unsigned mask = (packed_mask >> (8 * w)) & 0xFu;
        const unsigned key = (((boundary >> w) & 1u) << 2) |
                             (((p1_cheats >> w) & 1u) << 1) |
                             ((p2_cheats >> w) & 1u);
        out.region[k + w] = tables.region[key];
        packed_matches |=
            static_cast<uint32_t>(tables.matches[key * 16 + mask]) << (8 * w);
      }
      StorePackedBytes(&out.matches[k], packed_matches);
    }
  }
  for (; k < hi; ++k) {
    StoreAsymmetricCell(AsymmetricCellAt(prm, args.steps, args.begin + k), out,
                        k);
  }
}

void EvalNPlayerBandRowsTile(const NPlayerBatchArgs& args, size_t lo,
                             size_t hi, NPlayerBandRowsSoA& out) {
  constexpr size_t W = Vec::kWidth;
  const NPlayerKernelParams& prm = args.params;
  size_t k = lo;
  if (args.steps > 1) {
    const int n = prm.n;
    const double f = prm.frequency;
    const double b = prm.benefit;
    // Penalty-independent per-x tables, in the scalar expression
    // order: gain_term[x] = (1-f) F(x) feeds both the band bound
    // ((1-f) F(x) - B)/f - eps and CheatAdvantage's first term.
    double gain_term[kMaxKernelPlayers];
    double band_bound[kMaxKernelPlayers];
    for (int x = 0; x < n; ++x) {
      gain_term[x] = (1 - f) * prm.gain_table[static_cast<size_t>(x)];
      band_bound[x] = (gain_term[x] - b) / f - kBoundaryEpsilon;
    }
    const Vec fv = VBroadcast(f);
    const Vec bv = VBroadcast(b);
    const Vec maxp = VBroadcast(args.max_penalty);
    const Vec denom = VBroadcast(static_cast<double>(args.steps - 1));
    const Vec eps = VBroadcast(kPayoffEpsilon);
    const Vec neg_eps = VBroadcast(-kPayoffEpsilon);
    const Vec wstep = VBroadcast(static_cast<double>(W));
    Vec idx = VIndices(args.begin + k);
    for (; k + W <= hi; k += W, idx = VAdd(idx, wstep)) {
      const Vec p = VDiv(VMul(maxp, idx), denom);
      VStore(&out.penalty[k], p);
      const Vec fp = VMul(fv, p);

      // NPlayerEquilibriumHonestCount: first x whose band bound the
      // penalty does NOT exceed. Pure compares against the precomputed
      // bounds — no arithmetic left to diverge.
      double pvals[W];
      VStore(pvals, p);
      int analytic[W];
      for (size_t w = 0; w < W; ++w) {
        int x = 0;
        while (x < n && pvals[w] > band_bound[x]) ++x;
        analytic[w] = x;
        out.analytic_honest_count[k + w] = x;
      }

      // Nash band membership per candidate count x, vectorized over
      // rows: advantage(x) = ((1-f) F(x) - f P) - B, exactly
      // CheatAdvantage's (1-f) F(x) - f P - B left-to-right.
      HonestCountMask mask[W] = {};
      int count_size[W] = {};
      bool analytic_in[W] = {};
      uint32_t gt_prev = 0;   // advantage(x-1) >  eps bits
      uint32_t ge_first = 0;  // advantage(0)   >= -eps bits
      uint32_t le_last = 0;   // advantage(n-1) <=  eps bits
      for (int x = 0; x <= n; ++x) {
        uint32_t lt_cur = 0;
        uint32_t gt_cur = 0;
        if (x < n) {
          const Vec adv = VSub(VSub(VBroadcast(gain_term[x]), fp), bv);
          lt_cur = VBits(VLt(adv, neg_eps));
          gt_cur = VBits(VGt(adv, eps));
          if (x == 0) ge_first = VBits(VGe(adv, neg_eps));
          if (x == n - 1) le_last = VBits(VLe(adv, eps));
        }
        const uint32_t excluded = gt_prev | lt_cur;
        for (size_t w = 0; w < W; ++w) {
          if (((excluded >> w) & 1u) != 0) continue;
          mask[w] |= HonestCountMask{1} << x;
          ++count_size[w];
          if (x == analytic[w]) analytic_in[w] = true;
        }
        gt_prev = gt_cur;
      }
      for (size_t w = 0; w < W; ++w) {
        out.count_mask[k + w] = mask[w];
        out.honest_is_dominant[k + w] = ((le_last >> w) & 1u) != 0 ? 1 : 0;
        out.cheat_is_dominant[k + w] = ((ge_first >> w) & 1u) != 0 ? 1 : 0;
        out.matches[k + w] = (analytic_in[w] && count_size[w] <= 2) ? 1 : 0;
      }
    }
  }
  for (; k < hi; ++k) {
    StoreNPlayerBandRow(
        NPlayerBandRowAt(prm, args.max_penalty, args.steps, args.begin + k),
        out, k);
  }
}

void EvalDevicePointsTile(const DeviceBatchArgs& args, size_t lo, size_t hi,
                          DeviceAnswersSoA& out) {
  constexpr size_t W = Vec::kWidth;
  const DevicePointsSoA& in = *args.in;
  const Vec one = VBroadcast(1.0);
  const Vec zero = VBroadcast(0.0);
  const Vec margin = VBroadcast(args.margin);
  const Vec inf = VBroadcast(std::numeric_limits<double>::infinity());
  size_t k = lo;
  for (; k + W <= hi; k += W) {
    const size_t src = args.begin + k;
    const Vec b = VLoad(&in.benefit[src]);
    const Vec cg = VLoad(&in.cheat_gain[src]);
    const Vec f = VLoad(&in.frequency[src]);
    const Vec p = VLoad(&in.penalty[src]);

    // ClassifySymmetricDevice.
    const RegionBits region = SymmetricRegionBits(b, cg, f, p);

    // MinFrequency = clamp(CriticalFrequency + margin, 0, 1); the
    // clamp is std::clamp's exact `v < lo ? lo : (hi < v ? hi : v)`.
    const Vec crit_f = VDiv(VSub(cg, b), VAdd(p, cg));
    const Vec mf_raw = VAdd(crit_f, margin);
    const Vec mf = VSelect(VLt(mf_raw, zero), zero,
                           VSelect(VLt(one, mf_raw), one, mf_raw));
    VStore(&out.min_frequency[k], mf);

    // CriticalPenalty: +inf at f == 0 selected *before* the division
    // result is trusted — f may be -0.0, where num / f is -inf but the
    // scalar path returns +inf without dividing.
    const Vec cp_num = VSub(VMul(VSub(one, f), cg), b);
    const Vec cp = VSelect(VEq(f, zero), inf, VDiv(cp_num, f));
    const Vec mp = VSelect(VLt(cp, zero), zero, VAdd(cp, margin));
    VStore(&out.min_penalty[k], mp);

    // ZeroPenaltyFrequency = (F - B) / F.
    VStore(&out.zero_penalty_frequency[k], VDiv(VSub(cg, b), cg));

    for (size_t w = 0; w < W; ++w) {
      out.effectiveness[k + w] =
          ((region.transformative >> w) & 1u) != 0
              ? DeviceEffectiveness::kTransformative
              : (((region.effective >> w) & 1u) != 0
                     ? DeviceEffectiveness::kEffective
                     : DeviceEffectiveness::kIneffective);
    }
  }
  for (; k < hi; ++k) {
    const size_t src = args.begin + k;
    StoreDeviceAnswer(DeviceAnswerAt(in.benefit[src], in.cheat_gain[src],
                                     in.frequency[src], in.penalty[src],
                                     args.margin),
                      out, k);
  }
}

}  // namespace HSIS_SIMD_LANE_NS
}  // namespace hsis::game::kernel::detail
