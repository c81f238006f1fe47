#ifndef HSIS_COMMON_SIMD_DISPATCH_H_
#define HSIS_COMMON_SIMD_DISPATCH_H_

#include "common/result.h"

/// \file
/// \brief The figure kernels' one lane, named for perf provenance.
///
/// The batch evaluators of game/kernel.h have a single scalar
/// implementation (DESIGN.md §6.7). This header exists only for
/// perfbench's provenance line (perfbench/src/main.cc), which stamps
/// `SimdLaneName(ActiveSimdLane())` into every result.

namespace hsis::common {

/// The kernel lanes; scalar is the only one.
enum class SimdLane {
  kScalar  ///< The portable scalar lane.
};

/// "scalar" — the `lane` value perf records carry.
inline const char* SimdLaneName(SimdLane) { return "scalar"; }

/// Always `SimdLane::kScalar`.
inline Result<SimdLane> ActiveSimdLane() { return SimdLane::kScalar; }

}  // namespace hsis::common

#endif  // HSIS_COMMON_SIMD_DISPATCH_H_
