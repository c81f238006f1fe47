// Golden bit-identity for the kernel-path figure CSVs: every serial
// SHA-256 pin predates the kernel layer, so a match proves the
// allocation-free rewrite preserved each IEEE-754 bit pattern and every
// formatted byte — at every thread count, since the catalogue computes
// each row kernel's record into its own ordered slot (the
// common/parallel.h determinism contract).

#include <gtest/gtest.h>

#include <string>

#include "core/sweeps.h"
#include "crypto/sha256.h"

namespace hsis::core {
namespace {

struct GoldenSweep {
  const char* name;
  const char* csv_sha256;
};

/// Frozen pre-kernel serial digests (tests/game/shard_golden_test.cc
/// pins the same five; figure4 was captured from the same pre-kernel
/// build). A change here must be a deliberate, reviewed act.
constexpr GoldenSweep kGoldenSweeps[] = {
    {"figure1",
     "69360b788a2b2c3aee9d8b819cfdb1401715f4df741d8106fadf4c50ff55cbe1"},
    {"figure2_f02",
     "ec2995c0cd9fc0d5525c9353299c1647bc50fcb3c82988f4eabfef0537e55f6b"},
    {"figure2_f07",
     "2e3e33061b80a4303f64638dd6751828342a4967e174a6ff8acd327149fd1d39"},
    {"figure3",
     "19f1b300c56be061b38d843d3e7e9b376e810e984a90f8ee128bb59286eeeac2"},
    {"figure4",
     "b5445df15e50679b369b5d2a85bb1c46554291a704ee90be3d09917fdda82753"},
};

TEST(KernelGoldenTest, KernelCsvsMatchPreKernelPinsAtEveryThreadCount) {
  for (const GoldenSweep& golden : kGoldenSweeps) {
    for (int threads : {1, 2, 3, 7, 8}) {
      Result<std::string> csv = LandscapeCsv(golden.name, threads);
      ASSERT_TRUE(csv.ok())
          << golden.name << " x" << threads << ": " << csv.status().ToString();
      EXPECT_EQ(HexEncode(crypto::Sha256::Hash(*csv)), golden.csv_sha256)
          << golden.name << " with " << threads
          << " threads drifted from the pre-kernel golden CSV";
    }
  }
}

}  // namespace
}  // namespace hsis::core
