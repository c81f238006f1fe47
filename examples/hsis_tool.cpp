// hsis_tool — a small command-line front end to the library.
//
//   hsis_tool design <B> <F> [--frequency f | --penalty P]
//       Mechanism design: thresholds and recommendations for the given
//       economics (Observations 2 & 3).
//
//   hsis_tool sweep <name> <out.csv>
//       Write a named sweep of the catalogue (core/sweeps.h) as CSV:
//       figure1, figure2_f02 (alias figure2), figure2_f07, figure3,
//       figure4, a design search or the campaign ensemble.
//
//   hsis_tool demo
//       Run a miniature audited exchange end to end.
//
// Build & run:  ./build/examples/hsis_tool demo

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/file.h"
#include "common/flags.h"
#include "core/honest_sharing_session.h"
#include "core/mechanism_designer.h"
#include "core/sweeps.h"

using namespace hsis;

namespace {

// Design numbers may be any finite value (a rejected one exits 2
// naming the argument); `MechanismDesigner` owns their ranges.
constexpr double kMax = std::numeric_limits<double>::max();

int Usage() {
  std::printf(
      "usage:\n"
      "  hsis_tool design <B> <F> [--frequency f | --penalty P]\n"
      "  hsis_tool sweep <name> <out.csv>   (figure1, figure2, figure2_f07,\n"
      "      figure3, figure4, or any shard_worker --list name)\n"
      "  hsis_tool demo\n");
  return 2;
}

int RunDesign(int argc, char** argv) {
  if (argc < 4) return Usage();
  double benefit = common::FlagOrExit(
      common::ParseNumberFlag("<B>", argv[2], -kMax, kMax));
  double cheat_gain = common::FlagOrExit(
      common::ParseNumberFlag("<F>", argv[3], -kMax, kMax));
  const char* flag = argc >= 6 ? argv[4] : "";
  const bool by_frequency = std::strcmp(flag, "--frequency") == 0;
  const bool by_penalty = std::strcmp(flag, "--penalty") == 0;
  const double value =
      by_frequency || by_penalty
          ? common::FlagOrExit(common::ParseNumberFlag(flag, argv[5], -kMax,
                                                       kMax))
          : 0.0;
  Result<core::MechanismDesigner> designer =
      core::MechanismDesigner::Create(benefit, cheat_gain);
  if (!designer.ok()) {
    std::printf("error: %s\n", designer.status().ToString().c_str());
    return 1;
  }
  std::printf("economics: B = %g, F = %g (net temptation %g)\n", benefit,
              cheat_gain, cheat_gain - benefit);
  std::printf("zero-penalty frequency (F-B)/F = %.4f\n",
              designer->ZeroPenaltyFrequency());

  if (by_frequency) {
    double f = value;
    Result<double> p = designer->MinPenalty(f);
    if (!p.ok()) {
      std::printf("error: %s\n", p.status().ToString().c_str());
      return 1;
    }
    std::printf("at f = %.4f: minimum penalty P = %.4f  (device: %s)\n", f,
                *p, game::DeviceEffectivenessName(designer->Classify(f, *p)));
  } else if (by_penalty) {
    double p = value;
    double f = designer->MinFrequency(p);
    std::printf("at P = %.4f: minimum frequency f = %.4f  (device: %s)\n", p,
                f, game::DeviceEffectivenessName(designer->Classify(f, p)));
  } else {
    std::printf("pass --frequency f or --penalty P for a recommendation\n");
  }
  return 0;
}

int RunSweep(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string name = argv[2];
  if (name == "figure2") name = "figure2_f02";  // the historical name
  std::string out_path = argv[3];
  Result<std::string> csv = core::LandscapeCsv(name);
  if (!csv.ok()) {
    std::printf("error: %s\n", csv.status().ToString().c_str());
    return csv.status().code() == StatusCode::kNotFound ? Usage() : 1;
  }
  Status status = WriteFile(out_path, *csv);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int RunDemo() {
  core::SessionConfig config;
  config.audit_frequency = 0.5;
  config.penalty = 40;
  config.seed = 1;
  core::HonestSharingSession session =
      std::move(core::HonestSharingSession::Create(config).value());
  session.AddParty("alice");
  session.AddParty("bob");
  session.IssueTuples("alice", {"x", "y", "z"});
  session.IssueTuples("bob", {"y", "z", "w"});

  core::ExchangeResult honest = session.RunExchange("alice", "bob").value();
  std::printf("honest exchange -> %zu common tuples, detections: %d/%d\n",
              honest.a.intersection_size, honest.a.detected,
              honest.b.detected);

  core::CheatPlan cheat;
  cheat.fabricate = {"w"};
  core::ExchangeResult probed =
      session.RunExchange("alice", "bob", cheat, {}).value();
  std::printf("alice probes for 'w' -> hit: %zu, audited: %d, caught: %d, "
              "fine: %.0f\n",
              probed.a.probe_hits, probed.a.audited, probed.a.detected,
              probed.a.penalty_paid);
  std::printf("alice's total fines so far: %.0f\n",
              session.TotalPenalties("alice"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "design") == 0) return RunDesign(argc, argv);
  if (std::strcmp(argv[1], "sweep") == 0) return RunSweep(argc, argv);
  if (std::strcmp(argv[1], "demo") == 0) return RunDemo();
  return Usage();
}
