// The command-line contract every CLI and bench keeps (common/flags.h):
// an unknown "--" argument, a switch given "=value" and a value flag
// given without "=" exit 2 and write nothing; a rejected value exits 2
// with a message naming the flag; and when several arguments are bad,
// the first in argv order decides the message. The benches hand their
// unknown arguments to google-benchmark, so for them only the value
// cases apply.
//
// Each case runs the built binary (paths from tests/CMakeLists.txt) in
// a fresh empty directory, so "writes nothing" is an empty stdout and
// a directory that stays empty.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Outcome {
  int exit_code = -1;  ///< -1 when the process did not exit normally.
  std::string out;
  std::string err;
  bool wrote_files = false;
};

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Runs `binary args...` with a fresh empty working directory and
/// captures its exit code, stdout and stderr. A binary that does not
/// exit within 60 s is killed (a flag that was meant to be refused
/// started real work).
Outcome Run(const std::string& binary, const std::vector<std::string>& args) {
  const fs::path base = fs::path(::testing::TempDir()) /
                        ("cli_contract_" + std::to_string(::getpid()));
  const fs::path cwd = base / "cwd";
  fs::remove_all(base);
  fs::create_directories(cwd);
  const std::string out_path = (base / "stdout").string();
  const std::string err_path = (base / "stderr").string();

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  Outcome outcome;
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int flags = O_WRONLY | O_CREAT | O_TRUNC;
    const int out = ::open(out_path.c_str(), flags, 0644);
    const int err = ::open(err_path.c_str(), flags, 0644);
    if (out < 0 || err < 0 || ::dup2(out, 1) < 0 || ::dup2(err, 2) < 0 ||
        ::chdir(cwd.c_str()) != 0) {
      ::_exit(127);
    }
    ::alarm(60);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (pid > 0 && ::waitpid(pid, &status, 0) == pid && WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
  }
  outcome.out = Slurp(out_path);
  outcome.err = Slurp(err_path);
  outcome.wrote_files = !fs::is_empty(cwd);
  fs::remove_all(base);
  return outcome;
}

std::string Join(const std::vector<std::string>& args) {
  std::string joined;
  for (const std::string& arg : args) joined += " " + arg;
  return joined;
}

/// The argument list must be refused with exit 2 before any work: no
/// stdout, no file.
Outcome ExpectRefused(const std::string& binary,
                      const std::vector<std::string>& args) {
  Outcome outcome = Run(binary, args);
  EXPECT_EQ(outcome.exit_code, 2) << binary << Join(args) << "\n"
                                  << outcome.err;
  EXPECT_EQ(outcome.out, "") << binary << Join(args);
  EXPECT_FALSE(outcome.wrote_files) << binary << Join(args);
  return outcome;
}

/// Refused, and stderr names `flag` as the rejected value's flag
/// (`common::ParseIntFlag` / `ParseNumberFlag` messages read
/// "<flag> expects ...").
void ExpectRejectedValue(const std::string& binary,
                         const std::vector<std::string>& args,
                         const std::string& flag) {
  Outcome outcome = ExpectRefused(binary, args);
  EXPECT_NE(outcome.err.find(flag + " expects"), std::string::npos)
      << binary << Join(args) << "\n" << outcome.err;
}

/// Refused, with stderr holding `first` (the first bad argument's
/// message) and not `later` (what a later bad argument would print).
void ExpectFirstBadDecides(const std::string& binary,
                           const std::vector<std::string>& args,
                           const std::string& first,
                           const std::string& later) {
  Outcome outcome = ExpectRefused(binary, args);
  EXPECT_NE(outcome.err.find(first), std::string::npos)
      << binary << Join(args) << "\n" << outcome.err;
  EXPECT_EQ(outcome.err.find(later), std::string::npos)
      << binary << Join(args) << "\n" << outcome.err;
}

TEST(CliContractTest, ExportLandscapes) {
  const std::string bin = HSIS_EXPORT_LANDSCAPES;
  for (const char* unknown : {"--help", "--bogus-flag=1", "--schedule=1",
                              "--threads", "--shards", "--workers"}) {
    Outcome outcome = ExpectRefused(bin, {unknown, "out"});
    EXPECT_NE(outcome.err.find(unknown), std::string::npos) << outcome.err;
  }
  ExpectRejectedValue(bin, {"--threads=abc", "out"}, "--threads");
  ExpectRejectedValue(bin, {"--shards=-2", "out"}, "--shards");
  ExpectRejectedValue(bin, {"--shards=2", "--schedule",
                            "--max-retries=2147483647", "out"},
                      "--max-retries");
  ExpectRejectedValue(bin, {"--shard-timeout-ms=-1", "out"},
                      "--shard-timeout-ms");
  ExpectFirstBadDecides(bin, {"--threads=abc", "--shards=-2"}, "--threads",
                        "--shards expects");
  ExpectFirstBadDecides(bin, {"--bogus", "--threads=abc"}, "--bogus",
                        "--threads expects");
  ExpectFirstBadDecides(bin, {"--shards=x", "--bogus"}, "--shards expects",
                        "--bogus");
}

TEST(CliContractTest, QueryService) {
  const std::string bin = HSIS_QUERY_SERVICE;
  for (const char* unknown :
       {"--help", "--bogus=1", "--threads=2", "--shards=4", "--stream",
        "--query", "--requests", "positional"}) {
    ExpectRefused(bin, {unknown, "--query=10,25,0.3,40"});
  }
  ExpectRejectedValue(bin, {"--stream=abc"}, "--stream");
  ExpectRejectedValue(bin, {"--stream=10", "--domain=1.5"}, "--domain");
  ExpectRejectedValue(bin, {"--stream=10", "--skew=nan"}, "--skew");
  ExpectRejectedValue(bin, {"--stream=10", "--seed=-1"}, "--seed");
  ExpectRejectedValue(bin, {"--stream=10", "--quantum=inf"}, "--quantum");
  ExpectRejectedValue(bin, {"--stream=10", "--capacity=-1"}, "--capacity");
  ExpectRejectedValue(bin, {"--stream=10", "--margin=x"}, "--margin");
  ExpectFirstBadDecides(bin, {"--stream=abc", "--skew=nan"}, "--stream",
                        "--skew expects");
  ExpectFirstBadDecides(bin, {"--bogus", "--stream=abc"}, "usage",
                        "--stream expects");
}

TEST(CliContractTest, ShardWorker) {
  const std::string bin = HSIS_SHARD_WORKER;
  for (const char* unknown :
       {"--help", "--bogus=1", "--plan=1", "--merge=1", "--list=1",
        "--json=1", "--schedule=1", "--out", "--shard", "positional"}) {
    ExpectRefused(bin, {"--shard=0", "--out=o", unknown});
  }
  ExpectRejectedValue(bin, {"--shard=4294967296", "--out=o"}, "--shard");
  ExpectRejectedValue(bin, {"--plan", "--sweep=figure1", "--shards=-2",
                            "--out=o"},
                      "--shards");
  ExpectRejectedValue(bin, {"--shard=0", "--out=o", "--threads=abc"},
                      "--threads");
  ExpectRejectedValue(bin, {"--schedule", "--out=o", "--max-retries=-1"},
                      "--max-retries");
  ExpectRejectedValue(bin, {"--schedule", "--out=o",
                            "--shard-timeout-ms=x"},
                      "--shard-timeout-ms");
  ExpectFirstBadDecides(bin, {"--threads=abc", "--shards=-2"}, "--threads",
                        "--shards expects");
  ExpectFirstBadDecides(bin, {"--bogus", "--shard=x"}, "usage",
                        "--shard expects");
  ExpectFirstBadDecides(bin, {"--shard=x", "--bogus"}, "--shard expects",
                        "--bogus");
}

// `--workers` reads the `--threads` values; a rejected one is named by
// the flag the operator typed.
TEST(CliContractTest, WorkersRejectionNamesWorkers) {
  ExpectFirstBadDecides(HSIS_EXPORT_LANDSCAPES,
                        {"--shards=2", "--schedule", "--workers=x", "out"},
                        "--workers expects", "--threads");
  ExpectFirstBadDecides(HSIS_SHARD_WORKER,
                        {"--schedule", "--out=o", "--workers=x"},
                        "--workers expects", "--threads");
}

TEST(CliContractTest, SweepService) {
  const std::string bin = HSIS_SWEEP_SERVICE;
  for (const char* unknown :
       {"--help", "--bogus=1", "--out", "--port", "positional"}) {
    ExpectRefused(bin, {"--out=o", "--sweep=figure1", unknown});
  }
  ExpectRejectedValue(bin, {"--out=o", "--port=65536"}, "--port");
  ExpectRejectedValue(bin, {"--out=o", "--shards=x"}, "--shards");
  ExpectRejectedValue(bin, {"--out=o", "--lease-ms=0"}, "--lease-ms");
  ExpectRejectedValue(bin, {"--out=o", "--retry-ms=0"}, "--retry-ms");
  ExpectRejectedValue(bin, {"--out=o", "--linger-ms=-1"}, "--linger-ms");
  ExpectRejectedValue(bin, {"--out=o", "--max-retries=-1"}, "--max-retries");
  ExpectFirstBadDecides(bin, {"--port=65536", "--lease-ms=0"}, "--port",
                        "--lease-ms expects");
  ExpectFirstBadDecides(bin, {"--bogus", "--port=65536"}, "usage",
                        "--port expects");
}

TEST(CliContractTest, SweepClient) {
  const std::string bin = HSIS_SWEEP_CLIENT;
  for (const char* unknown :
       {"--help", "--bogus=1", "--status=1", "--shutdown=1", "--connect",
        "--out", "positional"}) {
    ExpectRefused(bin, {"--connect=127.0.0.1:9", "--out=o", unknown});
  }
  ExpectRefused(bin, {"--connect=no-port", "--out=o"});
  ExpectRejectedValue(bin, {"--connect=127.0.0.1:0", "--out=o"},
                      "--connect port");
  ExpectRejectedValue(bin, {"--connect=127.0.0.1:x", "--out=o"},
                      "--connect port");
  ExpectRejectedValue(bin, {"--connect=127.0.0.1:9", "--threads=abc"},
                      "--threads");
  ExpectRejectedValue(bin, {"--connect=127.0.0.1:9", "--max-idle-ms=-1"},
                      "--max-idle-ms");
  ExpectRejectedValue(bin, {"--connect=127.0.0.1:9", "--out=o",
                            "--worker=" + std::string(5000, 'w')},
                      "--worker");
  ExpectFirstBadDecides(bin, {"--threads=abc", "--max-idle-ms=-1"},
                        "--threads", "--max-idle-ms expects");
  ExpectFirstBadDecides(bin, {"--bogus", "--threads=abc"}, "usage",
                        "--threads expects");
}

TEST(CliContractTest, CheckBenchJson) {
  const std::string bin = HSIS_CHECK_BENCH_JSON;
  // An unknown "--" argument is refused, never opened as the file.
  for (const char* unknown :
       {"--help", "--bogus-flag=1", "--lines", "--min-lines"}) {
    ExpectRefused(bin, {unknown});
    ExpectRefused(bin, {"missing.json", unknown});
  }
  ExpectRefused(bin, {"a.json", "b.json"});
  ExpectRejectedValue(bin, {"missing.json", "--lines=0"}, "--lines");
  ExpectRejectedValue(bin, {"missing.json", "--min-lines=x"}, "--min-lines");
  ExpectRejectedValue(bin, {"missing.json", "--min-cells-per-sec=nan"},
                      "--min-cells-per-sec");
  ExpectFirstBadDecides(bin, {"--lines=0", "--min-lines=0"}, "--lines",
                        "--min-lines expects");
}

TEST(CliContractTest, CheckMdLinks) {
  const std::string bin = HSIS_CHECK_MD_LINKS;
  for (const char* unknown : {"--help", "--bogus-flag=1"}) {
    ExpectRefused(bin, {unknown});
    ExpectRefused(bin, {".", unknown});
  }
}

// HSIS_BENCH_MAIN: every reproduction bench reads the same table.
TEST(CliContractTest, BenchMain) {
  const std::string bin = HSIS_BENCH_FIGURE1;
  ExpectRejectedValue(bin, {"--threads=abc"}, "--threads");
  ExpectRejectedValue(bin, {"--shards=-1"}, "--shards");
  ExpectRejectedValue(bin, {"--max-retries=-1"}, "--max-retries");
  ExpectRejectedValue(bin, {"--shard-timeout-ms=x"}, "--shard-timeout-ms");
  ExpectRejectedValue(bin, {"--min-speedup=nan"}, "--min-speedup");
  ExpectRefused(bin, {"--workers=-1"});
  ExpectRejectedValue(bin, {"--json=out.json", "--benchmark_filter=NONE",
                            "--threads=abc"},
                      "--threads");
  ExpectFirstBadDecides(bin, {"--threads=abc", "--shards=-1"}, "--threads",
                        "--shards expects");
}

TEST(CliContractTest, BenchIntersectionProtocol) {
  const std::string bin = HSIS_BENCH_INTERSECTION_PROTOCOL;
  ExpectRejectedValue(bin, {"--tuples=0"}, "--tuples");
  ExpectRejectedValue(bin, {"--tuples=10", "--chunk-size=0"}, "--chunk-size");
  ExpectRejectedValue(bin, {"--tuples=10", "--threads=abc"}, "--threads");
  ExpectFirstBadDecides(bin, {"--tuples=0", "--chunk-size=0"}, "--tuples",
                        "--chunk-size expects");
}

TEST(CliContractTest, BenchQueryService) {
  const std::string bin = HSIS_BENCH_QUERY_SERVICE;
  ExpectRejectedValue(bin, {"--count=-1"}, "--count");
  ExpectRejectedValue(bin, {"--domain=x"}, "--domain");
  ExpectRejectedValue(bin, {"--skew=nan"}, "--skew");
  ExpectRejectedValue(bin, {"--seed=-1"}, "--seed");
  ExpectRejectedValue(bin, {"--min-speedup=-1"}, "--min-speedup");
  ExpectRejectedValue(bin, {"--json=out.json", "--count=x"}, "--count");
  ExpectFirstBadDecides(bin, {"--count=-1", "--domain=x"}, "--count",
                        "--domain expects");
}

// Not a google-benchmark bench: nothing reads what its flag table left
// over, so a leftover is refused instead of running the bench without
// it (a mistyped --min-speedup would drop the speedup floor).
TEST(CliContractTest, BenchQueryServiceRefusesLeftovers) {
  const std::string bin = HSIS_BENCH_QUERY_SERVICE;
  for (const char* unknown :
       {"--bogus", "--min-speedp=10", "--help", "--count", "positional"}) {
    Outcome outcome = ExpectRefused(bin, {"--count=1000", unknown});
    EXPECT_NE(outcome.err.find(unknown), std::string::npos) << outcome.err;
    EXPECT_NE(outcome.err.find("usage"), std::string::npos) << outcome.err;
  }
  ExpectFirstBadDecides(bin, {"--bogus", "--count=x"}, "--bogus",
                        "--count expects");
}

}  // namespace
