// Process-level pinning of the three binaries' command-line contract:
// --version strings, --help exit codes and content (the documented exit
// conventions must actually be printed), and the usage-error exit code 2.
// These run the real executables out of the build tree via popen; if a
// binary has not been built (e.g. a library-only build), the test skips
// rather than fails.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>

#include "scol/api/json.h"
#include "scol/version.h"

namespace scol {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    result.output.append(buf.data(), n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string binary(const std::string& name) {
  return std::string(SCOL_BINARY_DIR) + "/" + name;
}

bool exists(const std::string& path) {
  return std::ifstream(path).good();
}

#define SKIP_WITHOUT(bin)                                       \
  if (!exists(bin)) GTEST_SKIP() << bin << " was not built"

TEST(Cli, VersionStringsMatchTheLibrary) {
  for (const std::string name :
       {"scol-cli", "scol-serve", "scol-bench-load"}) {
    const std::string bin = binary(name);
    if (!exists(bin)) continue;  // per-binary: pin whatever was built
    const RunResult r = run(bin + " --version");
    EXPECT_EQ(r.exit_code, 0) << name;
    EXPECT_EQ(r.output, name + " " + kVersion + "\n");
  }
  SKIP_WITHOUT(binary("scol-cli"));  // at least the main CLI must exist
}

TEST(Cli, HelpDocumentsExitCodesAndExitsZero) {
  for (const std::string name :
       {"scol-cli", "scol-serve", "scol-bench-load"}) {
    const std::string bin = binary(name);
    if (!exists(bin)) continue;
    const RunResult r = run(bin + " --help");
    EXPECT_EQ(r.exit_code, 0) << name;
    EXPECT_NE(r.output.find("exit codes:"), std::string::npos) << name;
    EXPECT_NE(r.output.find("--version"), std::string::npos) << name;
  }
  SKIP_WITHOUT(binary("scol-cli"));
  // Each scol-cli mode prints its own usage text.
  for (const std::string mode : {"campaign", "probe", "gen"}) {
    const RunResult r = run(binary("scol-cli") + " " + mode + " --help");
    EXPECT_EQ(r.exit_code, 0) << mode << "\n" << r.output;
    EXPECT_EQ(r.output.rfind("usage: scol-cli " + mode + " ", 0), 0u)
        << r.output;
  }
}

TEST(Cli, UsageErrorsExitTwo) {
  for (const std::string name :
       {"scol-cli", "scol-serve", "scol-bench-load"}) {
    const std::string bin = binary(name);
    if (!exists(bin)) continue;
    EXPECT_EQ(run(bin + " --no-such-flag").exit_code, 2) << name;
  }
  SKIP_WITHOUT(binary("scol-cli"));
}

// Expect exit 2 AND the offending flag named in the combined output, so a
// script author can tell WHICH flag was bad without reading the usage text.
void expect_flag_error(const std::string& command, const std::string& flag) {
  const RunResult r = run(command);
  EXPECT_EQ(r.exit_code, 2) << command << "\n" << r.output;
  EXPECT_NE(r.output.find(flag), std::string::npos)
      << command << " did not name " << flag << ":\n"
      << r.output;
}

TEST(Cli, BadNumericFlagsExitTwoAndNameTheFlag) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  // Garbage, trailing junk, nonsensical negatives, overflow: the old
  // atoi-based parses turned all of these into silent zeros (or, for
  // `--seed -1`, into a huge unsigned seed).
  expect_flag_error(bin + " campaign --gen petersen --seeds foo", "--seeds");
  expect_flag_error(bin + " campaign --gen petersen --seeds 0", "--seeds");
  expect_flag_error(bin + " campaign --gen petersen --jobs 4x", "--jobs");
  expect_flag_error(bin + " campaign --gen petersen --seed -1", "--seed");
  expect_flag_error(
      bin + " campaign --gen petersen --round-budget 99999999999999999999",
      "--round-budget");
  expect_flag_error(bin + " --gen petersen --algo greedy --k 1.5", "--k");
  expect_flag_error(bin + " --gen petersen --algo greedy --threads -2",
                    "--threads");
  expect_flag_error(bin + " --gen petersen --algo greedy --deadline-ms abc",
                    "--deadline-ms");
  expect_flag_error(bin + " gen petersen --seed 0x10", "--seed");
  expect_flag_error(bin + " probe --gen petersen --mad-limit -3",
                    "--mad-limit");
  // A malformed --param is a usage error in every mode, not an abort.
  expect_flag_error(bin + " --algo greedy --param =5", "--param");
  expect_flag_error(bin + " campaign --param =5", "--param");
  expect_flag_error(bin + " probe --param =5", "--param");
  expect_flag_error(bin + " campaign --gen petersen --algo greedy "
                          "--algo-param greedy:=5",
                    "--algo-param");
  // A shard count an int cannot hold is refused, not wrapped to 1.
  expect_flag_error(bin + " campaign --gen petersen --shard 0/4294967297",
                    "--shard count");
}

TEST(Cli, BadShardSpecsExitTwoAndExplain) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  const std::string base = bin + " campaign --gen petersen --shard ";
  expect_flag_error(base + "2of4", "--shard");    // no slash at all
  expect_flag_error(base + "/4", "--shard");      // empty index part
  expect_flag_error(base + "1/", "--shard");      // empty count part
  expect_flag_error(base + "x/4", "--shard");     // non-numeric index
  expect_flag_error(base + "1/y", "--shard");     // non-numeric count
  expect_flag_error(base + "5/4", "--shard");     // index out of range
  expect_flag_error(base + "4/4", "--shard");     // index == count
  expect_flag_error(base + "-1/4", "--shard");    // negative index
  expect_flag_error(base + "0/0", "--shard");     // zero shards
  // A well-formed spec still works end to end.
  EXPECT_EQ(
      run(bin + " campaign --gen petersen --algo greedy --shard 0/2 "
                "--summary-only")
          .exit_code,
      0);
}

TEST(Cli, ServeAndBenchLoadRejectBadNumericFlags) {
  const std::string serve = binary("scol-serve");
  if (exists(serve)) {
    expect_flag_error(serve + " --port 99999", "--port");
    expect_flag_error(serve + " --port http", "--port");
    expect_flag_error(serve + " --jobs 0", "--jobs");
    expect_flag_error(serve + " --max-batch -1", "--max-batch");
    expect_flag_error(serve + " --graph-cache many", "--graph-cache");
  }
  const std::string bench = binary("scol-bench-load");
  if (exists(bench)) {
    expect_flag_error(bench + " --requests 10k", "--requests");
    expect_flag_error(bench + " --theta -0.5", "--theta");
    expect_flag_error(bench + " --seed 1e9", "--seed");
    expect_flag_error(bench + " --window 0", "--window");
  }
  SKIP_WITHOUT(serve);
}

TEST(Cli, EveryFlagTheHelpNamesIsDeclared) {
  // `BIN FLAG --no-such-flag` may fail in many ways (a value that does
  // not parse, a missing --algo, the trailing unknown flag), but never
  // with FLAG itself unknown. Run in a scratch directory: a flag that
  // takes a path gets "--no-such-flag" as its value.
  const std::string dir = ::testing::TempDir() + "/scol_cli_help_flags";
  std::filesystem::create_directories(dir);
  const std::regex flag_pattern("--[a-z][a-z0-9-]*");
  for (const auto& [name, mode] :
       {std::pair<std::string, std::string>{"scol-cli", ""},
        {"scol-cli", " campaign"},
        {"scol-cli", " probe"},
        {"scol-cli", " gen"},
        {"scol-serve", ""},
        {"scol-bench-load", ""}}) {
    if (!exists(binary(name))) continue;
    const std::string program = binary(name) + mode;
    const std::string help = run(program + " --help").output;
    int named = 0;
    for (std::sregex_iterator it(help.begin(), help.end(), flag_pattern), end;
         it != end; ++it, ++named) {
      const std::string flag = it->str();
      const RunResult r = run("cd '" + dir + "' && " + program + " " + flag +
                              " --no-such-flag < /dev/null");
      EXPECT_EQ(r.output.find("unknown flag '" + flag + "'"),
                std::string::npos)
          << name << mode << " " << flag << ":\n"
          << r.output;
    }
    EXPECT_GT(named, 0) << name << mode;
  }
  std::filesystem::remove_all(dir);
  SKIP_WITHOUT(binary("scol-cli"));
}

TEST(Cli, OneShotAnswersAndFailuresMapToExitCodes) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  // A colored answer and an infeasible answer are both exit 0.
  EXPECT_EQ(run(bin + " --algo greedy --gen petersen").exit_code, 0);
  EXPECT_EQ(
      run(bin + " --algo exact --gen petersen --k 2").exit_code, 0);
  // An unknown algorithm is a bad invocation: exit 2, like other usage
  // errors (the report-level exit 1 is pinned by one_shot_exit_code's
  // own tests against kFailed reports).
  EXPECT_EQ(run(bin + " --algo no-such-algo").exit_code, 2);
}

// A one-shot report with scenario.spec dropped: the one field that names
// where the graph came from.
std::string without_spec(const std::string& report) {
  const Json parsed = Json::parse(report);
  Json stripped = Json::object();
  for (const auto& [key, value] : parsed.members()) {
    if (key != "scenario") {
      stripped.set(key, value);
      continue;
    }
    Json scenario = Json::object();
    for (const auto& [k, v] : value.members())
      if (k != "spec") scenario.set(k, v);
    stripped.set(key, std::move(scenario));
  }
  return stripped.dump();
}

TEST(Cli, PipedFileReadsMatchPathReads) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  // A pipe cannot seek: format sniffing and the chunkd METIS read must
  // work from the buffered input all the same.
  const std::string graphs = std::string(SCOL_REPO_DIR) + "/examples/graphs/";
  for (const auto& [file, params] :
       {std::pair<std::string, std::string>{"grotzsch.col", ""},
        {"grid8x8.graph", ",format=metis,threads=4"}}) {
    const std::string args = " --algo greedy --no-timing --gen file:path=";
    const RunResult piped = run("cat '" + graphs + file + "' | " + bin +
                                args + "/dev/stdin" + params);
    const RunResult direct = run(bin + args + graphs + file + params);
    ASSERT_EQ(piped.exit_code, 0) << file << "\n" << piped.output;
    ASSERT_EQ(direct.exit_code, 0) << file << "\n" << direct.output;
    EXPECT_EQ(without_spec(piped.output), without_spec(direct.output))
        << file;
  }
}

TEST(Cli, GenRefusesUnrepresentableGraphWithoutPartialFile) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  // RMAT leaves isolated vertices, which an edge list cannot name: a
  // runtime failure (exit 1) that must leave neither the file nor its
  // temp sibling behind.
  const std::string out = ::testing::TempDir() + "/scol_cli_gen_rmat.edges";
  std::remove(out.c_str());
  const RunResult r =
      run(bin + " gen --gen rmat:scale=8 --format edges --out " + out);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("isolated vertex"), std::string::npos) << r.output;
  EXPECT_FALSE(exists(out));
  EXPECT_FALSE(exists(out + ".tmp"));
}

TEST(Cli, CampaignOutFailureExitsOneWithoutPartialFile) {
  const std::string bin = binary("scol-cli");
  SKIP_WITHOUT(bin);
  const std::string dir = ::testing::TempDir() + "/scol_cli_campaign_out";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/taken");
  const std::string campaign =
      bin + " campaign --gen petersen --algo greedy --seeds 1 --out ";
  // Cannot be opened: the directory does not exist.
  const std::string missing = dir + "/no_such_dir/runs.jsonl";
  // Cannot be written: the temp sibling is a link to a full device.
  const std::string full = dir + "/full.jsonl";
  const bool have_full = exists("/dev/full");
  if (have_full) std::filesystem::create_symlink("/dev/full", full + ".tmp");
  // Cannot be moved into place: a directory holds the name.
  const std::string taken = dir + "/taken";
  for (const std::string& out : {missing, full, taken}) {
    if (out == full && !have_full) continue;
    const RunResult r = run(campaign + out);
    EXPECT_EQ(r.exit_code, 1) << out << "\n" << r.output;
    EXPECT_NE(r.output.find(out + ": "), std::string::npos) << r.output;
    EXPECT_FALSE(std::filesystem::is_regular_file(out)) << out;
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::symlink_status(out + ".tmp")))
        << out;
  }
  EXPECT_TRUE(std::filesystem::is_directory(taken));
  // A writable --out still gets the whole stream and no temp file.
  const std::string ok = dir + "/runs.jsonl";
  const RunResult r = run(campaign + ok);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(ok);
  std::string line;
  EXPECT_TRUE(std::getline(in, line) && line.rfind("{", 0) == 0) << line;
  EXPECT_FALSE(exists(ok + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Cli, ServePipeModeRoundTrips) {
  const std::string bin = binary("scol-serve");
  SKIP_WITHOUT(bin);
  const RunResult r = run(
      "printf '%s\\n' "
      "'{\"id\":1,\"algo\":\"greedy\",\"gen\":\"petersen\"}' "
      "'{\"id\":2,\"op\":\"shutdown\"}' | " +
      bin);
  EXPECT_EQ(r.exit_code, 0);  // clean shutdown
  EXPECT_NE(r.output.find("\"id\":1,\"ok\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"stopping\":true"), std::string::npos);
  // EOF without a shutdown request is also a clean exit in pipe mode.
  EXPECT_EQ(run("printf '' | " + bin).exit_code, 0);
}

TEST(Cli, BenchLoadCountsADeadDaemonsRequestsAsFailed) {
  const std::string bench = binary("scol-bench-load");
  SKIP_WITHOUT(bench);
  // Two daemons that answer nothing: scol-cli refuses the daemon flags
  // with exit 2, and a missing binary fails to exec. Rates and latencies
  // cover the responses received (none), every request is failed, and
  // the run exits 1.
  for (const std::string& daemon :
       {binary("scol-cli"), binary("no-such-daemon")}) {
    const RunResult r =
        run(bench + " --requests 50 --serve-bin '" + daemon + "'");
    EXPECT_EQ(r.exit_code, 1) << daemon << ":\n" << r.output;
    const std::size_t at = r.output.find("{\"requests\"");
    ASSERT_NE(at, std::string::npos) << daemon << ":\n" << r.output;
    const Json summary =
        Json::parse(r.output.substr(at, r.output.find('\n', at) - at));
    // A missing member reads as -1, which no check below expects.
    const auto number = [](const Json* parent, const char* key) {
      const Json* f = parent != nullptr ? parent->get(key) : nullptr;
      return f != nullptr ? f->as_real() : -1.0;
    };
    EXPECT_EQ(number(&summary, "requests"), 50);
    EXPECT_EQ(number(&summary, "received"), 0);
    EXPECT_EQ(number(&summary, "failed"), 50);
    EXPECT_EQ(number(&summary, "qps"), 0.0);
    EXPECT_EQ(number(summary.get("latency_ms"), "max"), 0.0);
    EXPECT_EQ(number(summary.get("cache"), "report_hit_rate"), 0.0);
  }
}

}  // namespace
}  // namespace scol
