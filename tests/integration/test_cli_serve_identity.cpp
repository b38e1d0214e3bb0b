// The two front ends over one MapRequest (libcache/map_request.hpp),
// driven through the built `dagmap_cli` binary:
//
//   * CliServeIdentity: over the golden corpus x {structural, cuts} x
//     {choices off, on}, `dagmap_cli --out` writes exactly the BLIF bytes
//     that `dagmap_cli --serve` returns for the same request;
//   * CliErrors: a malformed or out-of-range flag value is one
//     `error: ...` line on stderr and exit status 2, never a bare
//     `stoul` or an internal contract message.
//
// Thread-count cases never name a circuit, so a parser that stopped
// rejecting them would end at "no circuit file" rather than start a
// thread pool.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "libcache/json.hpp"

namespace dagmap {
namespace {

using libcache::JsonValue;
using libcache::json_quote;
using libcache::parse_json;

const std::vector<std::string> kCorpus = {"decoder2", "full_adder", "gray3",
                                          "majxor",   "mux4",       "parity5"};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << text;
}

std::string shell_quoted(const std::string& s) { return "'" + s + "'"; }

/// Runs `dagmap_cli <args>` through the shell; returns its exit status.
int run_cli(const std::string& args) {
  int status = std::system((shell_quoted(DAGMAP_CLI_PATH) + " " + args).c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Copies a corpus file into the gtest temp dir, so serve's auto-saved
/// library sidecars never land in the source tree.  Each test uses its
/// own `prefix`: ctest runs the tests of this file concurrently.
std::string stage(const std::string& prefix, const std::string& file) {
  std::string path = ::testing::TempDir() + prefix + file;
  spit(path, slurp(std::string(DAGMAP_TEST_DATA_DIR) + "/golden/" + file));
  return path;
}

struct Config {
  std::string stem;
  bool cuts = false;
  bool choices = false;

  std::string name() const {
    return stem + (cuts ? " cuts" : " structural") +
           (choices ? " choices" : "");
  }
};

TEST(CliServeIdentity, OutBytesEqualServeBlifOnTheGoldenCorpus) {
  std::vector<Config> configs;
  for (const std::string& stem : kCorpus)
    for (bool cuts : {false, true})
      for (bool choices : {false, true})
        configs.push_back({stem, cuts, choices});
  ASSERT_EQ(configs.size(), 24u);

  const std::string dir = ::testing::TempDir();
  std::string requests;
  std::vector<std::string> cli_blif;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    SCOPED_TRACE(c.name());
    std::string library = stage("cli_identity_", c.stem + ".genlib");
    std::string circuit = stage("cli_identity_", c.stem + ".blif");
    std::string out = dir + "cli_identity_" + std::to_string(i) + ".blif";
    std::string flags = "--library " + shell_quoted(library) +
                        (c.cuts ? " --backend cuts" : "") +
                        (c.choices ? " --choices" : "");
    EXPECT_EQ(run_cli(flags + " --out " + shell_quoted(out) + " " +
                      shell_quoted(circuit) + " > /dev/null"),
              0);
    cli_blif.push_back(slurp(out));

    // The CLI verifies by default; the same request asks serve to.
    std::string options = "\"verify\": true";
    if (c.cuts) options += ", \"backend\": \"cuts\"";
    if (c.choices) options += ", \"choices\": true";
    requests += "{\"circuit\": " + json_quote(slurp(circuit)) +
                ", \"library\": " + json_quote(library) +
                ", \"options\": {" + options + "}}\n";
  }

  std::string in = dir + "cli_identity_requests.jsonl";
  std::string out = dir + "cli_identity_responses.jsonl";
  spit(in, requests);
  ASSERT_EQ(run_cli("--serve < " + shell_quoted(in) + " > " + shell_quoted(out) +
                    " 2> /dev/null"),
            0);
  std::istringstream lines(slurp(out));
  std::string line;
  std::size_t i = 0;
  for (; std::getline(lines, line); ++i) {
    ASSERT_LT(i, configs.size());
    SCOPED_TRACE(configs[i].name());
    JsonValue r = parse_json(line);
    ASSERT_TRUE(r.get_bool("ok")) << line;
    EXPECT_TRUE(r.get_bool("verified"));
    EXPECT_FALSE(cli_blif[i].empty());
    EXPECT_EQ(r.get_string("blif"), cli_blif[i]);
  }
  EXPECT_EQ(i, configs.size());
}

struct ErrorCase {
  std::string args;
  std::string expect;  ///< substring of the error line
};

TEST(CliErrors, BadFlagValuesAreOneLineUsageErrors) {
  // A circuit path that does not exist: a flag the parser failed to
  // reject would end in "cannot open" with exit status 1 instead.
  const std::string circuit = shell_quoted(::testing::TempDir() + "missing.blif");
  const std::vector<ErrorCase> cases = {
      // Strict numbers: negatives, garbage, overflow.
      {"--threads -1", "error: bad --threads value `-1`"},
      {"--threads abc", "error: bad --threads value `abc`"},
      {"--threads 4294967296", "error: bad --threads value"},
      {"--threads=8x", "error: bad --threads value `8x`"},
      {"--cut-size 4x " + circuit, "error: bad --cut-size value"},
      {"--cut-count -3 " + circuit, "error: bad --cut-count value"},
      {"--rounds ' 2' " + circuit, "error: bad --rounds value"},
      {"--load-rounds 1e3 " + circuit, "error: bad --load-rounds value"},
      {"--lib44 x " + circuit, "error: bad --lib44 value"},
      {"--buffer -1 " + circuit, "error: bad --buffer value"},
      {"--lut abc " + circuit, "error: bad --lut value"},
      {"--supergates=-1 " + circuit, "error: bad --supergates value"},
      {"--partition=abc " + circuit, "error: bad --partition value"},
      {"--delay-factor 1,5 " + circuit, "error: bad --delay-factor value"},
      // The bounds MapRequest::validate() shares with serve.
      {"--threads 4294967295", "error: bad --threads (want 0..1024)"},
      {"--cut-size 5 " + circuit, "error: bad --cut-size (want 2..4)"},
      {"--cut-count 65 " + circuit, "error: bad --cut-count (want 1..64)"},
      {"--rounds 17 " + circuit, "error: bad --rounds (want 1..16)"},
      {"--delay-factor 101 " + circuit,
       "error: bad --delay-factor (want 1..100)"},
      {"--load-rounds 17 " + circuit, "error: bad --load-rounds (want 0..16)"},
      {"--supergates=9 " + circuit, "error: bad --supergates (want 0..8)"},
      {"--partition=0 " + circuit, "error: bad --partition (want >= 1)"},
      // Named values, the built-in library level and the LUT size fail
      // while parsing.
      {"--lib44 4 " + circuit, "error: bad --lib44 (want 1..3)"},
      {"--lib44 0 " + circuit, "error: bad --lib44 (want 1..3)"},
      {"--lut 9 " + circuit, "error: bad --lut (want 2..8, or 0 for off)"},
      {"--lut 1 " + circuit, "error: bad --lut (want 2..8, or 0 for off)"},
      {"--match bogus " + circuit, "error: bad --match value `bogus`"},
      {"--backend bogus " + circuit, "error: bad --backend value `bogus`"},
      {"--mapper bogus " + circuit, "error: bad --mapper value `bogus`"},
      {"--stats=1 " + circuit, "error: --stats takes no value"},
  };
  const std::string err = ::testing::TempDir() + "cli_errors_stderr.txt";
  for (const ErrorCase& c : cases) {
    SCOPED_TRACE(c.args);
    EXPECT_EQ(run_cli(c.args + " > /dev/null 2> " + shell_quoted(err)), 2);
    std::string text = slurp(err);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.find('\n'), text.size() - 1) << text;  // one line
    EXPECT_NE(text.find(c.expect), std::string::npos) << text;
    EXPECT_EQ(text.find("stoul"), std::string::npos) << text;
    EXPECT_EQ(text.find("stoi"), std::string::npos) << text;
    EXPECT_EQ(text.find("contract violated"), std::string::npos) << text;
  }
}

TEST(CliErrors, AThreadCountWithinBoundsStillNeedsACircuit) {
  // The guard the cases above rely on: without a circuit path, even a
  // valid flag set stops before any mapping.
  const std::string err = ::testing::TempDir() + "cli_no_circuit_stderr.txt";
  EXPECT_EQ(run_cli("--threads 2 > /dev/null 2> " + shell_quoted(err)), 2);
  EXPECT_EQ(slurp(err), "error: no circuit file\n");
}

TEST(CliErrors, BufferingWithoutABufferGateIsAUsageError) {
  std::string library = stage("cli_buffer_", "mux4.genlib");
  std::string circuit = stage("cli_buffer_", "mux4.blif");
  const std::string err = ::testing::TempDir() + "cli_buffer_stderr.txt";
  for (const char* flag : {"--buffer 4", "--lt-buffer"}) {
    SCOPED_TRACE(flag);
    EXPECT_EQ(run_cli("--library " + shell_quoted(library) + " " + flag + " " +
                      shell_quoted(circuit) + " > /dev/null 2> " + shell_quoted(err)),
              2);
    std::string text = slurp(err);
    EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
    EXPECT_NE(text.find("need a library with a buffer gate"),
              std::string::npos)
        << text;
  }
}

}  // namespace
}  // namespace dagmap
