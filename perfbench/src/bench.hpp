// Shared pieces of the benchmark program: the run context, the result of
// a workload run, and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line context of one run.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fresh scratch directory for this run (genlib files, .dmlc sidecars).
  std::string work_dir;
  /// The benchmark's own data directory (expected QoR tables).
  std::string data_dir;
  /// Where a traced run writes its Chrome trace-event JSON.
  std::string trace_out;
  /// When set, a batch workload writes its expected-QoR table here
  /// instead of checking against the recorded one.
  std::string record_expected;
};

/// What a workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The first failure messages, for stderr.
  std::vector<std::string> errors;
  /// Every end-to-end metric by name, in the units BENCHMARK.json states.
  std::map<std::string, double> end_to_end;
  /// Every per-layer metric by name; filled by traced runs only.
  std::map<std::string, double> per_layer;
  /// Run metadata (sample and thread counts) printed with the result.
  std::map<std::string, std::string> meta;
  /// Per-layer self-time table of the traced pass.
  std::string layer_table;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

Outcome run_table3_suite(const RunContext& ctx);
Outcome run_scale_subject(const RunContext& ctx);
Outcome run_serve_mixed(const RunContext& ctx);

// ---- helpers ---------------------------------------------------------

/// Median of `v` (0 when empty).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// Geometric mean of positive values (0 when empty).
double geomean(const std::vector<double>& v);
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// "0x%016llx" rendering, the serve protocol's structural_hash format.
std::string hex64(std::uint64_t v);
/// splitmix64 step: a small deterministic generator for seeded draws.
std::uint64_t mix64(std::uint64_t& state);
/// Deterministic shuffle driven by mix64.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[mix64(state) % i]);
}

/// Per-layer self-time table (module = span-name prefix) for the spans
/// under `root`, with each module's share of `wall`.
std::string layer_table(int root, double wall);

}  // namespace perfbench
