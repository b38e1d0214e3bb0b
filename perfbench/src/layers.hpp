// The benchmark's calls into the mapper, each wrapped in a span named
// "<module>.<function>", and the per-layer attribution built from them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "decomp/choices.hpp"
#include "libcache/compiled_library.hpp"
#include "netlist/network.hpp"

namespace perfbench {

/// A subject graph, with its choice classes when choices are on.
struct Subject {
  dagmap::Network single;
  std::optional<dagmap::ChoiceDecomposition> choice;

  const dagmap::Network& graph() const {
    return choice ? choice->subject : single;
  }
  const dagmap::ChoiceClasses* classes() const {
    return choice ? &choice->classes : nullptr;
  }
};

/// One mapping configuration: backend, choices and schedule.
struct MapConfig {
  std::string name;  ///< "struct", "struct+choices", "cuts", "cuts+choices"
  bool cuts = false;
  bool choices = false;
  /// Forces the partitioned schedule (the CLI's --partition); otherwise
  /// the Auto schedule picks it from the subject's size.
  bool partition = false;
};

/// io/: parse_blif.
dagmap::Network parse_blif_traced(const std::string& text);
/// decomp/: tech_decompose, or tech_decompose_choices + validate (as the
/// CLI runs them).
Subject decompose_traced(const dagmap::Network& circuit, bool choices);
/// core/ dag_map or cutmap/ cut_map at `threads`; with the tracer on the
/// call runs with profile on and its phases become child spans.
dagmap::MapResult map_traced(const Subject& subject, const MapConfig& config,
                             const dagmap::CompiledLibrary& lib,
                             unsigned threads,
                             const dagmap::NpnLibraryIndex* npn = nullptr);
/// mapnet/: write_mapped_blif.
std::string write_traced(const dagmap::MappedNetlist& net);
/// mapnet/: structural_hash.
std::uint64_t hash_traced(const dagmap::MappedNetlist& net);

struct VerifyResult {
  bool equivalent = false;
  double seconds = 0.0;  ///< to_network + check_equivalence
  double work = 0.0;     ///< simulated 64-bit words x nodes, both sides
};
/// mapnet/ to_network + sim/ check_equivalence with its defaults (the
/// CLI's --verify).
VerifyResult verify_traced(const dagmap::Network& circuit,
                           const dagmap::MappedNetlist& net);

/// Counts gathered alongside the spans of one traced pass.
struct LayerTally {
  double blif_bytes = 0, subject_nodes = 0;
  double choice_classes = 0, choice_variants = 0, choice_wins = 0;
  double match_attempts = 0, match_prunes = 0, match_enumerated = 0;
  double partitions = 0, partition_waves = 0, partition_max_nodes = 0;
  double covered_instances = 0, covered_distinct = 0;
  double cut_count = 0, cut_bytes = 0, gates = 0;
  double sim_work = 0;
  double registry_hits = 0, registry_misses = 0;
  double batches = 0, requests = 0, solo_p50_ms = 0;

  void add_map(const dagmap::MapResult& r, bool cuts);
};

/// Fills Outcome::per_layer from the spans under `roots` and the tally;
/// `pass` is the traced pass span (for obs.span_coverage).
void fill_per_layer(Outcome& out, const LayerTally& tally,
                    const std::vector<int>& roots, int pass,
                    double overhead_frac);

}  // namespace perfbench
