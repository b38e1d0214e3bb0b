// Priority-cut Boolean mapping engine — the second backend.
//
// The paper's `dag_map` is delay-optimal only with respect to the
// matches the structural decomposition happens to expose; this engine
// matches *functions* instead: bounded priority-cut enumeration per node
// (cut_set.hpp), NPN canonization of each cut's truth table, and a
// lookup in the shared NPN library index (boolmatch/npn_index.hpp), with
// input/output negations materialized as explicit inverters by the
// shared mapnet cover emission.  Per node the candidate set is the
// *union* of the structural matches and the NPN cut matches, which gives
// the delay-dominance guarantee the fuzz harness cross-checks: by
// induction over the topological order the cut backend's label at every
// node is <= the structural backend's label, hence mapped delay is never
// worse (and usually better where the decomposition hid a match).
//
// After the delay-optimal labeling pass, `rounds > 1` runs abc-zz
// LutMap-style area-recovery iterations: required times are seeded at
// `optimal_delay * delay_factor` and relaxed backward, and each needed
// node re-selects the candidate of minimum area flow among those meeting
// its required time — the candidate space is the stored round-0 priority
// cuts, so labels never change and the delay bound survives every round.
// Round 1 amortizes leaf area over subject fanout counts; later rounds
// use the previous round's cover reference counts.
//
// `cut_map` is the cuts backend of the shared labeling-and-cover driver
// (core/map_driver.hpp): it supplies the candidate union, the priority
// cuts (with the class-cut merge under choices) and the area rounds; the
// schedule, the selection rule, the choice hook, the cover and the
// load-aware rounds are the driver's, so results are bit-identical at
// any thread count and with or without partitioning, exactly as for
// `dag_map`.
#pragma once

#include "boolmatch/npn_index.hpp"
#include "core/map_options.hpp"
#include "library/gate_library.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// Options for the priority-cut mapper (`dagmap_cli --backend=cuts`): the
/// shared MapOptions — `match_class` selects the structural half of the
/// candidate union — plus the cut and area-round knobs.  Under active
/// `choices`, a class anchor's stored cuts become the merged priority
/// cuts of every class member at fold time, so readers see every
/// variant's cuts.
struct CutMapOptions : MapOptions {
  /// Maximum cut leaves (2..4; bounded by the NPN machinery).
  unsigned cut_size = 4;
  /// Priority cuts kept per node (trivial cut excluded), abc-zz LutMap's
  /// `cuts_per_node`.
  unsigned cut_count = 8;
  /// Mapping rounds: 1 = the pure delay-optimal pass; each extra round
  /// is an area-recovery re-selection under required times (LutMap's
  /// `n_rounds`).
  unsigned rounds = 1;
  /// Required-time slack for the area rounds, as a factor of the optimal
  /// delay (LutMap's `delay_factor`; clamped from below to 1.0).
  double delay_factor = 1.0;
  /// NPN library index to reuse (serve mode: npn_index_from_compiled);
  /// null builds one per call.  Bit-identical either way.
  const NpnLibraryIndex* npn_index = nullptr;
};

/// Maps `subject` (a NAND2/INV subject graph) onto `lib` with the
/// priority-cut Boolean engine.  The library must contain an inverter
/// and a 2-input NAND.  `MapResult::label` holds the per-node optimal
/// arrivals under the (structural ∪ NPN-cut) match space — pointwise <=
/// `dag_map`'s labels for the same inputs.
MapResult cut_map(const Network& subject, const GateLibrary& lib,
                  const CutMapOptions& options = {});

}  // namespace dagmap
