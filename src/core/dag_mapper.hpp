// Delay-optimal technology mapping by DAG covering — the paper's
// contribution (§3).
//
// The FlowMap-style labeling pass visits the NAND2/INV subject graph in
// topological order.  Sources are labelled 0.  At each internal node all
// structural matches of library gates are enumerated (standard matches by
// default, per the paper's experiments; extended matches optionally) and
// the node is labelled with the best achievable arrival time:
//
//     label(n) = min over matches M at n of
//                max over leaves x of M (label(x) + pin_delay(M, x))
//
// Because matches may cover multi-fanout nodes without covering their
// other fanouts, and the backward cover construction duplicates logic
// wherever two selected matches overlap, the result is delay-optimal with
// respect to the subject graph and the chosen match class — in contrast
// to tree covering, which is limited by the subject graph's fanout
// structure (§3.5).  The whole algorithm is O(s * p): linear in subject
// size for a fixed library.
//
// `dag_map` is the structural backend of the shared labeling-and-cover
// driver (core/map_driver.hpp): it supplies only the per-node candidate
// set — `Matcher::for_each_match` — and the driver owns the schedule
// (depth wavefronts, or fanout-free-window partitions at scale; both
// bit-identical at any thread count), the (arrival, area, gate name)
// selection rule, the choice hook, the cover and the load-aware rounds.
//
// The optional area-recovery pass (§6's sketched extension) is dag_map's
// own: it keeps the optimal delay but relaxes non-critical nodes — during
// cover construction each needed node receives a required time, and the
// cheapest match meeting it is selected instead of the fastest.
#pragma once

#include "core/map_options.hpp"
#include "library/gate_library.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// Options for the DAG mapper: the shared MapOptions plus area recovery.
struct DagMapOptions : MapOptions {
  /// Trade area for delay on non-critical paths while preserving the
  /// optimal delay (off reproduces the paper exactly: "the fastest
  /// mapping is simply created no matter how critical the node is").
  bool area_recovery = false;
  /// With area recovery: relax the circuit to this delay target instead
  /// of the optimum (clamped from below to the optimal delay — a target
  /// beneath it is unreachable).  <= 0 means "the optimal delay".  This
  /// is the §6 area/delay trade-off knob: sweeping it from the optimum
  /// upward trades speed back for area.
  double target_delay = 0.0;
};

/// Maps `subject` (a NAND2/INV subject graph) onto `lib` with
/// delay-optimal DAG covering.  The library must contain an inverter and
/// a 2-input NAND (`lib.is_complete_for_mapping()`).
MapResult dag_map(const Network& subject, const GateLibrary& lib,
                  const DagMapOptions& options = {});

}  // namespace dagmap
