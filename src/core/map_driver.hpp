// The labeling-and-cover driver behind both mapping backends (internal;
// the public entry points are `dag_map` and `cut_map`).
//
// The paper's mapper is one algorithm: label every subject node in
// topological order with the best arrival over its candidate
// implementations (§3.3), then build the cover backward from the
// endpoints, duplicating logic wherever selected candidates overlap
// (§3.4-3.5).  A backend differs only in the per-node candidate set, so
// it supplies a *provider* — a template parameter, so the per-candidate
// callback stays inlined — and the driver owns everything else:
//
//   * the contract asserts, the `Matcher` build and the choice hook
//     (`ChoicePricing`, core/choice_pricing.hpp);
//   * schedule selection — depth wavefronts, choice wavefronts, or the
//     partitioned pipeline (core/partition.hpp) — and its runner;
//   * the single selection rule: smallest arrival, ties (within
//     `MapOptions::epsilon`) to the smaller implementation area, then to
//     the lexicographically smaller gate name, so the selection never
//     depends on enumeration order or thread count;
//   * the endpoint redirect, the forward evaluation order, and
//     `optimal_delay`;
//   * cover marking and emission, duplication and choice statistics;
//   * the profiling session and the load-aware rounds (`run_mapping`).
//
// A provider has this shape (see dag_mapper.cpp and cut_mapper.cpp):
//
//   struct Provider {
//     // Called once per internal node, in schedule order, before the
//     // node's candidates are enumerated for labeling.
//     void prepare(NodeId n, unsigned worker);
//     // Calls cb(candidate) for every candidate implementation of n;
//     // a candidate has `arrival`, `area`, `gate` and
//     // `materialize(Match&)`.
//     template <class Cb>
//     void for_each_candidate(NodeId n, unsigned worker, Cb&& cb);
//     // Called after n's label and rewritten selection are stored,
//     // with the selected candidate's area.
//     void labeled(NodeId n, unsigned worker, double area);
//     // Backend counters, emitted inside the "label" phase.
//     void add_counters();
//   };
#pragma once

#include <chrono>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/choice_pricing.hpp"
#include "core/map_options.hpp"
#include "core/parallel.hpp"
#include "core/partition.hpp"
#include "library/gate_library.hpp"
#include "match/matcher.hpp"
#include "netlist/assert.hpp"
#include "netlist/network.hpp"
#include "obs/obs.hpp"

namespace dagmap {

/// A structural match at a node, priced for labeling.  `view` is valid
/// only during the enumeration callback.
struct StructuralCandidate {
  double arrival = 0.0;
  double area = 0.0;
  const Gate* gate = nullptr;
  const MatchView* view = nullptr;

  void materialize(Match& m) const { m.assign(*view); }
  template <class Fn>
  void for_each_pin_leaf(Fn&& fn) const {
    for (NodeId leaf : view->pin_binding) fn(leaf);
  }
};

/// Runs `map_once(lib)` inside a profiling session (owned here unless
/// the caller already records one), or — with `options.load_rounds > 0`
/// — the load-aware rounds of dagmap/load_rounds.hpp, each one
/// `map_once` call against a re-priced library copy.
MapResult run_mapping(
    const GateLibrary& lib, const MapOptions& options,
    const std::function<MapResult(const GateLibrary&)>& map_once);

class MapDriver {
  std::chrono::steady_clock::time_point t0_;  ///< first: times the whole run

 public:
  /// Checks the mapping contract (`backend` names the caller in the
  /// messages), builds the matcher and the choice hook, and selects the
  /// labeling schedule.
  MapDriver(const Network& subject, const GateLibrary& lib,
            const MapOptions& options, const char* backend);

  const Network& subject;
  const GateLibrary& lib;
  const MapOptions& options;
  MapResult result;  ///< `result.label` is the label array
  Matcher matcher;
  /// The active choice annotation, or null; `pricing` is set iff non-null.
  const ChoiceClasses* choices = nullptr;
  std::optional<ChoicePricing> pricing;
  /// Selected candidate per internal node: the fastest after `label`; a
  /// backend's area pass may re-select before `cover`.
  std::vector<std::optional<Match>> chosen;

  unsigned num_threads() const { return pool_.num_workers(); }

  /// Counts one enumerated candidate of `worker` (MapResult::
  /// matches_enumerated); the structural enumeration counts its own.
  void count_candidate(unsigned worker) { ++workers_[worker].enumerated; }

  /// Leaf price as read by `reader`: the class-best label beyond a class
  /// anchor, the leaf's own label otherwise.
  double leaf_price(NodeId reader, NodeId leaf) const {
    return pricing ? pricing->leaf_price(reader, leaf) : result.label[leaf];
  }
  /// The leaf as the cover will read it from `reader`'s selection.
  NodeId priced_leaf(NodeId reader, NodeId leaf) const {
    return pricing ? pricing->price_node(reader, leaf) : leaf;
  }

  /// Structural matches at `n` of the configured match class.
  template <class Cb>
  void for_each_structural(NodeId n, unsigned worker, Cb&& cb) {
    matcher.for_each_match(n, options.match_class, [&](const MatchView& m) {
      ++workers_[worker].enumerated;
      StructuralCandidate c;
      c.arrival = pricing ? pricing->match_arrival(m, n)
                          : match_arrival(m, result.label);
      c.area = m.gate->area;
      c.gate = m.gate;
      c.view = &m;
      cb(c);
    });
  }

  /// Runs `body(node, worker)` over every internal node, each after all
  /// of its candidates' leaves, under the selected schedule (a barrier
  /// between waves).
  template <class Body>
  void run_schedule(Body&& body, const char* trace) {
    if (parts_) {
      for (std::size_t w = 0; w < parts_->num_waves(); ++w) {
        std::span<const PartId> wave = parts_->wave(w);
        pool_.parallel_for(
            wave.size(),
            [&](std::size_t i, unsigned worker) {
              for (NodeId n : parts_->members(wave[i])) body(n, worker);
            },
            trace);
      }
    } else {
      for (const std::vector<NodeId>& wave : waves_)
        pool_.parallel_for(
            wave.size(),
            [&](std::size_t i, unsigned worker) { body(wave[i], worker); },
            trace);
    }
  }

  /// The labeling pass: every internal node takes the best candidate by
  /// (arrival, area, gate name).  Then settles the endpoints, the
  /// evaluation order and `optimal_delay`.
  template <class Provider>
  void label(Provider& provider) {
    {
      obs::Scope scope("label");
      run_schedule(
          [&](NodeId n, unsigned worker) {
            provider.prepare(n, worker);
            WorkerState& w = workers_[worker];
            double best = kInf, best_area = kInf;
            const Gate* best_gate = nullptr;
            provider.for_each_candidate(n, worker, [&](const auto& c) {
              bool take = c.arrival < best - MapOptions::epsilon;
              if (!take && c.arrival < best + MapOptions::epsilon) {
                take = c.area < best_area ||
                       (c.area == best_area && best_gate != nullptr &&
                        c.gate->name < best_gate->name);
              }
              if (take) {
                best = c.arrival;
                best_area = c.area;
                best_gate = c.gate;
                c.materialize(w.best);
              }
            });
            DAGMAP_ASSERT_MSG(best_gate != nullptr,
                              "no candidate at an internal subject node");
            chosen[n] = w.best;
            result.label[n] = best;
            // Re-point the selection's classed leaves at the class-best
            // variants (folded in an earlier wave by the anchor rule), so
            // every later pass prices and descends through plain label[]
            // reads; then fold this node's own class if it is the anchor.
            if (pricing) pricing->rewrite(*chosen[n], n);
            provider.labeled(n, worker, best_area);
            if (pricing) pricing->on_labeled(n);
          },
          parts_ ? "label.partition" : "label.wave");
      tally_labeling();
      if (obs::enabled()) provider.add_counters();
    }
    settle_endpoints();
  }

  /// Endpoint network: with choices, a copy whose POs / latch D inputs
  /// moved onto the class-best variants; the subject otherwise.
  const Network& endpoints() const {
    return redirected_ ? *redirected_ : subject;
  }
  /// Forward order for the label-consuming passes: Kahn order normally;
  /// id (creation) order with choices, where a rewritten leaf need not
  /// be a structural fanin of its reader.
  std::span<const NodeId> eval_order() const { return eval_order_; }

  /// Marks and emits the cover of `chosen`, then fills the duplication
  /// and choice statistics.
  void cover();

  /// Stamps `cpu_seconds` and hands over the result.
  MapResult finish();

  static constexpr double kInf = std::numeric_limits<double>::infinity();

 private:
  struct alignas(64) WorkerState {
    std::uint64_t enumerated = 0;
    /// Running best of the node being labeled; its storage is reused
    /// across improvements and nodes.
    Match best;
  };

  void tally_labeling();
  void settle_endpoints();

  std::optional<Partitioning> parts_;
  std::vector<std::vector<NodeId>> waves_;
  ThreadPool pool_;
  std::vector<WorkerState> workers_;
  std::optional<Network> redirected_;
  std::vector<NodeId> id_order_;
  std::span<const NodeId> eval_order_;
};

}  // namespace dagmap
