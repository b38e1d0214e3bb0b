#include "core/dag_mapper.hpp"

#include <algorithm>
#include <vector>

#include "core/map_driver.hpp"

namespace dagmap {

namespace {

constexpr double kInf = MapDriver::kInf;
constexpr double kEps = MapOptions::epsilon;

// dag_map's candidate set: the structural matches of the configured
// class.  With area recovery it also keeps every node's full match list
// (rewritten onto the class-best variants like the selection) for the
// required-time re-selection.
struct StructuralProvider {
  MapDriver& drv;
  bool keep_all = false;
  std::vector<std::vector<Match>> all_matches;

  void prepare(NodeId, unsigned) {}
  template <class Cb>
  void for_each_candidate(NodeId n, unsigned worker, Cb&& cb) {
    drv.for_each_structural(n, worker, [&](const StructuralCandidate& c) {
      cb(c);
      if (keep_all) all_matches[n].push_back(Match(*c.view));
    });
  }
  void labeled(NodeId n, unsigned, double) {
    if (keep_all && drv.pricing)
      for (Match& m : all_matches[n]) drv.pricing->rewrite(m, n);
  }
  void add_counters() {}
};

// §6's area recovery: keeps the optimal delay (or relaxes to
// `target_delay`) but re-selects each needed node's cheapest match that
// meets its required time.
void recover_area(MapDriver& drv,
                  const std::vector<std::vector<Match>>& all_matches,
                  double target_delay) {
  obs::Scope scope("area_recovery");
  const Network& subject = drv.subject;
  const std::vector<double>& label = drv.result.label;
  std::span<const NodeId> eval_order = drv.eval_order();
  std::uint64_t labels_relaxed = 0;
  std::uint64_t nodes_reselected = 0;
  // Area flow (forward): af(n) estimates the per-use area of the best
  // cover of n's cone, amortizing multi-fanout nodes over their fanout
  // count — the standard heuristic for duplication-aware area costs.
  const auto& fanout = subject.fanout_counts();
  std::vector<double> area_flow(subject.size(), 0.0);
  auto match_area_flow = [&](const Match& m) {
    double af = m.gate->area;
    for (NodeId leaf : m.pin_binding)
      if (!subject.is_source(leaf))
        af += area_flow[leaf] / std::max<std::uint32_t>(1, fanout[leaf]);
    return af;
  };
  for (NodeId n : eval_order) {
    if (subject.is_source(n)) continue;
    double best = kInf;
    for (const Match& m : all_matches[n])
      best = std::min(best, match_area_flow(m));
    area_flow[n] = best;
  }

  // Required-time pass (backward): a needed node picks the feasible
  // match (arrival within its required time) of minimum area flow, then
  // tightens the required times of that match's leaves.
  std::vector<double> required(subject.size(), kInf);
  std::vector<bool> needed(subject.size(), false);
  double relax_to = std::max(drv.result.optimal_delay, target_delay);
  auto endpoint = [&](NodeId n) {
    required[n] = std::min(required[n], relax_to);
    needed[n] = true;
  };
  const Network& cnet = drv.endpoints();
  for (const Output& o : cnet.outputs()) endpoint(o.node);
  for (NodeId l : cnet.latches()) endpoint(cnet.fanins(l)[0]);

  for (auto it = eval_order.rbegin(); it != eval_order.rend(); ++it) {
    NodeId n = *it;
    if (!needed[n] || subject.is_source(n)) continue;
    const Match* pick = nullptr;
    double pick_af = kInf;
    double pick_arrival = kInf;
    for (const Match& m : all_matches[n]) {
      double a = match_arrival(m, label);
      if (a > required[n] + kEps) continue;
      double af = match_area_flow(m);
      if (af < pick_af - kEps || (af < pick_af + kEps && a < pick_arrival)) {
        pick = &m;
        pick_af = af;
        pick_arrival = a;
      }
    }
    DAGMAP_ASSERT_MSG(pick != nullptr,
                      "required time unreachable during area recovery");
    ++nodes_reselected;
    if (pick_arrival > label[n] + kEps) ++labels_relaxed;
    drv.chosen[n] = *pick;
    for (std::size_t pin = 0; pin < pick->pin_binding.size(); ++pin) {
      NodeId leaf = pick->pin_binding[pin];
      double req = required[n] - pick->gate->pins[pin].delay();
      required[leaf] = std::min(required[leaf], req);
      if (!subject.is_source(leaf)) needed[leaf] = true;
    }
  }
  obs::counter_add("area_recovery.nodes_reselected", nodes_reselected);
  obs::counter_add("area_recovery.labels_relaxed", labels_relaxed);
}

}  // namespace

MapResult dag_map(const Network& subject, const GateLibrary& lib,
                  const DagMapOptions& options) {
  // Load-aware rounds map against re-priced library copies; the pattern
  // pre-index references gates/patterns by index, so it fits every copy.
  return run_mapping(lib, options, [&](const GateLibrary& round_lib) {
    MapDriver drv(subject, round_lib, options, "dag_map");
    StructuralProvider provider{drv, options.area_recovery, {}};
    if (options.area_recovery) provider.all_matches.resize(subject.size());
    drv.label(provider);
    if (options.area_recovery)
      recover_area(drv, provider.all_matches, options.target_delay);
    drv.cover();
    return drv.finish();
  });
}

}  // namespace dagmap
