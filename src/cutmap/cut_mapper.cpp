#include "cutmap/cut_mapper.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/map_driver.hpp"
#include "cutmap/cut_set.hpp"

namespace dagmap {

namespace {

constexpr double kInf = MapDriver::kInf;
constexpr double kEps = MapOptions::epsilon;

// An NPN cut match: the cut leaves plus the transform relating cut and
// gate functions.  Gate pin i reads cut leaf rel.perm[i], negated iff
// bit i of rel.input_negate; `area` includes the materialized inverters.
struct NpnCandidate {
  double arrival = 0.0;
  double area = 0.0;
  const Gate* gate = nullptr;
  std::span<const NodeId> cut_leaves;
  NpnTransform rel;

  void materialize(Match& m) const {
    m.gate = gate;
    m.pattern = nullptr;
    m.covered.clear();
    unsigned ni = gate->num_inputs();
    m.pin_binding.resize(ni);
    for (unsigned pin = 0; pin < ni; ++pin)
      m.pin_binding[pin] = cut_leaves[rel.perm[pin]];
    m.input_negate =
        static_cast<std::uint8_t>(rel.input_negate & ((1u << ni) - 1u));
    m.output_negate = rel.output_negate;
  }
  template <class Fn>
  void for_each_pin_leaf(Fn&& fn) const {
    unsigned ni = gate->num_inputs();
    for (unsigned pin = 0; pin < ni; ++pin) fn(cut_leaves[rel.perm[pin]]);
  }
};

// cut_map's candidate set: the structural matches, then the NPN matches
// of every stored non-trivial priority cut.  Per-node enumeration order
// is deterministic (matcher order, then cut rank order, then library
// order), independent of thread count and schedule.
class CutProvider {
 public:
  CutProvider(MapDriver& drv, const CutMapOptions& options,
              const NpnLibraryIndex& npn)
      : drv_(drv),
        npn_(npn),
        params_{options.cut_size, options.cut_count},
        inv_delay_(drv.lib.inverter()->pins[0].delay()),
        inv_area_(drv.lib.inverter()->area),
        fanout_(drv.subject.fanout_counts()),
        cuts_(drv.subject.size()),
        node_af_(drv.subject.size(), 0.0),
        rank_{drv.result.label, node_af_, fanout_},
        workers_(drv.num_threads()) {}

  double inv_delay() const { return inv_delay_; }

  // Priority cuts of n, ranked by the settled fanin labels and area flows.
  void prepare(NodeId n, unsigned worker) {
    compute_priority_cuts(drv_.subject, n, cuts_, params_, rank_,
                          workers_[worker].scratch, cuts_[n]);
  }

  template <class Cb>
  void for_each_candidate(NodeId n, unsigned worker, Cb&& cb) {
    drv_.for_each_structural(n, worker, cb);
    const CutSet& cs = cuts_[n];
    for (std::size_t i = 0; i < cs.size(); ++i) {
      CutSet::View cut = cs.cut(i);
      if (cut.leaves.size() == 1 && cut.leaves[0] == n) continue;  // trivial
      if (cut.tt == 0x0000 || cut.tt == 0xFFFF) continue;  // constant cone
      auto [canon, to_canon] = canon_of(cut.tt, workers_[worker]);
      const std::vector<NpnLibEntry>* bucket = npn_.find(canon);
      if (!bucket) continue;
      NpnTransform from_canon = npn_inverse(to_canon);
      for (const NpnLibEntry& e : *bucket) {
        drv_.count_candidate(worker);
        // cut tt == npn_apply(gate tt, rel) with
        // rel = compose(gate->canonical, inverse(cut->canonical)).
        NpnCandidate c;
        c.rel = npn_compose(e.to_canonical, from_canon);
        c.gate = e.gate;
        c.area = e.gate->area;
        c.cut_leaves = cut.leaves;
        unsigned ni = e.gate->num_inputs();
        bool valid = true;
        for (unsigned pin = 0; pin < ni; ++pin) {
          unsigned leaf_idx = c.rel.perm[pin];
          if (leaf_idx >= cut.leaves.size()) {
            // Pin bound to a padded variable: impossible for full-support
            // gates when the (support-reduced) tables match.
            valid = false;
            break;
          }
          double a = drv_.leaf_price(n, cut.leaves[leaf_idx]);
          if ((c.rel.input_negate >> pin) & 1u) {
            a += inv_delay_;
            c.area += inv_area_;
          }
          c.arrival = std::max(c.arrival, a + e.gate->pins[pin].delay());
        }
        if (!valid) continue;
        if (c.rel.output_negate) {
          c.arrival += inv_delay_;
          c.area += inv_area_;
        }
        cb(c);
      }
    }
  }

  // Class-cut merge at the anchor's fold, then n's area flow (the
  // cut-ranking input of its readers) from the rewritten selection.
  void labeled(NodeId n, unsigned, double area) {
    if (drv_.choices && drv_.choices->is_class_anchor(n)) merge_class_cuts(n);
    double af = area;
    for (NodeId leaf : drv_.chosen[n]->pin_binding)
      if (!drv_.subject.is_source(leaf))
        af += node_af_[leaf] / std::max<std::uint32_t>(1, fanout_[leaf]);
    node_af_[n] = af;
  }

  void add_counters() {
    std::size_t total_cuts = 0, cut_bytes = 0;
    for (const CutSet& cs : cuts_) {
      total_cuts += cs.size();
      cut_bytes += cs.memory_bytes();
    }
    obs::counter_add("cutmap.cuts", total_cuts);
    obs::counter_add("cutmap.cut_bytes", cut_bytes);
  }

 private:
  struct alignas(64) WorkerState {
    CutScratch scratch;
    /// Flat per-worker canonicalization memo (lazy 64K tables): a node's
    /// cut functions concentrate into few NPN classes, so the 768-
    /// transform scan runs once per distinct table per worker.
    std::vector<std::int32_t> canon;
    std::vector<NpnTransform> canon_t;
  };

  static std::pair<std::uint16_t, const NpnTransform&> canon_of(
      std::uint16_t tt, WorkerState& w) {
    if (w.canon.empty()) {
      w.canon.assign(std::size_t{1} << 16, -1);
      w.canon_t.resize(std::size_t{1} << 16);
    }
    if (w.canon[tt] < 0) w.canon[tt] = npn_canonical(tt, &w.canon_t[tt]);
    return {static_cast<std::uint16_t>(w.canon[tt]), w.canon_t[tt]};
  }

  // Fold-time cut merge: when a class anchor labels, the union of every
  // member's non-trivial cuts replaces the anchor's own stored set — the
  // slot readers' cut enumeration actually consults (post-burst
  // structure references anchors).  Every reader of cuts[anchor] runs in
  // a wave strictly after the anchor's (the augmented leveling), and
  // every merged leaf lies inside some member's cone, hence below every
  // member's level, so both the overwrite and the later leaf reads are
  // race-free.  Deduped by (leaves, tt), ranked (worst leaf label, leaf
  // count, leaves) like the priority ranking, capped at cut_count; the
  // anchor's trivial self-cut stays last.
  void merge_class_cuts(NodeId anchor) {
    struct MergedCut {
      std::vector<NodeId> leaves;
      std::uint16_t tt;
      double arrival;
    };
    std::vector<MergedCut> merged;
    for (NodeId m : drv_.choices->members(anchor)) {
      const CutSet& cs = cuts_[m];
      for (std::size_t i = 0; i < cs.size(); ++i) {
        CutSet::View cut = cs.cut(i);
        if (cut.leaves.size() == 1 && cut.leaves[0] == m) continue;  // trivial
        bool dup = false;
        for (const MergedCut& mc : merged)
          if (mc.tt == cut.tt && std::ranges::equal(mc.leaves, cut.leaves)) {
            dup = true;
            break;
          }
        if (dup) continue;
        double arrival = 0.0;
        for (NodeId leaf : cut.leaves)
          arrival = std::max(arrival, drv_.result.label[leaf]);
        merged.push_back({{cut.leaves.begin(), cut.leaves.end()}, cut.tt,
                          arrival});
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const MergedCut& a, const MergedCut& b) {
                if (a.arrival != b.arrival) return a.arrival < b.arrival;
                if (a.leaves.size() != b.leaves.size())
                  return a.leaves.size() < b.leaves.size();
                if (a.leaves != b.leaves) return a.leaves < b.leaves;
                return a.tt < b.tt;
              });
    if (merged.size() > params_.cut_count) merged.resize(params_.cut_count);
    CutSet out;
    for (const MergedCut& mc : merged) out.add(mc.leaves, mc.tt);
    const CutSet& old_anchor = cuts_[anchor];
    for (std::size_t i = 0; i < old_anchor.size(); ++i) {
      CutSet::View cut = old_anchor.cut(i);
      if (cut.leaves.size() == 1 && cut.leaves[0] == anchor)
        out.add(cut.leaves, cut.tt);  // the trivial self-cut, kept last
    }
    cuts_[anchor] = std::move(out);
  }

  MapDriver& drv_;
  const NpnLibraryIndex& npn_;
  PriorityCutParams params_;
  double inv_delay_;
  double inv_area_;
  const std::vector<std::uint32_t>& fanout_;
  std::vector<CutSet> cuts_;
  /// Area-flow estimate of each node's selected cover (cut-ranking
  /// input, frozen after labeling).
  std::vector<double> node_af_;
  CutRankInputs rank_;  ///< labels, node_af_, fanout_
  std::vector<WorkerState> workers_;
};

// Area-recovery rounds (abc-zz LutMap's n_rounds/delay_factor) over the
// stored round-0 candidates.
void run_area_rounds(MapDriver& drv, CutProvider& provider,
                     const CutMapOptions& options) {
  obs::Scope scope("rounds");
  const Network& subject = drv.subject;
  const Network& cnet = drv.endpoints();
  std::span<const NodeId> eval_order = drv.eval_order();
  const auto& fanout = subject.fanout_counts();
  const unsigned rounds = options.rounds;
  double target =
      drv.result.optimal_delay * std::max(1.0, options.delay_factor);
  // Reference counts: subject fanouts for the first area round, the
  // previous round's cover references afterwards.
  std::vector<std::uint32_t> refs(fanout.begin(), fanout.end());
  std::vector<double> area_flow(subject.size(), 0.0);
  std::vector<double> required(subject.size(), kInf);
  std::vector<std::uint8_t> rneeded(subject.size(), 0);
  // Candidate area plus the leaves' area flow amortized over the round's
  // reference counts; leaves as the cover will read them.
  auto candidate_af = [&](NodeId n, const auto& c) {
    double af = c.area;
    c.for_each_pin_leaf([&](NodeId leaf) {
      leaf = drv.priced_leaf(n, leaf);
      if (!subject.is_source(leaf))
        af += area_flow[leaf] / std::max<std::uint32_t>(1, refs[leaf]);
    });
    return af;
  };

  for (unsigned r = 1; r < rounds; ++r) {
    // Forward pass: minimum area flow over all candidates per node.
    drv.run_schedule(
        [&](NodeId n, unsigned worker) {
          double best = kInf;
          provider.for_each_candidate(n, worker, [&](const auto& c) {
            best = std::min(best, candidate_af(n, c));
          });
          area_flow[n] = best;
        },
        "rounds.area_flow");

    // Backward pass: needed nodes re-select the minimum-area-flow
    // candidate meeting their required time, then tighten the leaves'
    // required times.  The fastest candidate always qualifies (required
    // >= label holds inductively from target >= optimal), so the delay
    // bound survives every round.
    std::fill(required.begin(), required.end(), kInf);
    std::fill(rneeded.begin(), rneeded.end(), 0);
    auto endpoint = [&](NodeId n) {
      required[n] = std::min(required[n], target);
      if (!subject.is_source(n)) rneeded[n] = 1;
    };
    for (const Output& o : cnet.outputs()) endpoint(o.node);
    for (NodeId l : cnet.latches()) endpoint(cnet.fanins(l)[0]);

    std::uint64_t reselected = 0;
    for (auto it = eval_order.rbegin(); it != eval_order.rend(); ++it) {
      NodeId n = *it;
      if (!rneeded[n]) continue;
      double pick_af = kInf, pick_arrival = kInf, pick_area = kInf;
      const Gate* pick_gate = nullptr;
      bool have = false;
      Match pick;
      provider.for_each_candidate(n, 0, [&](const auto& c) {
        if (c.arrival > required[n] + kEps) return;
        double af = candidate_af(n, c);
        bool take = !have || af < pick_af - kEps;
        if (!take && af < pick_af + kEps) {
          take = c.arrival < pick_arrival - kEps;
          if (!take && c.arrival < pick_arrival + kEps)
            take = c.area < pick_area ||
                   (c.area == pick_area && pick_gate != nullptr &&
                    c.gate->name < pick_gate->name);
        }
        if (take) {
          have = true;
          pick_af = af;
          pick_arrival = c.arrival;
          pick_area = c.area;
          pick_gate = c.gate;
          c.materialize(pick);
        }
      });
      DAGMAP_ASSERT_MSG(have, "required time unreachable during an area round");
      if (drv.pricing) drv.pricing->rewrite(pick, n);
      ++reselected;
      for (std::size_t pin = 0; pin < pick.pin_binding.size(); ++pin) {
        NodeId leaf = pick.pin_binding[pin];
        double req = required[n] - pick.gate->pins[pin].delay();
        if (pick.output_negate) req -= provider.inv_delay();
        if ((pick.input_negate >> pin) & 1u) req -= provider.inv_delay();
        required[leaf] = std::min(required[leaf], req);
        if (!subject.is_source(leaf)) rneeded[leaf] = 1;
      }
      drv.chosen[n] = std::move(pick);
    }
    obs::counter_add("rounds.nodes_reselected", reselected);

    if (r + 1 < rounds) {
      std::fill(refs.begin(), refs.end(), 0);
      for (NodeId n = 0; n < subject.size(); ++n) {
        if (!rneeded[n]) continue;
        for (NodeId leaf : drv.chosen[n]->pin_binding) ++refs[leaf];
      }
    }
  }
}

MapResult cut_map_once(const Network& subject, const GateLibrary& lib,
                       const CutMapOptions& options,
                       const NpnLibraryIndex* npn) {
  MapDriver drv(subject, lib, options, "cut_map");
  // The NPN library index (boolmatch/npn_index.hpp): built per call
  // unless serve mode / the compiled-library cache passes one in.
  std::optional<NpnLibraryIndex> owned_npn;
  if (!npn) {
    obs::Scope scope("cutmap.npn_index");
    npn = &owned_npn.emplace(lib);
  }
  obs::counter_add("cutmap.npn_gates", npn->num_entries());

  CutProvider provider(drv, options, *npn);
  drv.label(provider);
  if (options.rounds > 1) run_area_rounds(drv, provider, options);
  drv.cover();
  return drv.finish();
}

}  // namespace

MapResult cut_map(const Network& subject, const GateLibrary& lib,
                  const CutMapOptions& options) {
  DAGMAP_ASSERT(options.cut_size >= 2 && options.cut_size <= kNpnMaxVars);
  DAGMAP_ASSERT(options.cut_count >= 1);
  // Load-aware rounds map against re-priced library copies.  The NPN
  // index holds Gate pointers into the *original* library, so re-priced
  // rounds rebuild it (gate functions are unchanged and delays do not
  // enter NPN canonization — the rebuilt index is identical).
  return run_mapping(lib, options, [&](const GateLibrary& round_lib) {
    return cut_map_once(subject, round_lib, options,
                        &round_lib == &lib ? options.npn_index : nullptr);
  });
}

}  // namespace dagmap
