#include "lutmap/flowmap.hpp"

#include "cutmap/cuts.hpp"

#include <algorithm>
#include <unordered_map>

#include "netlist/assert.hpp"

namespace dagmap {

namespace {

// ---------------------------------------------------------------------
// Max-flow engine: the authentic FlowMap labeling.
// ---------------------------------------------------------------------

// Dinic-free simple BFS augmenting-path max-flow on a small cone graph
// with unit node capacities (node splitting).  Flow never needs to
// exceed k+1, so at most k+2 augmentations run.
class ConeFlow {
 public:
  // Flow node ids: 2*i = in-half of cone node i, 2*i+1 = out-half;
  // S = 2*n, T = 2*n+1.
  explicit ConeFlow(std::size_t cone_size)
      : n_(cone_size), adj_(2 * cone_size + 2) {}

  int source() const { return static_cast<int>(2 * n_); }
  int sink() const { return static_cast<int>(2 * n_ + 1); }
  int in_half(int i) const { return 2 * i; }
  int out_half(int i) const { return 2 * i + 1; }

  void add_edge(int from, int to, int cap) {
    adj_[from].push_back({to, cap, static_cast<int>(adj_[to].size())});
    adj_[to].push_back({from, 0, static_cast<int>(adj_[from].size()) - 1});
  }

  /// Runs augmenting paths until flow exceeds `limit` (returns limit+1)
  /// or no augmenting path remains (returns the max flow).
  int max_flow_capped(int limit) {
    int flow = 0;
    while (flow <= limit) {
      if (!bfs_augment()) break;
      ++flow;
    }
    return flow;
  }

  /// After max_flow_capped: nodes reachable from S in the residual graph.
  std::vector<bool> residual_reachable() {
    std::vector<bool> seen(adj_.size(), false);
    std::vector<int> stack{source()};
    seen[source()] = true;
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      for (const Edge& e : adj_[u])
        if (e.cap > 0 && !seen[e.to]) {
          seen[e.to] = true;
          stack.push_back(e.to);
        }
    }
    return seen;
  }

 private:
  struct Edge {
    int to;
    int cap;
    int rev;
  };

  bool bfs_augment() {
    // BFS to the sink recording the incoming edge, then retrace.
    std::vector<std::pair<int, int>> parent(adj_.size(), {-1, -1});
    std::vector<int> queue{source()};
    parent[source()] = {source(), -1};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      int u = queue[head];
      for (std::size_t ei = 0; ei < adj_[u].size(); ++ei) {
        const Edge& e = adj_[u][ei];
        if (e.cap <= 0 || parent[e.to].first != -1) continue;
        parent[e.to] = {u, static_cast<int>(ei)};
        if (e.to == sink()) {
          // Retrace and push one unit.
          int v = sink();
          while (v != source()) {
            auto [pu, pei] = parent[v];
            Edge& fwd = adj_[pu][pei];
            fwd.cap -= 1;
            adj_[fwd.to][fwd.rev].cap += 1;
            v = pu;
          }
          return true;
        }
        queue.push_back(e.to);
      }
    }
    return false;
  }

  std::size_t n_;
  std::vector<std::vector<Edge>> adj_;
};

constexpr int kInfCap = 1 << 28;

// Computes label(t) and its best cut with the collapse-and-flow test.
// `label` holds final labels of all nodes earlier in topological order.
std::pair<unsigned, Cut> flow_label_node(const Network& net, NodeId t,
                                         const std::vector<unsigned>& label,
                                         unsigned k) {
  auto fanins = net.fanins(t);
  unsigned p = 0;
  for (NodeId f : fanins) p = std::max(p, label[f]);
  if (p == 0) {
    // All cone nodes below t are sources; the fanins are a k-feasible cut
    // (the network is k-bounded).
    return {1, Cut(fanins.begin(), fanins.end())};
  }

  // Collect the cone (transitive fanin of t, inclusive).
  std::vector<NodeId> cone = net.transitive_fanin(t);
  std::unordered_map<NodeId, int> local;
  local.reserve(cone.size());
  for (std::size_t i = 0; i < cone.size(); ++i)
    local.emplace(cone[i], static_cast<int>(i));

  // Build the split-node flow graph.  Nodes with label == p and t itself
  // collapse into the sink; sources attach to the super-source but keep
  // their unit-capacity split edge so they can appear in the cut.
  ConeFlow flow(cone.size());
  auto collapsed = [&](NodeId u) { return u == t || label[u] == p; };
  for (std::size_t i = 0; i < cone.size(); ++i) {
    NodeId u = cone[i];
    if (collapsed(u)) continue;
    flow.add_edge(flow.in_half(static_cast<int>(i)),
                  flow.out_half(static_cast<int>(i)), 1);
    if (net.is_source(u))
      flow.add_edge(flow.source(), flow.in_half(static_cast<int>(i)),
                    kInfCap);
  }
  for (std::size_t i = 0; i < cone.size(); ++i) {
    NodeId u = cone[i];
    if (net.is_source(u)) continue;
    int u_in = collapsed(u) ? flow.sink() : flow.in_half(static_cast<int>(i));
    for (NodeId v : net.fanins(u)) {
      auto it = local.find(v);
      DAGMAP_ASSERT(it != local.end());
      if (collapsed(v)) continue;  // edges within the collapsed set
      flow.add_edge(flow.out_half(it->second), u_in, kInfCap);
    }
  }

  int f = flow.max_flow_capped(static_cast<int>(k));
  if (f > static_cast<int>(k)) {
    // p not achievable: label is p+1 and the fanins are a valid cut
    // realizing it (every fanin label <= p).
    return {p + 1, Cut(fanins.begin(), fanins.end())};
  }

  // Min cut: cone nodes whose split edge crosses the residual frontier.
  auto reach = flow.residual_reachable();
  Cut cut;
  for (std::size_t i = 0; i < cone.size(); ++i) {
    NodeId u = cone[i];
    if (collapsed(u)) continue;
    if (reach[flow.in_half(static_cast<int>(i))] &&
        !reach[flow.out_half(static_cast<int>(i))])
      cut.push_back(u);
  }
  DAGMAP_ASSERT_MSG(cut.size() <= k && !cut.empty(),
                    "flow min-cut extraction failed");
  std::sort(cut.begin(), cut.end());
  return {p, cut};
}

// ---------------------------------------------------------------------
// Cover construction.
// ---------------------------------------------------------------------

}  // namespace

LutMapResult flowmap(const Network& input, const LutMapOptions& options) {
  DAGMAP_ASSERT_MSG(options.k >= 2 && options.k <= 8, "k must be in 2..8");
  DAGMAP_ASSERT_MSG(input.is_k_bounded(options.k),
                    "input network is not k-bounded");

  if (options.area_recovery && !options.recovery_guard_) {
    // The area-flow heuristic can occasionally lose to the plain depth
    // cover; build both and keep the smaller one (same optimal depth).
    LutMapOptions plain = options;
    plain.area_recovery = false;
    plain.algorithm = LutMapOptions::Algorithm::CutEnum;
    LutMapOptions recover = options;
    recover.recovery_guard_ = true;
    LutMapResult a = flowmap(input, plain);
    LutMapResult b = flowmap(input, recover);
    DAGMAP_ASSERT(a.depth == b.depth);
    return b.num_luts <= a.num_luts ? std::move(b) : std::move(a);
  }
  bool run_recovery = options.recovery_guard_;

  LutMapResult result;
  result.label.assign(input.size(), 0);
  std::vector<Cut> best_cut(input.size());

  bool need_all_cuts =
      run_recovery || options.algorithm == LutMapOptions::Algorithm::CutEnum;
  std::vector<std::vector<Cut>> cuts;
  if (need_all_cuts) {
    cuts = enumerate_cuts(input, options.k);
    for (NodeId n : input.topo_order()) {
      if (input.is_source(n)) continue;
      unsigned best = ~0u;
      for (const Cut& c : cuts[n]) {
        if (c.size() == 1 && c[0] == n) continue;  // trivial cut
        unsigned h = 0;
        for (NodeId x : c) h = std::max(h, result.label[x]);
        if (h + 1 < best) {
          best = h + 1;
          best_cut[n] = c;
        }
      }
      DAGMAP_ASSERT(best != ~0u);
      result.label[n] = best;
    }
  } else {
    for (NodeId n : input.topo_order()) {
      if (input.is_source(n)) continue;
      auto [lbl, cut] = flow_label_node(input, n, result.label, options.k);
      result.label[n] = lbl;
      best_cut[n] = std::move(cut);
    }
  }

  for (const Output& o : input.outputs())
    result.depth = std::max(result.depth, result.label[o.node]);
  for (NodeId l : input.latches())
    result.depth = std::max(result.depth, result.label[input.fanins(l)[0]]);

  if (run_recovery) {
    // Area flow (one LUT = one area unit), amortized over fanout.
    const auto& fanout = input.fanout_counts();
    std::vector<double> area_flow(input.size(), 0.0);
    auto cut_area_flow = [&](const Cut& c) {
      double af = 1.0;
      for (NodeId x : c)
        if (!input.is_source(x))
          af += area_flow[x] / std::max<std::uint32_t>(1, fanout[x]);
      return af;
    };
    const auto& order = input.topo_order();
    for (NodeId n : order) {
      if (input.is_source(n)) continue;
      double best = 1e300;
      for (const Cut& c : cuts[n]) {
        if (c.size() == 1 && c[0] == n) continue;
        best = std::min(best, cut_area_flow(c));
      }
      area_flow[n] = best;
    }
    // Required-depth pass: pick the cheapest cut that still meets each
    // needed node's depth budget.
    std::vector<unsigned> required(input.size(), ~0u);
    std::vector<bool> needed(input.size(), false);
    auto endpoint = [&](NodeId n) {
      required[n] = std::min(required[n], result.depth);
      if (!input.is_source(n)) needed[n] = true;
    };
    for (const Output& o : input.outputs()) endpoint(o.node);
    for (NodeId l : input.latches()) endpoint(input.fanins(l)[0]);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeId n = *it;
      if (!needed[n]) continue;
      const Cut* pick = nullptr;
      double pick_af = 1e300;
      for (const Cut& c : cuts[n]) {
        if (c.size() == 1 && c[0] == n) continue;
        unsigned h = 0;
        for (NodeId x : c) h = std::max(h, result.label[x]);
        if (h + 1 > required[n]) continue;
        double af = cut_area_flow(c);
        if (af < pick_af) {
          pick_af = af;
          pick = &c;
        }
      }
      DAGMAP_ASSERT_MSG(pick != nullptr, "depth budget unreachable");
      best_cut[n] = *pick;
      for (NodeId x : *pick) {
        if (input.is_source(x)) continue;
        required[x] = std::min(required[x], required[n] - 1);
        needed[x] = true;
      }
    }
  }

  // Backward queue pass: one LUT per needed node over its best cut.
  Network out(input.name());
  std::vector<NodeId> map(input.size(), kNullNode);
  for (NodeId pi : input.inputs()) map[pi] = out.add_input(input.name(pi));
  for (NodeId l : input.latches())
    map[l] = out.add_latch_placeholder(input.name(l));

  std::vector<NodeId> stack;
  auto require = [&](NodeId n) {
    if (map[n] == kNullNode) stack.push_back(n);
  };
  for (const Output& o : input.outputs()) require(o.node);
  for (NodeId l : input.latches()) require(input.fanins(l)[0]);

  while (!stack.empty()) {
    NodeId n = stack.back();
    if (map[n] != kNullNode) {
      stack.pop_back();
      continue;
    }
    if (input.kind(n) == NodeKind::Const0 || input.kind(n) == NodeKind::Const1) {
      map[n] = out.add_constant(input.kind(n) == NodeKind::Const1);
      stack.pop_back();
      continue;
    }
    const Cut& cut = best_cut[n];
    DAGMAP_ASSERT(!cut.empty());
    bool ready = true;
    for (NodeId x : cut)
      if (map[x] == kNullNode) {
        ready = false;
        stack.push_back(x);
      }
    if (!ready) continue;
    stack.pop_back();
    std::vector<NodeId> fanins;
    fanins.reserve(cut.size());
    for (NodeId x : cut) fanins.push_back(map[x]);
    map[n] = out.add_logic(std::move(fanins), cone_function(input, n, cut),
                           input.name(n));
    ++result.num_luts;
  }

  for (std::size_t i = 0; i < input.latches().size(); ++i) {
    NodeId l = input.latches()[i];
    out.connect_latch(map[l], map[input.fanins(l)[0]]);
  }
  for (const Output& o : input.outputs()) out.add_output(map[o.node], o.name);
  out.check();
  result.netlist = std::move(out);
  return result;
}

}  // namespace dagmap
