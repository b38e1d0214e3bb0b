#include "core/map_driver.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "dagmap/load_rounds.hpp"
#include "mapnet/cover.hpp"

namespace dagmap {

namespace {

std::chrono::steady_clock::time_point check_contract(const Network& subject,
                                                     const GateLibrary& lib,
                                                     const char* backend) {
  auto t0 = std::chrono::steady_clock::now();
  DAGMAP_ASSERT_MSG(subject.is_subject_graph(),
                    std::string(backend) +
                        " requires a NAND2/INV subject graph");
  DAGMAP_ASSERT_MSG(lib.is_complete_for_mapping(),
                    "library must contain INV and NAND2");
  return t0;
}

}  // namespace

MapResult run_mapping(
    const GateLibrary& lib, const MapOptions& options,
    const std::function<MapResult(const GateLibrary&)>& map_once) {
  // Own a profiling session unless the caller (CLI, bench harness)
  // already has one spanning a wider pipeline.
  bool own_session = options.profile && !obs::enabled();
  if (own_session) obs::start();
  MapResult r = options.load_rounds > 0
                    ? map_with_load_rounds(lib, options.load_rounds,
                                           options.load_model,
                                           MapOptions::epsilon, map_once)
                    : map_once(lib);
  if (options.profile) {
    if (own_session) obs::stop();
    r.profile = obs::collect();
  }
  return r;
}

MapDriver::MapDriver(const Network& subject, const GateLibrary& lib,
                     const MapOptions& options, const char* backend)
    : t0_(check_contract(subject, lib, backend)),
      subject(subject),
      lib(lib),
      options(options),
      matcher([&] {
        obs::Scope scope("match.build");
        return Matcher(lib, subject,
                       {.use_signature_index = MapOptions::use_signature_index},
                       options.pattern_index);
      }()),
      chosen(subject.size()),
      pool_(resolve_num_threads(options.num_threads)),
      workers_(pool_.num_workers()) {
  obs::counter_add("library.patterns", lib.total_patterns());
  result.label.assign(subject.size(), 0.0);

  // Choice-aware leaf pricing: constructed only for an active
  // annotation, so the unannotated flow never touches the hook and stays
  // bit-identical to the historical mapper.
  if (options.choices && options.choices->active()) {
    choices = options.choices;
    pricing.emplace(subject, *choices, result.label);
  }

  // Schedule selection: monolithic depth wavefronts, or the partitioned
  // pipeline (fanout-free windows labeled wave-by-wave with boundary
  // arrival-time exchange).  Both visit every node with all candidate-
  // leaf labels settled, so results are identical.
  bool use_partitions =
      options.partition_mode == PartitionMode::On ||
      (options.partition_mode == PartitionMode::Auto &&
       subject.num_internal() >= options.partition_auto_threshold);
  if (use_partitions) {
    parts_ = partition_subject(
        subject, {.window_size = options.partition_window, .choices = choices});
    result.partitioned = true;
    result.num_partitions = parts_->num_partitions();
    result.partition_waves = parts_->num_waves();
    result.partition_boundary_edges = parts_->boundary_edges();
    result.partition_max_nodes = parts_->max_partition_nodes();
  } else if (choices) {
    // Choice subjects level over the augmented edges of the
    // anchor-scheduling contract, so every class fold completes a wave
    // before its first per-class reader.
    waves_ = choice_wavefronts(subject, *choices);
  } else {
    // Every leaf of a candidate rooted at level L is a strict transitive
    // fanin (level < L), so one level's nodes read only finished labels
    // and label independently.
    std::vector<std::uint32_t> level(subject.size(), 0);
    std::uint32_t max_level = 0;
    for (NodeId n : subject.topo_order()) {
      if (subject.is_source(n)) continue;
      std::uint32_t l = 0;
      for (NodeId f : subject.fanins(n)) l = std::max(l, level[f]);
      level[n] = l + 1;
      max_level = std::max(max_level, level[n]);
    }
    waves_.resize(max_level + 1);
    for (NodeId n : subject.topo_order())
      if (!subject.is_source(n)) waves_[level[n]].push_back(n);
  }
}

void MapDriver::tally_labeling() {
  for (const WorkerState& w : workers_)
    result.matches_enumerated += w.enumerated;
  result.match_attempts = matcher.attempts();
  result.match_prunes = matcher.pruned();
  result.truncations = matcher.truncations();
  if (obs::enabled()) {
    obs::counter_add("label.waves",
                     parts_ ? parts_->num_waves() : waves_.size());
    obs::counter_add("label.nodes", subject.num_internal());
    obs::counter_add("match.enumerated", result.matches_enumerated);
    obs::counter_add("match.index_misses", result.match_attempts);
    obs::counter_add("match.index_hits", result.match_prunes);
    obs::counter_add("match.truncations", result.truncations);
  }
}

void MapDriver::settle_endpoints() {
  if (pricing) {
    redirected_ = pricing->redirect_endpoints(subject);
    id_order_.resize(subject.size());
    std::iota(id_order_.begin(), id_order_.end(), NodeId{0});
    eval_order_ = id_order_;
  } else {
    eval_order_ = subject.topo_order();
  }
  const Network& cnet = endpoints();
  for (const Output& o : cnet.outputs())
    result.optimal_delay = std::max(result.optimal_delay, result.label[o.node]);
  for (NodeId l : cnet.latches())
    result.optimal_delay =
        std::max(result.optimal_delay, result.label[cnet.fanins(l)[0]]);
}

void MapDriver::cover() {
  // Needed-instance marking (partition-parallel when the partitioned
  // schedule ran), then the sequential forward-topological emission —
  // identical instance order in both modes by construction.
  const Network& cnet = endpoints();
  std::vector<std::uint8_t> needed;
  {
    obs::Scope scope("cover");
    {
      obs::Scope mark_scope("cover.mark");
      needed = parts_ ? mark_cover_partitioned(cnet, chosen, *parts_, pool_)
                      : mark_cover(cnet, chosen, eval_order_);
    }
    result.netlist = emit_cover(cnet, chosen, needed, {}, lib.inverter());
  }

  // Duplication accounting (§3.5): walk the used selections (the marked
  // internal nodes — the same reachability as the cover) and count how
  // often each subject node is covered.
  {
    obs::Scope scope("stats");
    std::vector<std::uint32_t> covered_count(subject.size(), 0);
    std::vector<NodeId> walk;
    for (NodeId n = 0; n < subject.size(); ++n) {
      if (!needed[n] || subject.is_source(n)) continue;
      Match& m = *chosen[n];
      if (m.covered.empty()) {
        // NPN matches carry no covered list; derive one by walking the
        // cone from the root down to the pin leaves.  Support-reduced
        // cuts can expose structurally large vacuous cones, so the walk
        // is capped — this feeds statistics only, never the cover.
        walk.assign(1, n);
        while (!walk.empty() && m.covered.size() < 256) {
          NodeId u = walk.back();
          walk.pop_back();
          if (std::find(m.covered.begin(), m.covered.end(), u) !=
              m.covered.end())
            continue;
          m.covered.push_back(u);
          for (NodeId f : subject.fanins(u)) {
            if (subject.is_source(f)) continue;
            if (std::find(m.pin_binding.begin(), m.pin_binding.end(), f) ==
                m.pin_binding.end())
              walk.push_back(f);
          }
        }
      }
      for (NodeId c : m.covered) ++covered_count[c];
    }
    for (NodeId n = 0; n < subject.size(); ++n) {
      if (covered_count[n] == 0) continue;
      result.covered_instances += covered_count[n];
      ++result.covered_distinct;
      if (covered_count[n] >= 2) ++result.duplicated_nodes;
    }
    obs::counter_add("cover.nodes_duplicated", result.duplicated_nodes);
    obs::counter_add("cover.covered_instances", result.covered_instances);
  }

  if (pricing) {
    result.choice_classes = pricing->num_classes();
    result.choice_variants = pricing->num_variants();
    result.choice_wins = pricing->num_wins();
    obs::counter_add("choices.classes", result.choice_classes);
    obs::counter_add("choices.variants", result.choice_variants);
    obs::counter_add("choices.wins", result.choice_wins);
  }
}

MapResult MapDriver::finish() {
  result.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  return std::move(result);
}

}  // namespace dagmap
