#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "io/blif.hpp"
#include "mapnet/write.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace dagmap;

namespace {

// The check the CLI's --verify runs (check_equivalence's defaults),
// passed explicitly so the vector count below follows it.
constexpr unsigned kExhaustiveLimit = 14;
constexpr unsigned kRandomRounds = 64;

/// 64-bit simulation words per node for a pair with `sources`
/// combinational sources: every vector when exhaustive (at least one
/// word), else kRandomRounds words.
double simulated_words(std::size_t sources) {
  if (sources > kExhaustiveLimit) return kRandomRounds;
  return std::max(1.0, std::ldexp(1.0, static_cast<int>(sources)) / 64);
}

}  // namespace

Network parse_blif_traced(const std::string& text) {
  Span span("io.parse_blif");
  return parse_blif(text);
}

Subject decompose_traced(const Network& circuit, bool choices) {
  Subject s;
  if (choices) {
    {
      Span span("decomp.tech_decompose_choices");
      s.choice = tech_decompose_choices(circuit);
    }
    Span span("decomp.validate");
    s.choice->validate();
  } else {
    Span span("decomp.tech_decompose");
    s.single = tech_decompose(circuit);
  }
  return s;
}

MapResult map_traced(const Subject& subject, const MapConfig& config,
                     const CompiledLibrary& lib, unsigned threads,
                     const NpnLibraryIndex* npn) {
  const bool profile = Tracer::get().on();
  const char* name = config.cuts ? "cutmap.cut_map" : "core.dag_map";
  const PartitionMode schedule =
      config.partition ? PartitionMode::On : PartitionMode::Auto;
  Span span(name);
  MapResult r;
  if (config.cuts) {
    CutMapOptions o;
    o.num_threads = threads;
    o.partition_mode = schedule;
    o.pattern_index = &lib.index;
    o.npn_index = npn;
    o.choices = subject.classes();
    o.profile = profile;
    r = cut_map(subject.graph(), lib.library, o);
  } else {
    DagMapOptions o;
    o.num_threads = threads;
    o.partition_mode = schedule;
    o.pattern_index = &lib.index;
    o.choices = subject.classes();
    o.profile = profile;
    r = dag_map(subject.graph(), lib.library, o);
  }
  span.end();
  Tracer::get().attach_profile(span.index(), r.profile, name);
  return r;
}

std::string write_traced(const MappedNetlist& net) {
  Span span("io.write_mapped_blif");
  return write_mapped_blif(net);
}

std::uint64_t hash_traced(const MappedNetlist& net) {
  Span span("mapnet.structural_hash");
  return net.structural_hash();
}

VerifyResult verify_traced(const Network& circuit, const MappedNetlist& net) {
  VerifyResult v;
  double t0 = now_s();
  Network mapped = [&] {
    Span span("mapnet.to_network");
    return net.to_network();
  }();
  {
    Span span("sim.check_equivalence");
    v.equivalent =
        check_equivalence(circuit, mapped, kExhaustiveLimit, kRandomRounds)
            .equivalent;
  }
  v.seconds = now_s() - t0;
  double words = simulated_words(circuit.num_inputs() + circuit.num_latches());
  v.work = words * static_cast<double>(circuit.size() + mapped.size());
  return v;
}

// ---- per-layer attribution -------------------------------------------

void LayerTally::add_map(const dagmap::MapResult& r, bool cuts) {
  match_attempts += static_cast<double>(r.match_attempts);
  match_prunes += static_cast<double>(r.match_prunes);
  match_enumerated += static_cast<double>(r.matches_enumerated);
  partitions += static_cast<double>(r.num_partitions);
  partition_waves += static_cast<double>(r.partition_waves);
  partition_max_nodes = std::max(partition_max_nodes,
                                 static_cast<double>(r.partition_max_nodes));
  covered_instances += static_cast<double>(r.covered_instances);
  covered_distinct += static_cast<double>(r.covered_distinct);
  choice_classes += static_cast<double>(r.choice_classes);
  choice_variants += static_cast<double>(r.choice_variants);
  choice_wins += static_cast<double>(r.choice_wins);
  gates += static_cast<double>(r.netlist.num_gates());
  if (cuts) {
    auto counter = [&](const char* name) {
      auto it = r.profile.counters.find(name);
      return it == r.profile.counters.end() ? 0.0
                                            : static_cast<double>(it->second);
    };
    cut_count += counter("cutmap.cuts");
    cut_bytes += counter("cutmap.cut_bytes");
  }
}

void fill_per_layer(Outcome& out, const LayerTally& t,
                    const std::vector<int>& roots, int pass,
                    double overhead_frac) {
  std::map<std::string, double> tot;
  for (int root : roots)
    for (const auto& [name, s] : Tracer::get().totals(root)) tot[name] += s;
  auto T = [&](const std::string& name) {
    auto it = tot.find(name);
    return it == tot.end() ? 0.0 : it->second;
  };
  auto phases_of = [&](const std::string& call) {
    double sum = 0.0;
    for (const auto& [name, s] : tot)
      if (name.rfind(call + "/", 0) == 0) sum += s;
    return sum;
  };
  auto unattributed = [&](const std::string& call) {
    double outer = T(call);
    return outer > 0 ? 1.0 - phases_of(call) / outer : 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::map<std::string, double>& m = out.per_layer;
  m["io.parse_s"] = T("io.parse_blif");
  m["io.write_s"] = T("io.write_mapped_blif");
  m["io.blif_bytes"] = t.blif_bytes;
  m["decomp.decompose_s"] = T("decomp.tech_decompose");
  m["decomp.subject_nodes"] = t.subject_nodes;
  m["decomp.choices_s"] =
      T("decomp.tech_decompose_choices") + T("decomp.validate");
  m["decomp.choice_classes"] = t.choice_classes;
  m["decomp.choice_variants"] = t.choice_variants;
  m["match.build_s"] =
      T("core.dag_map/match.build") + T("cutmap.cut_map/match.build");
  m["match.attempts"] = t.match_attempts;
  m["match.prunes"] = t.match_prunes;
  m["match.enumerated"] = t.match_enumerated;
  m["match.prune_ratio"] =
      ratio(t.match_prunes, t.match_prunes + t.match_attempts);
  m["core.dag_map_s"] = T("core.dag_map");
  m["core.label_s"] = T("core.dag_map/label");
  m["core.cover_s"] = T("core.dag_map/cover");
  m["core.partition_build_s"] =
      T("core.dag_map/partition.build") + T("cutmap.cut_map/partition.build");
  m["core.partitions"] = t.partitions;
  m["core.partition_waves"] = t.partition_waves;
  m["core.partition_max_nodes"] = t.partition_max_nodes;
  m["core.dup_ratio"] = ratio(t.covered_instances, t.covered_distinct);
  m["core.choice_wins"] = t.choice_wins;
  m["core.unattributed_frac"] = unattributed("core.dag_map");
  m["cutmap.cut_map_s"] = T("cutmap.cut_map");
  m["cutmap.label_s"] = T("cutmap.cut_map/label");
  m["cutmap.cover_s"] = T("cutmap.cut_map/cover");
  m["cutmap.npn_index_s"] = T("cutmap.cut_map/cutmap.npn_index");
  m["cutmap.cuts"] = t.cut_count;
  m["cutmap.cut_bytes"] = t.cut_bytes;
  m["cutmap.unattributed_frac"] = unattributed("cutmap.cut_map");
  m["libcache.compile_s"] =
      T("libcache.compile_library") + T("libcache.registry_get");
  m["libcache.npn_index_s"] = T("libcache.npn_index_from_compiled");
  m["libcache.registry_hits"] = t.registry_hits;
  m["libcache.registry_misses"] = t.registry_misses;
  m["mapnet.gates"] = t.gates;
  m["mapnet.to_network_s"] = T("mapnet.to_network");
  m["sim.check_s"] = T("sim.check_equivalence");
  m["sim.node_evals_per_s"] = ratio(t.sim_work, T("sim.check_equivalence"));
  m["serve.batches"] = t.batches;
  m["serve.mean_batch"] = ratio(t.requests, t.batches);
  m["serve.solo_p50_ms"] = t.solo_p50_ms;
  m["obs.trace_overhead_frac"] = overhead_frac;
  m["obs.span_coverage"] = Tracer::get().coverage(pass);
}

}  // namespace perfbench
