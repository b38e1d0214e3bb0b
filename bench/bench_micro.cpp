// Microbenchmarks (google-benchmark): kernel throughput and the paper's
// O(s*p) complexity claim (§3.4) — mapping time should scale linearly in
// subject size for a fixed library and linearly in the library's pattern
// node count for a fixed subject.
#include <benchmark/benchmark.h>

#include "dagmap/dagmap.hpp"

namespace {

using namespace dagmap;

const Network& adder_subject(unsigned bits) {
  static std::map<unsigned, Network> cache;
  auto it = cache.find(bits);
  if (it == cache.end())
    it = cache.emplace(bits, tech_decompose(make_ripple_carry_adder(bits)))
             .first;
  return it->second;
}

const GateLibrary& lib2() {
  static GateLibrary lib = make_lib2_library();
  return lib;
}

void BM_TechDecompose(benchmark::State& state) {
  Network src = make_array_multiplier(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    Network sg = tech_decompose(src);
    benchmark::DoNotOptimize(sg.size());
  }
}
BENCHMARK(BM_TechDecompose)->Arg(4)->Arg(8)->Arg(16);

// §3.4: for a fixed library, labeling+cover is linear in subject size.
void BM_DagMapScalesWithSubject(benchmark::State& state) {
  const Network& sg = adder_subject(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    MapResult r = dag_map(sg, lib2());
    benchmark::DoNotOptimize(r.optimal_delay);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sg.num_internal()));
  state.counters["subject_nodes"] =
      static_cast<double>(sg.num_internal());
}
BENCHMARK(BM_DagMapScalesWithSubject)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// §3.4: for a fixed subject, mapping scales with total pattern nodes p.
void BM_DagMapScalesWithLibrary(benchmark::State& state) {
  const Network& sg = adder_subject(16);
  GateLibrary lib = make_44_library(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    MapResult r = dag_map(sg, lib);
    benchmark::DoNotOptimize(r.optimal_delay);
  }
  state.counters["pattern_nodes"] =
      static_cast<double>(lib.total_pattern_nodes());
}
BENCHMARK(BM_DagMapScalesWithLibrary)->Arg(1)->Arg(2)->Arg(3);

void BM_TreeMap(benchmark::State& state) {
  const Network& sg = adder_subject(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    MapResult r = tree_map(sg, lib2());
    benchmark::DoNotOptimize(r.optimal_delay);
  }
}
BENCHMARK(BM_TreeMap)->Arg(16)->Arg(64);

void BM_MatcherPerNode(benchmark::State& state) {
  const Network& sg = adder_subject(32);
  Matcher matcher(lib2(), sg);
  auto order = sg.topo_order();
  for (auto _ : state) {
    std::size_t total = 0;
    for (NodeId n : order) {
      if (sg.is_source(n)) continue;
      matcher.for_each_match(n, MatchClass::Standard,
                             [&](const MatchView&) { ++total; });
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_MatcherPerNode);

void BM_FlowMapLabeling(benchmark::State& state) {
  const Network& sg = adder_subject(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    LutMapResult r = flowmap(sg, {.k = 4});
    benchmark::DoNotOptimize(r.depth);
  }
}
BENCHMARK(BM_FlowMapLabeling)->Arg(8)->Arg(32);

void BM_Simulation64(benchmark::State& state) {
  const Network& sg = adder_subject(64);
  std::vector<std::uint64_t> in(sg.num_inputs(), 0xA5A5A5A5DEADBEEFull);
  for (auto _ : state) {
    auto out = simulate64(sg, in);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Simulation64);

// check_equivalence of a subject against its dag_map'd netlist.  The
// mapped side is all Logic nodes (MappedNetlist::to_network), the case
// BM_Simulation64's NAND2/INV subject never reaches.  Items are node
// evaluations: both networks, every simulated 64-vector word.
void BM_CheckEquivalenceMapped(benchmark::State& state) {
  const Network& sg = adder_subject(static_cast<unsigned>(state.range(0)));
  const Network mapped = dag_map(sg, lib2()).netlist.to_network();
  for (auto _ : state) {
    EquivalenceResult r = check_equivalence(sg, mapped);
    if (!r.equivalent) state.SkipWithError("mapped netlist not equivalent");
    benchmark::DoNotOptimize(r.equivalent);
  }
  // Default limits: exhaustive up to 14 sources, else 64 random rounds.
  const std::size_t sources = sg.num_inputs() + sg.num_latches();
  const std::int64_t words =
      sources > 14 ? 64
                   : std::max<std::int64_t>(1, (std::int64_t{1} << sources) / 64);
  state.SetItemsProcessed(state.iterations() * words *
                          static_cast<std::int64_t>(sg.size() + mapped.size()));
}
BENCHMARK(BM_CheckEquivalenceMapped)->Arg(6)->Arg(64);

void BM_Isop(benchmark::State& state) {
  TruthTable f(static_cast<unsigned>(state.range(0)));
  std::uint64_t s = 0x1234;
  for (std::size_t m = 0; m < f.num_minterms(); ++m) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    f.set_bit(m, (s >> 60) & 1);
  }
  for (auto _ : state) {
    auto cover = compute_isop(f);
    benchmark::DoNotOptimize(cover.size());
  }
}
BENCHMARK(BM_Isop)->Arg(6)->Arg(10)->Arg(12);

void BM_Retiming(benchmark::State& state) {
  Network sg = tech_decompose(make_sequential_pipeline(6, 12, 7));
  for (auto _ : state) {
    double p = 0;
    Network rt = retime_min_period(sg, &p);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_Retiming);

}  // namespace

BENCHMARK_MAIN();
