// Integration tests: the complete flow (generate -> decompose -> map ->
// verify -> analyze) across circuits, libraries, mappers and options.
//
// These are the end-to-end guarantees a downstream user relies on:
//   * every mapping of every circuit with every library is functionally
//     equivalent to its subject graph;
//   * DAG covering never loses to tree covering in delay;
//   * reported optimal delay always equals the mapped netlist's timing;
//   * the flow is deterministic.
#include <gtest/gtest.h>

#include "dagmap/dagmap.hpp"
#include "decomp/choices.hpp"
#include "fanout/buffering.hpp"
#include "mapnet/write.hpp"

namespace dagmap {
namespace {

struct Libs {
  GateLibrary minimal = make_minimal_library();
  GateLibrary lib2 = make_lib2_library();
  GateLibrary l441 = make_44_library(1);
  GateLibrary l442 = make_44_library(2);

  std::vector<const GateLibrary*> all() const {
    return {&minimal, &lib2, &l441, &l442};
  }
};

const Libs& libs() {
  static Libs l;
  return l;
}

class FullFlow : public ::testing::TestWithParam<int> {};

TEST_P(FullFlow, EveryLibraryEveryMapperIsCorrect) {
  auto suite = make_small_suite();
  const auto& b = suite[GetParam()];
  Network sg = tech_decompose(b.network);
  for (const GateLibrary* lib : libs().all()) {
    MapResult tree = tree_map(sg, *lib);
    MapResult dag = dag_map(sg, *lib);
    EXPECT_TRUE(check_equivalence(sg, tree.netlist.to_network()).equivalent)
        << b.name << " tree " << lib->name();
    EXPECT_TRUE(check_equivalence(sg, dag.netlist.to_network()).equivalent)
        << b.name << " dag " << lib->name();
    EXPECT_LE(dag.optimal_delay, tree.optimal_delay + 1e-9)
        << b.name << " " << lib->name();
    EXPECT_NEAR(circuit_delay(dag.netlist), dag.optimal_delay, 1e-9)
        << b.name << " " << lib->name();
    EXPECT_NEAR(circuit_delay(tree.netlist), tree.optimal_delay, 1e-9)
        << b.name << " " << lib->name();
  }
}

TEST_P(FullFlow, OptionsPreserveCorrectness) {
  auto suite = make_small_suite();
  const auto& b = suite[GetParam()];
  Network sg = tech_decompose(b.network);
  const GateLibrary& lib = libs().lib2;

  DagMapOptions recover;
  recover.area_recovery = true;
  MapResult r1 = dag_map(sg, lib, recover);
  EXPECT_TRUE(check_equivalence(sg, r1.netlist.to_network()).equivalent);
  EXPECT_NEAR(circuit_delay(r1.netlist), r1.optimal_delay, 1e-9);

  DagMapOptions ext;
  ext.match_class = MatchClass::Extended;
  MapResult r2 = dag_map(sg, lib, ext);
  EXPECT_TRUE(check_equivalence(sg, r2.netlist.to_network()).equivalent);

  ChoiceDecomposition c = tech_decompose_choices(b.network);
  c.validate();
  MapResult r3 = dag_map(c.subject, lib, {{.choices = &c.classes}});
  EXPECT_TRUE(check_equivalence(b.network, r3.netlist.to_network()).equivalent);
  // Guaranteed dominance: same subject, choices off — the per-class
  // pricing only ever lowers a leaf price, never raises one.
  EXPECT_LE(r3.optimal_delay, dag_map(c.subject, lib).optimal_delay + 1e-9);
}

TEST_P(FullFlow, BufferingAndWritersCompose) {
  auto suite = make_small_suite();
  const auto& b = suite[GetParam()];
  Network sg = tech_decompose(b.network);
  const GateLibrary& lib = libs().lib2;
  MapResult r = dag_map(sg, lib);
  BufferResult buf = buffer_fanouts(r.netlist, lib, BufferOptions{3, {}});
  EXPECT_TRUE(check_equivalence(sg, buf.netlist.to_network()).equivalent);
  // Writers accept the buffered result.
  std::string blif = write_mapped_blif(buf.netlist);
  std::string verilog = write_mapped_verilog(buf.netlist);
  EXPECT_NE(blif.find(".gate"), std::string::npos);
  EXPECT_NE(verilog.find("endmodule"), std::string::npos);
}

TEST_P(FullFlow, DeterministicAcrossRuns) {
  auto suite = make_small_suite();
  const auto& b = suite[GetParam()];
  Network sg = tech_decompose(b.network);
  MapResult r1 = dag_map(sg, libs().lib2);
  MapResult r2 = dag_map(sg, libs().lib2);
  EXPECT_EQ(r1.optimal_delay, r2.optimal_delay);
  EXPECT_EQ(r1.netlist.total_area(), r2.netlist.total_area());
  EXPECT_EQ(write_mapped_blif(r1.netlist), write_mapped_blif(r2.netlist));
}

TEST_P(FullFlow, BlifRoundTripThenRemap) {
  // Write the subject as BLIF, read it back, re-map: same optimal delay.
  auto suite = make_small_suite();
  const auto& b = suite[GetParam()];
  Network sg = tech_decompose(b.network);
  Network back = parse_blif(write_blif(sg));
  Network sg2 = tech_decompose(back);
  MapResult r1 = dag_map(sg, libs().lib2);
  MapResult r2 = dag_map(sg2, libs().lib2);
  EXPECT_NEAR(r1.optimal_delay, r2.optimal_delay, 1e-9) << b.name;
}

TEST_P(FullFlow, FlowMapOnEverything) {
  auto suite = make_small_suite();
  const auto& b = suite[GetParam()];
  Network sg = tech_decompose(b.network);
  for (unsigned k : {4u, 6u}) {
    LutMapResult r = flowmap(sg, {.k = k});
    EXPECT_TRUE(check_equivalence(sg, r.netlist).equivalent)
        << b.name << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSuite, FullFlow, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return make_small_suite()[info.param].name;
                         });

// Randomized property sweep: random DAGs across seeds, every mapper must
// produce equivalent netlists and consistent delays.
class RandomFlow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFlow, MappersAgreeOnCorrectness) {
  Network src = make_random_dag(12, 120, 10, GetParam());
  Network sg = tech_decompose(src);
  const GateLibrary& lib = libs().lib2;
  MapResult dag = dag_map(sg, lib);
  MapResult tree = tree_map(sg, lib);
  EXPECT_TRUE(check_equivalence(sg, dag.netlist.to_network()).equivalent);
  EXPECT_TRUE(check_equivalence(sg, tree.netlist.to_network()).equivalent);
  EXPECT_LE(dag.optimal_delay, tree.optimal_delay + 1e-9);
  // Subject-graph decomposition preserved the source function too.
  EXPECT_TRUE(check_equivalence(src, sg).equivalent);
}

TEST_P(RandomFlow, AreaModesNeverBreakEquivalence) {
  Network src = make_random_dag(10, 80, 6, GetParam() * 31 + 7);
  Network sg = tech_decompose(src);
  TreeMapOptions area;
  area.objective = TreeMapObjective::Area;
  MapResult r = tree_map(sg, libs().lib2, area);
  EXPECT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent);
  DagMapOptions recover;
  recover.area_recovery = true;
  MapResult r2 = dag_map(sg, libs().lib2, recover);
  EXPECT_TRUE(check_equivalence(sg, r2.netlist.to_network()).equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlow,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(SuiteRoundTrip, EveryBenchmarkSurvivesBlif) {
  // The exported suite must be readable back and functionally identical
  // (regression for constant-node emission).
  for (const auto& b : make_iscas85_like_suite()) {
    Network back = parse_blif(write_blif(b.network));
    back.check();
    EXPECT_TRUE(check_equivalence(b.network, back).equivalent) << b.name;
  }
}

}  // namespace
}  // namespace dagmap
