// Self-mapping property: for every library gate, a subject graph built
// from the gate's own function must map back to (at most) that gate's
// delay — the end-to-end consistency of ISOP lowering, pattern
// generation and matching.  A failure here means a gate in the library
// can never be used where it should be.
#include <gtest/gtest.h>

#include "dagmap/dagmap.hpp"

namespace dagmap {
namespace {

// Builds a network whose single output computes `g`'s function from
// fresh primary inputs.
Network gate_as_network(const Gate& g) {
  Network n("self_" + g.name);
  std::vector<NodeId> ins;
  for (unsigned i = 0; i < g.num_inputs(); ++i)
    ins.push_back(n.add_input("i" + std::to_string(i)));
  n.add_output(n.add_logic(ins, g.function), "o");
  return n;
}

void check_self_map(const GateLibrary& lib) {
  for (const Gate& g : lib.gates()) {
    if (g.patterns.empty()) continue;  // buffers/constants
    Network src = gate_as_network(g);
    Network sg = tech_decompose(src);
    MapResult r = dag_map(sg, lib);
    // The mapping must be correct...
    ASSERT_TRUE(check_equivalence(sg, r.netlist.to_network()).equivalent)
        << g.name;
    // ...and no slower than the gate itself: the gate's pattern is built
    // by the same lowering as the subject graph, so it must match.
    EXPECT_LE(r.optimal_delay, g.max_pin_delay() + 1e-9)
        << g.name << " cannot cover its own function";
  }
}

TEST(GateSelfMap, Lib2) { check_self_map(make_lib2_library()); }

TEST(GateSelfMap, FortyFourOne) { check_self_map(make_44_library(1)); }

TEST(GateSelfMap, FortyFourTwo) { check_self_map(make_44_library(2)); }

// Tree mapping also self-maps single gates (a gate alone is one tree).
TEST(GateSelfMap, TreeMapperLib2) {
  GateLibrary lib = make_lib2_library();
  for (const Gate& g : lib.gates()) {
    if (g.patterns.empty()) continue;
    Network sg = tech_decompose(gate_as_network(g));
    MapResult r = tree_map(sg, lib);
    EXPECT_LE(r.optimal_delay, g.max_pin_delay() + 1e-9) << g.name;
  }
}

// Boolean matching is function-based: cut_map's NPN cut candidates
// self-map every <=4-input gate regardless of decomposition shape.
TEST(GateSelfMap, BoolMatchShapeIndependent) {
  GateLibrary lib = make_lib2_library();
  for (const Gate& g : lib.gates()) {
    if (g.patterns.empty() || g.num_inputs() > 4) continue;
    for (DecompShape shape : {DecompShape::Balanced, DecompShape::Chain}) {
      TechDecompOptions opt;
      opt.shape = shape;
      Network sg = tech_decompose(gate_as_network(g), opt);
      MapResult r = cut_map(sg, lib);
      EXPECT_LE(r.optimal_delay, g.max_pin_delay() + 1e-9)
          << g.name << " shape " << static_cast<int>(shape);
    }
  }
}

}  // namespace
}  // namespace dagmap
