// Advanced mapping flows: everything beyond the basic dag_map call on
// one circuit — decomposition choices, target-delay
// relaxation, and the duplication statistics behind the paper's §3.5.
//
//   $ ./advanced_mapping [circuit.blif]
#include <cstdio>

#include "core/stats.hpp"
#include "decomp/choices.hpp"
#include "dagmap/dagmap.hpp"

using namespace dagmap;

int main(int argc, char** argv) {
  Network circuit =
      argc > 1 ? read_blif_file(argv[1]) : make_hamming_decoder(16);
  GateLibrary lib = make_lib2_library();
  std::printf("circuit %s (%zu nodes), library %s\n", circuit.name().c_str(),
              circuit.size(), lib.name().c_str());

  Network sg = tech_decompose(circuit);

  // 1. Three mappers, one subject.
  MapResult tree = tree_map(sg, lib);
  MapResult dag = dag_map(sg, lib);
  ChoiceDecomposition choices = tech_decompose_choices(circuit);
  MapResult choice =
      dag_map(choices.subject, lib, {{.choices = &choices.classes}});

  std::printf("\n%-22s %10s %10s %8s\n", "mapper", "delay", "area", "gates");
  auto row = [&](const char* name, const MapResult& r) {
    std::printf("%-22s %10.2f %10.0f %8zu\n", name, r.optimal_delay,
                r.netlist.total_area(), r.netlist.num_gates());
  };
  row("tree covering", tree);
  row("DAG covering", dag);
  row("DAG + choices", choice);

  // 2. The §3.5 mechanics: what DAG covering duplicated.
  MappingStats ds = mapping_stats(sg, dag.netlist);
  std::printf("\nduplication: %zu of %zu covered subject nodes implemented "
              ">1x\n",
              dag.duplicated_nodes, dag.covered_distinct);
  std::printf("multi-fanout points: %zu in subject, %zu in mapping\n",
              ds.subject_multi_fanout, ds.mapped_multi_fanout);
  std::printf("average gate fan-in: %.2f (tree: %.2f)\n",
              ds.average_gate_inputs(),
              mapping_stats(sg, tree.netlist).average_gate_inputs());

  // 3. Target-delay relaxation (§6): buy area back with delay slack.
  std::printf("\narea/delay trade-off:\n  %8s %10s %10s\n", "target",
              "delay", "area");
  for (double f : {1.0, 1.1, 1.25}) {
    DagMapOptions opt;
    opt.area_recovery = true;
    opt.target_delay = dag.optimal_delay * f;
    MapResult r = dag_map(sg, lib, opt);
    std::printf("  %7.2fx %10.2f %10.0f\n", f, circuit_delay(r.netlist),
                r.netlist.total_area());
  }

  // 4. Everything is verified.
  bool ok = true;
  for (const MapResult* r : {&tree, &dag})
    ok = ok && check_equivalence(sg, r->netlist.to_network()).equivalent;
  ok = ok && check_equivalence(circuit, choice.netlist.to_network()).equivalent;
  std::printf("\nall mappings verified: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
