// dagmap_verify — combinational equivalence checker for BLIF netlists.
//
//   $ dagmap_verify golden.blif revised.blif
//   $ dagmap_verify --library lib.genlib golden.blif mapped.blif
//
// With --library, the second file is read as *mapped* BLIF (.gate
// statements resolved against the library).  Add --supergates[=depth]
// to augment that library with generated supergates first (depth
// defaults to 2), so netlists produced by `dagmap_cli --supergates`
// resolve their supergate instances.  Interfaces must match by
// PI/PO names and order; a mismatch is reported as a usage error
// naming the first differing index.  Sequential circuits are compared
// combinationally (latch outputs as inputs, latch D as outputs), which
// is the invariant technology mapping must preserve.  Exit code: 0
// equivalent, 1 not, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <string>

#include "dagmap/dagmap.hpp"
#include "mapnet/write.hpp"
#include "supergate/supergate.hpp"

using namespace dagmap;

int main(int argc, char** argv) try {
  std::string library_path;
  unsigned supergate_depth = 0;  // 0 = off; --supergates defaults to 2
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--library") {
      if (++i >= argc) {
        std::fprintf(stderr, "missing --library value\n");
        return 2;
      }
      library_path = argv[i];
    } else if (a == "--supergates") {
      supergate_depth = 2;
    } else if (a.rfind("--supergates=", 0) == 0) {
      supergate_depth = std::stoul(a.substr(std::strlen("--supergates=")));
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: dagmap_verify [--library lib.genlib "
                 "[--supergates[=D]]] golden.blif revised.blif\n");
    return 2;
  }
  if (supergate_depth > 0 && library_path.empty()) {
    std::fprintf(stderr, "--supergates requires --library\n");
    return 2;
  }

  Network golden = read_blif_file(files[0]);
  Network revised;
  if (!library_path.empty()) {
    std::vector<GenlibGate> gates = read_genlib_file(library_path);
    GateLibrary lib =
        supergate_depth > 0
            ? std::move(generate_supergates(gates,
                                            {.max_depth = supergate_depth},
                                            library_path + "+supergates")
                            .library)
            : GateLibrary::from_genlib(gates, library_path);
    revised = read_mapped_blif_file(files[1], lib).to_network();
  } else {
    revised = read_blif_file(files[1]);
  }

  std::printf("golden:  %zu PIs, %zu POs, %zu latches (%s)\n",
              golden.num_inputs(), golden.num_outputs(),
              golden.num_latches(), files[0].c_str());
  std::printf("revised: %zu PIs, %zu POs, %zu latches (%s)\n",
              revised.num_inputs(), revised.num_outputs(),
              revised.num_latches(), files[1].c_str());

  if (std::string mismatch = interface_mismatch(golden, revised);
      !mismatch.empty()) {
    std::fprintf(stderr, "dagmap_verify: %s\n", mismatch.c_str());
    return 2;
  }
  EquivalenceResult r = check_equivalence(golden, revised);
  if (r.equivalent) {
    std::printf("EQUIVALENT\n");
    return 0;
  }
  std::printf("NOT EQUIVALENT: failing output index %zu\n", r.failing_output);
  std::printf("counterexample (source bit i = PI/latch i): %s\n",
              r.counterexample_hex().c_str());
  return 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "dagmap_verify: %s\n", e.what());
  return 2;
}
