// Byte-level pins of both mapping backends: optimal delay, total area
// and structural netlist hash for every mapper configuration the
// options expose — dag_map (default, area recovery, a relaxed delay
// target, Extended matches, load-aware rounds) and cut_map (default,
// area rounds, the smallest cut budget, load-aware rounds) — each with
// choices off/on and the monolithic/partitioned schedule.  Subjects: the
// golden corpus on its own libraries plus the c432/c499-like circuits
// on lib2 and the 44-3-like library.
//
// The recorded table is tests/data/mapper_pins.tsv.  Any drift fails
// with the exact replacement line; doubles are printed with 17
// significant digits, so a row only matches bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "io/blif.hpp"
#include "io/genlib.hpp"
#include "library/standard_libs.hpp"

namespace dagmap {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Recorded rows keyed by "<subject> <config> <choices> <partition>".
std::map<std::string, std::string> load_pins() {
  std::ifstream in(std::string(DAGMAP_TEST_DATA_DIR) + "/mapper_pins.tsv");
  EXPECT_TRUE(in.good()) << "missing tests/data/mapper_pins.tsv";
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string f[7];
    for (std::string& s : f) ls >> s;
    EXPECT_FALSE(ls.fail()) << "malformed mapper_pins.tsv line: " << line;
    pins[f[0] + " " + f[1] + " " + f[2] + " " + f[3]] =
        f[4] + " " + f[5] + " " + f[6];
  }
  return pins;
}

std::string result_fields(const MapResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.17g %.17g 0x%016llx", r.optimal_delay,
                r.netlist.total_area(),
                static_cast<unsigned long long>(r.netlist.structural_hash()));
  return buf;
}

/// One mapping call under a fixed choices/partition setting.
struct Setting {
  const ChoiceClasses* choices = nullptr;
  PartitionMode partition = PartitionMode::Off;

  template <class Options>
  Options apply(Options o) const {
    o.choices = choices;
    o.partition_mode = partition;
    o.partition_window = 64;  // several windows even on small subjects
    return o;
  }
};

using Config = std::function<MapResult(const Network&, const GateLibrary&,
                                       const Setting&)>;

const std::vector<std::pair<std::string, Config>>& configs() {
  static const std::vector<std::pair<std::string, Config>> all = {
      {"dag",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         return dag_map(s, l, st.apply(DagMapOptions{}));
       }},
      {"dag_area_recovery",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         DagMapOptions o;
         o.area_recovery = true;
         return dag_map(s, l, st.apply(o));
       }},
      {"dag_target_delay",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         DagMapOptions o;
         o.area_recovery = true;
         o.target_delay =
             1.25 * dag_map(s, l, st.apply(DagMapOptions{})).optimal_delay;
         return dag_map(s, l, st.apply(o));
       }},
      {"dag_extended",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         DagMapOptions o;
         o.match_class = MatchClass::Extended;
         return dag_map(s, l, st.apply(o));
       }},
      {"dag_load_rounds2",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         DagMapOptions o;
         o.load_rounds = 2;
         return dag_map(s, l, st.apply(o));
       }},
      {"cut",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         return cut_map(s, l, st.apply(CutMapOptions{}));
       }},
      {"cut_rounds3",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         CutMapOptions o;
         o.rounds = 3;
         o.delay_factor = 1.2;
         return cut_map(s, l, st.apply(o));
       }},
      {"cut_small_cuts",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         CutMapOptions o;
         o.cut_size = 2;
         o.cut_count = 1;
         return cut_map(s, l, st.apply(o));
       }},
      {"cut_load_rounds2",
       [](const Network& s, const GateLibrary& l, const Setting& st) {
         CutMapOptions o;
         o.load_rounds = 2;
         return cut_map(s, l, st.apply(o));
       }},
  };
  return all;
}

/// Maps `circuit` (registered as `name`) under every configuration and
/// setting and compares each row against the recorded table.
void check_pins(const std::string& name, const Network& circuit,
                const GateLibrary& lib) {
  static const std::map<std::string, std::string> pins = load_pins();
  Network plain = tech_decompose(circuit);
  ChoiceDecomposition choice = tech_decompose_choices(circuit);
  for (int with_choices = 0; with_choices < 2; ++with_choices) {
    const Network& subject = with_choices ? choice.subject : plain;
    for (int partitioned = 0; partitioned < 2; ++partitioned) {
      Setting st{with_choices ? &choice.classes : nullptr,
                 partitioned ? PartitionMode::On : PartitionMode::Off};
      for (const auto& [config, run] : configs()) {
        std::string key = name + " " + config + " " +
                          std::to_string(with_choices) + " " +
                          std::to_string(partitioned);
        std::string actual = result_fields(run(subject, lib, st));
        auto it = pins.find(key);
        std::string expected = it == pins.end() ? "<missing>" : it->second;
        EXPECT_EQ(expected, actual)
            << "mapper pin drift; the recorded line would be:\n"
            << key << " " << actual;
      }
    }
  }
}

TEST(MapperPins, GoldenCorpus) {
  for (const char* stem :
       {"full_adder", "mux4", "parity5", "majxor", "decoder2", "gray3"}) {
    SCOPED_TRACE(stem);
    std::string path = std::string(DAGMAP_TEST_DATA_DIR) + "/golden/" + stem;
    Network circuit = parse_blif(slurp(path + ".blif"));
    GateLibrary lib =
        GateLibrary::from_genlib(parse_genlib(slurp(path + ".genlib")), stem);
    check_pins(stem, circuit, lib);
  }
}

// The c432/c499-like members of make_iscas85_like_suite(), one test per
// circuit and library so the 44-3 runs spread over parallel ctest jobs.
TEST(MapperPins, C432LikeOnLib2) {
  check_pins("c432-like@lib2", make_interrupt_controller(27),
             make_lib2_library());
}

TEST(MapperPins, C499LikeOnLib2) {
  check_pins("c499-like@lib2", make_hamming_decoder(32), make_lib2_library());
}

TEST(MapperPins, C432LikeOn44_3) {
  check_pins("c432-like@44-3", make_interrupt_controller(27),
             make_44_library(3));
}

TEST(MapperPins, C499LikeOn44_3) {
  check_pins("c499-like@44-3", make_hamming_decoder(32), make_44_library(3));
}

TEST(MapperPins, EveryRecordedRowIsChecked) {
  // 6 golden pairs + 2 circuits x 2 libraries, 9 configurations, choices
  // off/on, partitioning off/on: a row outside this grid is stale.
  EXPECT_EQ(load_pins().size(), (6u + 4u) * configs().size() * 2 * 2);
}

}  // namespace
}  // namespace dagmap
