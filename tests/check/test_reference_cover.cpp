// The reference oracle must (a) agree with the production matcher on the
// match sets it re-derives independently, and (b) certify the fast
// labeling: oracle labels == dag_map labels on every node.  (b) is the
// paper's delay-optimality claim made mechanically checkable — the
// dedicated "oracle-optimality" invariant test of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "check/reference_cover.hpp"
#include "core/dag_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "gen/libraries.hpp"
#include "library/standard_libs.hpp"
#include "match/matcher.hpp"
#include "netlist/assert.hpp"

namespace dagmap {
namespace {

// Canonical text form of a match set for set equality across matchers.
std::set<std::string> match_keys(const std::vector<Match>& matches) {
  std::set<std::string> keys;
  for (const Match& m : matches) {
    std::string k = m.gate->name;
    for (NodeId leaf : m.pin_binding) k += "|" + std::to_string(leaf);
    keys.insert(k);
  }
  return keys;
}

TEST(ReferenceCover, MatchSetsAgreeWithProductionMatcher) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Network sg = tech_decompose(make_random_dag(5, 18, 3, seed));
    GateLibrary lib = make_random_library(seed * 31, 8, 4);
    Matcher matcher(lib, sg);
    for (NodeId n = 0; n < sg.size(); ++n) {
      if (sg.is_source(n)) continue;
      for (MatchClass mc :
           {MatchClass::Exact, MatchClass::Standard, MatchClass::Extended}) {
        auto ref = match_keys(reference_matches_at(sg, lib, n, mc));
        auto fast = match_keys(matcher.matches_at(n, mc));
        EXPECT_EQ(ref, fast) << "seed " << seed << " node " << n << " class "
                             << to_string(mc);
      }
    }
  }
}

TEST(ReferenceCover, SingleNandAgainstMinimalLibrary) {
  Network n("tiny");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_nand2(a, b), "o");
  GateLibrary lib = make_minimal_library();
  ReferenceLabels ref = reference_labels(n, lib, MatchClass::Standard);
  // The only cover is the NAND2 gate itself: delay = its worst pin delay.
  EXPECT_DOUBLE_EQ(ref.optimal_delay, lib.nand2()->max_pin_delay());
}

class OracleAgreement
    : public ::testing::TestWithParam<MatchClass> {};

TEST_P(OracleAgreement, FastLabelsEqualOracleLabels) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Network sg = tech_decompose(make_random_dag(6, 25, 3, seed * 7));
    GateLibrary lib =
        seed % 3 == 0 ? make_lib2_library() : make_random_library(seed, 9, 4);
    MapResult fast = dag_map(sg, lib, {{.match_class = GetParam()}});
    ASSERT_EQ(fast.truncations, 0u);
    ReferenceLabels ref = reference_labels(sg, lib, GetParam());
    for (NodeId n = 0; n < sg.size(); ++n)
      EXPECT_NEAR(fast.label[n], ref.label[n], 1e-9)
          << "seed " << seed << " node " << n;
    EXPECT_NEAR(fast.optimal_delay, ref.optimal_delay, 1e-9) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(BothClasses, OracleAgreement,
                         ::testing::Values(MatchClass::Standard,
                                           MatchClass::Extended),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ReferenceCover, RefusesOversizedSubjects) {
  Network sg = tech_decompose(make_random_dag(8, 60, 4, 11));
  GateLibrary lib = make_minimal_library();
  EXPECT_THROW((void)reference_labels(sg, lib, MatchClass::Standard,
                                      /*max_internal=*/4),
               ContractError);
}

}  // namespace
}  // namespace dagmap
