// Tests for structural matching, including the paper's Figure 1
// (standard vs extended matches) and Rudell's exact-match condition.
#include "match/matcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "io/blif.hpp"
#include "io/genlib.hpp"
#include "library/standard_libs.hpp"
#include "match/pattern_index.hpp"
#include "match/signature.hpp"
#include "netlist/assert.hpp"
#include "supergate/supergate.hpp"

namespace dagmap {
namespace {

bool has_gate(const std::vector<Match>& ms, const std::string& name) {
  return std::any_of(ms.begin(), ms.end(), [&](const Match& m) {
    return m.gate->name == name;
  });
}

TEST(Matcher, InvAndNandAlwaysMatch) {
  GateLibrary lib = make_minimal_library();
  Network n("t");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_nand2(a, b);
  NodeId h = n.add_inv(g);
  n.add_output(h, "o");
  Matcher m(lib, n);
  auto at_nand = m.matches_at(g, MatchClass::Standard);
  ASSERT_EQ(at_nand.size(), 1u);
  EXPECT_EQ(at_nand[0].gate->name, "nand2");
  EXPECT_EQ(at_nand[0].pin_binding.size(), 2u);
  auto at_inv = m.matches_at(h, MatchClass::Standard);
  ASSERT_EQ(at_inv.size(), 1u);
  EXPECT_EQ(at_inv[0].gate->name, "inv");
  EXPECT_EQ(at_inv[0].pin_binding[0], g);
}

TEST(Matcher, And2MatchesInvOfNand) {
  GateLibrary lib = make_lib2_library();
  Network n("t");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_nand2(a, b);
  NodeId h = n.add_inv(g);
  n.add_output(h, "o");
  Matcher m(lib, n);
  auto ms = m.matches_at(h, MatchClass::Standard);
  EXPECT_TRUE(has_gate(ms, "and2"));
  EXPECT_TRUE(has_gate(ms, "inv"));
}

TEST(Matcher, BothNandOrdersEnumerated) {
  // Asymmetric pattern INV(NAND(INV(p0), p1)) — the oai-ish shape — must
  // be tried in both orders when the subject children differ.
  GateLibrary lib = GateLibrary::from_genlib_text(
      "GATE inv 1 O=!a;\n PIN a INV 1 999 1 0 1 0\n"
      "GATE nand2 2 O=!(a*b);\n PIN * INV 1 999 1 0 1 0\n"
      "GATE andnot 2 O=!a*b;\n"
      " PIN a INV 1 999 3.0 0 3.0 0\n PIN b NONINV 1 999 1.0 0 1.0 0\n");
  // andnot = !a*b = INV(NAND(INV(a), b)).
  Network n("t");
  NodeId x = n.add_input("x");
  NodeId y = n.add_input("y");
  NodeId ix = n.add_inv(x);
  NodeId g = n.add_nand2(ix, y);
  NodeId h = n.add_inv(g);
  n.add_output(h, "o");
  Matcher m(lib, n);
  auto ms = m.matches_at(h, MatchClass::Standard);
  // Exactly one binding exists: pin a -> x, pin b -> y.
  ASSERT_TRUE(has_gate(ms, "andnot"));
  for (const Match& mm : ms) {
    if (mm.gate->name != "andnot") continue;
    EXPECT_EQ(mm.pin_binding[0], x);
    EXPECT_EQ(mm.pin_binding[1], y);
  }
}

TEST(Matcher, SymmetricSubjectYieldsBothPinAssignments) {
  // Subject NAND(INV(x), INV(y)) matched by nor2 = INV-rooted? nor2 =
  // !(a+b) = AND(!a,!b) = INV(NAND... actually !(a+b) lowers to
  // INV(NAND(INV a, INV b))?  No: !(a+b) = !a * !b = INV(NAND(INV(a),
  // INV(b)))... the lowering gives NOT(OR) collapsing to
  // INV(NAND(INV,INV)).  Check or2 instead at the NAND node: a+b =
  // NAND(INV a, INV b).
  GateLibrary lib = make_lib2_library();
  Network n("t");
  NodeId x = n.add_input("x");
  NodeId y = n.add_input("y");
  NodeId ix = n.add_inv(x);
  NodeId iy = n.add_inv(y);
  NodeId g = n.add_nand2(ix, iy);
  n.add_output(g, "o");
  Matcher m(lib, n);
  auto ms = m.matches_at(g, MatchClass::Standard);
  EXPECT_TRUE(has_gate(ms, "or2"));
  // or2 has symmetric pins; symmetry pruning keeps exactly one binding.
  int or2_count = 0;
  for (const Match& mm : ms)
    if (mm.gate->name == "or2") ++or2_count;
  EXPECT_EQ(or2_count, 1);
}

// ---- Figure 1: standard vs extended ------------------------------------
//
// Subject graph: n = NAND(a, b); two inverters m1 = INV(n), m2 = INV(n);
// top = NAND(m1, m2).  Pattern: NAND(INV(p0), INV(p1)) — or2's pattern.
// A standard match would need distinct subject nodes for the two pattern
// INVs' *fanins*, but both m1 and m2 read the same n, so pattern leaves
// p0 and p1 both bind n: extended match only.
TEST(Matcher, Figure1ExtendedMatchOnly) {
  GateLibrary lib = make_lib2_library();
  Network n("fig1");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId nn = n.add_nand2(a, b);
  NodeId m1 = n.add_inv(nn);
  NodeId m2 = n.add_inv(nn);
  NodeId top = n.add_nand2(m1, m2);
  n.add_output(top, "o");

  Matcher m(lib, n);
  auto std_ms = m.matches_at(top, MatchClass::Standard);
  auto ext_ms = m.matches_at(top, MatchClass::Extended);

  // or2 requires leaves p0 != p1 under Standard (one-to-one), both = nn
  // here, so only Extended finds it.
  EXPECT_FALSE(has_gate(std_ms, "or2"));
  EXPECT_TRUE(has_gate(ext_ms, "or2"));
  // Extended subsumes standard: every standard match appears.
  EXPECT_GE(ext_ms.size(), std_ms.size());
  for (const Match& mm : ext_ms) {
    if (mm.gate->name != "or2") continue;
    EXPECT_EQ(mm.pin_binding[0], nn);
    EXPECT_EQ(mm.pin_binding[1], nn);
  }
}

TEST(Matcher, StandardAllowsExternalFanout) {
  // aoi-style match where a covered internal node also drives logic
  // outside the match: legal under Standard, illegal under Exact.
  GateLibrary lib = make_lib2_library();
  Network n("fan");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_nand2(a, b);   // covered internal node
  NodeId h = n.add_inv(g);        // and2 root covering g
  NodeId other = n.add_inv(g);    // external fanout of g
  n.add_output(h, "o1");
  n.add_output(other, "o2");
  Matcher m(lib, n);
  auto std_ms = m.matches_at(h, MatchClass::Standard);
  auto exact_ms = m.matches_at(h, MatchClass::Exact);
  EXPECT_TRUE(has_gate(std_ms, "and2"));
  EXPECT_FALSE(has_gate(exact_ms, "and2"));
  // The inverter itself is always an exact match at h.
  EXPECT_TRUE(has_gate(exact_ms, "inv"));
}

TEST(Matcher, ExactMatchWhenFanoutInside) {
  GateLibrary lib = make_lib2_library();
  Network n("in");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_nand2(a, b);
  NodeId h = n.add_inv(g);  // g has single fanout -> exact and2 exists
  n.add_output(h, "o");
  Matcher m(lib, n);
  auto exact_ms = m.matches_at(h, MatchClass::Exact);
  EXPECT_TRUE(has_gate(exact_ms, "and2"));
}

TEST(Matcher, XorPatternMatchesSharedStructure) {
  GateLibrary lib = make_lib2_library();
  // Build the canonical XOR NAND structure: t = NAND(a,b);
  // u = NAND(a,t); v = NAND(b,t); x = NAND(u,v).
  Network n("xor");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId t = n.add_nand2(a, b);
  NodeId u = n.add_nand2(a, t);
  NodeId v = n.add_nand2(b, t);
  NodeId x = n.add_nand2(u, v);
  n.add_output(x, "o");
  Matcher m(lib, n);
  auto ms = m.matches_at(x, MatchClass::Standard);
  // The balanced ISOP xor pattern is NAND(NAND(a,INV b),NAND(INV a,b)):
  // that exact shape is not present here, so xor2 may or may not match —
  // but nand2 must, and all matches must be structurally valid.
  EXPECT_TRUE(has_gate(ms, "nand2"));
  for (const Match& mm : ms) {
    EXPECT_EQ(mm.pin_binding.size(), mm.gate->num_inputs());
    EXPECT_FALSE(mm.covered.empty());
    EXPECT_EQ(mm.covered.size() + 0u, mm.pattern->num_internal());
  }
}

TEST(Matcher, MatchArrivalUsesPinDelays) {
  GateLibrary lib = GateLibrary::from_genlib_text(
      "GATE inv 1 O=!a;\n PIN a INV 1 999 1 0 1 0\n"
      "GATE nand2 2 O=!(a*b);\n"
      " PIN a INV 1 999 2.0 0 2.0 0\n PIN b INV 1 999 1.0 0 1.0 0\n");
  Network n("t");
  NodeId x = n.add_input("x");
  NodeId y = n.add_input("y");
  NodeId g = n.add_nand2(x, y);
  n.add_output(g, "o");
  Matcher m(lib, n);
  auto ms = m.matches_at(g, MatchClass::Standard);
  // Both pin assignments must be enumerated (pins have different delays).
  ASSERT_EQ(ms.size(), 2u);
  std::vector<double> arr(n.size(), 0.0);
  arr[x] = 5.0;
  arr[y] = 0.0;
  double best = 1e9;
  for (const Match& mm : ms) best = std::min(best, match_arrival(mm, arr));
  // Best: slow input x on fast pin b: max(5+1, 0+2) = 6.
  EXPECT_DOUBLE_EQ(best, 6.0);
}

TEST(Matcher, RichLibraryFindsWideMatches) {
  GateLibrary lib = make_44_library(3);
  // Subject: 16-input AND-OR-INVERT !(abcd+efgh+ijkl+mnop) built from
  // 2-input nodes and run through the shared technology decomposition,
  // so its NAND2/INV shape coincides with the pattern generator's.
  Network src("wide");
  std::vector<NodeId> ins;
  for (int i = 0; i < 16; ++i)
    ins.push_back(src.add_input("i" + std::to_string(i)));
  auto and4 = [&](int base) {
    return src.add_and(src.add_and(ins[base], ins[base + 1]),
                       src.add_and(ins[base + 2], ins[base + 3]));
  };
  NodeId p1 = and4(0), p2 = and4(4), p3 = and4(8), p4 = and4(12);
  NodeId or_top = src.add_or(src.add_or(p1, p2), src.add_or(p3, p4));
  src.add_output(src.add_inv(or_top), "o");
  Network sg = tech_decompose(src);

  Matcher m(lib, sg);
  NodeId root = sg.outputs()[0].node;
  auto ms = m.matches_at(root, MatchClass::Standard);
  // Some 16-input gate must match at the root.
  bool wide = std::any_of(ms.begin(), ms.end(), [](const Match& mm) {
    return mm.gate->num_inputs() == 16;
  });
  EXPECT_TRUE(wide);
  EXPECT_EQ(m.truncations(), 0u);
}

TEST(Matcher, MatchesAtRejectsSources) {
  GateLibrary lib = make_minimal_library();
  Network n("t");
  NodeId a = n.add_input("a");
  NodeId g = n.add_inv(a);
  n.add_output(g, "o");
  Matcher m(lib, n);
  EXPECT_THROW(m.matches_at(a, MatchClass::Standard), ContractError);
}

TEST(Matcher, DedupesSymmetricDuplicates) {
  GateLibrary lib = make_lib2_library();
  Network n("t");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_nand2(a, b);
  n.add_output(g, "o");
  Matcher m(lib, n);
  auto ms = m.matches_at(g, MatchClass::Standard);
  // nand2 with symmetric pins: one match only after dedup/symmetry.
  int nand_count = 0;
  for (const Match& mm : ms)
    if (mm.gate->name == "nand2") ++nand_count;
  EXPECT_EQ(nand_count, 1);
}


// ---- Differential test against the reference enumeration -------------
//
// `ReferenceMatcher` is the enumeration as it was before walk-time
// pruning: a plain backtracking walk over `Network::kind/fanins`, the
// one-to-one condition checked only on complete bindings (sort +
// adjacent_find), and per-root dedup through a hash set of 64-bit
// (gate, pins) keys.  `Matcher` prunes during the walk, so it must emit
// exactly the same ordered match list with the same counters.

struct FlatMatch {
  const Gate* gate;
  const PatternGraph* pattern;
  std::vector<NodeId> pins;
  std::vector<NodeId> covered;
  bool operator==(const FlatMatch&) const = default;
};

class ReferenceMatcher {
 public:
  ReferenceMatcher(const GateLibrary& lib, const Network& subject)
      : lib_(lib), subject_(subject), index_(PatternIndex::build(lib)),
        sigs_(compute_subject_signatures(subject)),
        fanout_(subject.fanout_counts().begin(),
                subject.fanout_counts().end()) {}

  std::vector<FlatMatch> matches_at(NodeId root, MatchClass mc) {
    const std::vector<PatternEntry>& candidates =
        subject_.kind(root) == NodeKind::Inv ? index_.inv_rooted
                                             : index_.nand_rooted;
    std::vector<FlatMatch> out;
    std::unordered_set<std::uint64_t> seen;
    for (const PatternEntry& ref : candidates) {
      if (!signature_admits(ref.sig, sigs_[root], mc)) {
        ++stats.pruned;
        continue;
      }
      ++stats.attempts;
      const Gate* gate = &lib_.gates()[ref.gate_index];
      const PatternGraph& pg = gate->patterns[ref.pattern_index];
      bind_.assign(pg.nodes.size(), kNullNode);
      todo_.assign(1, {pg.root, root});
      budget_ = Matcher::kEnumerationBudget;
      walk(pg, ref.sym_hash, [&] {
        if (mc != MatchClass::Extended) {
          std::vector<NodeId> sorted = bind_;
          std::sort(sorted.begin(), sorted.end());
          if (std::adjacent_find(sorted.begin(), sorted.end()) !=
              sorted.end()) {
            ++rejected_one_to_one;
            return;
          }
        }
        if (mc == MatchClass::Exact) {
          for (std::uint32_t p = 0; p < pg.nodes.size(); ++p) {
            if (p == pg.root || pg.nodes[p].kind == PatternNode::Kind::Leaf)
              continue;
            if (fanout_[bind_[p]] != ref.out_deg[p]) return;
          }
        }
        FlatMatch m{gate, &pg, std::vector<NodeId>(gate->num_inputs()), {}};
        for (std::uint32_t p = 0; p < pg.nodes.size(); ++p) {
          if (pg.nodes[p].kind == PatternNode::Kind::Leaf)
            m.pins[pg.nodes[p].pin] = bind_[p];
          else
            m.covered.push_back(bind_[p]);
        }
        std::uint64_t key = std::hash<const void*>{}(gate);
        for (NodeId leaf : m.pins) key = key * 0x100000001B3ull ^ (leaf + 1);
        if (seen.insert(key).second) out.push_back(std::move(m));
      });
      if (budget_ == 0) ++stats.truncations;
    }
    return out;
  }

  MatchStats stats;
  /// Complete bindings the post-hoc one-to-one filter dropped.
  std::uint64_t rejected_one_to_one = 0;

 private:
  template <typename F>
  void walk(const PatternGraph& pg, const std::vector<std::uint64_t>& sym,
            const F& done) {
    if (budget_ == 0) return;
    --budget_;
    if (todo_.empty()) {
      done();
      return;
    }
    auto [p, s] = todo_.back();
    todo_.pop_back();
    if (bind_[p] != kNullNode) {
      if (bind_[p] == s) walk(pg, sym, done);
    } else {
      const PatternNode& pn = pg.nodes[p];
      NodeKind sk = subject_.kind(s);
      if (pn.kind == PatternNode::Kind::Leaf) {
        bind_[p] = s;
        walk(pg, sym, done);
      } else if (pn.kind == PatternNode::Kind::Inv && sk == NodeKind::Inv) {
        bind_[p] = s;
        todo_.push_back({static_cast<std::uint32_t>(pn.fanin0),
                         subject_.fanins(s)[0]});
        walk(pg, sym, done);
        todo_.pop_back();
      } else if (pn.kind == PatternNode::Kind::Nand2 &&
                 sk == NodeKind::Nand2) {
        bind_[p] = s;
        NodeId s0 = subject_.fanins(s)[0], s1 = subject_.fanins(s)[1];
        auto p0 = static_cast<std::uint32_t>(pn.fanin0);
        auto p1 = static_cast<std::uint32_t>(pn.fanin1);
        todo_.push_back({p0, s0});
        todo_.push_back({p1, s1});
        walk(pg, sym, done);
        todo_.resize(todo_.size() - 2);
        if (sym[p0] != sym[p1] && s0 != s1) {
          todo_.push_back({p0, s1});
          todo_.push_back({p1, s0});
          walk(pg, sym, done);
          todo_.resize(todo_.size() - 2);
        }
      }
      bind_[p] = kNullNode;
    }
    todo_.push_back({p, s});
  }

  const GateLibrary& lib_;
  const Network& subject_;
  PatternIndex index_;
  std::vector<NodeSignature> sigs_;
  std::vector<std::uint32_t> fanout_;
  std::vector<NodeId> bind_;
  std::vector<std::pair<std::uint32_t, NodeId>> todo_;
  std::uint64_t budget_ = 0;
};

std::vector<FlatMatch> flat_matches(const Matcher& m, NodeId root,
                                    MatchClass mc) {
  std::vector<FlatMatch> out;
  m.for_each_match(root, mc, [&](const MatchView& v) {
    out.push_back({v.gate, v.pattern,
                   std::vector<NodeId>(v.pin_binding.begin(),
                                       v.pin_binding.end()),
                   std::vector<NodeId>(v.covered.begin(), v.covered.end())});
  });
  return out;
}

// Every match of every internal node, in enumeration order.
std::vector<FlatMatch> sweep(const Matcher& m, const Network& sg,
                             MatchClass mc) {
  std::vector<FlatMatch> all;
  for (NodeId n = 0; n < sg.size(); ++n) {
    if (sg.is_source(n)) continue;
    std::vector<FlatMatch> at = flat_matches(m, n, mc);
    all.insert(all.end(), at.begin(), at.end());
  }
  return all;
}

// lib2 plus depth-2 supergates, bounded so generation stays quick.
const GateLibrary& lib2_supergates() {
  static const GateLibrary lib = [] {
    SupergateOptions opt;
    opt.max_inputs = 3;
    opt.max_steps_per_root = 20000;
    return std::move(
        generate_supergates(parse_genlib(lib2_genlib_text()), opt,
                            "lib2+supergates")
            .library);
  }();
  return lib;
}

Network random_subject(std::uint64_t seed) {
  // Alternate the two random generators: decomposed 2-bounded DAGs (the
  // decomposer's shapes, which pattern lowering mirrors) and raw
  // NAND2/INV graphs (arbitrary reconvergence and shared fanins).
  if (seed % 2 == 0)
    return tech_decompose(make_random_dag(4 + seed % 5, 20 + seed % 30,
                                          3, seed * 7919 + 1));
  return make_random_subject_graph(40 + seed % 60, 5 + seed % 4, 4,
                                   seed * 104729 + 3);
}

TEST(MatcherDifferential, SameOrderedMatchesAndCountersAsReference) {
  const GateLibrary lib2 = make_lib2_library();
  const GateLibrary lib44 = make_44_library(3);
  std::vector<const GateLibrary*> libs = {&lib2, &lib44, &lib2_supergates()};
  std::size_t total = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Network sg = random_subject(seed);
    for (const GateLibrary* lib : libs) {
      Matcher m(*lib, sg);
      ReferenceMatcher ref(*lib, sg);
      for (MatchClass mc :
           {MatchClass::Exact, MatchClass::Standard, MatchClass::Extended}) {
        for (NodeId n = 0; n < sg.size(); ++n) {
          if (sg.is_source(n)) continue;
          std::vector<FlatMatch> got = flat_matches(m, n, mc);
          std::vector<FlatMatch> want = ref.matches_at(n, mc);
          ASSERT_TRUE(got == want)
              << "seed " << seed << " library " << lib->name() << " class "
              << to_string(mc) << " node " << n << ": " << got.size()
              << " matches vs " << want.size() << " in the reference";
          total += got.size();
        }
        ASSERT_EQ(m.attempts(), ref.stats.attempts);
        ASSERT_EQ(m.pruned(), ref.stats.pruned);
      }
      EXPECT_EQ(m.truncations(), 0u);
      EXPECT_EQ(ref.stats.truncations, 0u);
      rejected += ref.rejected_one_to_one;
    }
  }
  EXPECT_GT(total, 0u);
  // The subjects must exercise the walk-time one-to-one pruning.
  EXPECT_GT(rejected, 0u);
}

// Pruning during the walk spends less of kEnumerationBudget than the
// reference does, so a walk truncated before could now enumerate more
// matches.  No walk truncates on the golden corpus or the Table-3
// suite, which is what keeps their match lists (and mapped netlists)
// unchanged.
std::string golden_path(const std::string& rel) {
  return std::string(DAGMAP_TEST_DATA_DIR) + "/golden/" + rel;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(MatcherTruncation, NoneOnGoldenCorpus) {
  std::ifstream expect(golden_path("golden.expect"));
  ASSERT_TRUE(expect.good());
  std::string line;
  std::size_t entries = 0;
  while (std::getline(expect, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find(' '));
    std::string stem = name.substr(0, name.find('+'));
    SCOPED_TRACE(name);
    std::vector<GenlibGate> gates = parse_genlib(slurp(golden_path(stem + ".genlib")));
    GateLibrary lib = name != stem
                          ? std::move(generate_supergates(gates, {}, name).library)
                          : GateLibrary::from_genlib(gates, name);
    Network sg = tech_decompose(parse_blif(slurp(golden_path(stem + ".blif"))));
    Matcher m(lib, sg);
    for (MatchClass mc :
         {MatchClass::Exact, MatchClass::Standard, MatchClass::Extended})
      sweep(m, sg, mc);
    EXPECT_GT(m.attempts(), 0u);
    EXPECT_EQ(m.truncations(), 0u);
    ++entries;
  }
  EXPECT_GE(entries, 4u);
}

TEST(MatcherTruncation, NoneOnTable3Suite) {
  const GateLibrary lib = make_44_library(3);
  for (const BenchmarkCircuit& c : make_iscas85_like_suite()) {
    SCOPED_TRACE(c.name);
    Network single = tech_decompose(c.network);
    ChoiceDecomposition choice = tech_decompose_choices(c.network);
    for (const Network* sg : {&single, &choice.subject}) {
      Matcher m(lib, *sg);
      for (NodeId n = 0; n < sg->size(); ++n)
        if (!sg->is_source(n))
          m.for_each_match(n, MatchClass::Standard, [](const MatchView&) {});
      EXPECT_EQ(m.truncations(), 0u);
    }
  }
}

// ---- Per-thread scratch under concurrency --------------------------------

TEST(MatcherThreads, ConcurrentCallersSeeTheSequentialMatches) {
  const GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_array_multiplier(12));
  Matcher m(lib, sg);
  auto all_classes = [&] {
    std::vector<FlatMatch> all;
    for (MatchClass mc :
         {MatchClass::Standard, MatchClass::Extended, MatchClass::Exact}) {
      std::vector<FlatMatch> part = sweep(m, sg, mc);
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  };
  std::vector<FlatMatch> want = all_classes();
  MatchStats seq = m.stats();

  constexpr int kThreads = 4;
  std::vector<std::vector<FlatMatch>> got(kThreads);
  std::vector<char> clear(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      got[t] = all_classes();
      clear[t] = Matcher::thread_marks_clear();
    });
  for (std::thread& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(got[t] == want) << "thread " << t;
    EXPECT_TRUE(clear[t]) << "thread " << t;
  }
  MatchStats all = m.stats();
  EXPECT_EQ(all.attempts, seq.attempts * (kThreads + 1));
  EXPECT_EQ(all.pruned, seq.pruned * (kThreads + 1));
}

TEST(MatcherThreads, InterleavedMatchersLeaveMarksClear) {
  // One thread alternating between a large and a small subject, as a
  // serve worker does between requests: the one-to-one marks grow to
  // the larger subject and must be all-zero after every call.
  const GateLibrary lib = make_lib2_library();
  Network big = tech_decompose(make_array_multiplier(6));
  Network small = tech_decompose(make_ripple_carry_adder(3));
  Matcher mb(lib, big), ms(lib, small);
  std::vector<FlatMatch> want_big = sweep(mb, big, MatchClass::Standard);
  std::vector<FlatMatch> want_small = sweep(ms, small, MatchClass::Standard);
  EXPECT_TRUE(Matcher::thread_marks_clear());

  std::vector<FlatMatch> got_big, got_small;
  std::vector<NodeId> roots_big, roots_small;
  for (NodeId n = 0; n < big.size(); ++n)
    if (!big.is_source(n)) roots_big.push_back(n);
  for (NodeId n = 0; n < small.size(); ++n)
    if (!small.is_source(n)) roots_small.push_back(n);
  for (std::size_t i = 0; i < std::max(roots_big.size(), roots_small.size());
       ++i) {
    for (MatchClass mc : {MatchClass::Standard, MatchClass::Extended,
                          MatchClass::Exact}) {
      if (i < roots_small.size()) {
        std::vector<FlatMatch> at = flat_matches(ms, roots_small[i], mc);
        if (mc == MatchClass::Standard)
          got_small.insert(got_small.end(), at.begin(), at.end());
        ASSERT_TRUE(Matcher::thread_marks_clear()) << "small root " << i;
      }
      if (i < roots_big.size()) {
        std::vector<FlatMatch> at = flat_matches(mb, roots_big[i], mc);
        if (mc == MatchClass::Standard)
          got_big.insert(got_big.end(), at.begin(), at.end());
        ASSERT_TRUE(Matcher::thread_marks_clear()) << "big root " << i;
      }
    }
  }
  EXPECT_TRUE(got_big == want_big);
  EXPECT_TRUE(got_small == want_small);
}

TEST(MatcherThreads, ThrowingCallbackLeavesMarksClear) {
  const GateLibrary lib = make_lib2_library();
  Network sg = tech_decompose(make_array_multiplier(4));
  Matcher m(lib, sg);
  NodeId root = sg.outputs().back().node;
  ASSERT_FALSE(sg.is_source(root));
  EXPECT_THROW(m.for_each_match(root, MatchClass::Standard,
                                [](const MatchView&) {
                                  throw std::runtime_error("stop");
                                }),
               std::runtime_error);
  EXPECT_TRUE(Matcher::thread_marks_clear());
  std::vector<FlatMatch> after = flat_matches(m, root, MatchClass::Standard);
  EXPECT_FALSE(after.empty());
}

}  // namespace
}  // namespace dagmap
