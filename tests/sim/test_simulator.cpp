// Tests for bit-parallel simulation and equivalence checking.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "netlist/assert.hpp"

namespace dagmap {
namespace {

Network and_net() {
  Network n("and");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_and(a, b), "o");
  return n;
}

Network and_via_nand() {
  Network n("and2");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_inv(n.add_nand2(a, b)), "o");
  return n;
}

TEST(Simulator, WordSimulationOfPrimitives) {
  Network n("prims");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_nand2(a, b);
  NodeId h = n.add_inv(g);
  NodeId x = n.add_xor(a, b);
  n.add_output(g, "nand");
  n.add_output(h, "and");
  n.add_output(x, "xor");
  std::vector<std::uint64_t> in{0b0101, 0b0011};
  auto out = simulate64(n, in);
  EXPECT_EQ(out[0] & 0xF, 0b1110u);
  EXPECT_EQ(out[1] & 0xF, 0b0001u);
  EXPECT_EQ(out[2] & 0xF, 0b0110u);
}

TEST(Simulator, ConstantsSimulate) {
  Network n("c");
  NodeId a = n.add_input("a");
  NodeId c1 = n.add_constant(true);
  n.add_output(n.add_and(a, c1), "o");
  std::vector<std::uint64_t> in{0xDEADBEEF};
  auto out = simulate64(n, in);
  EXPECT_EQ(out[0], 0xDEADBEEFull);
}

TEST(Simulator, LatchesAreSourcesAndDIsOutput) {
  Network n("seq");
  NodeId x = n.add_input("x");
  NodeId l = n.add_latch_placeholder("s");
  NodeId d = n.add_xor(x, l);
  n.connect_latch(l, d);
  n.add_output(l, "q");
  std::vector<std::uint64_t> in{0b0101, 0b0011};  // x, latch-out
  auto out = simulate64(n, in);
  EXPECT_EQ(out[0] & 0xF, 0b0011u);  // PO = latch output directly
  EXPECT_EQ(out[1] & 0xF, 0b0110u);  // latch D = x ^ s
}

TEST(Simulator, EquivalentNetworksPass) {
  auto r = check_equivalence(and_net(), and_via_nand());
  EXPECT_TRUE(r.equivalent);
}

TEST(Simulator, InequivalentNetworksCaught) {
  Network n("or");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  n.add_output(n.add_or(a, b), "o");
  auto r = check_equivalence(and_net(), n);
  EXPECT_FALSE(r.equivalent);
  // Counterexample must actually distinguish AND from OR: exactly one of
  // a, b set.
  EXPECT_NE(r.source_bit(0), r.source_bit(1));
}

TEST(Simulator, InterfaceMismatchRejected) {
  Network n("one_pi");
  NodeId a = n.add_input("a");
  n.add_output(a, "o");
  EXPECT_THROW((void)check_equivalence(and_net(), n), ContractError);
}

TEST(Simulator, InterfaceMismatchNamesFirstDifference) {
  EXPECT_EQ(interface_mismatch(and_net(), and_via_nand()), "");

  Network one_pi("one_pi");
  one_pi.add_output(one_pi.add_input("a"), "o");
  EXPECT_EQ(interface_mismatch(and_net(), one_pi),
            "primary input count differs: 2 vs 1");

  Network renamed_pi("renamed_pi");
  NodeId a = renamed_pi.add_input("a");
  NodeId c = renamed_pi.add_input("c");
  renamed_pi.add_output(renamed_pi.add_and(a, c), "o");
  EXPECT_EQ(interface_mismatch(and_net(), renamed_pi),
            "primary input 1 name differs: 'b' vs 'c'");

  Network two_po("two_po");
  NodeId x = two_po.add_input("a");
  NodeId y = two_po.add_input("b");
  two_po.add_output(two_po.add_and(x, y), "o");
  two_po.add_output(x, "p");
  EXPECT_EQ(interface_mismatch(and_net(), two_po),
            "primary output count differs: 1 vs 2");

  Network po_name("po_name");
  NodeId u = po_name.add_input("a");
  NodeId v = po_name.add_input("b");
  po_name.add_output(po_name.add_and(u, v), "sum");
  std::string msg = interface_mismatch(and_net(), po_name);
  EXPECT_EQ(msg, "primary output 0 name differs: 'o' vs 'sum'");
  // A one-line message for users, not a contract dump.
  EXPECT_EQ(msg.find("contract violated"), std::string::npos);
  EXPECT_EQ(msg.find(".cpp"), std::string::npos);
  EXPECT_EQ(msg.find('\n'), std::string::npos);

  Network latched("latched");
  NodeId la = latched.add_input("a");
  NodeId lb = latched.add_input("b");
  latched.add_output(latched.add_and(la, lb), "o");
  latched.add_latch(la, "q");
  EXPECT_EQ(interface_mismatch(and_net(), latched), "latch count differs: 0 vs 1");
}

TEST(Simulator, UnwiredLatchRejected) {
  Network n("unwired");
  NodeId x = n.add_input("x");
  NodeId l = n.add_latch_placeholder("s");
  n.add_output(n.add_xor(x, l), "o");
  std::vector<std::uint64_t> in{0b0101, 0b0011};
  EXPECT_THROW((void)simulate64(n, in), ContractError);
  EXPECT_THROW((void)check_equivalence(n, n), ContractError);
}

TEST(Simulator, ExhaustiveLimitMustBeBelow64) {
  EXPECT_THROW((void)check_equivalence(and_net(), and_via_nand(), 64),
               ContractError);
  EXPECT_TRUE(check_equivalence(and_net(), and_via_nand(), 63).equivalent);
}

TEST(Simulator, RandomModeFindsDifferences) {
  // 20 inputs forces random mode; difference is on a single AND path.
  Network n1("big1"), n2("big2");
  std::vector<NodeId> in1, in2;
  for (int i = 0; i < 20; ++i) {
    in1.push_back(n1.add_input("i" + std::to_string(i)));
    in2.push_back(n2.add_input("i" + std::to_string(i)));
  }
  NodeId x1 = n1.add_xor(in1[0], in1[1]);
  NodeId x2 = n2.add_xor(in2[0], in2[1]);
  for (int i = 2; i < 20; ++i) {
    x1 = n1.add_xor(x1, in1[i]);
    x2 = n2.add_xor(x2, in2[i]);
  }
  n1.add_output(x1, "o");
  n2.add_output(n2.add_inv(x2), "o");
  auto r = check_equivalence(n1, n2);
  EXPECT_FALSE(r.equivalent);
}

TEST(Simulator, OutputTruthTableMatchesLocalFunction) {
  Network n("maj");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId c = n.add_input("c");
  n.add_output(n.add_maj3(a, b, c), "o");
  TruthTable t = output_truth_table(n, 0);
  EXPECT_EQ(t.to_hex(), "e8");
}

TEST(Simulator, OutputTruthTableWideNetwork) {
  // 8-input parity via a chain.
  Network n("par");
  std::vector<NodeId> ins;
  for (int i = 0; i < 8; ++i)
    ins.push_back(n.add_input("i" + std::to_string(i)));
  NodeId x = ins[0];
  for (int i = 1; i < 8; ++i) x = n.add_xor(x, ins[i]);
  n.add_output(x, "o");
  TruthTable t = output_truth_table(n, 0);
  for (std::size_t m = 0; m < t.num_minterms(); ++m)
    EXPECT_EQ(t.bit(m), (std::popcount(m) & 1) == 1);
}

TEST(Simulator, ExhaustiveEquivalenceIsExact) {
  // Two networks differing on exactly one input assignment.
  Network n1("n1"), n2("n2");
  std::vector<NodeId> i1, i2;
  for (int i = 0; i < 8; ++i) {
    i1.push_back(n1.add_input("i" + std::to_string(i)));
    i2.push_back(n2.add_input("i" + std::to_string(i)));
  }
  // n1: AND of all inputs.  n2: constant 0.  They differ only on all-ones.
  n1.add_output(n1.add_and(std::span<const NodeId>(i1)), "o");
  n2.add_output(n2.add_constant(false), "o");
  auto r = check_equivalence(n1, n2);
  EXPECT_FALSE(r.equivalent);
  ASSERT_EQ(r.counterexample.size(), 1u);
  EXPECT_EQ(r.counterexample[0], 0xFFull);
  EXPECT_EQ(r.counterexample_hex(), "0xff");
}

TEST(Simulator, CounterexampleBeyond64Sources) {
  // 70 sources: a = XOR of all 70 inputs, b = XOR of the first 69.  They
  // differ whenever input 69 is set, so random mode finds a difference in
  // the first round — and the counterexample must carry source indices
  // past the first word without truncation.
  Network n1("wide1"), n2("wide2");
  std::vector<NodeId> i1, i2;
  for (int i = 0; i < 70; ++i) {
    i1.push_back(n1.add_input("i" + std::to_string(i)));
    i2.push_back(n2.add_input("i" + std::to_string(i)));
  }
  NodeId x1 = i1[0], x2 = i2[0];
  for (int i = 1; i < 70; ++i) x1 = n1.add_xor(x1, i1[i]);
  for (int i = 1; i < 69; ++i) x2 = n2.add_xor(x2, i2[i]);
  n1.add_output(x1, "o");
  n2.add_output(x2, "o");

  auto r = check_equivalence(n1, n2);
  ASSERT_FALSE(r.equivalent);
  ASSERT_EQ(r.counterexample.size(), 2u);  // ceil(70 / 64) words
  EXPECT_TRUE(r.source_bit(69));           // only bit 69 distinguishes them

  // Replay the reported assignment single-lane: the outputs must really
  // differ under it.
  std::vector<std::uint64_t> words(70);
  for (int s = 0; s < 70; ++s) words[s] = r.source_bit(s) ? 1 : 0;
  auto o1 = simulate64(n1, words);
  auto o2 = simulate64(n2, words);
  EXPECT_NE(o1[r.failing_output] & 1, o2[r.failing_output] & 1);
}

// ---- differential kernel test ------------------------------------------

// Lane-by-lane reference simulator: evaluates every node's local function
// one vector at a time through TruthTable::bit, independently of the
// word-parallel kernel.  Same input/output order as simulate64.
std::vector<std::uint64_t> reference_simulate(
    const Network& net, std::span<const std::uint64_t> source_words) {
  std::vector<std::uint64_t> out(net.num_outputs() + net.num_latches(), 0);
  std::vector<char> val(net.size(), 0);
  for (unsigned lane = 0; lane < 64; ++lane) {
    for (std::size_t i = 0; i < net.num_inputs(); ++i)
      val[net.inputs()[i]] = (source_words[i] >> lane) & 1;
    for (std::size_t i = 0; i < net.num_latches(); ++i)
      val[net.latches()[i]] =
          (source_words[net.num_inputs() + i] >> lane) & 1;
    for (NodeId id : net.topo_order()) {
      NodeKind k = net.kind(id);
      if (k == NodeKind::PrimaryInput || k == NodeKind::Latch) continue;
      std::span<const NodeId> fi = net.fanins(id);
      std::size_t m = 0;
      for (std::size_t i = 0; i < fi.size(); ++i)
        if (val[fi[i]]) m |= std::size_t{1} << i;
      val[id] = net.local_function(id).bit(m);
    }
    std::size_t o = 0;
    for (const Output& po : net.outputs())
      out[o++] |= std::uint64_t{val[po.node] != 0} << lane;
    for (NodeId l : net.latches())
      out[o++] |= std::uint64_t{val[net.fanins(l)[0]] != 0} << lane;
  }
  return out;
}

// Shape of a random multi-level network of Logic nodes: one node per
// entry of `arities` (its fanin count), each reading earlier signals.
struct RandomShape {
  unsigned inputs = 0;
  unsigned latches = 0;
  std::vector<unsigned> arities;
  unsigned outputs = 1;
};

// A bug to inject: flip one minterm of one node's table.
struct Bug {
  std::size_t node;
  std::size_t minterm;
};

// Builds a seeded random network of `shape`.  Fanins lean towards recent
// nodes so the networks are deep; tables are random.  With `bug`, the
// same network (every draw identical) with one table bit flipped.
Network random_logic_network(const RandomShape& shape, std::uint64_t seed,
                             const Bug* bug = nullptr) {
  std::mt19937_64 rng(seed);
  Network n("rand" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (unsigned i = 0; i < shape.inputs; ++i)
    pool.push_back(n.add_input("i" + std::to_string(i)));
  std::vector<NodeId> latches;
  for (unsigned i = 0; i < shape.latches; ++i) {
    latches.push_back(n.add_latch_placeholder("l" + std::to_string(i)));
    pool.push_back(latches.back());
  }
  pool.push_back(n.add_constant(false));
  pool.push_back(n.add_constant(true));
  std::vector<NodeId> nodes;
  for (std::size_t j = 0; j < shape.arities.size(); ++j) {
    unsigned k = shape.arities[j];
    std::vector<NodeId> fanins;
    for (unsigned i = 0; i < k; ++i) {
      std::uint64_t r = rng();
      std::size_t window = std::min<std::size_t>(pool.size(), 6);
      fanins.push_back((r & 1) ? pool[pool.size() - 1 - (r >> 1) % window]
                               : pool[(r >> 1) % pool.size()]);
    }
    std::vector<std::uint64_t> words(k <= 6 ? 1 : std::size_t{1} << (k - 6));
    for (auto& w : words) w = rng();
    if (k < 6) words[0] &= (std::uint64_t{1} << (std::size_t{1} << k)) - 1;
    if (bug && bug->node == j) {
      std::size_t m = bug->minterm % (std::size_t{1} << k);
      words[m / 64] ^= std::uint64_t{1} << (m % 64);
    }
    nodes.push_back(n.add_logic(std::move(fanins),
                                TruthTable::from_words(k, std::move(words))));
    pool.push_back(nodes.back());
  }
  for (unsigned o = 0; o < shape.outputs; ++o)
    n.add_output(nodes[nodes.size() - 1 - o % nodes.size()],
                 "o" + std::to_string(o));
  for (NodeId l : latches) n.connect_latch(l, pool[rng() % pool.size()]);
  n.check();
  return n;
}

std::vector<unsigned> arity_cycle(std::initializer_list<unsigned> ks,
                                  std::size_t count) {
  std::vector<unsigned> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(ks.begin()[i % ks.size()]);
  return out;
}

TEST(Simulator, CompiledKernelMatchesLaneReference) {
  // Every arity class of the kernel: constant tables (k=0), single
  // inputs, the 5- and 6-input mux trees, and the lane-loop fallback for
  // 7 and 16 inputs, chained over several levels.
  const std::vector<RandomShape> shapes = {
      {5, 0, arity_cycle({0, 1, 5, 6, 7, 16}, 36), 6},
      {9, 2, arity_cycle({6, 1, 16, 5, 0, 7, 2}, 49), 4},
      {3, 0, arity_cycle({1, 5, 6}, 24), 3},
      {20, 1, arity_cycle({16, 7, 6, 5, 1, 0}, 30), 5},
  };
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Network n = random_logic_network(shapes[s], 1000 * s + seed);
      std::mt19937_64 rng(seed * 7919);
      for (int round = 0; round < 4; ++round) {
        std::vector<std::uint64_t> words(n.num_inputs() + n.num_latches());
        for (auto& w : words) w = rng();
        EXPECT_EQ(simulate64(n, words), reference_simulate(n, words))
            << "shape " << s << " seed " << seed << " round " << round;
      }
    }
  }
}

TEST(Simulator, OutputTruthTableMatchesLaneReference) {
  // 3 PIs (one partial block) and 8 PIs (four full blocks).
  for (unsigned pis : {3u, 8u}) {
    Network n = random_logic_network(
        {pis, 0, arity_cycle({2, 7, 1, 6, 5, 0}, 18), 2}, 77 + pis);
    for (std::size_t o = 0; o < n.num_outputs(); ++o) {
      TruthTable t = output_truth_table(n, o);
      for (std::size_t base = 0; base < t.num_minterms(); base += 64) {
        std::vector<std::uint64_t> words(pis);
        for (unsigned s = 0; s < pis; ++s)
          for (unsigned lane = 0; lane < 64; ++lane)
            if (((base + lane) >> s) & 1) words[s] |= std::uint64_t{1} << lane;
        std::uint64_t ref = reference_simulate(n, words)[o];
        for (std::size_t lane = 0; lane < 64 && base + lane < t.num_minterms();
             ++lane)
          EXPECT_EQ(t.bit(base + lane), ((ref >> lane) & 1) != 0);
      }
    }
  }
}

// A seeded bug-injected pair and the verdict the simulator gave it
// before the kernel was compiled: pins the round -> output -> lane
// search order, not just the equivalent/inequivalent bit.
struct PinnedPair {
  RandomShape shape;
  std::uint64_t seed;
  Bug bug;
  bool equivalent;
  std::size_t failing_output;
  const char* counterexample;
};

TEST(Simulator, PinnedCounterexamplesOnBugInjectedPairs) {
  const std::vector<PinnedPair> pairs = {
      // 4 sources: one partial exhaustive block.
      {{4, 0, arity_cycle({2, 3, 1}, 12), 2}, 11, {4, 188}, false, 1, "0x9"},
      // 12 sources with latches: exhaustive, several blocks; the failing
      // output is a latch D input.
      {{10, 2, arity_cycle({2, 4, 6}, 30), 3}, 12, {24, 40}, false, 2, "0xe"},
      // 14 sources: the default exhaustive limit.
      {{14, 0, arity_cycle({3, 5, 7}, 40), 2}, 13, {35, 114}, false, 0,
       "0x300e"},
      // 23 sources: random mode, 16-input nodes on the paths.
      {{20, 3, arity_cycle({2, 6, 16, 1}, 60), 4}, 14, {52, 40}, false, 1,
       "0x210154"},
      // 70 sources: random mode, two-word counterexample.
      {{70, 0, arity_cycle({2, 3, 6}, 50), 3}, 15, {44, 77}, false, 0,
       "0x39_0f0256643a70a76c"},
      // 30 sources with latches: random mode.
      {{28, 2, arity_cycle({5, 1, 6, 2}, 80), 6}, 16, {77, 40}, false, 2,
       "0x162ac91f"},
      // 6 sources: exactly one full exhaustive block.
      {{6, 0, arity_cycle({6, 2, 1}, 15), 2}, 17, {13, 77}, false, 1, "0x1"},
      // 18 sources, bug in a 7-input node (lane-loop fallback).
      {{18, 0, arity_cycle({7, 2, 5}, 33), 3}, 18, {27, 40}, false, 2,
       "0x36ffe"},
      // The same shape with a bug no random vector reaches.
      {{18, 0, arity_cycle({7, 2, 5}, 33), 3}, 18, {30, 100}, true, 0, "0x0"},
  };
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PinnedPair& pp = pairs[p];
    Network good = random_logic_network(pp.shape, pp.seed);
    Network bad = random_logic_network(pp.shape, pp.seed, &pp.bug);
    EquivalenceResult r = check_equivalence(good, bad);
    EXPECT_EQ(r.equivalent, pp.equivalent) << "pair " << p;
    EXPECT_EQ(r.failing_output, pp.failing_output) << "pair " << p;
    EXPECT_EQ(r.counterexample_hex(), pp.counterexample) << "pair " << p;
  }
}

}  // namespace
}  // namespace dagmap
