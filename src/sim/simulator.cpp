#include "sim/simulator.hpp"

#include <bit>
#include <cstdio>
#include <unordered_map>

#include "netlist/assert.hpp"

namespace dagmap {

namespace {

// xorshift128+ — fast deterministic vector source.
struct Rng {
  std::uint64_t s0, s1;
  explicit Rng(std::uint64_t seed)
      : s0(seed ^ 0x9E3779B97F4A7C15ull), s1(seed * 2685821657736338717ull + 1) {}
  std::uint64_t next() {
    std::uint64_t x = s0, y = s1;
    s0 = y;
    x ^= x << 23;
    s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1 + y;
  }
};

// Logic nodes of up to this many inputs evaluate as a Shannon mux tree
// over their single-word table; wider ones fall back to a lane loop.
constexpr unsigned kMuxTreeMaxInputs = 6;

// A compiled op is one 32-bit word: the op code in the low 5 bits, the
// offset of its table in the program's table words above them.  Codes
// 0..16 are Logic nodes of that many inputs, then the subject graph
// primitives, then sources (seeded, not evaluated).
constexpr std::uint32_t kCodeBits = 5;
constexpr std::uint32_t kOpInv = TruthTable::kMaxVars + 1;
constexpr std::uint32_t kOpNand2 = TruthTable::kMaxVars + 2;
constexpr std::uint32_t kOpSource = TruthTable::kMaxVars + 3;
static_assert(kOpSource < (1u << kCodeBits));

// Number of fanin slots an op of `code` reads.
constexpr unsigned op_arity(std::uint32_t code) {
  return code <= TruthTable::kMaxVars ? code
         : code == kOpInv             ? 1
         : code == kOpNand2           ? 2
                                      : 0;
}

// Logic node of K <= 6 inputs: 2^K - 1 word-wide muxes.  The leaf level
// selects between table bits 2j and 2j+1 on input 0 (each bit broadcast
// to a full word), every further level between adjacent results on the
// next input, so lane L ends up holding bit m_L of the table.
template <unsigned K>
std::uint64_t eval_mux_tree(std::uint64_t table, const std::uint64_t* value,
                            const std::uint32_t* fanin) {
  if constexpr (K == 0) {
    return 0 - (table & 1);
  } else {
    std::uint64_t v[std::size_t{1} << (K - 1)];
    const std::uint64_t x0 = value[fanin[0]];
    for (unsigned j = 0; j < (1u << (K - 1)); ++j) {
      std::uint64_t c0 = 0 - ((table >> (2 * j)) & 1);
      std::uint64_t c1 = 0 - ((table >> (2 * j + 1)) & 1);
      v[j] = c0 ^ ((c0 ^ c1) & x0);
    }
    for (unsigned i = 1; i < K; ++i) {
      const std::uint64_t x = value[fanin[i]];
      for (unsigned j = 0; j < (1u << (K - 1 - i)); ++j)
        v[j] = v[2 * j] ^ ((v[2 * j] ^ v[2 * j + 1]) & x);
    }
    return v[0];
  }
}

// Logic node of more than 6 inputs: one lane at a time, reading the
// table words directly.
std::uint64_t eval_lanes(const std::uint64_t* table, unsigned k,
                         const std::uint64_t* value,
                         const std::uint32_t* fanin) {
  std::uint64_t x[TruthTable::kMaxVars];
  for (unsigned i = 0; i < k; ++i) x[i] = value[fanin[i]];
  std::uint64_t out = 0;
  for (unsigned lane = 0; lane < 64; ++lane) {
    std::size_t m = 0;
    for (unsigned i = 0; i < k; ++i) m |= ((x[i] >> lane) & 1) << i;
    out |= ((table[m >> 6] >> (m & 63)) & 1) << lane;
  }
  return out;
}

// A network flattened once for repeated 64-vector simulation.  Node ids
// are already a topological order (a node's fanins always have smaller
// ids; latch D edges are not combinational), so value slot i holds node
// i and op i computes it.  Fanins are one flat slot array in op order;
// Logic tables live deduplicated in one word array.
class SimProgram {
 public:
  explicit SimProgram(const Network& net) {
    const std::size_t n = net.size();
    ops_.reserve(n);
    // Subject graphs and parsed BLIF have at most two fanins per node; a
    // separate counting pass over the fanins would cost more than the
    // occasional regrowth on wider netlists.
    fanin_slots_.reserve(2 * n);
    values_.assign(n, 0);

    std::unordered_map<std::uint64_t, std::uint32_t> small_tables;
    for (NodeId id = 0; id < n; ++id) {
      std::uint32_t code = kOpSource, table = 0;
      switch (net.kind(id)) {
        case NodeKind::PrimaryInput:
        case NodeKind::Const0:
        case NodeKind::Latch: break;
        case NodeKind::Const1: values_[id] = ~std::uint64_t{0}; break;
        case NodeKind::Inv: code = kOpInv; break;
        case NodeKind::Nand2: code = kOpNand2; break;
        case NodeKind::Logic: {
          const TruthTable& f = net.function(id);
          std::span<const std::uint64_t> words = f.words();
          code = f.num_vars();
          table = static_cast<std::uint32_t>(tables_.size());
          if (code <= kMuxTreeMaxInputs) {
            auto [it, fresh] = small_tables.try_emplace(words[0], table);
            if (fresh) tables_.push_back(words[0]);
            table = it->second;
          } else {
            tables_.insert(tables_.end(), words.begin(), words.end());
          }
          break;
        }
      }
      DAGMAP_ASSERT_MSG(table < (1u << (32 - kCodeBits)),
                        "simulation tables exceed the op encoding");
      if (code != kOpSource)
        for (NodeId f : net.fanins(id)) {
          DAGMAP_ASSERT_MSG(f < id, "fanin id not below its reader's");
          fanin_slots_.push_back(f);
        }
      ops_.push_back(table << kCodeBits | code);
    }

    source_slots_.assign(net.inputs().begin(), net.inputs().end());
    source_slots_.insert(source_slots_.end(), net.latches().begin(),
                         net.latches().end());
    out_slots_.reserve(net.num_outputs() + net.num_latches());
    for (const Output& o : net.outputs()) out_slots_.push_back(o.node);
    for (NodeId l : net.latches()) {
      std::span<const NodeId> d = net.fanins(l);
      if (d.empty())
        throw ContractError("simulation: latch '" + net.name(l) +
                            "' has no D input (unconnected placeholder)");
      out_slots_.push_back(d[0]);
    }
  }

  std::size_t num_sources() const { return source_slots_.size(); }
  std::size_t num_outputs() const { return out_slots_.size(); }

  /// Simulates 64 vectors; `source_words[i]` drives source i (PIs, then
  /// latch outputs).  Results are read with `output`.
  void run(std::span<const std::uint64_t> source_words) {
    DAGMAP_ASSERT_MSG(source_words.size() == source_slots_.size(),
                      "simulate64: wrong number of source words");
    std::uint64_t* value = values_.data();
    for (std::size_t i = 0; i < source_slots_.size(); ++i)
      value[source_slots_[i]] = source_words[i];
    const std::uint32_t* fi = fanin_slots_.data();
    const std::uint64_t* tables = tables_.data();
    for (std::size_t id = 0; id < ops_.size(); ++id) {
      const std::uint32_t code = ops_[id] & ((1u << kCodeBits) - 1);
      const std::uint64_t* table = tables + (ops_[id] >> kCodeBits);
      std::uint64_t r;
      switch (code) {
        case kOpSource: continue;
        case kOpInv: r = ~value[fi[0]]; break;
        case kOpNand2: r = ~(value[fi[0]] & value[fi[1]]); break;
        case 0: r = eval_mux_tree<0>(*table, value, fi); break;
        case 1: r = eval_mux_tree<1>(*table, value, fi); break;
        case 2: r = eval_mux_tree<2>(*table, value, fi); break;
        case 3: r = eval_mux_tree<3>(*table, value, fi); break;
        case 4: r = eval_mux_tree<4>(*table, value, fi); break;
        case 5: r = eval_mux_tree<5>(*table, value, fi); break;
        case 6: r = eval_mux_tree<6>(*table, value, fi); break;
        default: r = eval_lanes(table, code, value, fi); break;
      }
      value[id] = r;
      fi += op_arity(code);
    }
  }

  std::uint64_t output(std::size_t i) const { return values_[out_slots_[i]]; }

 private:
  std::vector<std::uint32_t> ops_;  ///< one per node, see kCodeBits
  std::vector<std::uint32_t> fanin_slots_;
  std::vector<std::uint64_t> tables_;
  std::vector<std::uint32_t> source_slots_;
  std::vector<std::uint32_t> out_slots_;
  std::vector<std::uint64_t> values_;
};

// Exhaustive counter pattern: lane L of the block starting at assignment
// `base` (a multiple of 64, or 0) encodes assignment base + L.  Sources
// 0..5 cycle within the word, the rest are constant across the block.
void counter_pattern(std::size_t base, std::uint64_t lane_mask,
                     std::span<std::uint64_t> words) {
  static constexpr std::uint64_t kLaneBits[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  for (std::size_t s = 0; s < words.size(); ++s)
    words[s] = s < 6 ? kLaneBits[s] & lane_mask
                     : ((base >> s) & 1 ? lane_mask : 0);
}

// Lanes in use by a block of exhaustive simulation over 2^n assignments.
std::uint64_t block_mask(std::size_t num_sources) {
  return num_sources >= 6
             ? ~std::uint64_t{0}
             : (std::uint64_t{1} << (std::size_t{1} << num_sources)) - 1;
}

}  // namespace

std::string EquivalenceResult::counterexample_hex() const {
  if (counterexample.empty()) return "0x0";
  std::string out = "0x";
  char buf[17];
  for (std::size_t w = counterexample.size(); w-- > 0;) {
    bool leading = out.size() == 2;
    std::snprintf(buf, sizeof buf, leading ? "%llx" : "%016llx",
                  static_cast<unsigned long long>(counterexample[w]));
    out += buf;
    if (w != 0) out += '_';
  }
  return out;
}

std::vector<std::uint64_t> simulate64(
    const Network& net, std::span<const std::uint64_t> source_words) {
  SimProgram prog(net);
  prog.run(source_words);
  std::vector<std::uint64_t> out(prog.num_outputs());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = prog.output(i);
  return out;
}

std::string interface_mismatch(const Network& a, const Network& b) {
  auto count = [](const char* what, std::size_t x, std::size_t y) {
    return std::string(what) + " count differs: " + std::to_string(x) +
           " vs " + std::to_string(y);
  };
  auto name = [](const char* what, std::size_t i, const std::string& x,
                 const std::string& y) {
    return std::string(what) + " " + std::to_string(i) + " name differs: '" +
           x + "' vs '" + y + "'";
  };
  if (a.num_inputs() != b.num_inputs())
    return count("primary input", a.num_inputs(), b.num_inputs());
  if (a.num_outputs() != b.num_outputs())
    return count("primary output", a.num_outputs(), b.num_outputs());
  if (a.num_latches() != b.num_latches())
    return count("latch", a.num_latches(), b.num_latches());
  for (std::size_t i = 0; i < a.num_inputs(); ++i)
    if (a.name(a.inputs()[i]) != b.name(b.inputs()[i]))
      return name("primary input", i, a.name(a.inputs()[i]),
                  b.name(b.inputs()[i]));
  for (std::size_t i = 0; i < a.num_outputs(); ++i)
    if (a.outputs()[i].name != b.outputs()[i].name)
      return name("primary output", i, a.outputs()[i].name,
                  b.outputs()[i].name);
  return {};
}

EquivalenceResult check_equivalence(const Network& a, const Network& b,
                                    unsigned exhaustive_limit,
                                    unsigned random_rounds,
                                    std::uint64_t seed) {
  std::string mismatch = interface_mismatch(a, b);
  if (!mismatch.empty()) throw ContractError("interface mismatch: " + mismatch);
  DAGMAP_ASSERT_MSG(exhaustive_limit < 64,
                    "exhaustive_limit must be below 64");

  SimProgram pa(a), pb(b);
  std::size_t num_sources = pa.num_sources();
  std::vector<std::uint64_t> words(num_sources, 0);

  auto compare_round = [&](std::uint64_t lane_mask) -> EquivalenceResult {
    pa.run(words);
    pb.run(words);
    for (std::size_t i = 0; i < pa.num_outputs(); ++i) {
      std::uint64_t diff = (pa.output(i) ^ pb.output(i)) & lane_mask;
      if (diff) {
        unsigned lane = static_cast<unsigned>(std::countr_zero(diff));
        std::vector<std::uint64_t> cex((num_sources + 63) / 64, 0);
        for (std::size_t s = 0; s < num_sources; ++s)
          if ((words[s] >> lane) & 1) cex[s / 64] |= std::uint64_t{1} << (s % 64);
        return {false, std::move(cex), i};
      }
    }
    return {};
  };

  if (num_sources <= exhaustive_limit) {
    // Enumerate all assignments, 64 per round.
    std::size_t total = std::size_t{1} << num_sources;
    std::uint64_t lane_mask = block_mask(num_sources);
    for (std::size_t base = 0; base < total; base += 64) {
      counter_pattern(base, lane_mask, words);
      EquivalenceResult r = compare_round(lane_mask);
      if (!r.equivalent) return r;
    }
    return {};
  }

  Rng rng(seed);
  for (unsigned round = 0; round < random_rounds; ++round) {
    for (auto& w : words) w = rng.next();
    EquivalenceResult r = compare_round(~std::uint64_t{0});
    if (!r.equivalent) return r;
  }
  return {};
}

TruthTable output_truth_table(const Network& net, std::size_t output_index) {
  DAGMAP_ASSERT_MSG(net.num_latches() == 0, "combinational networks only");
  DAGMAP_ASSERT_MSG(net.num_inputs() <= TruthTable::kMaxVars,
                    "too many PIs for a truth table");
  DAGMAP_ASSERT(output_index < net.num_outputs());
  unsigned nv = static_cast<unsigned>(net.num_inputs());
  SimProgram prog(net);
  std::size_t total = std::size_t{1} << nv;
  std::uint64_t lane_mask = block_mask(nv);
  std::vector<std::uint64_t> words(nv);
  std::vector<std::uint64_t> table;
  for (std::size_t base = 0; base < total; base += 64) {
    counter_pattern(base, lane_mask, words);
    prog.run(words);
    table.push_back(prog.output(output_index) & lane_mask);
  }
  return TruthTable::from_words(nv, std::move(table));
}

}  // namespace dagmap
