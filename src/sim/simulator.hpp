// Bit-parallel simulation and combinational equivalence checking.
//
// Every mapping step in this library is validated by simulation: a mapped
// netlist must behave exactly like its subject graph, and a subject graph
// like the network it decomposes.  Simulation is 64-way bit-parallel:
// a network is compiled once into a flat program and every node is
// evaluated one 64-bit word at a time (Logic nodes of up to 6 inputs as
// a mux tree over their table).  Equivalence checking is exhaustive up
// to `exhaustive_limit` (default 14) combinational sources and uses
// seeded random vectors beyond that.
//
// Sequential circuits are checked combinationally: latch outputs are
// treated as extra inputs and latch D signals as extra outputs, which is
// exactly the transformation under which mapping must preserve behaviour.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/network.hpp"

namespace dagmap {

/// One 64-vector simulation pass.  `source_words[i]` drives the i-th
/// combinational source in order: first all primary inputs, then all latch
/// outputs.  Returns the words of all primary outputs followed by all
/// latch D inputs.  Every latch must be connected (ContractError
/// otherwise).
std::vector<std::uint64_t> simulate64(const Network& net,
                                      std::span<const std::uint64_t> source_words);

/// Empty when `a` and `b` have the same interface (equal PI, PO and
/// latch counts; equal PI and PO names in order), else a one-line
/// description of the first difference, e.g.
/// "primary output 2 name differs: 'sum' vs 'carry'".
std::string interface_mismatch(const Network& a, const Network& b);

/// Result of an equivalence check; `counterexample` is meaningful only
/// when `equivalent` is false (one bit per source, same order as
/// simulate64's inputs, word-packed: source i lives in bit i%64 of word
/// i/64 — networks with more than 64 combinational sources get as many
/// words as they need).
struct EquivalenceResult {
  bool equivalent = true;
  std::vector<std::uint64_t> counterexample;  ///< source assignment words
  std::size_t failing_output = 0;  ///< index in the simulate64 output order

  /// Value of source `i` in the counterexample assignment.
  bool source_bit(std::size_t i) const {
    return i / 64 < counterexample.size() &&
           ((counterexample[i / 64] >> (i % 64)) & 1) != 0;
  }

  /// Hex rendering of the assignment, most-significant word first
  /// (e.g. "0x2_0000000000000001" for sources 0 and 65).
  std::string counterexample_hex() const;
};

/// Checks combinational equivalence of two networks with identical
/// interfaces (same number/order of PIs, POs and latches; names must
/// match for PIs and POs — otherwise throws ContractError carrying
/// `interface_mismatch`).  Exhaustive when the number of sources is at
/// most `exhaustive_limit` (which must be below 64), otherwise
/// `random_rounds` rounds of 64 random vectors each (seeded,
/// deterministic).  Both networks are compiled once per call.
EquivalenceResult check_equivalence(const Network& a, const Network& b,
                                    unsigned exhaustive_limit = 14,
                                    unsigned random_rounds = 64,
                                    std::uint64_t seed = 0x5EEDF00Dull);

/// Truth table of output `output_index` over the primary inputs (requires
/// a combinational network with at most 16 PIs).
TruthTable output_truth_table(const Network& net, std::size_t output_index);

}  // namespace dagmap
