// Structural matching of pattern graphs on subject graphs (§3.2).
//
// Three match classes, in increasing permissiveness:
//   * Exact    — Rudell's tree-covering matches (Definition 2): fanout of
//                every covered internal subject node must be fully inside
//                the match.  Used by the baseline tree mapper.
//   * Standard — Definition 1: internal subject nodes may drive logic
//                outside the match, but the pattern-node -> subject-node
//                map is one-to-one.  The paper's experimental setting.
//   * Extended — Definition 3: the one-to-one requirement is dropped, so
//                the match may "unfold" the subject DAG, binding the same
//                subject node to several pattern nodes (Figure 1).
//
// Matching is a backtracking walk of the pattern DAG against the subject
// DAG, trying both orders of every NAND2's children (commutativity) and
// binding shared pattern nodes consistently.  Complexity per root is
// O(p) for tree patterns in the paper's sense; the implementation prunes
// on node kinds so failed gates abort after a few nodes.
//
// Two layers keep the per-root cost low with rich libraries:
//   * a pattern pre-index — patterns are bucketed by root kind and carry a
//     structural signature (match/signature.hpp); the same signature is
//     computed for every subject node at construction, and incompatible
//     (root, pattern) pairs are rejected in O(1) without a walk;
//   * a pruned, allocation-free walk — the matcher keeps a flat per-node
//     copy of the subject (kind and fanins, 12 B/node) so a step costs
//     one array read; one-to-one (Standard/Exact) is enforced while
//     walking, through per-thread "subject node bound" marks, so a walk
//     stops at the first pattern node that would reuse a bound subject
//     node; before descending into a NAND2/INV child pairing the walk
//     looks one level ahead and drops the pairing when a pattern child
//     cannot take its subject child (kind mismatch, or a node already
//     bound elsewhere).  Pruned subtrees hold no admissible binding, so
//     matches come out in the same order as a full walk with a post-hoc
//     filter would produce them.  Matches are deduplicated per root on
//     (gate, pins) in an epoch-stamped flat table; the walk, that table
//     and the match assembly run out of per-thread scratch buffers, and
//     matches reach the callback as `MatchView` spans into that scratch
//     (valid only during the callback; copy into a `Match` to keep one).
//
// `for_each_match` is safe to call concurrently from several threads on
// the same `Matcher` (the statistics counters are atomic; scratch is
// per-thread and left clean between calls, so one thread may interleave
// calls against several matchers), which is what the parallel wavefront
// labeler and the serve workers rely on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "library/gate_library.hpp"
#include "match/pattern_index.hpp"
#include "match/signature.hpp"
#include "netlist/network.hpp"

namespace dagmap {

/// Which of the paper's match definitions to enumerate.
enum class MatchClass : std::uint8_t { Exact, Standard, Extended };

const char* to_string(MatchClass mc);

struct MatchView;

/// One successful match of a library gate rooted at a subject node
/// (owning storage; see `MatchView` for the non-owning callback form).
struct Match {
  Match() = default;
  explicit Match(const MatchView& v);

  /// Overwrites this match with `v`, reusing the vectors' capacity (the
  /// labelers' running best is reassigned on every improvement).
  void assign(const MatchView& v);

  const Gate* gate = nullptr;
  const PatternGraph* pattern = nullptr;
  /// Subject node feeding gate pin i (the match "leaves").
  std::vector<NodeId> pin_binding;
  /// Internal subject nodes covered by the match, root included
  /// (duplicates possible under Extended matches).
  std::vector<NodeId> covered;
  /// Phase information for Boolean (NPN) matches: gate pin i reads the
  /// *complement* of pin_binding[i] iff bit i of `input_negate` is set,
  /// and the gate output is complemented iff `output_negate`.  The cover
  /// materializes these as explicit inverter instances (emit_cover's
  /// `inverter` parameter).  Structural matches leave both zero.
  std::uint8_t input_negate = 0;
  bool output_negate = false;
};

/// Non-owning view of a match: spans point into the enumerating thread's
/// scratch arena and are valid only for the duration of the callback.
struct MatchView {
  MatchView() = default;
  MatchView(const Gate* g, const PatternGraph* p, std::span<const NodeId> pins,
            std::span<const NodeId> cov)
      : gate(g), pattern(p), pin_binding(pins), covered(cov) {}
  /// A `Match` views as itself (lets owning matches flow into the same
  /// helpers, e.g. `match_arrival`).
  MatchView(const Match& m)
      : gate(m.gate), pattern(m.pattern), pin_binding(m.pin_binding),
        covered(m.covered) {}

  const Gate* gate = nullptr;
  const PatternGraph* pattern = nullptr;
  std::span<const NodeId> pin_binding;
  std::span<const NodeId> covered;
};

/// Arrival time at the match root if each leaf is available at
/// `leaf_arrival[pin_binding[i]]`: max over pins of (leaf arrival + pin
/// intrinsic delay).  This is the paper's load-independent cost.
double match_arrival(const MatchView& m, std::span<const double> leaf_arrival);

/// Aggregated matcher statistics (mergeable across threads).
struct MatchStats {
  /// (root, pattern) pairs whose backtracking walk actually ran.
  std::uint64_t attempts = 0;
  /// (root, pattern) pairs rejected in O(1) by the signature index.
  std::uint64_t pruned = 0;
  /// Walks that hit the enumeration budget (symmetric patterns on highly
  /// regular subjects); their match lists are sound but possibly
  /// incomplete.
  std::uint64_t truncations = 0;
};

/// Matcher knobs.
struct MatcherOptions {
  /// Consult the signature index before walking a pattern (off reproduces
  /// the unpruned enumeration, for benchmarking and soundness tests).
  bool use_signature_index = true;
};

/// Enumerates matches of every library gate rooted at subject nodes.
class Matcher {
 public:
  /// Both references must outlive the matcher.  Precondition: `subject`
  /// is a NAND2/INV subject graph.  When `index` is non-null it must be
  /// the PatternIndex of `lib` (same build order; checked) and must
  /// outlive the matcher — the per-construction index build is skipped,
  /// which is what the compiled-library cache and serve mode rely on.
  /// Null builds a private index (the historical behaviour, same bytes).
  Matcher(const GateLibrary& lib, const Network& subject,
          MatcherOptions options = {}, const PatternIndex* index = nullptr);

  /// Non-owning reference to a `void(const MatchView&)` callable (a
  /// function_ref): one indirect call per match, no allocation.  The
  /// callable must outlive the `for_each_match` call, which a lambda
  /// written at the call site does.
  class MatchCallback {
   public:
    template <typename F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, MatchCallback> &&
               std::is_invocable_v<F&, const MatchView&>)
    MatchCallback(F&& f)  // NOLINT(google-explicit-constructor)
        : obj_(const_cast<void*>(
              static_cast<const void*>(std::addressof(f)))),
          call_([](void* obj, const MatchView& m) {
            (*static_cast<std::remove_reference_t<F>*>(obj))(m);
          }) {}

    void operator()(const MatchView& m) const { call_(obj_, m); }

   private:
    void* obj_;
    void (*call_)(void*, const MatchView&);
  };

  /// Invokes `cb` for every deduplicated match rooted at `root`.
  /// `root` must be an internal (NAND2/INV) node.  Thread-safe.
  void for_each_match(NodeId root, MatchClass mc, MatchCallback cb) const;

  /// Convenience: collects the matches at `root` into a vector.
  std::vector<Match> matches_at(NodeId root, MatchClass mc) const;

  /// Statistics accumulated so far, merged over all threads.
  MatchStats stats() const;

  /// Total number of (root, pattern) walks so far (statistics).
  std::uint64_t attempts() const {
    return attempts_.load(std::memory_order_relaxed);
  }

  /// Number of (root, pattern) pairs pruned by the signature index.
  std::uint64_t pruned() const {
    return pruned_.load(std::memory_order_relaxed);
  }

  /// Number of attempts that hit the enumeration budget.
  std::uint64_t truncations() const {
    return truncations_.load(std::memory_order_relaxed);
  }

  /// Safety valve per (root, pattern): backtracking steps before the
  /// enumeration is cut off.
  static constexpr std::uint64_t kEnumerationBudget = 50'000;

  /// Test hook: true iff the calling thread's walk-time one-to-one marks
  /// are all clear (they must be between `for_each_match` calls).
  static bool thread_marks_clear();

  /// One subject node as the walk reads it: the pattern kind it can bind
  /// (Leaf for sources and latches) and its fanins (kNullNode if absent).
  struct FlatNode {
    NodeId fanin0 = kNullNode;
    NodeId fanin1 = kNullNode;
    PatternNode::Kind kind = PatternNode::Kind::Leaf;
  };

 private:
  const GateLibrary& lib_;
  MatcherOptions options_;
  /// View of the subject's cached fanout counts (no per-matcher copy;
  /// valid while the subject is not structurally mutated).
  std::span<const std::uint32_t> fanout_counts_;
  std::vector<NodeSignature> subject_sigs_;
  /// Flat copy of the subject's NAND2/INV structure (one record per node).
  std::vector<FlatNode> flat_;
  /// Library-side pre-index (match/pattern_index.hpp): built privately
  /// when the constructor receives no external one, otherwise empty.
  PatternIndex owned_index_;
  /// The index actually consulted (&owned_index_ or the external one).
  const PatternIndex* index_;
  mutable std::atomic<std::uint64_t> attempts_{0};
  mutable std::atomic<std::uint64_t> pruned_{0};
  mutable std::atomic<std::uint64_t> truncations_{0};
  /// Match count of the last `matches_at` call (reserve hint).
  mutable std::atomic<std::uint32_t> last_match_count_{8};
};

}  // namespace dagmap
