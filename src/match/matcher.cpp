#include "match/matcher.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "netlist/assert.hpp"

namespace dagmap {

const char* to_string(MatchClass mc) {
  switch (mc) {
    case MatchClass::Exact: return "exact";
    case MatchClass::Standard: return "standard";
    case MatchClass::Extended: return "extended";
  }
  return "?";
}

Match::Match(const MatchView& v)
    : gate(v.gate),
      pattern(v.pattern),
      pin_binding(v.pin_binding.begin(), v.pin_binding.end()),
      covered(v.covered.begin(), v.covered.end()) {}

void Match::assign(const MatchView& v) {
  gate = v.gate;
  pattern = v.pattern;
  pin_binding.assign(v.pin_binding.begin(), v.pin_binding.end());
  covered.assign(v.covered.begin(), v.covered.end());
  input_negate = 0;
  output_negate = false;
}

double match_arrival(const MatchView& m, std::span<const double> leaf_arrival) {
  double arrival = 0.0;
  for (std::size_t pin = 0; pin < m.pin_binding.size(); ++pin) {
    double a = leaf_arrival[m.pin_binding[pin]] + m.gate->pins[pin].delay();
    arrival = std::max(arrival, a);
  }
  return arrival;
}

namespace {

// Exact per-root set of (gate, pins) keys: open addressing over slots
// stamped with the current epoch, so starting a new root is O(1).  Keys
// are stored as [gate, pin count, pins...] records in one flat array.
class MatchDedup {
 public:
  void reset() {
    keys_.clear();
    used_ = 0;
    if (++epoch_ == 0) {  // wrapped: forget every stale stamp once
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  /// True iff (gate, pins) was not yet in the set (it is now).
  bool insert(std::uint32_t gate, std::span<const NodeId> pins) {
    if (2 * (used_ + 1) > stamp_.size()) grow();
    std::size_t mask = stamp_.size() - 1;
    for (std::size_t i = hash(gate, pins) & mask;; i = (i + 1) & mask) {
      if (stamp_[i] != epoch_) {
        stamp_[i] = epoch_;
        ref_[i] = static_cast<std::uint32_t>(keys_.size());
        keys_.push_back(gate);
        keys_.push_back(static_cast<std::uint32_t>(pins.size()));
        keys_.insert(keys_.end(), pins.begin(), pins.end());
        ++used_;
        return true;
      }
      if (same(ref_[i], gate, pins)) return false;
    }
  }

 private:
  static std::size_t hash(std::uint32_t gate, std::span<const NodeId> pins) {
    std::uint64_t h = 0xCBF29CE484222325ull ^ gate;
    for (NodeId leaf : pins) h = (h ^ leaf) * 0x100000001B3ull;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  bool same(std::uint32_t ref, std::uint32_t gate,
            std::span<const NodeId> pins) const {
    return keys_[ref] == gate && keys_[ref + 1] == pins.size() &&
           std::equal(pins.begin(), pins.end(), keys_.begin() + ref + 2);
  }

  void grow() {
    std::size_t size = std::max<std::size_t>(64, 2 * stamp_.size());
    stamp_.assign(size, 0u);
    ref_.assign(size, 0u);
    if (epoch_ == 0) epoch_ = 1;
    std::size_t mask = size - 1;
    for (std::size_t r = 0; r < keys_.size(); r += 2 + keys_[r + 1]) {
      std::span<const NodeId> pins(keys_.data() + r + 2, keys_[r + 1]);
      std::size_t i = hash(keys_[r], pins) & mask;
      while (stamp_[i] == epoch_) i = (i + 1) & mask;
      stamp_[i] = epoch_;
      ref_[i] = static_cast<std::uint32_t>(r);
    }
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> ref_;
  std::vector<std::uint32_t> keys_;
  std::size_t used_ = 0;
  std::uint32_t epoch_ = 0;
};

// Per-thread scratch arena: every buffer the enumeration needs, reused
// across patterns, roots, and `for_each_match` calls so the steady state
// allocates nothing.  `bound` holds the walk-time one-to-one marks,
// indexed by subject node and grown to the largest subject seen; it is
// all-zero between calls, so one thread may interleave calls against
// several matchers.
struct MatchScratch {
  std::vector<NodeId> bind;                            // pattern -> subject
  std::vector<std::pair<std::uint32_t, NodeId>> todo;  // walk agenda (stack)
  std::vector<std::uint8_t> bound;                     // subject node bound
  std::vector<NodeId> pins;                            // MatchView arena
  std::vector<NodeId> covered;                         // MatchView arena
  MatchDedup seen;                                     // per-root match dedup
};

MatchScratch& thread_scratch() {
  static thread_local MatchScratch scratch;
  return scratch;
}

using FlatNode = Matcher::FlatNode;
using PKind = PatternNode::Kind;

// Bounded enumerator of all bindings of one pattern at one root; storage
// lives in the scratch arena.  With `kOneToOne`, a subject node may be
// bound by at most one pattern node: the walk marks a subject node when a
// pattern node takes it and fails at once when a second one would.
// Before queueing a child pairing it checks that each pair can still
// bind (`admits`).  Both cuts drop only subtrees without an admissible
// complete binding, so the bindings come out in the order of the full
// walk with a one-to-one filter on complete bindings.
template <bool kOneToOne>
class Enumerator {
 public:
  using Pair = std::pair<std::uint32_t, NodeId>;

  Enumerator(const FlatNode* subject, const PatternGraph& pg,
             const std::vector<std::uint64_t>& sym, std::uint64_t budget,
             MatchScratch& scratch)
      : subject_(subject), pg_(pg), sym_(sym.data()), budget_(budget),
        bind_(scratch.bind), marks_(scratch.bound.data()) {
    bind_.assign(pg.nodes.size(), kNullNode);
    // Every pattern edge queues at most one pair at a time.
    if (scratch.todo.size() < 2 * pg.nodes.size() + 2)
      scratch.todo.resize(2 * pg.nodes.size() + 2);
    top_ = scratch.todo.data();
  }

  Enumerator(const Enumerator&) = delete;
  Enumerator& operator=(const Enumerator&) = delete;

  /// Enumerates every complete binding; `on_complete` reads `bind()`.
  template <typename F>
  void run(NodeId root, const F& on_complete) {
    base_ = top_;
    *top_++ = {pg_.root, root};
    recurse(on_complete);
  }

  const std::vector<NodeId>& bind() const { return bind_; }
  bool truncated() const { return budget_ == 0; }

 private:
  // Binds pattern node p to subject node s unless one-to-one forbids it.
  bool take(std::uint32_t p, NodeId s) {
    if (kOneToOne) {
      if (marks_[s]) return false;
      marks_[s] = 1;
    }
    bind_[p] = s;
    return true;
  }

  void release(std::uint32_t p, NodeId s) {
    if (kOneToOne) marks_[s] = 0;
    bind_[p] = kNullNode;
  }

  // Lookahead for a pending pair: false iff pairing pattern child `p`
  // with subject node `s` can no longer succeed — `p` is bound to a
  // different node, `s` has the wrong kind for an internal `p`, or `s` is
  // already bound by another pattern node.  Bindings above the pair stay
  // in place until it is popped, so such a pair fails whatever the
  // sibling subtree binds in between.
  bool admits(std::uint32_t p, NodeId s) const {
    if (bind_[p] != kNullNode) return bind_[p] == s;
    PKind k = pg_.nodes[p].kind;
    if (k != PKind::Leaf && subject_[s].kind != k) return false;
    return !(kOneToOne && marks_[s]);
  }

  template <typename F>
  void recurse(const F& on_complete) {
    if (budget_ == 0) return;
    --budget_;
    if (top_ == base_) {
      on_complete();
      return;
    }
    const Pair ps = *--top_;
    const std::uint32_t p = ps.first;
    const NodeId s = ps.second;

    if (bind_[p] != kNullNode) {
      if (bind_[p] == s) recurse(on_complete);
    } else {
      const PatternNode& pn = pg_.nodes[p];
      const FlatNode& sn = subject_[s];
      switch (pn.kind) {
        case PKind::Leaf:
          if (take(p, s)) {
            recurse(on_complete);
            release(p, s);
          }
          break;

        case PKind::Inv: {
          auto p0 = static_cast<std::uint32_t>(pn.fanin0);
          if (sn.kind == PKind::Inv && admits(p0, sn.fanin0) && take(p, s)) {
            *top_++ = {p0, sn.fanin0};
            recurse(on_complete);
            --top_;
            release(p, s);
          }
          break;
        }

        case PKind::Nand2:
          if (sn.kind == PKind::Nand2 && take(p, s)) {
            NodeId s0 = sn.fanin0;
            NodeId s1 = sn.fanin1;
            auto p0 = static_cast<std::uint32_t>(pn.fanin0);
            auto p1 = static_cast<std::uint32_t>(pn.fanin1);
            if (admits(p0, s0) && admits(p1, s1)) {
              top_[0] = {p0, s0};
              top_[1] = {p1, s1};
              top_ += 2;
              recurse(on_complete);
              top_ -= 2;
            }
            // The swapped pairing explores genuinely new matches only
            // when the children are not symmetric (or the subject
            // children differ — matching x,x to symmetric children twice
            // is also redundant).
            if (sym_[p0] != sym_[p1] && s0 != s1 && admits(p0, s1) &&
                admits(p1, s0)) {
              top_[0] = {p0, s1};
              top_[1] = {p1, s0};
              top_ += 2;
              recurse(on_complete);
              top_ -= 2;
            }
            release(p, s);
          }
          break;
      }
    }
    *top_++ = ps;
  }

  const FlatNode* subject_;
  const PatternGraph& pg_;
  const std::uint64_t* sym_;
  std::uint64_t budget_;
  std::vector<NodeId>& bind_;
  std::uint8_t* marks_;
  Pair* base_ = nullptr;
  Pair* top_ = nullptr;
};

std::vector<FlatNode> flatten_subject(const Network& subject) {
  std::vector<FlatNode> flat(subject.size());
  for (NodeId n = 0; n < subject.size(); ++n) {
    NodeKind k = subject.kind(n);
    if (k != NodeKind::Inv && k != NodeKind::Nand2) continue;
    std::span<const NodeId> f = subject.fanins(n);
    flat[n].kind = k == NodeKind::Inv ? PKind::Inv : PKind::Nand2;
    flat[n].fanin0 = f[0];
    if (k == NodeKind::Nand2) flat[n].fanin1 = f[1];
  }
  return flat;
}

}  // namespace

Matcher::Matcher(const GateLibrary& lib, const Network& subject,
                 MatcherOptions options, const PatternIndex* index)
    : lib_(lib), options_(options),
      fanout_counts_(subject.fanout_counts()),
      subject_sigs_(compute_subject_signatures(subject)),
      flat_(flatten_subject(subject)),
      owned_index_(index ? PatternIndex{} : PatternIndex::build(lib)),
      index_(index ? index : &owned_index_) {
  DAGMAP_ASSERT_MSG(subject.is_subject_graph(),
                    "matcher requires a NAND2/INV subject graph");
  DAGMAP_ASSERT_MSG(index_->matches_shape(lib_),
                    "pattern index does not belong to this library");
}

bool Matcher::thread_marks_clear() {
  const std::vector<std::uint8_t>& bound = thread_scratch().bound;
  return std::all_of(bound.begin(), bound.end(),
                     [](std::uint8_t b) { return b == 0; });
}

void Matcher::for_each_match(NodeId root, MatchClass mc,
                             MatchCallback cb) const {
  DAGMAP_ASSERT(root < flat_.size());
  PKind rk = flat_[root].kind;
  DAGMAP_ASSERT_MSG(rk != PKind::Leaf,
                    "matching roots must be internal subject nodes");
  const std::vector<PatternEntry>& candidates =
      rk == PKind::Inv ? index_->inv_rooted : index_->nand_rooted;
  const NodeSignature& root_sig = subject_sigs_[root];
  bool one_to_one = mc != MatchClass::Extended;  // Definitions 1/2

  MatchScratch& sc = thread_scratch();
  if (one_to_one && sc.bound.size() < flat_.size())
    sc.bound.resize(flat_.size(), 0);
  // Deduplicate complete matches (symmetric patterns can reach the same
  // binding through different child orders).
  sc.seen.reset();
  MatchStats local;

  // One (root, pattern) attempt; instantiated per one-to-one mode so the
  // walk carries no per-step mode test.
  auto attempt = [&](const PatternEntry& ref, auto one_to_one_tag) {
    constexpr bool kOneToOne = decltype(one_to_one_tag)::value;
    const Gate* gate = &lib_.gates()[ref.gate_index];
    const PatternGraph& pg = gate->patterns[ref.pattern_index];
    Enumerator<kOneToOne> en(flat_.data(), pg, ref.sym_hash,
                             kEnumerationBudget, sc);
    en.run(root, [&] {
      const std::vector<NodeId>& bind = en.bind();

      // Exact-match fanout condition (Definition 2 condition 3): every
      // covered non-root pattern node's subject image must have exactly
      // the pattern node's out-degree.
      if (mc == MatchClass::Exact) {
        for (std::uint32_t p = 0; p < pg.nodes.size(); ++p) {
          if (p == pg.root || pg.nodes[p].kind == PKind::Leaf) continue;
          if (fanout_counts_[bind[p]] != ref.out_deg[p]) return;
        }
      }

      sc.pins.assign(gate->num_inputs(), kNullNode);
      sc.covered.clear();
      for (std::uint32_t p = 0; p < pg.nodes.size(); ++p) {
        const PatternNode& pn = pg.nodes[p];
        if (pn.kind == PKind::Leaf)
          sc.pins[pn.pin] = bind[p];
        else
          sc.covered.push_back(bind[p]);
      }
      for (NodeId leaf : sc.pins) DAGMAP_ASSERT(leaf != kNullNode);

      if (!sc.seen.insert(ref.gate_index, sc.pins)) return;

      cb(MatchView(gate, &pg, sc.pins, sc.covered));
    });
    if (en.truncated()) ++local.truncations;
  };

  try {
    for (const PatternEntry& ref : candidates) {
      if (options_.use_signature_index &&
          !signature_admits(ref.sig, root_sig, mc)) {
        ++local.pruned;
        continue;
      }
      ++local.attempts;
      if (one_to_one)
        attempt(ref, std::true_type{});
      else
        attempt(ref, std::false_type{});
    }
  } catch (...) {
    // A walk always unbinds what it bound, except when the callback
    // throws out of the middle of one: clear the marks it left.
    if (one_to_one)
      std::fill(sc.bound.begin(), sc.bound.begin() + flat_.size(), 0);
    throw;
  }

  attempts_.fetch_add(local.attempts, std::memory_order_relaxed);
  pruned_.fetch_add(local.pruned, std::memory_order_relaxed);
  truncations_.fetch_add(local.truncations, std::memory_order_relaxed);
}

std::vector<Match> Matcher::matches_at(NodeId root, MatchClass mc) const {
  std::vector<Match> out;
  out.reserve(last_match_count_.load(std::memory_order_relaxed));
  for_each_match(root, mc, [&](const MatchView& m) { out.emplace_back(m); });
  last_match_count_.store(static_cast<std::uint32_t>(out.size()),
                          std::memory_order_relaxed);
  return out;
}

MatchStats Matcher::stats() const {
  MatchStats s;
  s.attempts = attempts();
  s.pruned = pruned();
  s.truncations = truncations();
  return s;
}

}  // namespace dagmap
