// bench_matcher — structural match enumeration benchmark.
//
// Times `Matcher::for_each_match` sweeps (Standard matches, signature
// index on): every internal node of a subject is enumerated once, in
// node order, on one thread.  Three workloads:
//
//   * mult16/lib2  — the 16x16 array multiplier (C6288's structure)
//                    against lib2 (27 gates);
//   * mult16/44-3  — the same subject against the 44-3-like library
//                    (625 gates, patterns to 16 inputs);
//   * table3/44-3  — the 18 Table-3 subjects (the nine ISCAS-85-like
//                    circuits, each decomposed without and with
//                    choices) against the 44-3-like library, the
//                    paper's experimental setting.
//
// Each workload gets one warm-up sweep and then `runs` timed sweeps;
// `ns_per_node` reports their median, min and max.  On the multiplier
// workloads each run also times an unindexed sweep (signature index off;
// `index_speedup` is the ratio of the medians).  Every sweep also
// folds the ordered match stream (gate, pins, covered nodes) into a
// 64-bit `match_hash`, which must be the same on every run.
//
// The JSON object is written to `out.json` and echoed on stdout.  With
// `baseline.json` (this bench's output on another build, e.g. the parent
// commit) it also records the baseline's medians side by side with this
// build's and exits nonzero if any workload's match_hash differs — the
// enumeration order is part of the mapper's contract.  It also exits
// nonzero if the unindexed sweep or a 4-thread dag_map disagrees with
// the indexed sweep / a 1-thread dag_map; never on timing.
//
// Usage: bench_matcher [runs] [out.json] [baseline.json]
//        (defaults: 7 BENCH_matcher.json, no baseline)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dag_mapper.hpp"
#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "libcache/json.hpp"
#include "library/standard_libs.hpp"
#include "match/matcher.hpp"

#ifndef DAGMAP_BUILD_TYPE
#define DAGMAP_BUILD_TYPE "unknown"
#endif
#ifndef DAGMAP_SOURCE_DIR
#define DAGMAP_SOURCE_DIR "."
#endif

using namespace dagmap;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string git_rev() {
  std::string cmd = std::string("git -C '") + DAGMAP_SOURCE_DIR +
                    "' describe --always --dirty --abbrev=12 2>/dev/null";
  std::string rev;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p)) rev += buf;
    pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == ' '))
    rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

struct Workload {
  std::string name;
  const GateLibrary* lib;
  std::vector<const Network*> subjects;
  bool unindexed = false;  // also time (and compare) unindexed sweeps
  std::size_t nodes = 0;   // internal nodes over all subjects
};

struct Sweep {
  double seconds = 0.0;
  std::uint64_t matches = 0;
  std::uint64_t hash = 0xCBF29CE484222325ull;
  MatchStats stats;
};

void mix(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 0x100000001B3ull;
}

Sweep sweep(const Workload& w, bool use_index) {
  Sweep s;
  for (const Network* sg : w.subjects) {
    Matcher matcher(*w.lib, *sg, {.use_signature_index = use_index});
    auto t0 = std::chrono::steady_clock::now();
    for (NodeId n = 0; n < sg->size(); ++n) {
      if (sg->is_source(n)) continue;
      matcher.for_each_match(n, MatchClass::Standard, [&](const MatchView& m) {
        ++s.matches;
        mix(s.hash, static_cast<std::uint64_t>(m.gate - w.lib->gates().data()));
        for (NodeId x : m.pin_binding) mix(s.hash, x);
        mix(s.hash, 0xFFFFFFFFull);
        for (NodeId x : m.covered) mix(s.hash, x);
      });
    }
    s.seconds += seconds_since(t0);
    MatchStats st = matcher.stats();
    s.stats.attempts += st.attempts;
    s.stats.pruned += st.pruned;
    s.stats.truncations += st.truncations;
  }
  return s;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string fixed(double v, int digits = 1) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

// dag_map at 1 thread vs 4 threads on one subject must agree exactly.
bool threads_agree(const Network& subject, const GateLibrary& lib) {
  DagMapOptions one;
  one.num_threads = 1;
  DagMapOptions four;
  four.num_threads = 4;
  MapResult a = dag_map(subject, lib, one);
  MapResult b = dag_map(subject, lib, four);
  return a.optimal_delay == b.optimal_delay && a.label == b.label &&
         a.netlist.structural_hash() == b.netlist.structural_hash();
}

}  // namespace

int main(int argc, char** argv) try {
  int runs = argc > 1 ? std::max(1, std::atoi(argv[1])) : 7;
  std::string out_path = argc > 2 ? argv[2] : "BENCH_matcher.json";
  std::string baseline_path = argc > 3 ? argv[3] : "";

  GateLibrary lib2 = make_lib2_library();
  GateLibrary lib44 = make_44_library(3);
  Network mult16 = tech_decompose(make_array_multiplier(16));
  std::vector<Network> table3;
  for (const BenchmarkCircuit& c : make_iscas85_like_suite()) {
    table3.push_back(tech_decompose(c.network));
    table3.push_back(std::move(tech_decompose_choices(c.network).subject));
  }

  std::vector<Workload> workloads = {{"mult16/lib2", &lib2, {&mult16}, true},
                                     {"mult16/44-3", &lib44, {&mult16}, true},
                                     {"table3/44-3", &lib44, {}, false}};
  for (const Network& sg : table3) workloads[2].subjects.push_back(&sg);
  for (Workload& w : workloads)
    for (const Network* sg : w.subjects) w.nodes += sg->num_internal();

  int rc = 0;
  std::vector<std::string> records;
  for (const Workload& w : workloads) {
    Sweep first = sweep(w, true);  // warm-up
    std::vector<double> ns, ns_off;
    for (int r = 0; r < runs; ++r) {
      Sweep s = sweep(w, true);
      if (s.hash != first.hash || s.matches != first.matches) {
        std::fprintf(stderr, "FAIL: %s: sweep %d changed the match stream\n",
                     w.name.c_str(), r);
        rc = 1;
      }
      ns.push_back(1e9 * s.seconds / static_cast<double>(w.nodes));
      if (!w.unindexed) continue;
      // The signature index is a pure screen: the unindexed sweep must
      // see the identical ordered stream.
      Sweep off = sweep(w, false);
      if (off.hash != first.hash) {
        std::fprintf(stderr, "FAIL: %s: the index changed the match stream\n",
                     w.name.c_str());
        rc = 1;
      }
      ns_off.push_back(1e9 * off.seconds / static_cast<double>(w.nodes));
    }
    std::vector<double> sorted = ns;
    std::sort(sorted.begin(), sorted.end());
    std::string index_json;
    if (w.unindexed)
      index_json = ", \"unindexed_ns_per_node\": " + fixed(median(ns_off)) +
                   ", \"index_speedup\": " +
                   fixed(median(ns_off) / median(ns), 2);
    std::uint64_t considered = first.stats.attempts + first.stats.pruned;
    records.push_back(
        "{\"name\": \"" + w.name + "\", \"subjects\": " +
        std::to_string(w.subjects.size()) + ", \"nodes\": " +
        std::to_string(w.nodes) + ", \"matches\": " +
        std::to_string(first.matches) + ", \"match_hash\": \"" +
        hex(first.hash) + "\", \"attempts\": " +
        std::to_string(first.stats.attempts) + ", \"pruned_pct\": " +
        fixed(considered ? 100.0 * static_cast<double>(first.stats.pruned) /
                               static_cast<double>(considered)
                         : 0.0) +
        ", \"truncations\": " + std::to_string(first.stats.truncations) +
        ", \"ns_per_node\": {\"median\": " + fixed(median(ns)) +
        ", \"min\": " + fixed(sorted.front()) +
        ", \"max\": " + fixed(sorted.back()) + "}" + index_json + "}");
  }

  if (!threads_agree(mult16, lib44)) {
    std::fprintf(stderr, "FAIL: dag_map differs between 1 and 4 threads\n");
    rc = 1;
  }

  std::string json = "{\"bench\": \"matcher\", \"git_rev\": \"" + git_rev() +
                     "\", \"build_type\": \"" DAGMAP_BUILD_TYPE
                     "\", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"match_class\": \"standard\", \"threads\": 1"
                     ", \"warmup\": 1, \"runs\": " +
                     std::to_string(runs) + ", \"workloads\": [";
  for (std::size_t i = 0; i < records.size(); ++i)
    json += (i ? ", " : "") + records[i];
  json += "]";

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    std::stringstream text;
    text << in.rdbuf();
    if (!in.good()) throw std::runtime_error("cannot read " + baseline_path);
    libcache::JsonValue base = libcache::parse_json(text.str());
    libcache::JsonValue mine = libcache::parse_json(json + "}");
    json += ", \"baseline\": {\"git_rev\": \"" + base.get_string("git_rev") +
            "\", \"runs\": " + fixed(base.get_number("runs"), 0) +
            ", \"ns_per_node\": {";
    const libcache::JsonValue* bw = base.find("workloads");
    const libcache::JsonValue* mw = mine.find("workloads");
    std::size_t listed = 0;
    for (const libcache::JsonValue& m : mw->elements) {
      std::string name = m.get_string("name");
      const libcache::JsonValue* b = nullptr;
      if (bw)
        for (const libcache::JsonValue& e : bw->elements)
          if (e.get_string("name") == name) b = &e;
      if (!b || !b->find("ns_per_node")) continue;
      if (b->get_string("match_hash") != m.get_string("match_hash")) {
        std::fprintf(stderr, "FAIL: %s: match_hash differs from the baseline\n",
                     name.c_str());
        rc = 1;
      }
      double before = b->find("ns_per_node")->get_number("median");
      double after = m.find("ns_per_node")->get_number("median");
      json += std::string(listed++ ? ", " : "") + "\"" + name +
              "\": {\"baseline\": " + fixed(before) +
              ", \"this\": " + fixed(after) +
              ", \"speedup\": " + fixed(before / after, 2) + "}";
    }
    json += "}}";
  }
  json += "}";

  std::ofstream(out_path) << json << "\n";
  std::printf("%s\n", json.c_str());
  return rc;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_matcher: %s\n", e.what());
  return 2;
}
