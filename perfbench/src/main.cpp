// perfbench — the dagmap benchmark program.
//
//   perfbench --workload <table3_suite|scale_subject|serve_mixed>
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --data-dir DIR --catalogue BENCHMARK.json
//             [--trace-out FILE] [--record-expected FILE]
//             [--meta key=value ...]
//
// Prints the run metadata, then (traced runs) the per-layer self-time
// table, then as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// holding every metric of the catalogue's "end_to_end" list (--trace 0)
// or "per_layer" list (--trace 1), with the catalogue's units.  Exits 1
// when any output failed a check, 2 on a usage or set-up error (without
// a result line).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "libcache/json.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using dagmap::libcache::json_quote;

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

/// (name, unit) of each metric in the catalogue's `list`.
std::vector<std::pair<std::string, std::string>> catalogue(
    const std::string& path, const char* list) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  dagmap::libcache::JsonValue doc = dagmap::libcache::parse_json(text);
  const dagmap::libcache::JsonValue* metrics = doc.find(list);
  if (!metrics || metrics->elements.empty())
    throw std::runtime_error(path + " has no \"" + list + "\" list");
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : metrics->elements)
    out.emplace_back(m.get_string("name"), m.get_string("unit"));
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  RunContext ctx;
  std::map<std::string, std::string> meta;
  bool trace_given = false;
  std::string catalogue_path;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") ctx.workload = value;
    else if (flag == "--seed") ctx.seed = std::stoull(value);
    else if (flag == "--seconds") ctx.seconds = std::stod(value);
    else if (flag == "--trace") ctx.trace = value == "1", trace_given = true;
    else if (flag == "--work-dir") ctx.work_dir = value;
    else if (flag == "--data-dir") ctx.data_dir = value;
    else if (flag == "--catalogue") catalogue_path = value;
    else if (flag == "--trace-out") ctx.trace_out = value;
    else if (flag == "--record-expected") ctx.record_expected = value;
    else if (flag == "--meta") {
      std::size_t eq = value.find('=');
      if (eq == std::string::npos) usage("--meta wants key=value");
      meta[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!trace_given || ctx.work_dir.empty() || ctx.data_dir.empty() ||
      catalogue_path.empty())
    usage("--trace, --work-dir, --data-dir and --catalogue are required");
  const auto metric_list =
      catalogue(catalogue_path, ctx.trace ? "per_layer" : "end_to_end");

  Outcome out;
  if (ctx.workload == "table3_suite") out = run_table3_suite(ctx);
  else if (ctx.workload == "scale_subject") out = run_scale_subject(ctx);
  else if (ctx.workload == "serve_mixed") out = run_serve_mixed(ctx);
  else usage("unknown workload '" + ctx.workload + "'");

  out.end_to_end["peak_rss_mb"] = peak_rss_mb();
  out.end_to_end["pass_rate"] =
      out.attempted ? 1.0 - static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                    : 0.0;

  meta.insert(out.meta.begin(), out.meta.end());
  meta["workload"] = ctx.workload;
  meta["seed"] = std::to_string(ctx.seed);
  meta["seconds"] = number(ctx.seconds);
  meta["trace"] = ctx.trace ? "1" : "0";
  meta["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  std::string meta_json = "{";
  for (const auto& [k, v] : meta)
    meta_json += (meta_json.size() > 1 ? ", " : "") + json_quote(k) + ": " +
                 json_quote(v);
  meta_json += "}";
  std::printf("meta %s\n", meta_json.c_str());

  for (const std::string& e : out.errors)
    std::fprintf(stderr, "perfbench: FAIL %s\n", e.c_str());

  if (ctx.trace) {
    std::fputs(out.layer_table.c_str(), stdout);
    if (!ctx.trace_out.empty()) {
      std::ofstream f(ctx.trace_out);
      f << Tracer::get().chrome_trace_json();
      std::printf("trace written to %s\n", ctx.trace_out.c_str());
    }
  }

  const auto& values = ctx.trace ? out.per_layer : out.end_to_end;
  std::string metrics;
  for (const auto& [name, unit] : metric_list) {
    auto it = values.find(name);
    if (it == values.end())
      throw std::runtime_error("metric not measured: " + name);
    metrics += (metrics.empty() ? "" : ", ") + json_quote(name) +
               ": {\"value\": " + number(it->second) +
               ", \"unit\": " + json_quote(unit) + "}";
  }
  bool correct = out.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench: %s\n", e.what());
  return 2;
}
