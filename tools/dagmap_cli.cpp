// dagmap — command-line technology mapper.
//
// Usage:
//   dagmap_cli [options] <circuit.blif>
//   dagmap_cli --serve [options]          (JSONL requests on stdin; see
//                                          src/libcache/serve.hpp)
//
// tools/README.md documents every option.  The mapping options form one
// MapRequest (libcache/map_request.hpp), the request serve mode parses
// from JSON: both front ends share its bounds and its mapping path.
// Values are strict: a malformed or out-of-range one is a one-line
// `error: ...` and exit status 2.  `--flag value` may also be spelled
// `--flag=value`.
//
// Prints a one-screen report: subject statistics, delay/area, gate
// histogram, and the equivalence verdict.  Exits nonzero on any failure.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "core/stats.hpp"
#include "dagmap/dagmap.hpp"
#include "fanout/buffering.hpp"
#include "fanout/lt_tree.hpp"
#include "fanout/sizing.hpp"
#include "io/number.hpp"
#include "mapnet/write.hpp"

using namespace dagmap;

namespace {

struct CliOptions {
  /// Everything that selects the mapping.  `verify` defaults to on here.
  MapRequest req;
  std::string circuit_path;
  std::string library_path;  ///< --library or --liberty source file
  unsigned lib44 = 0;
  std::string mapper = "dag";
  bool supergates_set = false;  ///< --supergates given explicitly
  std::string trace_path;       ///< --profile=trace.json
  unsigned buffer_branch = 0;
  bool lt_buffer = false;
  bool size = false;
  bool stats = false;
  bool retime = false;
  unsigned lut_k = 0;
  std::string out_path;
  std::string save_lib_path;
  std::string load_lib_path;
  bool serve = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dagmap_cli [--library F.genlib | --liberty F.lib | "
               "--lib44 N] [--mapper dag|tree] [--choices[=gens]]\n"
               "  [--backend structural|cuts] [--cut-size N] [--cut-count N] "
               "[--rounds N] [--delay-factor X]\n"
               "  [--load-rounds N] [--match standard|extended] "
               "[--supergates[=D]] [--threads N]\n"
               "  [--partition[=W] | --no-partition] [--profile[=trace.json]] "
               "[--area-recovery]\n"
               "  [--buffer N] [--retime] [--lut K] [--out F] [--no-verify] "
               "[--save-lib F.dmlc]\n"
               "  [--load-lib F.dmlc] [--serve] circuit.blif\n");
  std::exit(2);
}

/// A command-line error: one line on stderr, exit status 2.
[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  std::exit(2);
}

CliOptions parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  CliOptions o;
  MapRequest& r = o.req;
  r.verify = true;
  unsigned library_sources = 0;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    // "--flag=value" carries its value inline.
    std::optional<std::string> inline_value;
    if (std::size_t eq = flag.find('=');
        flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    auto value = [&]() -> std::string {
      if (inline_value) return *inline_value;
      if (++i >= argc) fail("missing " + flag + " value");
      return argv[i];
    };
    // The value through a strict parser: numbers go through io/number.hpp
    // (std::stoul wraps "-1" to UINT_MAX; std::stod honors LC_NUMERIC).
    auto parsed = [&](auto parse, const std::string& want = "") {
      std::string v = value();
      auto x = parse(v);
      if (!x) fail("bad " + flag + " value `" + v + "`" + want);
      return *x;
    };
    auto number = [&] { return parsed(parse_unsigned_strict); };
    // Switches, and flags whose value is optional, take no separate value.
    auto no_value = [&] {
      if (inline_value) fail(flag + " takes no value");
    };

    if (flag == "--library" || flag == "--liberty")
      o.library_path = value(), ++library_sources;
    else if (flag == "--lib44") {
      ++library_sources;
      if ((o.lib44 = number()) < 1 || o.lib44 > 3)
        fail("bad --lib44 (want 1..3)");
    }
    else if (flag == "--mapper") o.mapper = value();
    else if (flag == "--choices") {
      r.choices = true;
      if (inline_value)
        r.choice_gens = parsed(parse_choice_gens,
                               " (want balanced,chain,andor,all)");
    }
    else if (flag == "--backend")
      r.backend = parsed(parse_map_backend, " (want structural or cuts)");
    else if (flag == "--match")
      r.match_class = parsed(parse_match_class, " (want standard or extended)");
    else if (flag == "--cut-size") r.cut_size = number();
    else if (flag == "--cut-count") r.cut_count = number();
    else if (flag == "--rounds") r.rounds = number();
    else if (flag == "--delay-factor") r.delay_factor = parsed(parse_double_strict);
    else if (flag == "--load-rounds") r.load_rounds = number();
    else if (flag == "--supergates") {
      r.supergates = inline_value ? number() : 2;
      o.supergates_set = true;
    }
    else if (flag == "--threads") r.threads = number();
    else if (flag == "--partition") {
      r.partition = PartitionMode::On;
      if (inline_value) r.partition_window = number();
    }
    else if (flag == "--no-partition") no_value(), r.partition = PartitionMode::Off;
    else if (flag == "--profile") {
      r.profile = true;
      if (inline_value && (o.trace_path = *inline_value).empty())
        fail("empty --profile= path");
    }
    else if (flag == "--area-recovery") no_value(), r.area_recovery = true;
    else if (flag == "--buffer") o.buffer_branch = number();
    else if (flag == "--lt-buffer") no_value(), o.lt_buffer = true;
    else if (flag == "--size") no_value(), o.size = true;
    else if (flag == "--stats") no_value(), o.stats = true;
    else if (flag == "--retime") no_value(), o.retime = true;
    else if (flag == "--lut") {
      if ((o.lut_k = number()) == 1 || o.lut_k > 8)
        fail("bad --lut (want 2..8, or 0 for off)");
    }
    else if (flag == "--out") o.out_path = value();
    else if (flag == "--verify") no_value(), r.verify = true;
    else if (flag == "--no-verify") no_value(), r.verify = false;
    else if (flag == "--save-lib") o.save_lib_path = value();
    else if (flag == "--load-lib") o.load_lib_path = value();
    else if (flag == "--serve") no_value(), o.serve = true;
    else if (flag == "--help" || flag == "-h") usage();
    else if (!flag.empty() && flag[0] == '-') fail("unknown option " + flag);
    else if (o.circuit_path.empty()) o.circuit_path = flag;
    else fail("multiple circuit files");
  }
  if (std::optional<MapRequestError> bad = r.validate()) {
    std::string option = bad->option;
    std::replace(option.begin(), option.end(), '_', '-');
    fail("bad --" + option + " (want " + bad->want + ")");
  }
  if (library_sources > 1)
    fail("give one library source: --library, --liberty or --lib44");
  if (o.mapper == "choice") {
    // Legacy spelling: the choice flow is now the default mapper with
    // the choice-annotated subject.
    o.mapper = "dag";
    r.choices = true;
  }
  if (o.mapper != "dag" && o.mapper != "tree")
    fail("bad --mapper value `" + o.mapper + "` (want dag or tree)");
  if (r.load_rounds > 0 && o.mapper == "tree")
    fail("--load-rounds applies to the dag/cuts mapping flows");
  if (r.backend == MapBackend::Cuts && o.mapper != "dag")
    fail("--backend=cuts applies to the default --mapper dag flow");
  if (r.choices && o.mapper != "dag")
    fail("--choices applies to the dag/cuts mapping flows");
  if (r.choices && o.lut_k > 0)
    fail("--choices does not apply to the LUT flow");
  if (o.circuit_path.empty() && o.save_lib_path.empty() && !o.serve)
    fail("no circuit file");
  if (o.serve && !o.circuit_path.empty())
    fail("--serve takes circuits on stdin, not an argument");
  return o;
}

LibCompileOptions compile_options(const MapRequest& r) {
  return {.supergate_depth = r.supergates, .num_threads = r.threads};
}

/// Source text of the selected library: the raw file bytes for either
/// format (compile_library sniffs Liberty vs GENLIB, and the artifact
/// content hash runs over these bytes), or a built-in library's GENLIB.
std::string library_source_text(const CliOptions& opt) {
  if (!opt.library_path.empty()) {
    std::ifstream in(opt.library_path, std::ios::binary);
    if (!in) fail("cannot read library file " + opt.library_path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  if (opt.lib44 > 0) return write_genlib(make_44_genlib(opt.lib44));
  return lib2_genlib_text();
}

/// The selected library as one CompiledLibrary, the bundle serve's
/// registry hands out too: loaded from --load-lib (checked against its
/// source when one is named), or compiled from the source text.
CompiledLibrary build_library(const CliOptions& opt) {
  LibCompileOptions copt = compile_options(opt.req);
  if (!opt.load_lib_path.empty()) {
    LibraryLoadResult loaded = load_compiled_library_file(opt.load_lib_path);
    if (!loaded.ok)
      throw std::runtime_error(opt.load_lib_path + ": " + loaded.error);
    if (!opt.library_path.empty() || opt.lib44 > 0) {
      // Without an explicit --supergates the artifact defines the
      // generation options, so validation only asks whether the source
      // still matches; with one, the options must match too.
      const LibCompileOptions& want =
          opt.supergates_set ? copt : loaded.lib.options;
      std::string why;
      if (!validate_compiled_library(loaded.lib, library_source_text(opt),
                                     want, &why))
        throw std::runtime_error("stale artifact " + opt.load_lib_path +
                                 ": " + why + " (regenerate with --save-lib)");
    }
    std::printf("loaded compiled library %s: %zu gates\n",
                loaded.lib.library.name().c_str(), loaded.lib.library.size());
    return std::move(loaded.lib);
  }
  std::string name = !opt.library_path.empty() ? opt.library_path
                     : opt.lib44 > 0 ? "44-" + std::to_string(opt.lib44) + "-like"
                                     : "lib2-like";
  if (copt.supergate_depth > 0) name += "+supergates";
  CompiledLibrary lib = compile_library(library_source_text(opt), copt, name);
  if (copt.supergate_depth > 0)
    std::printf(
        "supergates: depth %u, %zu kept of %zu candidates "
        "(%zu classes, %.2fs)\n",
        copt.supergate_depth, lib.supergate_stats.kept,
        lib.supergate_stats.candidates, lib.supergate_stats.classes_seen,
        lib.supergate_stats.generation_seconds);
  return lib;
}

}  // namespace

int main(int argc, char** argv) try {
  CliOptions opt = parse_args(argc, argv);
  const MapRequest& req = opt.req;

  // ---- serve mode ---------------------------------------------------------
  if (opt.serve) {
    ServeOptions sopt;
    sopt.num_threads = req.threads;
    // Either source works: the registry sniffs Liberty vs GENLIB.
    sopt.default_library = opt.library_path;  // empty = per-request
    sopt.default_compile = compile_options(req);
    ServeSummary s = run_serve(std::cin, std::cout, sopt);
    std::fprintf(stderr,
                 "serve: %llu request(s), %llu error(s), %llu batch(es); "
                 "registry: %llu hit(s), %llu compile(s), %llu artifact "
                 "load(s), %llu artifact reject(s)\n",
                 (unsigned long long)s.requests, (unsigned long long)s.errors,
                 (unsigned long long)s.batches,
                 (unsigned long long)s.registry.hits,
                 (unsigned long long)s.registry.compiles,
                 (unsigned long long)s.registry.artifact_loads,
                 (unsigned long long)s.registry.artifact_rejects);
    return 0;
  }

  // ---- compiled-library cache (--save-lib / --load-lib) -------------------
  std::optional<CompiledLibrary> clib;
  if (!opt.load_lib_path.empty() || !opt.save_lib_path.empty())
    clib = build_library(opt);
  if (!opt.save_lib_path.empty()) {
    save_compiled_library_file(*clib, opt.save_lib_path);
    std::printf("wrote compiled library %s: %zu gates, %zu patterns\n",
                opt.save_lib_path.c_str(), clib->library.size(),
                clib->library.total_patterns());
    if (opt.circuit_path.empty()) return 0;
  }

  // One profiling session spans the whole run (read -> decompose ->
  // map -> verify -> write); the mappers join it instead of opening
  // their own.
  if (req.profile) obs::start();
  auto finish_profile = [&opt]() {
    if (!opt.req.profile) return;
    obs::stop();
    obs::ProfileData prof = obs::collect();
    std::fputs(prof.summary().c_str(), stdout);
    if (!opt.trace_path.empty()) {
      std::ofstream out(opt.trace_path);
      if (!out) {
        std::fprintf(stderr, "dagmap_cli: cannot write %s\n",
                     opt.trace_path.c_str());
        std::exit(1);
      }
      out << prof.chrome_trace_json();
      std::printf("wrote trace %s\n", opt.trace_path.c_str());
    }
  };

  Network circuit = [&] {
    obs::Scope scope("read");
    return read_blif_file(opt.circuit_path);
  }();
  std::printf("circuit %s: %zu PIs, %zu POs, %zu latches, %zu nodes\n",
              circuit.name().c_str(), circuit.num_inputs(),
              circuit.num_outputs(), circuit.num_latches(), circuit.size());

  // ---- LUT flow ---------------------------------------------------------
  if (opt.lut_k > 0) {
    Network subject = tech_decompose(circuit);
    LutMapResult r = flowmap(subject, {.k = opt.lut_k});
    std::printf("flowmap k=%u: depth %u, %zu LUTs\n", opt.lut_k, r.depth,
                r.num_luts);
    if (req.verify &&
        !check_equivalence(subject, r.netlist).equivalent) {
      std::fprintf(stderr, "VERIFICATION FAILED\n");
      return 1;
    }
    if (!opt.out_path.empty()) write_blif_file(r.netlist, opt.out_path);
    finish_profile();
    return 0;
  }

  // ---- library-based flow -------------------------------------------------
  if (!clib) clib = build_library(opt);
  const GateLibrary& lib = clib->library;
  std::printf("library %s: %zu gates\n", lib.name().c_str(), lib.size());
  if (!lib.is_complete_for_mapping()) fail("library lacks INV or NAND2");
  if ((opt.buffer_branch >= 2 || opt.lt_buffer) && !lib.buffer())
    fail("--buffer and --lt-buffer need a library with a buffer gate");

  MappedRequest mapped;
  if (opt.mapper == "tree") {
    mapped.subject = tech_decompose(circuit);
    mapped.result = tree_map(mapped.subject, lib);
  } else {
    mapped = run_map_request(circuit, *clib, req);
  }
  const Network& subject = mapped.subject;
  MapResult& result = mapped.result;
  std::printf("subject graph: %zu internal nodes\n", subject.num_internal());
  if (req.choices)
    std::printf(
        "choices: %zu classes, %zu extra variants, %zu folds won\n",
        result.choice_classes, result.choice_variants, result.choice_wins);
  if (result.partitioned)
    std::printf(
        "partitioned: %zu partitions in %zu waves, %zu boundary edges, "
        "largest %zu nodes\n",
        result.num_partitions, result.partition_waves,
        result.partition_boundary_edges, result.partition_max_nodes);
  std::printf("%s mapping: delay %.3f, area %.1f, %zu gates (%.2fs)\n",
              req.backend == MapBackend::Cuts ? "cuts" : opt.mapper.c_str(),
              result.optimal_delay,
              result.netlist.total_area(), result.netlist.num_gates(),
              result.cpu_seconds);
  if (req.load_rounds > 0)
    std::printf(
        "load rounds: %zu measured, best round %u, loaded delay "
        "%.3f -> %.3f\n",
        result.load_round_delays.size(), result.load_round_selected,
        result.loaded_delay_round0, result.loaded_delay);
  if (opt.stats) {
    MappingStats st = mapping_stats(subject, result.netlist);
    std::printf("stats: %zu/%zu covered subject nodes duplicated; "
                "multi-fanout %zu -> %zu; avg gate fan-in %.2f\n",
                result.duplicated_nodes, result.covered_distinct,
                st.subject_multi_fanout, st.mapped_multi_fanout,
                st.average_gate_inputs());
  }

  MappedNetlist final_net = std::move(result.netlist);
  if (opt.buffer_branch >= 2) {
    BufferOptions bopt;
    bopt.max_branch = opt.buffer_branch;
    BufferResult br = buffer_fanouts(final_net, lib, bopt);
    std::printf("buffering: %zu buffers, loaded delay %.3f -> %.3f\n",
                br.buffers_inserted, br.delay_before, br.delay_after);
    final_net = std::move(br.netlist);
  }
  if (opt.lt_buffer) {
    LtTreeResult lr = buffer_fanouts_lt_tree(final_net, lib);
    std::printf("lt-buffering: %zu buffers, loaded delay %.3f -> %.3f\n",
                lr.buffers_inserted, lr.delay_before, lr.delay_after);
    final_net = std::move(lr.netlist);
  }
  bool retimed = false;
  if (opt.size) {
    // Sized variants (x1/x2/x4) of the source library's gates; static
    // because the sized netlist points into it.
    std::string source = library_source_text(opt);
    static GateLibrary sized = GateLibrary::from_genlib(
        make_sized_genlib(looks_like_liberty(source)
                              ? parse_liberty(source).gates
                              : parse_genlib(source),
                          {1, 2, 4}),
        lib.name() + "-sized");
    SizingResult sr = size_gates(final_net, sized);
    std::printf("sizing: %zu resized, loaded delay %.3f -> %.3f\n",
                sr.resized, sr.delay_before, sr.delay_after);
    final_net = std::move(sr.netlist);
  }
  if (opt.retime && final_net.latches().size() > 0) {
    double period = 0;
    final_net = retime_min_period(final_net, &period);
    std::printf("retiming: clock period %.3f\n", period);
    retimed = true;
  }

  if (req.verify && retimed) {
    // Retiming moves state across logic; combinational equivalence no
    // longer applies (sequential equivalence is out of scope here).
    std::printf("verification: skipped (netlist was retimed)\n");
  } else if (req.verify) {
    obs::Scope scope("verify");
    auto eq = check_equivalence(circuit, final_net.to_network());
    std::printf("verification: %s\n", eq.equivalent ? "PASS" : "FAIL");
    if (!eq.equivalent) return 1;
  }
  if (!opt.out_path.empty()) {
    obs::Scope scope("write");
    write_mapped_file(final_net, opt.out_path);
    std::printf("wrote %s\n", opt.out_path.c_str());
  }
  std::printf("gate histogram:");
  int shown = 0;
  for (auto& [g, n] : final_net.gate_histogram()) {
    if (shown++ == 8) {
      std::printf(" ...");
      break;
    }
    std::printf(" %s:%zu", g.c_str(), n);
  }
  std::printf("\n");
  finish_profile();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "dagmap_cli: %s\n", e.what());
  return 1;
}
