#include "libcache/serve.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "core/dag_mapper.hpp"
#include "core/parallel.hpp"
#include "cutmap/cut_mapper.hpp"
#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "io/blif.hpp"
#include "libcache/json.hpp"
#include "mapnet/write.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace dagmap {

namespace {

using libcache::JsonValue;
using libcache::json_number;
using libcache::json_quote;
using libcache::parse_json;

struct Request {
  std::string circuit;
  std::string library;
  LibCompileOptions compile;
  MatchClass match_class = MatchClass::Standard;
  bool area_recovery = false;
  bool verify = false;
  bool profile = false;
  /// "structural" (dag_map, the default) or "cuts" (the priority-cut
  /// Boolean engine) with its knobs.
  bool cut_backend = false;
  unsigned cut_size = 4;
  unsigned cut_count = 8;
  unsigned rounds = 1;
  double delay_factor = 1.0;
  /// Iterated load-aware mapping rounds (dagmap/load_rounds.hpp); both
  /// backends honor it.
  unsigned load_rounds = 0;
  /// Choice-aware mapping: `"choices": true` (all generators) or a
  /// comma list of generator names (decomp/choices.hpp); both backends
  /// honor it.
  bool choices = false;
  unsigned choice_gens = kChoiceGenAll;
};

struct Slot {
  std::uint64_t id = 0;
  Request req;
  std::shared_ptr<const CompiledLibrary> lib;
  std::string cache_source;
  std::string response;  ///< complete JSON line (success or error)
  bool is_error = false;
  bool profiled = false;
};

std::string error_line(std::uint64_t id, const std::string& message) {
  return "{\"ok\": false, \"id\": " + std::to_string(id) +
         ", \"error\": " + json_quote(message) + "}";
}

/// Parses one request line into `slot.req`; false (with the error
/// response filled in) on malformed input.
bool parse_request(const std::string& line, const ServeOptions& sopt,
                   Slot& slot) {
  try {
    JsonValue v = parse_json(line);
    if (!v.is_object())
      throw libcache::FormatError("request must be a JSON object");
    const JsonValue* circuit = v.find("circuit");
    if (!circuit || circuit->kind != JsonValue::Kind::String)
      throw libcache::FormatError("missing string member \"circuit\"");
    slot.req.circuit = circuit->string;
    // "library" and "liberty" both name a library source file; the
    // registry sniffs the format from the content, so "liberty" is the
    // protocol-level spelling for .lib sources (and is rejected when
    // both are given).
    std::string genlib_path = v.get_string("library", "");
    std::string liberty_path = v.get_string("liberty", "");
    if (!genlib_path.empty() && !liberty_path.empty())
      throw libcache::FormatError(
          "give \"library\" or \"liberty\", not both");
    slot.req.library = !genlib_path.empty()    ? genlib_path
                       : !liberty_path.empty() ? liberty_path
                                               : sopt.default_library;
    if (slot.req.library.empty())
      throw libcache::FormatError(
          "missing \"library\" (and the server has no default)");
    slot.req.compile = sopt.default_compile;
    if (const JsonValue* o = v.find("options")) {
      if (!o->is_object())
        throw libcache::FormatError("\"options\" must be an object");
      double depth = o->get_number("supergates",
                                   slot.req.compile.supergate_depth);
      if (depth < 0 || depth > 8)
        throw libcache::FormatError("bad \"supergates\" depth");
      slot.req.compile.supergate_depth = static_cast<unsigned>(depth);
      std::string match = o->get_string("match", "standard");
      if (match == "extended") slot.req.match_class = MatchClass::Extended;
      else if (match != "standard")
        throw libcache::FormatError("bad \"match\" value " + match);
      slot.req.area_recovery = o->get_bool("area_recovery", false);
      slot.req.verify = o->get_bool("verify", false);
      slot.req.profile = o->get_bool("profile", false);
      std::string backend = o->get_string("backend", "structural");
      if (backend == "cuts") slot.req.cut_backend = true;
      else if (backend != "structural")
        throw libcache::FormatError("bad \"backend\" value " + backend);
      double cut_size = o->get_number("cut_size", slot.req.cut_size);
      if (cut_size < 2 || cut_size > 4)
        throw libcache::FormatError("bad \"cut_size\" (want 2..4)");
      slot.req.cut_size = static_cast<unsigned>(cut_size);
      double cut_count = o->get_number("cut_count", slot.req.cut_count);
      if (cut_count < 1 || cut_count > 64)
        throw libcache::FormatError("bad \"cut_count\" (want 1..64)");
      slot.req.cut_count = static_cast<unsigned>(cut_count);
      double rounds = o->get_number("rounds", slot.req.rounds);
      if (rounds < 1 || rounds > 16)
        throw libcache::FormatError("bad \"rounds\" (want 1..16)");
      slot.req.rounds = static_cast<unsigned>(rounds);
      slot.req.delay_factor =
          o->get_number("delay_factor", slot.req.delay_factor);
      if (slot.req.delay_factor < 1.0 || slot.req.delay_factor > 100.0)
        throw libcache::FormatError("bad \"delay_factor\" (want >= 1)");
      double load_rounds = o->get_number("load_rounds", 0);
      if (load_rounds < 0 || load_rounds > 16)
        throw libcache::FormatError("bad \"load_rounds\" (want 0..16)");
      slot.req.load_rounds = static_cast<unsigned>(load_rounds);
      if (const JsonValue* c = o->find("choices")) {
        if (c->kind == JsonValue::Kind::Bool) {
          slot.req.choices = c->boolean;
        } else if (c->kind == JsonValue::Kind::String) {
          std::optional<unsigned> gens = parse_choice_gens(c->string);
          if (!gens)
            throw libcache::FormatError(
                "bad \"choices\" generator list " + json_quote(c->string) +
                " (want balanced,chain,andor,all)");
          slot.req.choices = true;
          slot.req.choice_gens = *gens;
        } else {
          throw libcache::FormatError(
              "\"choices\" must be a bool or a generator-list string");
        }
      }
    }
    return true;
  } catch (const std::exception& e) {
    slot.response = error_line(slot.id, e.what());
    slot.is_error = true;
    return false;
  }
}

/// Maps one request against its resolved library.  In-request threading
/// is pinned to 1 — concurrency comes from mapping many requests at
/// once, and the result is bit-identical either way.
std::string handle_request(const Slot& slot) {
  const Request& req = slot.req;
  Network circuit = parse_blif(req.circuit);
  // Kept alive through the mapping call when choices are on: the option
  // structs borrow `choice->classes`.
  std::optional<ChoiceDecomposition> choice;
  const ChoiceClasses* classes = nullptr;
  Network subject;
  if (req.choices) {
    ChoiceOptions chopt;
    chopt.gens = req.choice_gens;
    choice = tech_decompose_choices(circuit, chopt);
    choice->validate();
    subject = choice->subject;
    classes = &choice->classes;
  } else {
    subject = tech_decompose(circuit);
  }

  MapOptions mopt;
  mopt.match_class = req.match_class;
  mopt.num_threads = 1;
  mopt.profile = req.profile;
  mopt.load_rounds = req.load_rounds;
  mopt.choices = classes;
  mopt.pattern_index = &slot.lib->index;
  MapResult result;
  if (req.cut_backend) {
    CutMapOptions copt;
    static_cast<MapOptions&>(copt) = mopt;
    copt.cut_size = req.cut_size;
    copt.cut_count = req.cut_count;
    copt.rounds = req.rounds;
    copt.delay_factor = req.delay_factor;
    // Per-request index build, seeded by the compiled bundle's stored
    // NPN classes (cheap: early-exiting transform search per gate), so
    // concurrent batch workers never share mutable state.
    NpnLibraryIndex npn = npn_index_from_compiled(*slot.lib);
    copt.npn_index = &npn;
    result = cut_map(subject, slot.lib->library, copt);
  } else {
    DagMapOptions dopt;
    static_cast<MapOptions&>(dopt) = mopt;
    dopt.area_recovery = req.area_recovery;
    result = dag_map(subject, slot.lib->library, dopt);
  }

  bool verified = false;
  if (req.verify) {
    EquivalenceResult eq =
        check_equivalence(circuit, result.netlist.to_network());
    if (!eq.equivalent)
      throw std::runtime_error("mapped netlist failed equivalence check");
    verified = true;
  }

  char hash_buf[24];
  std::snprintf(hash_buf, sizeof hash_buf, "0x%016llx",
                static_cast<unsigned long long>(
                    result.netlist.structural_hash()));

  std::string out = "{\"ok\": true, \"id\": " + std::to_string(slot.id);
  out += ", \"delay\": " + json_number(result.optimal_delay);
  out += ", \"area\": " + json_number(result.netlist.total_area());
  out += ", \"gates\": " + std::to_string(result.netlist.num_gates());
  out += ", \"subject_nodes\": " + std::to_string(subject.num_internal());
  out += ", \"structural_hash\": " + json_quote(hash_buf);
  out += ", \"blif\": " + json_quote(write_mapped_blif(result.netlist));
  out += ", \"library\": " + json_quote(slot.lib->library.name());
  out += ", \"cache\": " + json_quote(slot.cache_source);
  if (req.cut_backend) out += ", \"backend\": \"cuts\"";
  if (req.choices) {
    out += ", \"choice_classes\": " + std::to_string(result.choice_classes);
    out += ", \"choice_variants\": " + std::to_string(result.choice_variants);
    out += ", \"choice_wins\": " + std::to_string(result.choice_wins);
  }
  if (req.load_rounds > 0) {
    out += ", \"loaded_delay\": " + json_number(result.loaded_delay);
    out += ", \"loaded_delay_round0\": " +
           json_number(result.loaded_delay_round0);
    out += ", \"load_round\": " + std::to_string(result.load_round_selected);
  }
  if (verified) out += ", \"verified\": true";
  if (req.profile && result.profile.collected)
    out += ", \"profile\": " + json_quote(result.profile.summary());
  out += "}";
  return out;
}

void handle_into(Slot& slot) {
  try {
    slot.response = handle_request(slot);
  } catch (const std::exception& e) {
    slot.response = error_line(slot.id, e.what());
    slot.is_error = true;
  }
}

bool blank(const std::string& line) {
  for (char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

}  // namespace

ServeSummary run_serve(std::istream& in, std::ostream& out,
                       const ServeOptions& options) {
  ServeSummary summary;
  LibraryRegistry registry({.capacity = options.registry_capacity,
                            .auto_save = options.auto_save});
  ThreadPool pool(resolve_num_threads(options.num_threads));
  std::uint64_t next_id = 0;
  bool eof = false;
  while (!eof && out) {
    // Gather a batch: block for the first line, then keep appending only
    // while input is already buffered — an interactive client that sends
    // one request and waits gets its response without filling a batch.
    std::vector<Slot> slots;
    std::string line;
    while (slots.size() < std::max<std::size_t>(options.max_batch, 1)) {
      if (!std::getline(in, line)) {
        eof = true;
        break;
      }
      if (blank(line)) continue;
      slots.emplace_back();
      slots.back().id = next_id++;
      if (parse_request(line, options, slots.back())) {
        LibraryRegistry::Result lib =
            registry.get(slots.back().req.library, slots.back().req.compile);
        if (!lib.ok()) {
          slots.back().response = error_line(slots.back().id, lib.error);
          slots.back().is_error = true;
        } else {
          slots.back().lib = std::move(lib.lib);
          slots.back().cache_source = std::move(lib.source);
          slots.back().profiled = slots.back().req.profile;
        }
      }
      if (in.rdbuf()->in_avail() <= 0) break;
    }
    if (slots.empty()) continue;
    ++summary.batches;

    pool.parallel_for(slots.size(), [&](std::size_t i, unsigned) {
      if (slots[i].response.empty() && !slots[i].profiled)
        handle_into(slots[i]);
    });
    // Profiled requests run sequentially: the obs session is
    // process-global, so each gets the session to itself.
    for (Slot& slot : slots) {
      if (slot.response.empty() && slot.profiled) {
        obs::start();
        handle_into(slot);
        obs::stop();
      }
    }

    for (Slot& slot : slots) {
      ++summary.requests;
      if (slot.is_error) ++summary.errors;
      out << slot.response << "\n";
    }
    out.flush();
  }
  summary.registry = registry.stats();
  return summary;
}

}  // namespace dagmap
