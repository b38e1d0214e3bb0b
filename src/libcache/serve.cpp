#include "libcache/serve.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "io/blif.hpp"
#include "libcache/json.hpp"
#include "libcache/map_request.hpp"
#include "mapnet/write.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace dagmap {

namespace {

using libcache::JsonValue;
using libcache::json_number;
using libcache::json_quote;
using libcache::parse_json;

struct Slot {
  std::uint64_t id = 0;
  std::string circuit;  ///< BLIF text
  std::string library;  ///< source path the registry resolves
  MapRequest req;
  std::shared_ptr<const CompiledLibrary> lib;
  std::string cache_source;
  std::string response;  ///< complete JSON line (success or error)
  bool is_error = false;
};

/// Runs one step of a request; a throw becomes the request's error
/// response, so one bad request never takes the daemon down.
template <class Step>
void guarded(Slot& slot, Step&& step) {
  try {
    step();
  } catch (const std::exception& e) {
    slot.response = "{\"ok\": false, \"id\": " + std::to_string(slot.id) +
                    ", \"error\": " + json_quote(e.what()) + "}";
    slot.is_error = true;
  }
}

/// Parses one request line into `slot`.  Throws on malformed input.
void parse_request(const std::string& line, const ServeOptions& sopt,
                   Slot& slot) {
  JsonValue v = parse_json(line);
  if (!v.is_object())
    throw libcache::FormatError("request must be a JSON object");
  const JsonValue* circuit = v.find("circuit");
  if (!circuit || circuit->kind != JsonValue::Kind::String)
    throw libcache::FormatError("missing string member \"circuit\"");
  slot.circuit = circuit->string;
  // "library" and "liberty" both name a library source file; the
  // registry sniffs the format from the content, so "liberty" is the
  // protocol-level spelling for .lib sources (and is rejected when
  // both are given).
  std::string genlib_path = v.get_string("library", "");
  std::string liberty_path = v.get_string("liberty", "");
  if (!genlib_path.empty() && !liberty_path.empty())
    throw libcache::FormatError("give \"library\" or \"liberty\", not both");
  slot.library = !genlib_path.empty()    ? genlib_path
                 : !liberty_path.empty() ? liberty_path
                                         : sopt.default_library;
  if (slot.library.empty())
    throw libcache::FormatError(
        "missing \"library\" (and the server has no default)");
  MapRequest defaults;
  defaults.supergates = sopt.default_compile.supergate_depth;
  const JsonValue* options = v.find("options");
  slot.req = options ? map_request_from_json(*options, defaults) : defaults;
}

/// Maps one request against its resolved library.  In-request threading
/// stays at MapRequest's default of 1 (the protocol has no "threads"
/// member) — concurrency comes from mapping many requests at once, and
/// the result is bit-identical either way.
std::string handle_request(const Slot& slot) {
  const MapRequest& req = slot.req;
  Network circuit = parse_blif(slot.circuit);
  MappedRequest mapped = run_map_request(circuit, *slot.lib, req);
  const MapResult& result = mapped.result;

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
  out += ", \"subject_nodes\": " +
         std::to_string(mapped.subject.num_internal());
  out += ", \"structural_hash\": " + json_quote(hash_buf);
  out += ", \"blif\": " + json_quote(write_mapped_blif(result.netlist));
  out += ", \"library\": " + json_quote(slot.lib->library.name());
  out += ", \"cache\": " + json_quote(slot.cache_source);
  if (req.backend == MapBackend::Cuts) out += ", \"backend\": \"cuts\"";
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
      Slot& slot = slots.emplace_back();
      slot.id = next_id++;
      guarded(slot, [&] {
        parse_request(line, options, slot);
        LibCompileOptions compile = options.default_compile;
        compile.supergate_depth = slot.req.supergates;
        LibraryRegistry::Result lib = registry.get(slot.library, compile);
        if (!lib.ok()) throw std::runtime_error(lib.error);
        slot.lib = std::move(lib.lib);
        slot.cache_source = std::move(lib.source);
      });
      if (in.rdbuf()->in_avail() <= 0) break;
    }
    if (slots.empty()) continue;
    ++summary.batches;

    pool.parallel_for(slots.size(), [&](std::size_t i, unsigned) {
      Slot& slot = slots[i];
      if (slot.response.empty() && !slot.req.profile)
        guarded(slot, [&] { slot.response = handle_request(slot); });
    });
    // Profiled requests run sequentially: the obs session is
    // process-global, so each gets the session to itself.
    for (Slot& slot : slots) {
      if (slot.response.empty() && slot.req.profile) {
        obs::start();
        guarded(slot, [&] { slot.response = handle_request(slot); });
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
