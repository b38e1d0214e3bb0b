#include "libcache/map_request.hpp"

#include <climits>
#include <cmath>
#include <utility>

#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "decomp/tech_decomp.hpp"
#include "netlist/assert.hpp"
#include "obs/obs.hpp"

namespace dagmap {

using libcache::FormatError;
using libcache::JsonValue;

std::optional<MapBackend> parse_map_backend(std::string_view name) {
  if (name == "structural") return MapBackend::Structural;
  if (name == "cuts") return MapBackend::Cuts;
  return std::nullopt;
}

std::optional<MatchClass> parse_match_class(std::string_view name) {
  if (name == "standard") return MatchClass::Standard;
  if (name == "extended") return MatchClass::Extended;
  return std::nullopt;
}

std::optional<MapRequestError> MapRequest::validate() const {
  struct Bound {
    const char* option;
    unsigned value, lo, hi;
  };
  const Bound bounds[] = {
      {"cut_size", cut_size, 2, 4},
      {"cut_count", cut_count, 1, 64},
      {"rounds", rounds, 1, 16},
      {"load_rounds", load_rounds, 0, 16},
      {"supergates", supergates, 0, 8},
      {"threads", threads, 0, kMaxThreads},
  };
  for (const Bound& b : bounds)
    if (b.value < b.lo || b.value > b.hi)
      return MapRequestError{
          b.option, std::to_string(b.lo) + ".." + std::to_string(b.hi)};
  // Written so that NaN fails too.
  if (!(delay_factor >= 1.0 && delay_factor <= 100.0))
    return MapRequestError{"delay_factor", "1..100"};
  if (partition_window == 0) return MapRequestError{"partition", ">= 1"};
  return std::nullopt;
}

MapRequest map_request_from_json(const JsonValue& options,
                                 MapRequest request) {
  if (!options.is_object())
    throw FormatError("\"options\" must be an object");
  auto unsigned_member = [&](const char* name, unsigned& field) {
    const JsonValue* v = options.find(name);
    if (!v || v->kind != JsonValue::Kind::Number) return;
    double d = v->number;
    if (!(d >= 0 && d <= UINT_MAX && d == std::floor(d)))
      throw FormatError(std::string("bad \"") + name + "\" value");
    field = static_cast<unsigned>(d);
  };
  auto named_member = [&](const char* name, auto parse, auto& field) {
    const JsonValue* v = options.find(name);
    if (!v || v->kind != JsonValue::Kind::String) return;
    auto parsed = parse(v->string);
    if (!parsed)
      throw FormatError(std::string("bad \"") + name + "\" value " +
                        v->string);
    field = *parsed;
  };

  unsigned_member("supergates", request.supergates);
  named_member("match", parse_match_class, request.match_class);
  named_member("backend", parse_map_backend, request.backend);
  request.area_recovery =
      options.get_bool("area_recovery", request.area_recovery);
  request.verify = options.get_bool("verify", request.verify);
  request.profile = options.get_bool("profile", request.profile);
  unsigned_member("cut_size", request.cut_size);
  unsigned_member("cut_count", request.cut_count);
  unsigned_member("rounds", request.rounds);
  request.delay_factor =
      options.get_number("delay_factor", request.delay_factor);
  unsigned_member("load_rounds", request.load_rounds);
  // "choices": true/false, or a generator list (which turns them on).
  if (const JsonValue* c = options.find("choices")) {
    if (c->kind == JsonValue::Kind::Bool) {
      request.choices = c->boolean;
    } else if (c->kind == JsonValue::Kind::String) {
      named_member("choices", parse_choice_gens, request.choice_gens);
      request.choices = true;
    } else {
      throw FormatError("\"choices\" must be a bool or a generator list");
    }
  }
  if (std::optional<MapRequestError> bad = request.validate())
    throw FormatError("bad \"" + bad->option + "\" (want " + bad->want +
                      ")");
  return request;
}

MappedRequest run_map_request(const Network& circuit,
                              const CompiledLibrary& lib,
                              const MapRequest& request) {
  DAGMAP_ASSERT_MSG(!request.validate(), "MapRequest out of bounds");
  MappedRequest out;
  // Kept alive through the mapping call: MapOptions::choices borrows
  // `choice->classes`.
  std::optional<ChoiceDecomposition> choice;
  if (request.choices) {
    obs::Scope scope("decompose.choices");
    ChoiceOptions chopt;
    chopt.gens = request.choice_gens;
    choice = tech_decompose_choices(circuit, chopt);
    choice->validate();
  } else {
    out.subject = tech_decompose(circuit);
  }
  const Network& subject = choice ? choice->subject : out.subject;

  MapOptions base;
  base.match_class = request.match_class;
  base.num_threads = request.threads;
  base.profile = request.profile;
  base.partition_mode = request.partition;
  base.partition_window = request.partition_window;
  base.pattern_index = &lib.index;
  base.load_rounds = request.load_rounds;
  base.choices = choice ? &choice->classes : nullptr;
  if (request.backend == MapBackend::Cuts) {
    CutMapOptions copt;
    static_cast<MapOptions&>(copt) = base;
    copt.cut_size = request.cut_size;
    copt.cut_count = request.cut_count;
    copt.rounds = request.rounds;
    copt.delay_factor = request.delay_factor;
    // Per-request index, seeded by the compiled bundle's stored NPN
    // classes (cheap: an early-exiting transform search per gate), so
    // concurrent serve workers never share mutable state.
    NpnLibraryIndex npn = npn_index_from_compiled(lib);
    copt.npn_index = &npn;
    out.result = cut_map(subject, lib.library, copt);
  } else {
    DagMapOptions dopt;
    static_cast<MapOptions&>(dopt) = base;
    dopt.area_recovery = request.area_recovery;
    out.result = dag_map(subject, lib.library, dopt);
  }
  if (choice) out.subject = std::move(choice->subject);
  return out;
}

}  // namespace dagmap
