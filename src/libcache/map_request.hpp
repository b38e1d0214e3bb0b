// One mapping request for both front ends: the CLI parses it from argv
// (tools/dagmap_cli.cpp), serve mode from a JSONL "options" object
// (libcache/serve.hpp).  Both check it with the same `validate()` and
// map it with the same `run_map_request`, so a request maps to the same
// bytes whichever way it arrives.  Where the circuit and library come
// from, and what happens to the netlist afterwards (buffering, sizing,
// retiming, writing, the equivalence check), stay with the front end.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/map_options.hpp"
#include "decomp/choices.hpp"
#include "libcache/compiled_library.hpp"
#include "libcache/json.hpp"
#include "netlist/network.hpp"

namespace dagmap {

enum class MapBackend : std::uint8_t {
  Structural,  ///< dag_map (core/dag_mapper.hpp): structural matches
  Cuts,        ///< cut_map (cutmap/cut_mapper.hpp): + NPN priority cuts
};

/// "structural" / "cuts" -> MapBackend; nullopt for anything else.
std::optional<MapBackend> parse_map_backend(std::string_view name);
/// "standard" / "extended" -> MatchClass; nullopt for anything else.
std::optional<MatchClass> parse_match_class(std::string_view name);

/// A value outside its bound.  `option` is the option's name as serve
/// spells it; the CLI flag is the same name with '-' for '_'.
struct MapRequestError {
  std::string option;
  std::string want;  ///< the accepted range, e.g. "1..64"
};

struct MapRequest {
  /// Upper bound on `threads`, so no request can start a runaway pool.
  static constexpr unsigned kMaxThreads = 1024;

  MapBackend backend = MapBackend::Structural;
  MatchClass match_class = MatchClass::Standard;
  /// dag_map's required-time area recovery (structural backend only).
  bool area_recovery = false;
  /// cut_map's knobs (cuts backend only).
  unsigned cut_size = 4;
  unsigned cut_count = 8;
  unsigned rounds = 1;
  double delay_factor = 1.0;
  /// Iterated load-aware rounds (dagmap/load_rounds.hpp).
  unsigned load_rounds = 0;
  /// Decompose with choice classes made by the `choice_gens` generators.
  bool choices = false;
  unsigned choice_gens = kChoiceGenAll;
  /// Supergate depth of the library the request maps against
  /// (LibCompileOptions::supergate_depth; 0 = plain library).
  unsigned supergates = 0;
  /// Check the mapped netlist against the circuit (done by the front
  /// end: the CLI checks after its post-passes).
  bool verify = false;
  bool profile = false;
  /// Labeling threads (MapOptions::num_threads; 0 = all cores).
  unsigned threads = 1;
  PartitionMode partition = PartitionMode::Auto;
  std::uint32_t partition_window = MapOptions{}.partition_window;

  /// The one bounds check of a request; nullopt when all are in range.
  std::optional<MapRequestError> validate() const;
};

/// Reads serve's "options" object on top of `defaults`: members that are
/// absent, or not of the member's JSON type, keep the default.  Unsigned
/// members must be integral and non-negative.  The result is validated.
/// Throws libcache::FormatError on a bad value.
MapRequest map_request_from_json(const libcache::JsonValue& options,
                                 MapRequest defaults = {});

/// The decomposed subject and the mapping of one request.
struct MappedRequest {
  Network subject;
  MapResult result;
};

/// Decomposes `circuit` (with choice classes when requested) and maps it
/// with `dag_map` or `cut_map` against `lib`, reusing its pattern index
/// and NPN classes.  `request` must be valid; `verify` is the caller's.
MappedRequest run_map_request(const Network& circuit,
                              const CompiledLibrary& lib,
                              const MapRequest& request);

}  // namespace dagmap
