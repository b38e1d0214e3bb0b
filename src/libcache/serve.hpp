// Persistent batched serve mode: map a stream of circuits without
// re-compiling the library per invocation.
//
// Protocol (JSON Lines on the input/output streams, one request and one
// response per line):
//
//   request:  {"circuit": "<BLIF text>",
//              "library": "<genlib path>",    // optional w/ default; or
//              "liberty": "<liberty path>",   // (not both: the registry
//                                             // sniffs the format anyway)
//              "options": {...}}              // optional, see below
//   response: {"ok": true, "id": N, "delay": ..., "area": ...,
//              "gates": N, "subject_nodes": N,
//              "structural_hash": "0x...", "blif": "<mapped BLIF>",
//              "library": "<name>", "cache": "memory|artifact|compiled",
//              "backend": "cuts",             // cut-backend requests
//              "choice_classes": N, "choice_variants": N,
//              "choice_wins": N,              // when choices are on
//              "loaded_delay": ..., "loaded_delay_round0": ...,
//              "load_round": N,               // when load_rounds > 0
//              "verified": true,              // when verify passed
//              "profile": "<summary>"}        // when requested
//   error:    {"ok": false, "id": N, "error": "<message>"}
//
// "options" is a MapRequest (libcache/map_request.hpp), which
// `dagmap_cli` parses from argv too: one set of bounds, one mapping
// path.  Members (default, bound): "supergates" (0, 0..8), "match"
// ("standard" | "extended"), "backend" ("structural" | "cuts"), the cut
// knobs "cut_size" (4, 2..4), "cut_count" (8, 1..64), "rounds" (1,
// 1..16) and "delay_factor" (1.0, 1..100), "area_recovery" (false;
// structural only), "load_rounds" (0, 0..16), "choices" (false; true
// or a generator list such as "balanced,chain,andor"), "verify" (false)
// and "profile" (false).  Unsigned members must be integral and
// non-negative; a member of the wrong JSON type keeps its default.
//
// Responses are emitted in request order.  Requests are mapped
// concurrently: lines already buffered on the input are gathered into a
// batch (up to ServeOptions::max_batch) and mapped on the ThreadPool,
// one request per worker with in-request threading pinned to 1 — the
// mapped result is bit-identical to a solo `dagmap_cli` run by the
// determinism contract.  A malformed or failing request produces an
// error response for its line and nothing else; the daemon keeps
// serving.  Profiled requests run sequentially (the obs session is
// process-global) after the concurrent part of their batch.
//
// Libraries resolve through an LRU LibraryRegistry, so the first
// request against a library pays compile (or artifact load) cost and
// subsequent ones map immediately.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "libcache/compiled_library.hpp"
#include "libcache/registry.hpp"

namespace dagmap {

struct ServeOptions {
  /// Concurrent request workers (0 = all hardware threads).
  unsigned num_threads = 0;
  /// Largest request batch mapped per ThreadPool barrier.
  std::size_t max_batch = 32;
  /// Resident compiled libraries (LibraryRegistry::Options::capacity).
  std::size_t registry_capacity = 4;
  /// Maintain `<genlib>.dmlc` artifact sidecars.
  bool auto_save = true;
  /// Library used by requests that carry no "library" member.
  std::string default_library;
  /// Compile-option defaults for requests without an "options" override.
  LibCompileOptions default_compile;
};

struct ServeSummary {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;
  RegistryStats registry;
};

/// Runs the serve loop until `in` is exhausted.  Returns the summary
/// (the CLI prints it to stderr).  Never throws on per-request failures;
/// only a broken output stream aborts the loop.
ServeSummary run_serve(std::istream& in, std::ostream& out,
                       const ServeOptions& options = {});

}  // namespace dagmap
