// Liberty-subset reader — ingestion of load-dependent standard-cell
// libraries into the GENLIB-shaped world the mappers already speak.
//
// Liberty (.lib) is the industry library exchange format.  This reader
// supports the combinational subset that matters for mapping:
//
//   library (name) {
//     lu_table_template (tmpl) { variable_1 : ...; index_1 ("..."); }
//     cell (NAND2) {
//       area : 2.0;
//       pin (A) { direction : input;  capacitance : 1.0; }
//       pin (Y) {
//         direction : output;
//         function : "(A * B)'";
//         timing () {
//           related_pin : "A";
//           /* either the linear model ... */
//           intrinsic_rise : 1.0;  rise_resistance : 0.2;
//           /* ... or 1-D/2-D NLDM tables */
//           cell_rise (tmpl) { index_1 ("..."); values ("...", "..."); }
//         }
//       }
//     }
//   }
//
// Everything is materialized into the existing GenlibGate/GenlibPin
// structures: `capacitance` becomes the pin input load, linear arcs map
// directly to (block, fanout) pairs, and NLDM tables are collapsed to
// the same linear form by a least-squares block+slope fit over the
// capacitance axis (2-D tables are first averaged over the transition
// axis — the template's variable_1/variable_2 names decide which axis
// is which).  Sequential cells (ff/latch groups, clock pins) and cells
// without a single-output combinational function are skipped, not
// errors: a real .lib always carries flops the combinational mapper
// cannot use.  Malformed input (unbalanced braces, truncation, NaN or
// infinite table entries) raises ParseError — never a crash.
//
// The grammar is parsed generically (groups, simple attributes,
// complex attributes) so unknown constructs are skipped rather than
// rejected; only the recognized subset is interpreted.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "io/genlib.hpp"

namespace dagmap {

/// A Liberty library materialized as GENLIB-shaped gates.
struct LibertyLibrary {
  std::string name;               ///< library (NAME) argument
  std::vector<GenlibGate> gates;  ///< usable combinational cells
  std::size_t cells_skipped = 0;  ///< sequential / unsupported cells
};

/// Cheap format sniff: true when the first significant token is
/// `library` followed by '(' — used to route .lib sources through this
/// reader while .genlib sources keep the GENLIB path.
bool looks_like_liberty(std::string_view text);

/// Parses Liberty text.  Throws ParseError on malformed input or when
/// no usable combinational cell survives.
LibertyLibrary parse_liberty(const std::string& text);

}  // namespace dagmap
