// Minimal SPICE-deck parser.  Supports the element cards needed by the
// examples and tests (R, C, L, V, I, E, G, M, D) with engineering-notation
// suffixes, comments, and .end.  This is a convenience frontend to the
// Netlist builders, not a full SPICE dialect.
#pragma once

#include <string>

#include "circuit/netlist.hpp"

namespace amsyn::circuit {

/// Parse "1.5k", "10u", "2meg", "3e-12" etc. into a double.
/// Throws std::invalid_argument on malformed input and on non-finite
/// results ("nan", "inf", scale overflow such as "1e308meg").
double parseValue(const std::string& token);

/// Parse a SPICE-like deck into a netlist.  Recognized cards:
///   R/C/L name n1 n2 value
///   V/I  name n+ n- [DC val] [AC mag]
///   E/G  name out+ out- in+ in- gain
///   M    name d g s b NMOS|PMOS W=... L=... [M=...]
///   D    name anode cathode [IS=...]
/// Lines starting with '*' are comments; text after ';' is ignored;
/// parsing stops at ".end".  Card letters are case-insensitive.
Netlist parseDeck(const std::string& deck);

}  // namespace amsyn::circuit
