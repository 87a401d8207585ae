// Canonical (declaration-order-independent) digests of circuit objects —
// the netlist and process components of the evaluation-cache candidate key
// (core/evalcache.hpp).
//
// Canonical form: a netlist is hashed as the *sorted multiset* of its
// devices' electrical records.  Each record covers the device type, the
// terminal node NAMES in terminal order, and every electrically meaningful
// parameter (value, AC magnitude, MOS geometry, diode Is) — but
// NOT the device's own name or its declaration index.  Node identity is the
// node name, never the NodeId (ids are assigned in declaration order).
// Consequences, proven by the hash property tests in
// tests/property_test.cpp:
//   * reordering device or node declarations leaves the digest unchanged;
//   * renaming a device leaves the digest unchanged (electrical identity);
//   * identical parallel devices are preserved (multiset, not set);
//   * any electrical change — one resistor value, one MOS width — changes
//     the digest;
//   * renaming a NODE changes the digest by design: node names are
//     semantic anchors (testbench output nodes, supply names), not
//     arbitrary labels, and graph-canonical relabeling is out of scope.
#pragma once

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "core/evalcache.hpp"

namespace amsyn::circuit {

/// Digest of one device's electrical record (no name, node names for ids).
core::cache::Digest128 canonicalDeviceDigest(const Netlist& net, const Device& d);

/// Canonical digest of a whole netlist (sorted device-record multiset).
core::cache::Digest128 canonicalNetlistDigest(const Netlist& net);

/// Mix every electrical/lithographic Process parameter into `h` in a fixed
/// field order (corner instances differ from nominal in exactly these).
void hashProcess(core::cache::Hasher128& h, const Process& p);

}  // namespace amsyn::circuit
