// Functional-block composition of op-amp structures (FUBOCO-style): the
// amplifier candidate space is *generated* by composing a
// small library of parameterized structural blocks — differential pair
// (either polarity), simple or cascoded current-mirror load, tail bias with
// optional cascode, an optional common-source second stage with a
// current-sink load, and Miller compensation (plain or with a nulling
// resistor) — under electrical validity rules.  Each valid composition is
// one topology: it knows its canonical name, its design-variable vector
// (the union of its blocks' electrical variables, in a fixed stitch order),
// its structural complexity, and how to stitch its blocks' sub-netlists
// over canonical node names (vdd/0/nbias/tail/n1/no1/out).
//
// Determinism contract: enumerateOpampStructures() returns the same
// structures in the same order on every run and platform (plain nested
// loops over the block axes, no hashing, no address-dependent state), names
// are pure functions of the structure, and buildComposedOpamp is a pure
// function of (structure, x, proc, tb) — so library memo keys and batch
// bit-identity guarantees survive the generated space.
//
// The two historical cells — the five-transistor OTA and the two-stage
// Miller opamp — are the structures legacyOta() and legacyTwoStage(); their
// variables, geometry and netlists are the original hand-written templates'
// (differential-tested against a test-only reference in
// tests/composed_topology_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "sizing/opamp.hpp"
#include "sizing/perfmodel.hpp"

namespace amsyn::sizing {

/// Input differential-pair polarity.  The rest of the structure follows:
/// an NMOS pair takes a PMOS mirror load and NMOS tail; a PMOS pair the
/// complement.  The second stage's driver is the opposite polarity of the
/// pair (classic two-stage complementary arrangement).
enum class Polarity : std::uint8_t { Nmos, Pmos };

/// Compensation block choice.  None is only valid for single-stage
/// structures (the OTA's load capacitor is the dominant pole); a second
/// stage always requires Miller compensation for a two-pole loop, with the
/// nulling resistor as the RHP-zero variant.
enum class Compensation : std::uint8_t { None, Miller, MillerNulled };

/// One composed op-amp structure: which block variant fills each slot.
struct OpampStructure {
  Polarity input = Polarity::Nmos;
  bool inputCascode = false;  ///< telescopic cascode on the pair outputs
  bool loadCascode = false;   ///< cascoded current-mirror load
  bool tailCascode = false;   ///< cascoded tail current source
  bool secondStage = false;   ///< common-source output stage
  bool sinkCascode = false;   ///< cascoded second-stage current sink
  Compensation comp = Compensation::None;

  /// The five-transistor OTA: NMOS pair, simple PMOS mirror, plain tail.
  static OpampStructure legacyOta() { return {}; }
  /// The two-stage Miller opamp: the OTA core plus a PMOS common-source
  /// second stage and a plain Miller capacitor.
  static OpampStructure legacyTwoStage();

  /// Exactly legacyOta().
  bool isLegacyOta() const;
  /// Exactly legacyTwoStage().
  bool isLegacyTwoStage() const;

  /// Canonical name.  The two legacy structures keep their historical names
  /// ("five-transistor-ota", "two-stage-miller") so flow results and
  /// builder registrations stay compatible; every other
  /// composition gets a deterministic "gen/" token name.
  std::string name() const;

  /// Structural complexity: MOS device count plus compensation passives
  /// (excludes supplies, cascode bias rails, and the testbench).  Matches
  /// the historical cells' complexity figures (OTA 6, two-stage 9).
  int deviceCount() const;

  /// Electrical validity under the composition rules; on rejection `why`
  /// (when non-null) receives the violated rule.
  bool valid(std::string* why = nullptr) const;

  /// Design-variable vector in stitch order: i5, [i7], vov1, vov3, vov5,
  /// [vov6], [vovc1], [vovc3], [vovc5], [vovc7], [cc], [rzk].  The legacy
  /// OTA's list is (i5, vov1, vov3, vov5); the legacy two-stage's is
  /// (i5, i7, vov1, vov3, vov5, vov6, cc) — the coordinates the knowledge
  /// plans emit (knowledge/opamp_plans.hpp).
  std::vector<DesignVariable> variables() const;

  /// Position in variables() of the one coordinate the equations never
  /// read: vov6 on two-stage structures, which the zero-offset constraint
  /// pins to vov3 (see composedGeometryFor).  Bounds sampling visits it at
  /// a single point.  Single-stage structures read every coordinate.
  std::optional<std::size_t> unreadVariable() const;
};

/// Deterministically enumerate every electrically valid composition of the
/// block library (plain nested loops over the axes, filtered by valid()).
std::vector<OpampStructure> enumerateOpampStructures();

/// Device geometry of a composed structure, derived from the electrical
/// design point through the square law W = 2 I L / (kp Vov^2).
/// Shared by the composed equation model and the composed netlist builder
/// so the model stays consistent with the netlist it predicts (the classic
/// OPASYN failure mode is letting the two drift).  Widths of absent blocks
/// stay zero.
struct ComposedGeometry {
  double l = 2e-6;
  double w1 = 0, w3 = 0, w5 = 0, w6 = 0, w7 = 0, w8 = 0;  ///< core devices
  double wc1 = 0, wc3 = 0, wc5 = 0, wc7 = 0;              ///< cascodes
  double cc = 0, rz = 0;                                  ///< compensation
  double ibias = 10e-6;
};

/// Map a design point (structure's variables() order) onto device sizes.
ComposedGeometry composedGeometryFor(const OpampStructure& s, const std::vector<double>& x,
                                     const circuit::Process& proc);

/// Stitch the structure's block sub-netlists into a sized open-loop
/// testbench netlist at design point `x` (the structure's variables()
/// order).  For the legacy two-stage structure the result is
/// device-for-device identical to buildTwoStageOpamp over the same geometry.
circuit::Netlist buildComposedOpamp(const OpampStructure& s, const std::vector<double>& x,
                                    const circuit::Process& proc,
                                    const OpampTestbench& tb);

}  // namespace amsyn::sizing
