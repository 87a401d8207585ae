// Constraint-based analog channel routing (Gyurcsik & Jeen [54]; Choudhury &
// Sangiovanni-Vincentelli [55]): a classic left-edge channel router extended
// with the analog necessities the paper highlights — variable wire widths,
// variable wire-to-wire separations between incompatible signal classes, and
// grounded shield insertion between noisy and sensitive wires.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace amsyn::layout {

/// Signal classes for crosstalk avoidance: noisy wires must keep away from
/// sensitive ones (ANAGRAM II's compatibility classes [34-36], applied here
/// at the chip level).
enum class WireClass : std::uint8_t { Quiet, Noisy, Sensitive };

/// Are two wire classes incompatible (must avoid adjacency)?
constexpr bool incompatible(WireClass a, WireClass b) {
  return (a == WireClass::Noisy && b == WireClass::Sensitive) ||
         (a == WireClass::Sensitive && b == WireClass::Noisy);
}

/// One terminal entering the channel from the top or bottom edge at an
/// integer column position.
struct ChannelPin {
  std::string net;
  int column = 0;
  bool top = true;
};

struct ChannelNetSpec {
  std::string name;
  WireClass wireClass = WireClass::Quiet;
  int widthTracks = 1;  ///< analog wires can be wider (power, low-R)
};

struct ChannelOptions {
  /// Extra empty tracks required between incompatible-class wires whose
  /// spans overlap.
  int classSeparationTracks = 1;
  /// Insert a grounded shield track between incompatible neighbors instead
  /// of just spacing them (ref [55]'s shield insertion).
  bool insertShields = false;
};

struct ChannelAssignment {
  std::string net;     ///< "(shield)" for inserted shields
  int track = 0;       ///< first track (tracks count from 0 at the bottom)
  int widthTracks = 1;
  int colMin = 0, colMax = 0;
};

struct ChannelResult {
  bool routable = false;         ///< false when the VCG is cyclic
  std::vector<ChannelAssignment> assignments;
  int height = 0;                ///< total tracks used (incl. shields/gaps)
  int densityLowerBound = 0;     ///< max column density (classic LB)
  /// Adjacent-track overlap length between incompatible classes (columns);
  /// the exposure metric the analog extensions reduce.
  int crosstalkAdjacency = 0;
  std::size_t shieldsInserted = 0;
};

/// Route one channel.  Nets not mentioned in `specs` default to Quiet /
/// 1 track wide.
ChannelResult routeChannel(const std::vector<ChannelPin>& pins,
                           const std::vector<ChannelNetSpec>& specs = {},
                           const ChannelOptions& opts = {});

}  // namespace amsyn::layout
