// Asymptotic Waveform Evaluation (Pillage & Rohrer, IEEE TCAD 1990 — the
// paper's ref [61]).  AWE reduces a large linear(ized) network to a few
// dominant poles by matching moments of the transfer function, giving
// orders-of-magnitude-faster evaluation than full AC/transient analysis.
//
// In this library AWE serves two masters, exactly as in the paper:
//  * ASTRX/OBLX-style synthesis [23] evaluates linear small-signal
//    characteristics with AWE inside the annealing loop, and
//  * RAIL [58,60] models the entire power grid + package electrically
//    during layout via AWE.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "numeric/pade.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"

namespace amsyn::awe {

/// Reduced-order model of one transfer function.
struct AweModel {
  std::vector<double> moments;   ///< m0 .. m_{2q-1} of the output variable
  num::Rational rational;        ///< [q-1/q] Padé approximant
  num::PoleResidue pr;           ///< stable pole/residue form

  /// Evaluate |H(j 2 pi f)|.
  double magnitudeAt(double frequencyHz) const;

  /// Unit-step response at time t from the pole/residue form.
  double stepResponse(double t) const;
};

/// Generic moment engine: given a solver for G x = r and the action of the
/// storage matrix C, compute 2q output moments of x at `outputIndex` driven
/// by excitation b.  The solver and storage action are callbacks, so the
/// moment recursion does not depend on how G is factored:
///   m_0 = G^{-1} b,   m_k = -G^{-1} C m_{k-1}.
std::vector<double> computeMoments(
    const std::function<num::VecD(const num::VecD&)>& solveG,
    const std::function<num::VecD(const num::VecD&)>& multiplyC, const num::VecD& b,
    std::size_t outputIndex, std::size_t order);

/// Build an AWE model from explicit moments (order reduced automatically when
/// the moment sequence comes from fewer poles than requested).
AweModel modelFromMoments(std::vector<double> moments);

/// AWE model of the small-signal transfer from the netlist's AC sources to
/// `outputNode`, linearized at operating point `op`.  `order` is the number
/// of requested poles q (2q moments are computed).
AweModel aweTransfer(const sim::Mna& mna, const sim::DcResult& op,
                     const std::string& outputNode, std::size_t order = 4);

/// AWE model of a driving-point/transfer response of an arbitrary linear
/// system given dense G and C matrices and excitation b.
AweModel aweLinearSystem(const num::MatrixD& g, const num::MatrixD& c, const num::VecD& b,
                         std::size_t outputIndex, std::size_t order = 4);

}  // namespace amsyn::awe
