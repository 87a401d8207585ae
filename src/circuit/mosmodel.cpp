#include "circuit/mosmodel.hpp"

#include <algorithm>
#include <cmath>

namespace amsyn::circuit {

MosOp evalMos(const MosParams& p, const Process& proc, double vd, double vg, double vs,
              double vb) {
  const bool isN = p.type == MosType::Nmos;
  // Map PMOS onto the NMOS equations by flipping all voltages.
  const double sgn = isN ? 1.0 : -1.0;
  double vds = sgn * (vd - vs);
  double vgs = sgn * (vg - vs);
  double vbs = sgn * (vb - vs);

  // Source/drain swap so vds >= 0 (the model is symmetric).
  bool swapped = false;
  if (vds < 0) {
    vgs = vgs - vds;  // becomes vgd
    vbs = vbs - vds;  // becomes vbd
    vds = -vds;
    swapped = true;
  }

  const double kp = isN ? proc.kpN : proc.kpP;
  const double vt0 = std::abs(isN ? proc.vt0N : proc.vt0P);
  const double gamma = isN ? proc.gammaN : proc.gammaP;
  const double lambda = (isN ? proc.lambdaN : proc.lambdaP) * (1e-6 / p.l);
  const double beta = kp * (p.w * p.m) / p.l;

  MosOp op;
  // Body effect: vth = vt0 + gamma (sqrt(phi - vbs) - sqrt(phi)); clamp the
  // junction to weak forward bias to keep the sqrt real.
  const double phi = proc.phiF2;
  const double sb = std::sqrt(std::max(phi - vbs, 0.05));
  op.vth = vt0 + gamma * (sb - std::sqrt(phi));
  op.vov = vgs - op.vth;

  if (op.vov <= 0) {
    op.region = MosRegion::Cutoff;
    // Tiny subthreshold-ish leak keeps Newton Jacobians nonsingular.
    const double gLeak = 1e-12;
    op.ids = gLeak * vds;
    op.gds = gLeak;
    op.gm = 0.0;
    op.gmb = 0.0;
  } else if (vds < op.vov) {
    op.region = MosRegion::Triode;
    const double clm = 1.0 + lambda * vds;
    op.ids = beta * (op.vov * vds - 0.5 * vds * vds) * clm;
    op.gm = beta * vds * clm;
    op.gds = beta * (op.vov - vds) * clm + beta * (op.vov * vds - 0.5 * vds * vds) * lambda;
    op.gmb = op.gm * gamma / (2.0 * sb);
  } else {
    op.region = MosRegion::Saturation;
    const double clm = 1.0 + lambda * vds;
    op.ids = 0.5 * beta * op.vov * op.vov * clm;
    op.gm = beta * op.vov * clm;
    op.gds = 0.5 * beta * op.vov * op.vov * lambda;
    op.gmb = op.gm * gamma / (2.0 * sb);
  }

  // Intrinsic + overlap capacitances (Meyer-style partition).
  const double w = p.w * p.m;
  const double cOxTot = proc.cox * w * p.l;
  const double cOv = proc.covPerW * w;
  switch (op.region) {
    case MosRegion::Cutoff:
      op.cgb = cOxTot;
      op.cgs = cOv;
      op.cgd = cOv;
      break;
    case MosRegion::Triode:
      op.cgs = 0.5 * cOxTot + cOv;
      op.cgd = 0.5 * cOxTot + cOv;
      op.cgb = 0.0;
      break;
    case MosRegion::Saturation:
      op.cgs = (2.0 / 3.0) * cOxTot + cOv;
      op.cgd = cOv;
      op.cgb = 0.0;
      break;
  }
  // Junction caps from a default drain/source diffusion geometry
  // (width x 5 lambda strip).
  const double diffLen = 5.0 * proc.lambda;
  const double aj = w * diffLen;
  const double pj = 2.0 * (w + diffLen);
  op.cdb = proc.cjArea * aj + proc.cjPerim * pj;
  op.csb = op.cdb;

  // Undo source/drain swap for the current direction; small-signal
  // conductances are symmetric enough at the accuracy level of this model.
  if (swapped) op.ids = -op.ids;
  // Restore current sign convention for PMOS (ids flows source->drain).
  op.ids *= sgn;
  return op;
}

double mosNoisePsd(const MosParams& p, const Process& proc, const MosOp& op, double f) {
  const bool isN = p.type == MosType::Nmos;
  const double thermal = 4.0 * proc.kT() * (2.0 / 3.0) * std::max(op.gm, 0.0);
  const double kf = isN ? proc.kfN : proc.kfP;
  const double w = p.w * p.m;
  const double flicker =
      kf * std::pow(std::abs(op.ids), proc.afExp) / (proc.cox * w * p.l * std::max(f, 1.0));
  return thermal + flicker;
}

}  // namespace amsyn::circuit
