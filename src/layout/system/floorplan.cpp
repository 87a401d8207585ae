#include "layout/system/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

namespace amsyn::layout {

using geom::Coord;
using geom::Rect;

const PlacedBlock& Floorplan::block(const std::string& name) const {
  for (const auto& b : blocks)
    if (b.name == name) return b;
  throw std::out_of_range("Floorplan: no block named " + name);
}

double blockWirelength(const std::vector<BlockNet>& nets,
                       const std::vector<PlacedBlock>& placed) {
  std::map<std::string, geom::Point> center;
  for (const auto& b : placed) center[b.name] = b.rect.center();
  double total = 0.0;
  for (const auto& net : nets) {
    bool first = true;
    Coord x0 = 0, x1 = 0, y0 = 0, y1 = 0;
    for (const auto& bn : net.blocks) {
      auto it = center.find(bn);
      if (it == center.end()) continue;
      if (first) {
        x0 = x1 = it->second.x;
        y0 = y1 = it->second.y;
        first = false;
      } else {
        x0 = std::min(x0, it->second.x);
        x1 = std::max(x1, it->second.x);
        y0 = std::min(y0, it->second.y);
        y1 = std::max(y1, it->second.y);
      }
    }
    if (!first) total += static_cast<double>((x1 - x0) + (y1 - y0));
  }
  return total;
}

double substrateNoise(const std::vector<Block>& blocks,
                      const std::vector<PlacedBlock>& placed, double halfDistance) {
  std::map<std::string, const Block*> byName;
  for (const auto& b : blocks) byName[b.name] = &b;
  double total = 0.0;
  for (const auto& pa : placed) {
    const Block* a = byName.at(pa.name);
    if (!a->isAnalog()) continue;
    for (const auto& pd : placed) {
      const Block* d = byName.at(pd.name);
      if (!d->isDigital()) continue;
      const double dist = static_cast<double>(geom::centerDistance(pa.rect, pd.rect));
      const double ratio = dist / halfDistance;
      total += a->noiseSensitivity * d->noiseInjection / (1.0 + ratio * ratio);
    }
  }
  return total;
}

namespace {

constexpr double kAreaWeight = 1.0;
constexpr double kWireWeight = 0.3;
constexpr Coord kSpacing = 40;                ///< inter-block clearance / channel width
constexpr double kNoiseHalfDistance = 400.0;  ///< distance at which coupling halves

// ------------------------------------------------------------ slicing tree

constexpr int kOpV = -1;  // vertical cut: children side by side
constexpr int kOpH = -2;  // horizontal cut: children stacked

struct ShapeOption {
  Coord w = 0, h = 0;
  int leftChoice = -1, rightChoice = -1;  // child option indices
  bool rotated = false;                   // leaf only
};

struct EvalNode {
  int blockIdx = -1;  // >= 0: leaf
  int op = 0;
  int left = -1, right = -1;  // EvalNode indices
  std::vector<ShapeOption> options;
};

/// Non-dominated merge of shape options.
void prune(std::vector<ShapeOption>& opts) {
  // Equal (w, h) options can differ in provenance (child choices, rotation),
  // and which one survives pruning decides the reconstructed layout.
  // std::sort is unstable, so break the tie deterministically: prefer the
  // unrotated option, then the lowest child indices.
  std::sort(opts.begin(), opts.end(), [](const ShapeOption& a, const ShapeOption& b) {
    if (a.w != b.w) return a.w < b.w;
    if (a.h != b.h) return a.h < b.h;
    if (a.rotated != b.rotated) return b.rotated;
    if (a.leftChoice != b.leftChoice) return a.leftChoice < b.leftChoice;
    return a.rightChoice < b.rightChoice;
  });
  std::vector<ShapeOption> keep;
  Coord bestH = std::numeric_limits<Coord>::max();
  for (const auto& o : opts) {
    if (o.h < bestH) {
      keep.push_back(o);
      bestH = o.h;
    }
  }
  opts = std::move(keep);
}

/// Evaluate the Polish expression into a node tree; returns root node index.
int buildTree(const std::vector<int>& expr, const std::vector<Block>& blocks,
              std::vector<EvalNode>& nodes) {
  std::vector<int> stack;
  for (int tok : expr) {
    EvalNode n;
    if (tok >= 0) {
      n.blockIdx = tok;
      const Block& b = blocks[static_cast<std::size_t>(tok)];
      n.options.push_back({b.width + kSpacing, b.height + kSpacing, -1, -1, false});
      if (b.width != b.height)
        n.options.push_back({b.height + kSpacing, b.width + kSpacing, -1, -1, true});
      prune(n.options);
      nodes.push_back(std::move(n));
      stack.push_back(static_cast<int>(nodes.size()) - 1);
    } else {
      if (stack.size() < 2) throw std::logic_error("buildTree: malformed expression");
      n.op = tok;
      n.right = stack.back();
      stack.pop_back();
      n.left = stack.back();
      stack.pop_back();
      const auto& lo = nodes[static_cast<std::size_t>(n.left)].options;
      const auto& ro = nodes[static_cast<std::size_t>(n.right)].options;
      for (std::size_t i = 0; i < lo.size(); ++i) {
        for (std::size_t j = 0; j < ro.size(); ++j) {
          ShapeOption o;
          o.leftChoice = static_cast<int>(i);
          o.rightChoice = static_cast<int>(j);
          if (tok == kOpV) {
            o.w = lo[i].w + ro[j].w;
            o.h = std::max(lo[i].h, ro[j].h);
          } else {
            o.w = std::max(lo[i].w, ro[j].w);
            o.h = lo[i].h + ro[j].h;
          }
          n.options.push_back(o);
        }
      }
      prune(n.options);
      nodes.push_back(std::move(n));
      stack.push_back(static_cast<int>(nodes.size()) - 1);
    }
  }
  if (stack.size() != 1) throw std::logic_error("buildTree: malformed expression");
  return stack.back();
}

/// Assign block rectangles from a chosen root option.
void assignRects(const std::vector<EvalNode>& nodes, int nodeIdx, int optIdx, Coord x,
                 Coord y, const std::vector<Block>& blocks, std::vector<PlacedBlock>& out) {
  const EvalNode& n = nodes[static_cast<std::size_t>(nodeIdx)];
  const ShapeOption& o = n.options[static_cast<std::size_t>(optIdx)];
  if (n.blockIdx >= 0) {
    const Block& b = blocks[static_cast<std::size_t>(n.blockIdx)];
    const Coord w = o.rotated ? b.height : b.width;
    const Coord h = o.rotated ? b.width : b.height;
    out.push_back(PlacedBlock{
        b.name, Rect::fromSize(x + kSpacing / 2, y + kSpacing / 2, w, h), o.rotated});
    return;
  }
  const auto& lo = nodes[static_cast<std::size_t>(n.left)].options;
  assignRects(nodes, n.left, o.leftChoice, x, y, blocks, out);
  if (n.op == kOpV) {
    assignRects(nodes, n.right, o.rightChoice,
                x + lo[static_cast<std::size_t>(o.leftChoice)].w, y, blocks, out);
  } else {
    assignRects(nodes, n.right, o.rightChoice, x,
                y + lo[static_cast<std::size_t>(o.leftChoice)].h, blocks, out);
  }
}

/// Is expr a valid normalized Polish expression?  (balloting + no repeated
/// adjacent operators of the same kind)
bool normalized(const std::vector<int>& expr) {
  int operands = 0, operators = 0;
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (expr[i] >= 0) {
      ++operands;
    } else {
      ++operators;
      if (operators >= operands) return false;
      if (i > 0 && expr[i - 1] == expr[i]) return false;
    }
  }
  return operands == operators + 1;
}

struct SlicingEval {
  std::vector<PlacedBlock> placed;
  double area = 0.0, wl = 0.0, noise = 0.0;
};

SlicingEval evaluateExpr(const std::vector<int>& expr, const std::vector<Block>& blocks,
                         const std::vector<BlockNet>& nets) {
  std::vector<EvalNode> nodes;
  const int root = buildTree(expr, blocks, nodes);
  // Choose the min-area root option.
  const auto& ro = nodes[static_cast<std::size_t>(root)].options;
  std::size_t best = 0;
  for (std::size_t i = 1; i < ro.size(); ++i)
    if (ro[i].w * ro[i].h < ro[best].w * ro[best].h) best = i;
  SlicingEval ev;
  assignRects(nodes, root, static_cast<int>(best), 0, 0, blocks, ev.placed);
  ev.area = static_cast<double>(ro[best].w) * static_cast<double>(ro[best].h);
  ev.wl = blockWirelength(nets, ev.placed);
  ev.noise = substrateNoise(blocks, ev.placed, kNoiseHalfDistance);
  return ev;
}

}  // namespace

Floorplan slicingFloorplan(const std::vector<Block>& blocks, const std::vector<BlockNet>& nets,
                           const FloorplanOptions& opts) {
  if (blocks.empty()) throw std::invalid_argument("slicingFloorplan: no blocks");
  const std::size_t n = blocks.size();

  // Initial expression: 0 1 V 2 V 3 V ... (a row).
  std::vector<int> expr;
  expr.push_back(0);
  for (std::size_t i = 1; i < n; ++i) {
    expr.push_back(static_cast<int>(i));
    expr.push_back(i % 2 == 0 ? kOpH : kOpV);
  }

  // Normalization scales from the initial solution.
  const SlicingEval init = evaluateExpr(expr, blocks, nets);
  const double areaNorm = std::max(init.area, 1.0);
  const double wlNorm = std::max(init.wl, 1.0);
  const double noiseNorm = std::max(init.noise, 1e-9);

  auto costOf = [&](const std::vector<int>& e) {
    const SlicingEval ev = evaluateExpr(e, blocks, nets);
    return kAreaWeight * ev.area / areaNorm + kWireWeight * ev.wl / wlNorm +
           opts.noiseWeight * ev.noise / noiseNorm;
  };

  std::vector<int> prev = expr, best = expr;
  num::AnnealProblem prob;
  prob.cost = [&] { return costOf(expr); };
  prob.propose = [&](num::Rng& rng) {
    prev = expr;
    for (int attempt = 0; attempt < 30; ++attempt) {
      std::vector<int> cand = expr;
      const int kind = rng.integer(0, 2);
      if (kind == 0) {
        // M1: swap two adjacent operands.
        std::vector<std::size_t> operandPos;
        for (std::size_t i = 0; i < cand.size(); ++i)
          if (cand[i] >= 0) operandPos.push_back(i);
        const std::size_t k = rng.index(operandPos.size() - 1);
        std::swap(cand[operandPos[k]], cand[operandPos[k + 1]]);
      } else if (kind == 1) {
        // M2: complement an operator chain.
        std::vector<std::size_t> opPos;
        for (std::size_t i = 0; i < cand.size(); ++i)
          if (cand[i] < 0) opPos.push_back(i);
        std::size_t i = opPos[rng.index(opPos.size())];
        while (i < cand.size() && cand[i] < 0) {
          cand[i] = cand[i] == kOpV ? kOpH : kOpV;
          ++i;
        }
      } else {
        // M3: swap an adjacent operand/operator pair.
        const std::size_t i = 1 + rng.index(cand.size() - 1);
        if ((cand[i - 1] >= 0) != (cand[i] >= 0)) std::swap(cand[i - 1], cand[i]);
      }
      if (normalized(cand)) {
        expr = std::move(cand);
        return;
      }
    }
  };
  prob.undo = [&] { expr = prev; };
  prob.snapshot = [&] { best = expr; };

  num::AnnealOptions aopts = opts.anneal;
  aopts.seed = opts.seed;
  aopts.problemSizeHint = n;
  num::anneal(prob, aopts);

  const SlicingEval ev = evaluateExpr(best, blocks, nets);
  Floorplan fp;
  fp.blocks = ev.placed;
  Rect bb;
  for (const auto& b : fp.blocks) bb = bb.unionWith(b.rect);
  fp.chipBox = bb.inflated(kSpacing / 2);
  fp.wirelength = ev.wl;
  fp.substrateNoise = ev.noise;
  fp.overlapFree = true;  // slicing construction cannot overlap
  for (std::size_t i = 0; i < fp.blocks.size(); ++i)
    for (std::size_t j = i + 1; j < fp.blocks.size(); ++j)
      if (fp.blocks[i].rect.overlaps(fp.blocks[j].rect)) fp.overlapFree = false;
  return fp;
}

Floorplan wrightFloorplan(const std::vector<Block>& blocks, const std::vector<BlockNet>& nets,
                          const FloorplanOptions& opts) {
  if (blocks.empty()) throw std::invalid_argument("wrightFloorplan: no blocks");
  const std::size_t n = blocks.size();

  // Seed from the slicing floorplan (legal start).
  FloorplanOptions seedOpts = opts;
  seedOpts.anneal.stagnationStages = 4;
  const Floorplan seed = slicingFloorplan(blocks, nets, seedOpts);

  struct State {
    std::vector<PlacedBlock> placed;
  } st{seed.blocks}, prev = st, best = st;

  const double areaNorm =
      std::max(1.0, static_cast<double>(seed.chipBox.area()));
  const double wlNorm = std::max(seed.wirelength, 1.0);
  const double noiseNorm = std::max(seed.substrateNoise, 1e-9);
  double overlapScale = 1.0;
  std::size_t movesDone = 0;

  auto cost = [&] {
    Rect bb;
    double overlap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      bb = bb.unionWith(st.placed[i].rect);
      for (std::size_t j = i + 1; j < n; ++j) {
        const Rect o = st.placed[i].rect.inflated(kSpacing / 2)
                           .intersect(st.placed[j].rect.inflated(kSpacing / 2));
        overlap += static_cast<double>(o.area());
      }
    }
    const double noise = substrateNoise(blocks, st.placed, kNoiseHalfDistance);
    return kAreaWeight * static_cast<double>(bb.area()) / areaNorm +
           kWireWeight * blockWirelength(nets, st.placed) / wlNorm +
           opts.noiseWeight * noise / noiseNorm +
           4.0 * overlapScale * overlap / areaNorm;
  };

  num::AnnealProblem prob;
  prob.cost = cost;
  prob.propose = [&](num::Rng& rng) {
    prev = st;
    const std::size_t i = rng.index(n);
    const int kind = rng.integer(0, 3);
    const Coord range = std::max<Coord>(
        40, static_cast<Coord>(static_cast<double>(seed.chipBox.width()) * 0.2));
    switch (kind) {
      case 0:
      case 1: {
        const Coord dx = rng.integer(-static_cast<int>(range), static_cast<int>(range));
        const Coord dy = rng.integer(-static_cast<int>(range), static_cast<int>(range));
        st.placed[i].rect = st.placed[i].rect.translated(dx, dy);
        break;
      }
      case 2: {  // rotate in place about the lower-left corner
        auto& b = st.placed[i];
        b.rect = Rect::fromSize(b.rect.x0, b.rect.y0, b.rect.height(), b.rect.width());
        b.rotated = !b.rotated;
        break;
      }
      case 3: {  // swap two block positions
        const std::size_t j = rng.index(n);
        const geom::Point pi{st.placed[i].rect.x0, st.placed[i].rect.y0};
        const geom::Point pj{st.placed[j].rect.x0, st.placed[j].rect.y0};
        st.placed[i].rect = st.placed[i].rect.translated(pj.x - pi.x, pj.y - pi.y);
        st.placed[j].rect = st.placed[j].rect.translated(pi.x - pj.x, pi.y - pj.y);
        break;
      }
      default:
        break;
    }
    if (++movesDone % 256 == 0) overlapScale = std::min(64.0, overlapScale * 1.2);
  };
  prob.undo = [&] { st = prev; };
  prob.snapshot = [&] { best = st; };

  num::AnnealOptions aopts = opts.anneal;
  aopts.seed = opts.seed;
  aopts.problemSizeHint = n;
  num::anneal(prob, aopts);

  // Legalize residual overlaps by pushing blocks rightward.
  auto& placed = best.placed;
  bool moved = true;
  std::size_t guard = 0;
  while (moved && guard++ < 64) {
    moved = false;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const Rect a = placed[i].rect.inflated(kSpacing / 2);
        const Rect b = placed[j].rect.inflated(kSpacing / 2);
        if (!a.overlaps(b)) continue;
        if (placed[i].rect.x0 > placed[j].rect.x0) continue;
        placed[j].rect = placed[j].rect.translated(a.x1 - b.x0 + 1, 0);
        moved = true;
      }
  }

  Floorplan fp;
  fp.blocks = placed;
  Rect bb;
  for (const auto& b : fp.blocks) bb = bb.unionWith(b.rect);
  fp.chipBox = bb.inflated(kSpacing / 2);
  fp.wirelength = blockWirelength(nets, fp.blocks);
  fp.substrateNoise = substrateNoise(blocks, fp.blocks, kNoiseHalfDistance);
  fp.overlapFree = true;
  for (std::size_t i = 0; i < fp.blocks.size(); ++i)
    for (std::size_t j = i + 1; j < fp.blocks.size(); ++j)
      if (fp.blocks[i].rect.overlaps(fp.blocks[j].rect)) fp.overlapFree = false;
  return fp;
}

}  // namespace amsyn::layout
