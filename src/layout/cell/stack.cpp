#include "layout/cell/stack.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>

namespace amsyn::layout {

using circuit::Device;
using circuit::DeviceType;

namespace {

/// Union-find over graph vertices.
struct Dsu {
  std::vector<std::size_t> parent;
  explicit Dsu(std::size_t n) : parent(n) { std::iota(parent.begin(), parent.end(), 0u); }
  std::size_t find(std::size_t a) {
    while (parent[a] != a) a = parent[a] = parent[parent[a]];
    return a;
  }
  void merge(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

/// Euler bound over the edges that `used` does not mark (all edges when it
/// is null): max(1, odd/2) trails per connected component, 0 with no edges.
std::size_t eulerBound(const DiffusionGraph& g, const std::vector<bool>* used) {
  Dsu dsu(g.nets.size());
  std::vector<bool> touched(g.nets.size(), false);
  std::vector<std::size_t> degree(g.nets.size(), 0);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (used && (*used)[i]) continue;
    const auto& e = g.edges[i];
    dsu.merge(e.a, e.b);
    touched[e.a] = touched[e.b] = true;
    ++degree[e.a];
    ++degree[e.b];
  }
  std::map<std::size_t, std::size_t> oddPerComp;
  std::set<std::size_t> comps;
  for (std::size_t v = 0; v < g.nets.size(); ++v) {
    if (!touched[v]) continue;
    const std::size_t root = dsu.find(v);
    comps.insert(root);
    if (degree[v] % 2 == 1) ++oddPerComp[root];
  }
  std::size_t total = 0;
  for (std::size_t c : comps) {
    const std::size_t odd = oddPerComp.count(c) ? oddPerComp[c] : 0;
    total += std::max<std::size_t>(1, odd / 2);
  }
  return total;
}

}  // namespace

std::size_t DiffusionGraph::minimumStacks() const { return eulerBound(*this, nullptr); }

std::vector<DiffusionGraph> buildDiffusionGraphs(const circuit::Netlist& net,
                                                 double widthTolerance) {
  std::vector<DiffusionGraph> graphs;
  for (const Device& d : net.devices()) {
    if (d.type != DeviceType::Mos) continue;
    const double w = d.mos.w * d.mos.m;
    DiffusionGraph* g = nullptr;
    for (auto& cand : graphs) {
      if (cand.type == d.mos.type &&
          std::abs(cand.width - w) <= widthTolerance * std::max(cand.width, w)) {
        g = &cand;
        break;
      }
    }
    if (!g) {
      graphs.push_back(DiffusionGraph{d.mos.type, w, {}, {}});
      g = &graphs.back();
    }
    auto vertex = [&](const std::string& name) -> std::size_t {
      for (std::size_t i = 0; i < g->nets.size(); ++i)
        if (g->nets[i] == name) return i;
      g->nets.push_back(name);
      return g->nets.size() - 1;
    };
    DiffusionGraph::Edge e;
    e.device = d.name;
    e.a = vertex(net.nodeName(d.nodes[0]));  // drain
    e.b = vertex(net.nodeName(d.nodes[2]));  // source
    e.mos = d.mos;
    e.gateNet = net.nodeName(d.nodes[1]);
    e.bulkNet = net.nodeName(d.nodes[3]);
    g->edges.push_back(std::move(e));
  }
  return graphs;
}

bool stackingValid(const DiffusionGraph& g, const Stacking& s) {
  std::vector<bool> used(g.edges.size(), false);
  std::size_t count = 0;
  for (const Stack& st : s.stacks) {
    if (st.elements.empty()) return false;
    std::size_t prevRight = 0;
    for (std::size_t i = 0; i < st.elements.size(); ++i) {
      const auto& el = st.elements[i];
      if (el.edge >= g.edges.size() || used[el.edge]) return false;
      used[el.edge] = true;
      ++count;
      const auto& e = g.edges[el.edge];
      const std::size_t left = el.flipped ? e.b : e.a;
      const std::size_t right = el.flipped ? e.a : e.b;
      if (i > 0 && left != prevRight) return false;
      prevRight = right;
    }
  }
  return count == g.edges.size();
}

Stacking greedyStacking(const DiffusionGraph& g) {
  Stacking result;
  if (g.edges.empty()) return result;
  const std::size_t nV = g.nets.size();
  const std::size_t nReal = g.edges.size();

  // Adjacency with virtual edges pairing odd vertices per component.
  struct Arc {
    std::size_t to;
    std::size_t edge;   // >= nReal means virtual
  };
  std::vector<std::vector<Arc>> adj(nV);
  auto addEdge = [&](std::size_t a, std::size_t b, std::size_t id) {
    adj[a].push_back({b, id});
    adj[b].push_back({a, id});
  };
  for (std::size_t i = 0; i < nReal; ++i) addEdge(g.edges[i].a, g.edges[i].b, i);

  // Pair odd-degree vertices within each component.
  Dsu dsu(nV);
  for (const auto& e : g.edges) dsu.merge(e.a, e.b);
  std::map<std::size_t, std::vector<std::size_t>> oddByComp;
  for (std::size_t v = 0; v < nV; ++v)
    if (adj[v].size() % 2 == 1) oddByComp[dsu.find(v)].push_back(v);
  std::size_t nextId = nReal;
  for (auto& [root, odds] : oddByComp) {
    (void)root;
    for (std::size_t i = 0; i + 1 < odds.size(); i += 2)
      addEdge(odds[i], odds[i + 1], nextId++);
  }
  const std::size_t totalEdges = nextId;

  // Hierholzer per component, starting at any vertex with edges.
  std::vector<bool> used(totalEdges, false);
  std::vector<std::size_t> cursor(nV, 0);
  std::vector<bool> visited(nV, false);

  for (std::size_t start = 0; start < nV; ++start) {
    if (adj[start].empty() || visited[dsu.find(start)]) continue;
    visited[dsu.find(start)] = true;

    // Iterative Hierholzer producing the circuit as a sequence of arcs.
    std::vector<std::pair<std::size_t, std::size_t>> circuit;  // (fromVertex, edgeId)
    std::vector<std::pair<std::size_t, std::size_t>> stackArc;
    std::vector<std::size_t> stackV{start};
    while (!stackV.empty()) {
      const std::size_t v = stackV.back();
      bool advanced = false;
      while (cursor[v] < adj[v].size()) {
        const Arc arc = adj[v][cursor[v]++];
        if (used[arc.edge]) continue;
        used[arc.edge] = true;
        stackV.push_back(arc.to);
        stackArc.push_back({v, arc.edge});
        advanced = true;
        break;
      }
      if (!advanced) {
        stackV.pop_back();
        if (!stackArc.empty() && !stackV.empty()) {
          circuit.push_back(stackArc.back());
          stackArc.pop_back();
        }
      }
    }
    std::reverse(circuit.begin(), circuit.end());

    // Split the circuit at virtual edges into real-edge trails.  The
    // circuit is cyclic: when it starts mid-trail (its first and last arcs
    // are both real and at least one virtual edge exists), the last and
    // first segments are the same trail and must be re-joined.
    std::vector<Stack> segments;
    Stack current;
    bool sawVirtual = false;
    auto flush = [&] {
      segments.push_back(std::move(current));
      current = Stack{};
    };
    for (const auto& [from, edgeId] : circuit) {
      if (edgeId >= nReal) {
        sawVirtual = true;
        flush();
        continue;
      }
      const auto& e = g.edges[edgeId];
      current.elements.push_back(StackElement{edgeId, e.a != from});
    }
    flush();
    if (sawVirtual && segments.size() >= 2 && !segments.front().elements.empty() &&
        !segments.back().elements.empty()) {
      // Wrap-around: append the leading segment to the trailing one.
      for (const auto& el : segments.front().elements)
        segments.back().elements.push_back(el);
      segments.front().elements.clear();
    }
    for (auto& seg : segments)
      if (!seg.elements.empty()) result.stacks.push_back(std::move(seg));
  }
  return result;
}

namespace {

/// Canonical signature of a stacking for dedup: sorted trails, each trail
/// direction-normalized by device-name sequence.
std::string signature(const DiffusionGraph& g, const Stacking& s) {
  std::vector<std::string> trails;
  for (const Stack& st : s.stacks) {
    std::string fwd, rev;
    for (const auto& el : st.elements) fwd += g.edges[el.edge].device + ",";
    for (auto it = st.elements.rbegin(); it != st.elements.rend(); ++it)
      rev += g.edges[it->edge].device + ",";
    trails.push_back(std::min(fwd, rev));
  }
  std::sort(trails.begin(), trails.end());
  std::string sig;
  for (const auto& t : trails) sig += t + "|";
  return sig;
}

struct Enumerator {
  const DiffusionGraph& g;
  std::size_t target;
  std::size_t maxResults;
  std::vector<bool> used;
  Stacking current;
  std::vector<Stacking> results;
  std::set<std::string> seen;
  std::size_t nodesVisited = 0;
  static constexpr std::size_t kNodeBudget = 400000;

  explicit Enumerator(const DiffusionGraph& graph, std::size_t tgt, std::size_t maxRes)
      : g(graph), target(tgt), maxResults(maxRes), used(graph.edges.size(), false) {}

  bool allUsed() const {
    for (bool u : used)
      if (!u) return false;
    return true;
  }

  void record() {
    const std::string sig = signature(g, current);
    if (seen.insert(sig).second) results.push_back(current);
  }

  /// Extend the open trail ending at vertex v, or close it and start anew.
  void extend(std::size_t v) {
    if (++nodesVisited > kNodeBudget || results.size() >= maxResults) return;
    bool extended = false;
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      if (used[i]) continue;
      const auto& e = g.edges[i];
      if (e.a != v && e.b != v) continue;
      extended = true;
      used[i] = true;
      current.stacks.back().elements.push_back({i, e.a != v});
      extend(e.a == v ? e.b : e.a);
      current.stacks.back().elements.pop_back();
      used[i] = false;
      if (results.size() >= maxResults) return;
    }
    // Option: close the trail here.
    if (allUsed()) {
      record();
      return;
    }
    if (current.stacks.size() < target) {
      // Prune: can the rest still be covered within budget?
      if (current.stacks.size() + eulerBound(g, &used) > target) return;
      startNewTrail();
    }
    (void)extended;
  }

  void startNewTrail() {
    if (results.size() >= maxResults) return;
    // Start from an odd-degree vertex of the remaining graph when one
    // exists (necessary for optimality), else any vertex with edges.
    std::vector<std::size_t> degree(g.nets.size(), 0);
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      if (used[i]) continue;
      ++degree[g.edges[i].a];
      ++degree[g.edges[i].b];
    }
    std::vector<std::size_t> starts;
    for (std::size_t v = 0; v < g.nets.size(); ++v)
      if (degree[v] % 2 == 1) starts.push_back(v);
    if (starts.empty())
      for (std::size_t v = 0; v < g.nets.size(); ++v)
        if (degree[v] > 0) starts.push_back(v);
    // Deduplicate work: starting vertices are tried once each.
    for (std::size_t v : starts) {
      current.stacks.emplace_back();
      extend(v);
      current.stacks.pop_back();
      if (results.size() >= maxResults) return;
      if (!starts.empty() && degree[starts.front()] % 2 == 1) {
        // With odd vertices present, any optimal trail must start at one;
        // trying a single odd start suffices for completeness of *optimal*
        // solutions up to trail reordering, but trying all odd starts finds
        // more distinct stackings.  Continue the loop.
      }
    }
  }
};

}  // namespace

std::vector<Stacking> enumerateOptimalStackings(const DiffusionGraph& g,
                                                std::size_t maxResults) {
  std::vector<Stacking> out;
  if (g.edges.empty()) return out;
  if (g.edges.size() > 14)
    throw std::invalid_argument(
        "enumerateOptimalStackings: group too large for exact enumeration (use "
        "greedyStacking)");
  Enumerator en(g, g.minimumStacks(), maxResults);
  en.startNewTrail();
  return en.results;
}

}  // namespace amsyn::layout
