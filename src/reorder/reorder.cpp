#include "reorder/reorder.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace gcm {
namespace {

/// Union-find over column ids.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  u32 Find(u32 x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(u32 a, u32 b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<u32> parent_;
};

/// Extracts the disjoint paths described by `adjacent` (each node has at
/// most two neighbours) and concatenates them, heaviest path first, then
/// isolated nodes. Shared by PathCover and MWM.
std::vector<u32> PathsToOrder(const ColumnSimilarityMatrix& csm,
                              const std::vector<std::vector<u32>>& adjacent) {
  const std::size_t m = csm.cols();
  std::vector<bool> visited(m, false);
  struct Path {
    std::vector<u32> nodes;
    double weight;
  };
  std::vector<Path> paths;
  for (std::size_t start = 0; start < m; ++start) {
    if (visited[start] || adjacent[start].size() >= 2) continue;
    // `start` is a path endpoint (degree 0 or 1); walk to the other end.
    Path path{{}, 0.0};
    u32 prev = std::numeric_limits<u32>::max();
    u32 current = static_cast<u32>(start);
    for (;;) {
      visited[current] = true;
      path.nodes.push_back(current);
      u32 next = std::numeric_limits<u32>::max();
      for (u32 neighbour : adjacent[current]) {
        if (neighbour != prev) next = neighbour;
      }
      if (next == std::numeric_limits<u32>::max()) break;
      path.weight += csm.Score(current, next);
      prev = current;
      current = next;
    }
    paths.push_back(std::move(path));
  }
  std::stable_sort(paths.begin(), paths.end(),
                   [](const Path& a, const Path& b) {
                     return a.weight > b.weight;
                   });
  std::vector<u32> order;
  order.reserve(m);
  for (const Path& path : paths) {
    order.insert(order.end(), path.nodes.begin(), path.nodes.end());
  }
  GCM_DCHECK(order.size() == m);  // cycles are impossible by construction
  return order;
}

}  // namespace

const char* ReorderName(ReorderAlgorithm algorithm) {
  switch (algorithm) {
    case ReorderAlgorithm::kIdentity:
      return "identity";
    case ReorderAlgorithm::kTsp:
      return "lkh";
    case ReorderAlgorithm::kPathCover:
      return "pathcover";
    case ReorderAlgorithm::kPathCoverPlus:
      return "pathcover+";
    case ReorderAlgorithm::kMwm:
      return "mwm";
  }
  return "?";
}

ReorderAlgorithm ReorderByName(const std::string& name) {
  if (name == "identity") return ReorderAlgorithm::kIdentity;
  if (name == "lkh" || name == "tsp") return ReorderAlgorithm::kTsp;
  if (name == "pathcover") return ReorderAlgorithm::kPathCover;
  if (name == "pathcover+") return ReorderAlgorithm::kPathCoverPlus;
  if (name == "mwm") return ReorderAlgorithm::kMwm;
  GCM_CHECK_MSG(false, "unknown reorder algorithm: " << name);
  return ReorderAlgorithm::kIdentity;
}

void ValidateOrder(const std::vector<u32>& order, std::size_t cols) {
  GCM_CHECK_MSG(order.size() == cols, "order has wrong length");
  std::vector<bool> seen(cols, false);
  for (u32 c : order) {
    GCM_CHECK_MSG(c < cols, "order entry out of range");
    GCM_CHECK_MSG(!seen[c], "order repeats column " << c);
    seen[c] = true;
  }
}

double OrderScore(const ColumnSimilarityMatrix& csm,
                  const std::vector<u32>& order) {
  double total = 0.0;
  for (std::size_t t = 0; t + 1 < order.size(); ++t) {
    total += csm.Score(order[t], order[t + 1]);
  }
  return total;
}

// ---------------------------------------------------------------------------
// PathCover: Kruskal over similarity edges, keeping only edges that extend
// disjoint simple paths (degree <= 2, no cycles).
// ---------------------------------------------------------------------------
std::vector<u32> PathCoverOrder(const ColumnSimilarityMatrix& csm) {
  const std::size_t m = csm.cols();
  std::vector<CsmEdge> edges = csm.edges();
  std::stable_sort(edges.begin(), edges.end(),
                   [](const CsmEdge& a, const CsmEdge& b) {
                     return a.weight > b.weight;
                   });
  std::vector<std::vector<u32>> adjacent(m);
  DisjointSets components(m);
  for (const CsmEdge& edge : edges) {
    if (adjacent[edge.i].size() >= 2 || adjacent[edge.j].size() >= 2) continue;
    if (components.Find(edge.i) == components.Find(edge.j)) continue;
    adjacent[edge.i].push_back(edge.j);
    adjacent[edge.j].push_back(edge.i);
    components.Union(edge.i, edge.j);
  }
  return PathsToOrder(csm, adjacent);
}

// ---------------------------------------------------------------------------
// PathCover+: greedy fragment merging where the attraction between two
// fragments is the *minimum* pairwise similarity across them (the paper's
// dynamic min-coalescing update, in single-linkage style bookkeeping).
// ---------------------------------------------------------------------------
std::vector<u32> PathCoverPlusOrder(const ColumnSimilarityMatrix& csm) {
  const std::size_t m = csm.cols();
  if (m == 0) return {};
  // Fragments as deques of nodes; attraction[a][b] between fragment ids.
  std::vector<std::vector<u32>> fragments(m);
  std::vector<bool> alive(m, true);
  for (std::size_t c = 0; c < m; ++c) fragments[c] = {static_cast<u32>(c)};
  std::vector<std::vector<double>> attraction(m, std::vector<double>(m, 0.0));
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a + 1; b < m; ++b) {
      attraction[a][b] = attraction[b][a] =
          csm.Score(static_cast<u32>(a), static_cast<u32>(b));
    }
  }
  for (;;) {
    double best = 0.0;
    std::size_t best_a = 0, best_b = 0;
    for (std::size_t a = 0; a < m; ++a) {
      if (!alive[a]) continue;
      for (std::size_t b = a + 1; b < m; ++b) {
        if (!alive[b]) continue;
        if (attraction[a][b] > best) {
          best = attraction[a][b];
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best <= 0.0) break;
    // Join fragment b onto a (orientation: append; endpoints are implicit
    // because the final order just concatenates member lists).
    fragments[best_a].insert(fragments[best_a].end(),
                             fragments[best_b].begin(),
                             fragments[best_b].end());
    fragments[best_b].clear();
    alive[best_b] = false;
    for (std::size_t c = 0; c < m; ++c) {
      if (!alive[c] || c == best_a) continue;
      double merged = std::min(attraction[best_a][c], attraction[best_b][c]);
      attraction[best_a][c] = attraction[c][best_a] = merged;
    }
  }
  std::vector<u32> order;
  order.reserve(m);
  for (std::size_t a = 0; a < m; ++a) {
    order.insert(order.end(), fragments[a].begin(), fragments[a].end());
  }
  return order;
}

// ---------------------------------------------------------------------------
// TSP (LKH stand-in): nearest-neighbour path + 2-opt + Or-opt to a local
// maximum of the adjacent-similarity objective.
// ---------------------------------------------------------------------------
std::vector<u32> TspOrder(const ColumnSimilarityMatrix& csm) {
  const std::size_t m = csm.cols();
  std::vector<u32> order(m);
  std::iota(order.begin(), order.end(), 0);
  if (m <= 2) return order;

  // Greedy nearest-neighbour construction starting from the column with the
  // strongest incident edge.
  std::vector<double> strength(m, 0.0);
  for (const CsmEdge& edge : csm.edges()) {
    strength[edge.i] = std::max(strength[edge.i], edge.weight);
    strength[edge.j] = std::max(strength[edge.j], edge.weight);
  }
  u32 start = static_cast<u32>(
      std::max_element(strength.begin(), strength.end()) - strength.begin());
  std::vector<bool> used(m, false);
  order.clear();
  order.push_back(start);
  used[start] = true;
  while (order.size() < m) {
    u32 tail = order.back();
    double best = -1.0;
    u32 next = 0;
    for (u32 c = 0; c < m; ++c) {
      if (used[c]) continue;
      double w = csm.Score(tail, c);
      if (w > best) {
        best = w;
        next = c;
      }
    }
    order.push_back(next);
    used[next] = true;
  }

  auto score_at = [&](std::size_t t) {
    return t + 1 < m ? csm.Score(order[t], order[t + 1]) : 0.0;
  };

  // Local search: alternate 2-opt (segment reversal) and Or-opt (move a
  // short segment elsewhere) until neither improves.
  bool improved = true;
  int passes = 0;
  while (improved && passes++ < 60) {
    improved = false;
    // 2-opt on a path: reversing order[a+1..b] swaps edges (a,a+1),(b,b+1)
    // for (a,b),(a+1,b+1).
    for (std::size_t a = 0; a + 2 < m; ++a) {
      for (std::size_t b = a + 1; b < m; ++b) {
        double removed = score_at(a) + score_at(b);
        double added = csm.Score(order[a], order[b]) +
                       (b + 1 < m ? csm.Score(order[a + 1], order[b + 1])
                                  : 0.0);
        if (added > removed + 1e-12) {
          std::reverse(order.begin() + static_cast<std::ptrdiff_t>(a + 1),
                       order.begin() + static_cast<std::ptrdiff_t>(b + 1));
          improved = true;
        }
      }
    }
    // Or-opt: relocate segments of length 1..3.
    for (std::size_t len = 1; len <= 3 && len + 1 < m; ++len) {
      for (std::size_t s = 0; s + len <= m; ++s) {
        std::size_t e = s + len;  // segment [s, e)
        double cut = (s > 0 ? csm.Score(order[s - 1], order[s]) : 0.0) +
                     (e < m ? csm.Score(order[e - 1], order[e]) : 0.0);
        double bridge =
            (s > 0 && e < m) ? csm.Score(order[s - 1], order[e]) : 0.0;
        double gain_remove = bridge - cut;
        for (std::size_t t = 0; t + 1 < m; ++t) {
          if (t + 1 >= s && t < e) continue;  // insertion inside segment
          double old_edge = csm.Score(order[t], order[t + 1]);
          double new_edges = csm.Score(order[t], order[s]) +
                             csm.Score(order[e - 1], order[t + 1]);
          if (gain_remove + new_edges - old_edge > 1e-12) {
            auto seg_begin = order.begin() + static_cast<std::ptrdiff_t>(s);
            auto seg_end = order.begin() + static_cast<std::ptrdiff_t>(e);
            std::vector<u32> segment(seg_begin, seg_end);
            order.erase(seg_begin, seg_end);
            std::size_t insert_at = t < s ? t + 1 : t + 1 - len;
            order.insert(
                order.begin() + static_cast<std::ptrdiff_t>(insert_at),
                segment.begin(), segment.end());
            improved = true;
            break;
          }
        }
      }
    }
  }
  return order;
}

// ---------------------------------------------------------------------------
// MWM: exact maximum-weight perfect matching on the bipartite graph with
// left = predecessor role, right = successor role, edges i < j weighted by
// CSM[i][j] (zero edges mean "no successor"). Hungarian algorithm, O(m^3).
// ---------------------------------------------------------------------------
namespace {

/// Hungarian algorithm for a max-weight assignment on square matrix w.
/// Returns match_right_of_left: for each left node, the assigned right node.
std::vector<u32> HungarianMax(const std::vector<std::vector<double>>& w) {
  const std::size_t n = w.size();
  // Classic potentials formulation on the cost matrix c = -w.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> potential_u(n + 1, 0.0), potential_v(n + 1, 0.0);
  std::vector<std::size_t> way(n + 1, 0), matched_left(n + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    matched_left[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<bool> used(n + 1, false);
    do {
      used[j0] = true;
      std::size_t i0 = matched_left[j0], j1 = 0;
      double delta = kInf;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        double cur = -w[i0 - 1][j - 1] - potential_u[i0] - potential_v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          potential_u[matched_left[j]] += delta;
          potential_v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (matched_left[j0] != 0);
    do {
      std::size_t j1 = way[j0];
      matched_left[j0] = matched_left[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<u32> match(n, 0);
  for (std::size_t j = 1; j <= n; ++j) {
    match[matched_left[j] - 1] = static_cast<u32>(j - 1);
  }
  return match;
}

}  // namespace

std::vector<u32> MwmOrder(const ColumnSimilarityMatrix& csm) {
  const std::size_t m = csm.cols();
  if (m <= 1) return std::vector<u32>(m, 0);
  std::vector<std::vector<double>> w(m, std::vector<double>(m, 0.0));
  for (const CsmEdge& edge : csm.edges()) {
    w[edge.i][edge.j] = edge.weight;  // oriented: i precedes j (i < j)
  }
  std::vector<u32> assignment = HungarianMax(w);
  // Keep only positive-weight predecessor->successor links; they form
  // chains because successors are strictly larger column ids.
  std::vector<std::vector<u32>> adjacent(m);
  for (u32 i = 0; i < m; ++i) {
    u32 j = assignment[i];
    if (w[i][j] > 0.0 && adjacent[i].size() < 2 && adjacent[j].size() < 2) {
      adjacent[i].push_back(j);
      adjacent[j].push_back(i);
    }
  }
  return PathsToOrder(csm, adjacent);
}

std::vector<u32> ComputeColumnOrder(const ColumnSimilarityMatrix& csm,
                                    ReorderAlgorithm algorithm) {
  switch (algorithm) {
    case ReorderAlgorithm::kIdentity: {
      std::vector<u32> order(csm.cols());
      std::iota(order.begin(), order.end(), 0);
      return order;
    }
    case ReorderAlgorithm::kTsp:
      return TspOrder(csm);
    case ReorderAlgorithm::kPathCover:
      return PathCoverOrder(csm);
    case ReorderAlgorithm::kPathCoverPlus:
      return PathCoverPlusOrder(csm);
    case ReorderAlgorithm::kMwm:
      return MwmOrder(csm);
  }
  GCM_CHECK_MSG(false, "unreachable");
  return {};
}

}  // namespace gcm
