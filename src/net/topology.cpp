#include "net/topology.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>

#include "support/check.hpp"

namespace pcf::net {
namespace {

using Edge = std::pair<NodeId, NodeId>;

Edge ordered(NodeId a, NodeId b) { return a < b ? Edge{a, b} : Edge{b, a}; }

}  // namespace

Topology Topology::build(std::size_t n, std::vector<Edge> edges, std::string name) {
  PCF_CHECK_MSG(n >= 1, "topology needs at least one node");
  // Normalize: undirected, simple, no self loops.
  for (auto& [a, b] : edges) {
    PCF_CHECK_MSG(a < n && b < n, "edge endpoint out of range in topology '" << name << "'");
    PCF_CHECK_MSG(a != b, "self loop in topology '" << name << "'");
    if (a > b) std::swap(a, b);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Topology t;
  t.name_ = std::move(name);
  std::vector<std::size_t> deg(n, 0);
  for (const auto& [a, b] : edges) {
    ++deg[a];
    ++deg[b];
  }
  t.offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) t.offsets_[i + 1] = t.offsets_[i] + deg[i];
  t.adjacency_.assign(t.offsets_[n], 0);
  std::vector<std::size_t> cursor(t.offsets_.begin(), t.offsets_.end() - 1);
  for (const auto& [a, b] : edges) {
    t.adjacency_[cursor[a]++] = b;
    t.adjacency_[cursor[b]++] = a;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(t.adjacency_.begin() + static_cast<std::ptrdiff_t>(t.offsets_[i]),
              t.adjacency_.begin() + static_cast<std::ptrdiff_t>(t.offsets_[i + 1]));
  }
  return t;
}

std::span<const NodeId> Topology::neighbors(NodeId i) const noexcept {
  PCF_ASSERT(i < size());
  return {adjacency_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
}

std::size_t Topology::degree(NodeId i) const noexcept {
  PCF_ASSERT(i < size());
  return offsets_[i + 1] - offsets_[i];
}

bool Topology::has_edge(NodeId i, NodeId j) const noexcept { return edge_index(i, j).has_value(); }

std::optional<std::size_t> Topology::edge_index(NodeId i, NodeId j) const noexcept {
  if (i >= size()) return std::nullopt;
  const auto nb = neighbors(i);
  const auto it = std::lower_bound(nb.begin(), nb.end(), j);
  if (it == nb.end() || *it != j) return std::nullopt;
  return offsets_[i] + static_cast<std::size_t>(it - nb.begin());
}

std::vector<Edge> Topology::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (NodeId i = 0; i < size(); ++i) {
    for (NodeId j : neighbors(i)) {
      if (i < j) out.emplace_back(i, j);
    }
  }
  return out;
}

Topology Topology::bus(std::size_t n) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return build(n, std::move(edges), "bus:" + std::to_string(n));
}

Topology Topology::ring(std::size_t n) {
  PCF_CHECK_MSG(n >= 3, "ring needs at least 3 nodes");
  std::vector<Edge> edges;
  edges.reserve(n);
  for (NodeId i = 0; i < n; ++i) edges.push_back(ordered(i, static_cast<NodeId>((i + 1) % n)));
  return build(n, std::move(edges), "ring:" + std::to_string(n));
}

Topology Topology::grid2d(std::size_t rows, std::size_t cols, bool wrap) {
  PCF_CHECK_MSG(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  const std::size_t n = rows * cols;
  auto id = [cols](std::size_t r, std::size_t c) { return static_cast<NodeId>(r * cols + c); };
  std::vector<Edge> edges;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
      if (wrap && cols > 2 && c == cols - 1) edges.push_back(ordered(id(r, c), id(r, 0)));
      if (wrap && rows > 2 && r == rows - 1) edges.push_back(ordered(id(r, c), id(0, c)));
    }
  }
  const std::string base = wrap ? "torus2d:" : "grid:";
  return build(n, std::move(edges), base + std::to_string(rows) + "x" + std::to_string(cols));
}

Topology Topology::torus3d(std::size_t x, std::size_t y, std::size_t z) {
  PCF_CHECK_MSG(x >= 1 && y >= 1 && z >= 1, "torus needs positive dimensions");
  const std::size_t n = x * y * z;
  auto id = [y, z](std::size_t a, std::size_t b, std::size_t c) {
    return static_cast<NodeId>((a * y + b) * z + c);
  };
  std::vector<Edge> edges;
  auto link_dim = [&](std::size_t len, auto&& make) {
    // Wrap-around edge only when the dimension has length > 2, otherwise the
    // wrap edge duplicates the mesh edge (and length 1 has no edge at all).
    for (std::size_t i = 0; i + 1 < len; ++i) make(i, i + 1);
    if (len > 2) make(len - 1, 0);
  };
  for (std::size_t a = 0; a < x; ++a) {
    for (std::size_t b = 0; b < y; ++b) {
      link_dim(z, [&](std::size_t c0, std::size_t c1) {
        edges.push_back(ordered(id(a, b, c0), id(a, b, c1)));
      });
    }
  }
  for (std::size_t a = 0; a < x; ++a) {
    for (std::size_t c = 0; c < z; ++c) {
      link_dim(y, [&](std::size_t b0, std::size_t b1) {
        edges.push_back(ordered(id(a, b0, c), id(a, b1, c)));
      });
    }
  }
  for (std::size_t b = 0; b < y; ++b) {
    for (std::size_t c = 0; c < z; ++c) {
      link_dim(x, [&](std::size_t a0, std::size_t a1) {
        edges.push_back(ordered(id(a0, b, c), id(a1, b, c)));
      });
    }
  }
  return build(n, std::move(edges),
               "torus3d:" + std::to_string(x) + "x" + std::to_string(y) + "x" + std::to_string(z));
}

Topology Topology::hypercube(std::size_t dims) {
  PCF_CHECK_MSG(dims >= 1 && dims < 31, "hypercube dimension out of range");
  const std::size_t n = std::size_t{1} << dims;
  std::vector<Edge> edges;
  edges.reserve(n * dims / 2);
  for (NodeId i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dims; ++d) {
      const NodeId j = i ^ static_cast<NodeId>(1u << d);
      if (i < j) edges.push_back({i, j});
    }
  }
  return build(n, std::move(edges), "hypercube:" + std::to_string(dims));
}

Topology Topology::complete(std::size_t n) {
  PCF_CHECK_MSG(n >= 2, "complete graph needs at least 2 nodes");
  std::vector<Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return build(n, std::move(edges), "complete:" + std::to_string(n));
}

Topology Topology::star(std::size_t n) {
  PCF_CHECK_MSG(n >= 2, "star needs at least 2 nodes");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (NodeId i = 1; i < n; ++i) edges.push_back({0, i});
  return build(n, std::move(edges), "star:" + std::to_string(n));
}

Topology Topology::binary_tree(std::size_t n) {
  PCF_CHECK_MSG(n >= 1, "tree needs at least one node");
  std::vector<Edge> edges;
  for (NodeId i = 1; i < n; ++i) edges.push_back({(i - 1) / 2, i});
  return build(n, std::move(edges), "tree:" + std::to_string(n));
}

Topology Topology::random_regular(std::size_t n, std::size_t degree, Rng& rng) {
  PCF_CHECK_MSG(degree >= 1 && degree < n, "regular graph degree out of range");
  PCF_CHECK_MSG((n * degree) % 2 == 0, "n*degree must be even for a regular graph");
  // Configuration model with edge-swap repair. A straight pairing of the
  // shuffled stub list contains a self loop or multi edge with probability
  // approaching 1 as n*degree^2 grows, so rejecting the whole attempt (as this
  // generator originally did) never terminates at scale. Keep the good pairs
  // and splice each bad one into a randomly chosen accepted edge instead:
  // bad (a,b) + accepted (u,v) -> (a,u) + (b,v), which preserves the degree
  // sequence exactly. A collision-free first shuffle takes the repair-free
  // path and yields the same graph the rejection sampler did.
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(n * degree);
    for (NodeId i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < degree; ++d) stubs.push_back(i);
    }
    rng.shuffle(std::span<NodeId>(stubs));
    std::set<Edge> seen;
    std::vector<Edge> edges;
    edges.reserve(stubs.size() / 2);
    std::vector<NodeId> bad;
    for (std::size_t k = 0; k < stubs.size(); k += 2) {
      const NodeId a = stubs[k];
      const NodeId b = stubs[k + 1];
      if (a != b && seen.insert(ordered(a, b)).second) {
        edges.push_back(ordered(a, b));
      } else {
        bad.push_back(a);
        bad.push_back(b);
      }
    }
    bool ok = !edges.empty() || bad.empty();
    std::size_t swap_budget = 64 + 16 * bad.size();
    for (std::size_t k = 0; ok && k + 1 < bad.size(); k += 2) {
      const NodeId a = bad[k];
      const NodeId b = bad[k + 1];
      bool placed = false;
      while (swap_budget > 0 && !placed) {
        --swap_budget;
        const std::size_t pick = rng.below(edges.size());
        const NodeId u = edges[pick].first;
        const NodeId v = edges[pick].second;
        const Edge au = ordered(a, u);
        const Edge bv = ordered(b, v);
        if (a == u || b == v || au == bv || seen.count(au) != 0 || seen.count(bv) != 0) {
          continue;
        }
        seen.erase(edges[pick]);
        seen.insert(au);
        seen.insert(bv);
        edges[pick] = au;
        edges.push_back(bv);
        placed = true;
      }
      ok = placed;
    }
    if (ok) {
      std::sort(edges.begin(), edges.end());
      Topology t = build(n, std::move(edges),
                         "regular:" + std::to_string(n) + ":" + std::to_string(degree));
      if (t.is_connected()) return t;
    }
  }
  PCF_CHECK_MSG(false, "random_regular failed to generate a simple connected graph");
  __builtin_unreachable();
}

Topology Topology::erdos_renyi(std::size_t n, double p, Rng& rng) {
  PCF_CHECK_MSG(n >= 2, "er graph needs at least 2 nodes");
  PCF_CHECK_MSG(p >= 0.0 && p <= 1.0, "er probability out of [0,1]");
  std::vector<Edge> edges;
  // Random spanning tree (random attachment order) guarantees connectivity.
  std::vector<NodeId> order(n);
  for (NodeId i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(std::span<NodeId>(order));
  for (std::size_t i = 1; i < n; ++i) {
    const NodeId parent = order[rng.below(i)];
    edges.push_back(ordered(order[i], parent));
  }
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.chance(p)) edges.push_back({i, j});
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", p);
  return build(n, std::move(edges), "er:" + std::to_string(n) + ":" + buf);
}

Topology Topology::watts_strogatz(std::size_t n, std::size_t k, double beta, Rng& rng) {
  PCF_CHECK_MSG(n >= 4, "small world needs at least 4 nodes");
  PCF_CHECK_MSG(k >= 2 && k % 2 == 0 && k < n, "small world degree k must be even and < n");
  PCF_CHECK_MSG(beta >= 0.0 && beta <= 1.0, "rewiring probability out of [0,1]");
  // Ring lattice: node i connects to i±1 … i±k/2.
  std::set<Edge> edge_set;
  for (NodeId i = 0; i < n; ++i) {
    for (std::size_t d = 1; d <= k / 2; ++d) {
      edge_set.insert(ordered(i, static_cast<NodeId>((i + d) % n)));
    }
  }
  // Rewire each lattice edge's far endpoint with probability beta. A rewiring
  // is skipped if it would create a self loop or duplicate, and the ±1 ring
  // edges are kept so the graph remains connected (documented deviation from
  // the textbook model, which can disconnect).
  std::vector<Edge> edges(edge_set.begin(), edge_set.end());
  for (auto& [a, b] : edges) {
    const bool is_ring_edge = (b == (a + 1) % n) || (a == (b + 1) % n);
    if (is_ring_edge || !rng.chance(beta)) continue;
    const auto c = static_cast<NodeId>(rng.below(n));
    const Edge candidate = ordered(a, c);
    if (c == a || c == b || edge_set.count(candidate) != 0) continue;
    edge_set.erase(ordered(a, b));
    edge_set.insert(candidate);
    b = c;  // keep the local copy consistent (not strictly needed)
  }
  std::vector<Edge> final_edges(edge_set.begin(), edge_set.end());
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", beta);
  return build(n, std::move(final_edges),
               "smallworld:" + std::to_string(n) + ":" + std::to_string(k) + ":" + buf);
}

Topology Topology::barabasi_albert(std::size_t n, std::size_t m, Rng& rng) {
  PCF_CHECK_MSG(m >= 1, "attachment count m must be positive");
  PCF_CHECK_MSG(n > m + 1, "need more nodes than the seed clique");
  std::vector<Edge> edges;
  // Seed: a clique of m+1 nodes.
  for (NodeId i = 0; i <= m; ++i) {
    for (NodeId j = i + 1; j <= m; ++j) edges.push_back({i, j});
  }
  // Degree-proportional sampling via the repeated-endpoints trick: every
  // endpoint occurrence in `attachment` is one unit of degree.
  std::vector<NodeId> attachment;
  for (const auto& [a, b] : edges) {
    attachment.push_back(a);
    attachment.push_back(b);
  }
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    std::set<NodeId> targets;
    while (targets.size() < m) {
      targets.insert(attachment[static_cast<std::size_t>(rng.below(attachment.size()))]);
    }
    for (const NodeId t : targets) {
      edges.push_back(ordered(v, t));
      attachment.push_back(v);
      attachment.push_back(t);
    }
  }
  return build(n, std::move(edges), "ba:" + std::to_string(n) + ":" + std::to_string(m));
}

Topology Topology::from_edges(std::size_t n, std::span<const Edge> edges, std::string name) {
  return build(n, std::vector<Edge>(edges.begin(), edges.end()), std::move(name));
}

std::string Topology::to_dot() const {
  std::string out = "graph \"" + name_ + "\" {\n";
  for (NodeId i = 0; i < size(); ++i) {
    for (NodeId j : neighbors(i)) {
      if (i < j) {
        out += "  " + std::to_string(i) + " -- " + std::to_string(j) + ";\n";
      }
    }
  }
  out += "}\n";
  return out;
}

std::vector<std::size_t> Topology::bfs_distances(NodeId from) const {
  PCF_CHECK_MSG(from < size(), "bfs start node out of range");
  constexpr auto kInf = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(size(), kInf);
  std::deque<NodeId> queue{from};
  dist[from] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : neighbors(u)) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

bool Topology::is_connected() const {
  const auto dist = bfs_distances(0);
  return std::none_of(dist.begin(), dist.end(), [](std::size_t d) {
    return d == std::numeric_limits<std::size_t>::max();
  });
}

std::size_t Topology::diameter() const {
  std::size_t best = 0;
  for (NodeId i = 0; i < size(); ++i) {
    const auto dist = bfs_distances(i);
    for (std::size_t d : dist) {
      PCF_CHECK_MSG(d != std::numeric_limits<std::size_t>::max(),
                    "diameter undefined: graph is disconnected");
      best = std::max(best, d);
    }
  }
  return best;
}

Topology Topology::parse(const std::string& spec, Rng& rng) {
  const auto colon = spec.find(':');
  PCF_CHECK_MSG(colon != std::string::npos, "topology spec '" << spec << "' missing ':'");
  const std::string kind = spec.substr(0, colon);
  const std::string rest = spec.substr(colon + 1);
  auto split = [](const std::string& s, char sep) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
      const auto pos = s.find(sep, start);
      parts.push_back(s.substr(start, pos - start));
      if (pos == std::string::npos) break;
      start = pos + 1;
    }
    return parts;
  };
  auto to_n = [&](const std::string& s) {
    char* end = nullptr;
    const auto v = std::strtoull(s.c_str(), &end, 10);
    PCF_CHECK_MSG(end && *end == '\0' && !s.empty(), "bad number '" << s << "' in topology spec");
    return static_cast<std::size_t>(v);
  };

  if (kind == "bus") return bus(to_n(rest));
  if (kind == "ring") return ring(to_n(rest));
  if (kind == "complete") return complete(to_n(rest));
  if (kind == "star") return star(to_n(rest));
  if (kind == "tree") return binary_tree(to_n(rest));
  if (kind == "hypercube") return hypercube(to_n(rest));
  if (kind == "grid" || kind == "torus2d") {
    const auto parts = split(rest, 'x');
    PCF_CHECK_MSG(parts.size() == 2, "grid spec wants RxC");
    return grid2d(to_n(parts[0]), to_n(parts[1]), kind == "torus2d");
  }
  if (kind == "torus3d") {
    const auto parts = split(rest, 'x');
    if (parts.size() == 1) {
      const std::size_t l = to_n(parts[0]);
      return torus3d(l, l, l);
    }
    PCF_CHECK_MSG(parts.size() == 3, "torus3d spec wants L or XxYxZ");
    return torus3d(to_n(parts[0]), to_n(parts[1]), to_n(parts[2]));
  }
  if (kind == "regular") {
    const auto parts = split(rest, ':');
    PCF_CHECK_MSG(parts.size() == 2, "regular spec wants N:D");
    return random_regular(to_n(parts[0]), to_n(parts[1]), rng);
  }
  if (kind == "er") {
    const auto parts = split(rest, ':');
    PCF_CHECK_MSG(parts.size() == 2, "er spec wants N:P");
    return erdos_renyi(to_n(parts[0]), std::strtod(parts[1].c_str(), nullptr), rng);
  }
  if (kind == "smallworld") {
    const auto parts = split(rest, ':');
    PCF_CHECK_MSG(parts.size() == 3, "smallworld spec wants N:K:BETA");
    return watts_strogatz(to_n(parts[0]), to_n(parts[1]),
                          std::strtod(parts[2].c_str(), nullptr), rng);
  }
  if (kind == "ba") {
    const auto parts = split(rest, ':');
    PCF_CHECK_MSG(parts.size() == 2, "ba spec wants N:M");
    return barabasi_albert(to_n(parts[0]), to_n(parts[1]), rng);
  }
  PCF_CHECK_MSG(false, "unknown topology kind '" << kind << "'");
  __builtin_unreachable();
}

}  // namespace pcf::net
