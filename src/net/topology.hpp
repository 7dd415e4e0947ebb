// Static communication topologies.
//
// Gossip-based reduction only assumes that every node knows a fixed, nonempty
// neighbor set N_i and that the union graph is connected. This module builds
// the topologies the paper evaluates (bus, 3D torus, hypercube) plus a set of
// generic graphs used by tests and ablations. Graphs are undirected, simple,
// and stored in CSR form for cache-friendly neighbor scans.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace pcf::net {

using NodeId = std::uint32_t;

class Topology {
 public:
  /// Line ("bus") network: node i talks to i-1 and i+1. The paper's Section
  /// II-B worked example.
  [[nodiscard]] static Topology bus(std::size_t n);
  /// Cycle.
  [[nodiscard]] static Topology ring(std::size_t n);
  /// rows × cols mesh; `wrap` turns it into a 2D torus.
  [[nodiscard]] static Topology grid2d(std::size_t rows, std::size_t cols, bool wrap = false);
  /// 3D torus with side lengths x, y, z (paper: 2^i × 2^i × 2^i).
  [[nodiscard]] static Topology torus3d(std::size_t x, std::size_t y, std::size_t z);
  /// d-dimensional hypercube with 2^d nodes.
  [[nodiscard]] static Topology hypercube(std::size_t dims);
  /// Fully connected graph.
  [[nodiscard]] static Topology complete(std::size_t n);
  /// Star: node 0 is the hub.
  [[nodiscard]] static Topology star(std::size_t n);
  /// Complete binary tree in heap order.
  [[nodiscard]] static Topology binary_tree(std::size_t n);
  /// Random d-regular graph (configuration model with rejection; falls back
  /// to a Hamiltonian-cycle + random-matching construction if rejection takes
  /// too long). Requires n*d even and d < n.
  [[nodiscard]] static Topology random_regular(std::size_t n, std::size_t degree, Rng& rng);
  /// Erdős–Rényi G(n, p) unioned with a random spanning tree so that the
  /// result is always connected (documented deviation from plain G(n,p)).
  [[nodiscard]] static Topology erdos_renyi(std::size_t n, double p, Rng& rng);
  /// Watts–Strogatz small world: a ring lattice where each node connects to
  /// its k nearest neighbors (k even), with each lattice edge rewired to a
  /// random endpoint with probability beta. Rewirings that would disconnect
  /// or duplicate are skipped, so the graph stays connected and simple.
  [[nodiscard]] static Topology watts_strogatz(std::size_t n, std::size_t k, double beta,
                                               Rng& rng);
  /// Barabási–Albert preferential attachment: starts from a small clique and
  /// attaches every new node to m existing nodes with probability
  /// proportional to their degree (scale-free degree distribution).
  [[nodiscard]] static Topology barabasi_albert(std::size_t n, std::size_t m, Rng& rng);
  /// Builds from an explicit undirected edge list (validated: simple graph).
  [[nodiscard]] static Topology from_edges(std::size_t n,
                                           std::span<const std::pair<NodeId, NodeId>> edges,
                                           std::string name = "custom");

  /// Parses a CLI spec: "bus:N", "ring:N", "grid:RxC", "torus2d:RxC",
  /// "torus3d:L" or "torus3d:XxYxZ", "hypercube:D", "complete:N", "star:N",
  /// "tree:N", "regular:N:D", "er:N:P", "smallworld:N:K:BETA", "ba:N:M".
  [[nodiscard]] static Topology parse(const std::string& spec, Rng& rng);

  [[nodiscard]] std::size_t size() const noexcept { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId i) const noexcept;
  [[nodiscard]] std::size_t degree(NodeId i) const noexcept;
  [[nodiscard]] bool has_edge(NodeId i, NodeId j) const noexcept;
  /// Index of the directed edge i -> j in the CSR adjacency, in
  /// [0, 2 * edge_count()); directed edges are numbered in (i, j) order.
  /// nullopt if there is no such edge.
  [[nodiscard]] std::optional<std::size_t> edge_index(NodeId i, NodeId j) const noexcept;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// All undirected edges (i < j), in deterministic order.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Graphviz DOT rendering of the graph (undirected), e.g. for debugging
  /// fault plans: `dot -Tpng <(pcflow …) -o net.png`.
  [[nodiscard]] std::string to_dot() const;

  /// BFS hop distances from `from` (SIZE_MAX for unreachable nodes).
  [[nodiscard]] std::vector<std::size_t> bfs_distances(NodeId from) const;
  [[nodiscard]] bool is_connected() const;
  /// Exact diameter via all-pairs BFS — O(n·m); intended for test-sized graphs.
  [[nodiscard]] std::size_t diameter() const;

 private:
  Topology() = default;
  static Topology build(std::size_t n, std::vector<std::pair<NodeId, NodeId>> edges,
                        std::string name);

  std::vector<std::size_t> offsets_;  // CSR offsets, size n+1
  std::vector<NodeId> adjacency_;     // sorted neighbor lists
  std::string name_;
};

}  // namespace pcf::net
