// An ITDK-like router-level dataset (CAIDA Internet Topology Data Kit
// stand-in): nodes are routers (sets of aliased interface addresses), links
// are inferred router adjacencies, and each node maps to an AS.
//
// The campaign module builds one of these from plain traceroute output —
// with invisible MPLS tunnels producing exactly the false links and
// high-degree meshes the paper studies — and the analysis module corrects
// it after tunnel revelation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/stats.h"
#include "topo/topology.h"

namespace wormhole::topo {

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = static_cast<NodeId>(-1);

struct ItdkNode {
  NodeId id = kNoNode;
  std::vector<netbase::Ipv4Address> addresses;
  AsNumber asn = 0;
};

class ItdkDataset {
 public:
  /// Returns the node owning `address`, creating it if unseen.
  NodeId NodeOf(netbase::Ipv4Address address);
  /// Returns the node owning `address` without creating; nullopt if unseen.
  [[nodiscard]] std::optional<NodeId> FindNode(
      netbase::Ipv4Address address) const;

  /// Adds `address` as an alias of `node` (no-op if already present).
  void AddAlias(NodeId node, netbase::Ipv4Address address);

  /// Records an undirected link between two existing nodes (idempotent;
  /// self-links are ignored).
  void AddLink(NodeId a, NodeId b);
  /// Removes a link if present; used when revelation disproves an inferred
  /// adjacency between tunnel endpoints.
  void RemoveLink(NodeId a, NodeId b);
  [[nodiscard]] bool HasLink(NodeId a, NodeId b) const;

  void SetAs(NodeId node, AsNumber asn);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return link_keys_.size(); }
  [[nodiscard]] const ItdkNode& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] const std::vector<ItdkNode>& nodes() const { return nodes_; }
  /// Every link as (smaller id, larger id), sorted. A snapshot built on
  /// each call: O(E log E), for serialization and tests, not for loops.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> links() const;

  [[nodiscard]] std::size_t Degree(NodeId node) const {
    return adjacency_.at(node).size();
  }
  /// The neighbours of `node` in the order their links were added (a
  /// removal keeps the order of the rest). Valid until the next mutation.
  [[nodiscard]] std::span<const NodeId> NeighborsOf(NodeId node) const {
    return adjacency_.at(node);
  }

  /// Degree PDF over all nodes (Fig. 1 / Fig. 10 material).
  [[nodiscard]] netbase::IntDistribution DegreeDistribution() const;
  /// Degree PDF restricted to nodes of one AS (Fig. 10b).
  [[nodiscard]] netbase::IntDistribution DegreeDistribution(
      AsNumber asn) const;

  /// Nodes with degree >= threshold — the paper's HDN trigger (Sec. 4).
  [[nodiscard]] std::vector<NodeId> HighDegreeNodes(
      std::size_t threshold) const;

  /// Graph density 2E / (V (V-1)) of the subgraph induced by `nodes`: V is
  /// the number of distinct nodes, E the number of links with both ends
  /// among them, whatever their AS. 0 when V < 2. Table 4's "Graph
  /// Density" columns pass one AS's candidate LER nodes. Walks each node's
  /// neighbour span: O((V + sum of their degrees) * log V), independent of
  /// the graph size.
  [[nodiscard]] double Density(const std::vector<NodeId>& nodes) const;

  // --- serialization (simple line format, see itdk.cpp) -------------------
  void Write(std::ostream& os) const;
  /// Parses Write's format; blank lines and lines starting with '#' are
  /// skipped. Node ids in the input are labels, remapped in declaration
  /// order. Every malformed line — bad or undeclared node reference, an
  /// id beyond 32 bits, a bad address or AS number, an address or node
  /// declared twice, a wrong field count, an unknown record — throws
  /// std::runtime_error naming its line number.
  static ItdkDataset Read(std::istream& is);

 private:
  /// Open-addressing hash set of non-zero 64-bit words: linear probing at
  /// load <= 1/2, backward-shift erase (no tombstones), 0 marks an empty
  /// slot. A word's key is the word shifted right by `key_shift`, so one
  /// table type serves both indexes below. Iteration order is never
  /// observable: links() sorts.
  class FlatIndex {
   public:
    explicit FlatIndex(int key_shift) : key_shift_(key_shift) {}
    /// The word stored under `key`, or 0.
    [[nodiscard]] std::uint64_t Find(std::uint64_t key) const;
    /// Stores `word` unless a word with its key is present; true if stored.
    bool Insert(std::uint64_t word);
    /// Removes the word stored under `key`; true if there was one.
    bool Erase(std::uint64_t key);
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const std::vector<std::uint64_t>& slots() const {
      return slots_;
    }

   private:
    [[nodiscard]] std::size_t HomeOf(std::uint64_t key) const;
    /// Stores `word` in the first empty slot of its probe run (its key is
    /// known to be absent and the table to have room).
    void Place(std::uint64_t word);
    void Grow();

    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
    int key_shift_;
  };

  /// The +1 keeps every word non-zero, so no address (0.0.0.0 included)
  /// is reserved as the empty marker.
  static std::uint64_t AddressWord(netbase::Ipv4Address address,
                                   NodeId node) {
    return (std::uint64_t{address.value()} << 32) | (node + 1ull);
  }
  static std::uint64_t LinkKey(NodeId a, NodeId b) {
    const auto [lo, hi] = std::minmax(a, b);
    return (std::uint64_t{lo} << 32) | hi;
  }

  std::vector<ItdkNode> nodes_;
  /// AddressWord(address, node) of every address.
  FlatIndex address_index_{32};
  /// LinkKey(a, b) of every link; never 0 because the two ends differ.
  FlatIndex link_keys_{0};
  /// Indexed by NodeId, one entry per node.
  std::vector<std::vector<NodeId>> adjacency_;
};

/// Builds the ground-truth router-level dataset straight from a Topology —
/// perfect alias resolution, every physical link present. Used as the
/// reference when measuring how much of the truth a campaign recovers.
ItdkDataset GroundTruthDataset(const Topology& topology);

}  // namespace wormhole::topo
