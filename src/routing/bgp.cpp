#include "routing/bgp.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "netbase/contracts.h"

namespace wormhole::routing {

namespace {

using topo::AsNumber;
using topo::Topology;

using AsAdjacency =
    std::map<AsNumber, std::map<AsNumber, std::vector<BorderLink>>>;

AsAdjacency BuildAsAdjacency(const Topology& topology) {
  AsAdjacency adjacency;
  for (const topo::Link& link : topology.links()) {
    if (!link.up) continue;
    const RouterId ra = topology.interface(link.a).router;
    const RouterId rb = topology.interface(link.b).router;
    const AsNumber as_a = topology.router(ra).asn;
    const AsNumber as_b = topology.router(rb).asn;
    if (as_a == as_b) continue;
    adjacency[as_a][as_b].push_back({ra, rb, link.id});
    adjacency[as_b][as_a].push_back({rb, ra, link.id});
  }
  return adjacency;
}

constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

/// The AS graph the BFS runs on, index-addressed: node i is `asns[i]`
/// (ascending, so comparing indices compares ASNs) and `peers[i]` lists
/// its neighbours' indices in ASN order; neighbours outside `asns` are
/// dropped once, here. A non-`transit` node (a policy stub) is reached
/// but never expanded unless it is the destination.
struct AsGraph {
  std::vector<AsNumber> asns;
  std::vector<std::vector<std::uint32_t>> peers;
  std::vector<bool> transit;

  std::uint32_t IndexOf(AsNumber asn) const {
    const auto it = std::lower_bound(asns.begin(), asns.end(), asn);
    return it != asns.end() && *it == asn
               ? static_cast<std::uint32_t>(it - asns.begin())
               : kNoNode;
  }
  AsNumber AsnOf(std::uint32_t node) const {
    return node == kNoNode ? 0 : asns[node];
  }
};

AsGraph BuildAsGraph(std::vector<AsNumber> asns,
                     const AsAdjacency& adjacency, const BgpPolicy& policy) {
  AsGraph graph;
  std::sort(asns.begin(), asns.end());
  graph.asns = std::move(asns);
  graph.peers.resize(graph.asns.size());
  for (std::uint32_t i = 0; i < graph.asns.size(); ++i) {
    graph.transit.push_back(!policy.stub_ases.contains(graph.asns[i]));
    const auto it = adjacency.find(graph.asns[i]);
    if (it == adjacency.end()) continue;
    for (const auto& [peer, links] : it->second) {
      const std::uint32_t node = graph.IndexOf(peer);
      if (node != kNoNode) graph.peers[i].push_back(node);
    }
  }
  return graph;
}

/// BFS state, reused across destinations.
struct NextNodes {
  std::vector<int> dist;
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> queue;
};

/// The AS-level BFS from destination node `to`: leaves in `out.next[i]`
/// node i's chosen next node towards `to` (kNoNode when unreachable; `to`
/// maps to itself). Shorter AS paths win; equal lengths go to the lower
/// next index, i.e. the lower next ASN.
void ComputeNextNodes(const AsGraph& graph, std::uint32_t to,
                      NextNodes& out) {
  out.dist.assign(graph.asns.size(), -1);
  out.next.assign(graph.asns.size(), kNoNode);
  out.dist[to] = 0;
  out.next[to] = to;
  out.queue.assign(1, to);
  for (std::size_t head = 0; head < out.queue.size(); ++head) {
    const std::uint32_t current = out.queue[head];
    if (current != to && !graph.transit[current]) continue;
    const int peer_dist = out.dist[current] + 1;
    for (const std::uint32_t peer : graph.peers[current]) {
      if (out.dist[peer] == -1) {
        out.dist[peer] = peer_dist;
        out.next[peer] = current;
        out.queue.push_back(peer);
      } else if (out.dist[peer] == peer_dist && current < out.next[peer]) {
        out.next[peer] = current;
      }
    }
  }
}

/// The prefixes a core AS announces in hierarchical mode, per graph node.
std::vector<Prefix> Aggregates(const Topology& topology,
                               const BgpPolicy& policy,
                               const AsGraph& graph) {
  std::vector<Prefix> out;
  out.reserve(graph.asns.size());
  for (const AsNumber asn : graph.asns) {
    const auto it = policy.aggregates.find(asn);
    out.push_back(it != policy.aggregates.end() ? it->second
                                                : topology.as(asn).block);
  }
  return out;
}

/// Builds one AS's BGP table and its egress groups, numbering the groups
/// in first-use order.
class AsTableBuilder {
 public:
  /// `row` is the AS's adjacency row (peer ASN → border links, ASN
  /// order), or null for an AS without eBGP links.
  AsTableBuilder(
      AsBgp& out,
      const std::map<AsNumber, std::vector<BorderLink>>* row)
      : out_(out) {
    if (row == nullptr) return;
    for (const auto& [peer, links] : *row) {
      peers_.push_back(Peer{peer, &links, kNoGroup});
    }
  }

  /// Injected subnets first: the historical install order, which the
  /// same-prefix precedence of BgpTable::Finish reads.
  void AddSubnets(const Topology& topology, AsNumber asn) {
    for (const RouterId border : topology.as(asn).routers) {
      std::uint32_t group = kNoGroup;
      for (const topo::InterfaceId iid :
           topology.router(border).interfaces) {
        const topo::Interface& iface = topology.interface(iid);
        if (iface.link == topo::kNoLink || !topology.link(iface.link).up ||
            topology.IsInternalLink(iface.link)) {
          continue;
        }
        if (group == kNoGroup) {
          group = static_cast<std::uint32_t>(out_.groups.size());
          out_.groups.push_back(EgressGroup{nullptr, border});
        }
        out_.table.Add(iface.subnet, group, /*exit=*/false);
      }
    }
  }

  std::size_t peer_count() const { return peers_.size(); }
  AsNumber peer_asn(std::size_t p) const { return peers_[p].asn; }

  /// An exit toward the peer at row position `p`.
  void AddExit(const Prefix& prefix, std::size_t p) {
    Peer& peer = peers_[p];
    if (peer.group == kNoGroup) {
      peer.group = static_cast<std::uint32_t>(out_.groups.size());
      out_.groups.push_back(EgressGroup{peer.links, topo::kNoRouter});
    }
    out_.table.Add(prefix, peer.group, /*exit=*/true);
  }
  /// An exit toward peer AS `next_as`.
  void AddExitToward(const Prefix& prefix, AsNumber next_as) {
    const auto it = std::lower_bound(
        peers_.begin(), peers_.end(), next_as,
        [](const Peer& peer, AsNumber asn) { return peer.asn < asn; });
    WORMHOLE_DCHECK(it != peers_.end() && it->asn == next_as,
                    "BGP next AS is not a peer");
    AddExit(prefix, static_cast<std::size_t>(it - peers_.begin()));
  }

  void Finish() {
    out_.table.Finish(static_cast<std::uint32_t>(out_.groups.size()));
  }

 private:
  static constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};
  struct Peer {
    AsNumber asn;
    const std::vector<BorderLink>* links;
    std::uint32_t group;
  };

  AsBgp& out_;
  std::vector<Peer> peers_;
};

}  // namespace

const AsBgp& BgpLevel::Of(AsNumber asn) const {
  const auto it = std::lower_bound(asns.begin(), asns.end(), asn);
  WORMHOLE_ASSERT(it != asns.end() && *it == asn,
                  "BGP state asked for an AS outside the topology");
  return tables[static_cast<std::size_t>(it - asns.begin())];
}

BgpLevel ComputeBgpLevel(const Topology& topology, const BgpPolicy& policy) {
  BgpLevel level;
  level.adjacency = BuildAsAdjacency(topology);
  level.asns = topology.AsNumbers();
  std::sort(level.asns.begin(), level.asns.end());
  // Hierarchical mode routes between core ASes only: stubs are leaves
  // reached through their providers' direct customer routes.
  std::vector<AsNumber> nodes;
  for (const AsNumber asn : level.asns) {
    if (!policy.hierarchical || !policy.stub_ases.contains(asn)) {
      nodes.push_back(asn);
    }
  }
  const AsGraph graph =
      BuildAsGraph(std::move(nodes), level.adjacency, policy);
  const std::size_t n = graph.asns.size();
  // next_rows[to * n + from]: the BFS rows, kept dense for the tables.
  std::vector<std::uint32_t> next_rows(n * n);
  NextNodes bfs;
  for (std::uint32_t to = 0; to < n; ++to) {
    ComputeNextNodes(graph, to, bfs);
    std::copy(bfs.next.begin(), bfs.next.end(), next_rows.begin() + to * n);
    auto& row =
        level.next_for.try_emplace(level.next_for.end(), graph.asns[to])
            ->second;
    for (std::uint32_t from = 0; from < n; ++from) {
      row.emplace_hint(row.end(), graph.asns[from],
                       graph.AsnOf(bfs.next[from]));
    }
  }
  const std::vector<Prefix> aggregates =
      policy.hierarchical ? Aggregates(topology, policy, graph)
                          : std::vector<Prefix>();

  // One table per AS. Destinations go in graph order (ascending ASN);
  // the table sorts by prefix anyway.
  level.tables.resize(level.asns.size());
  for (std::size_t a = 0; a < level.asns.size(); ++a) {
    const AsNumber from_as = level.asns[a];
    const auto adjacency_it = level.adjacency.find(from_as);
    AsTableBuilder builder(level.tables[a],
                           adjacency_it == level.adjacency.end()
                               ? nullptr
                               : &adjacency_it->second);
    builder.AddSubnets(topology, from_as);
    const std::uint32_t from = graph.IndexOf(from_as);
    if (policy.hierarchical && from == kNoNode) {
      // A stub: default toward its primary (lowest-ASN core) provider;
      // its other providers still reach it directly, so dual-homing stays
      // useful for inbound traffic.
      for (std::size_t p = 0; p < builder.peer_count(); ++p) {
        if (policy.stub_ases.contains(builder.peer_asn(p))) continue;
        builder.AddExit(Prefix(netbase::Ipv4Address(0), 0), p);
        break;
      }
    } else if (builder.peer_count() > 0) {
      for (std::uint32_t to = 0; to < n; ++to) {
        const std::uint32_t via = next_rows[to * n + from];
        if (to == from || via == kNoNode) continue;  // unreachable
        builder.AddExitToward(policy.hierarchical
                                  ? aggregates[to]
                                  : topology.as(graph.asns[to]).block,
                              graph.asns[via]);
      }
      // Hierarchical: direct customer routes, more specific than any
      // aggregate, so the LPM prefers them.
      for (std::size_t p = 0; policy.hierarchical && p < builder.peer_count();
           ++p) {
        const AsNumber peer = builder.peer_asn(p);
        if (policy.stub_ases.contains(peer)) {
          builder.AddExit(topology.as(peer).block, p);
        }
      }
    }
    builder.Finish();
  }
  return level;
}

AsNumber BgpNextAs(const Topology& topology, const BgpPolicy& policy,
                   AsNumber from_as, AsNumber to_as) {
  if (from_as == to_as) return 0;
  const AsGraph graph =
      BuildAsGraph(topology.AsNumbers(), BuildAsAdjacency(topology), policy);
  const std::uint32_t from = graph.IndexOf(from_as);
  const std::uint32_t to = graph.IndexOf(to_as);
  if (from == kNoNode || to == kNoNode) return 0;
  NextNodes bfs;
  ComputeNextNodes(graph, to, bfs);
  return graph.AsnOf(bfs.next[from]);
}

void InstallBgpRoutesForRouter(const Topology& topology,
                               const BgpLevel& level, const SpfTree& tree,
                               RouterId rid, Fib& fib) {
  const AsBgp& as_bgp = level.Of(topology.router(rid).asn);
  fib.AttachBgp(as_bgp.table);
  for (std::uint32_t g = 0; g < as_bgp.groups.size(); ++g) {
    const EgressGroup& group = as_bgp.groups[g];
    RouterId egress = topo::kNoRouter;
    if (group.links == nullptr) {
      // An injected subnet: reached through its border's loopback (over
      // an LDP LSP when MPLS is on). The border itself has the connected
      // route. (The IGP deliberately does not carry these prefixes.)
      if (group.border != rid &&
          tree.DistanceTo(group.border) != kUnreachable) {
        egress = group.border;
      }
    } else {
      // Direct eBGP exit(s) from this router, if it is itself a border.
      NextHopSet external;
      for (const BorderLink& bl : *group.links) {
        if (bl.local == rid) external.push_back({bl.link, bl.remote});
      }
      if (!external.empty()) {
        fib.ResolveDirect(g, std::move(external));
        continue;
      }
      // Hot-potato: nearest border router by IGP metric; ties broken on
      // lower router id via the link-id scan order.
      int best = kUnreachable;
      for (const BorderLink& bl : *group.links) {
        const int d = tree.DistanceTo(bl.local);
        if (d < best) {
          best = d;
          egress = bl.local;
        }
      }
    }
    if (egress == topo::kNoRouter) continue;  // partitioned AS
    fib.ResolveViaIgp(g, topology.router(egress).loopback);
  }
}

void InstallBgpRoutes(const Topology& topology, const BgpLevel& level,
                      std::vector<Fib>& fibs) {
  SpfEngine engine(topology);
  for (const AsNumber from_as : topology.AsNumbers()) {
    for (const RouterId rid : topology.as(from_as).routers) {
      InstallBgpRoutesForRouter(topology, level, engine.TreeOf(rid), rid,
                                fibs.at(rid));
    }
  }
}

}  // namespace wormhole::routing
