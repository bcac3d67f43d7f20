#include "routing/bgp.h"

#include <algorithm>
#include <cstdint>
#include <utility>

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

/// The covering prefix a core AS announces in hierarchical mode.
Prefix AggregateOf(const Topology& topology, const BgpPolicy& policy,
                   AsNumber asn) {
  const auto it = policy.aggregates.find(asn);
  return it != policy.aggregates.end() ? it->second : topology.as(asn).block;
}

/// Flattens the hierarchical per-source install plans: core ASes get one
/// aggregate exit per other core AS plus a direct exit per stub customer;
/// stub ASes get a single default exit toward their lowest-ASN provider.
void FlattenHierarchicalExits(const Topology& topology,
                              const BgpPolicy& policy,
                              const std::vector<AsNumber>& core,
                              BgpLevel& level) {
  for (const AsNumber from_as : topology.AsNumbers()) {
    std::vector<BgpExit>& exits = level.exits[from_as];
    const auto adjacency_it = level.adjacency.find(from_as);
    if (adjacency_it == level.adjacency.end()) continue;

    if (policy.stub_ases.contains(from_as)) {
      // Default toward the primary (lowest-ASN core) provider; its other
      // providers still reach it directly, so dual-homing stays useful
      // for inbound traffic.
      for (const auto& [peer, links] : adjacency_it->second) {
        if (policy.stub_ases.contains(peer)) continue;
        exits.push_back({Prefix(netbase::Ipv4Address(0), 0), &links});
        break;  // adjacency is ASN-ordered: first core peer is lowest
      }
      continue;
    }

    for (const AsNumber to_as : core) {
      if (from_as == to_as) continue;
      const AsNumber via = level.next_for.at(to_as).at(from_as);
      if (via == 0) continue;  // unreachable
      exits.push_back({AggregateOf(topology, policy, to_as),
                       &adjacency_it->second.at(via)});
    }
    // Direct customer routes: more specific than any aggregate, so the
    // LPM prefers them regardless of install order.
    for (const auto& [peer, links] : adjacency_it->second) {
      if (!policy.stub_ases.contains(peer)) continue;
      exits.push_back({topology.as(peer).block, &links});
    }
  }
}

}  // namespace

BgpLevel ComputeBgpLevel(const Topology& topology, const BgpPolicy& policy) {
  BgpLevel level;
  level.adjacency = BuildAsAdjacency(topology);
  const std::vector<AsNumber> ases = topology.AsNumbers();
  // Hierarchical mode routes between core ASes only: stubs are leaves
  // reached through their providers' direct customer routes.
  std::vector<AsNumber> nodes;
  for (const AsNumber asn : ases) {
    if (!policy.hierarchical || !policy.stub_ases.contains(asn)) {
      nodes.push_back(asn);
    }
  }
  const AsGraph graph =
      BuildAsGraph(std::move(nodes), level.adjacency, policy);
  NextNodes bfs;
  for (std::uint32_t to = 0; to < graph.asns.size(); ++to) {
    ComputeNextNodes(graph, to, bfs);
    auto& row =
        level.next_for.try_emplace(level.next_for.end(), graph.asns[to])
            ->second;
    for (std::uint32_t from = 0; from < graph.asns.size(); ++from) {
      row.emplace_hint(row.end(), graph.asns[from],
                       graph.AsnOf(bfs.next[from]));
    }
  }

  // Flatten both per-source-AS install plans once, here, so the install
  // loop below runs map-free per router. Orders mirror the historical
  // per-router scans exactly: destinations in AsNumbers() order; border
  // subnets in AS-member then interface order.
  if (policy.hierarchical) {
    FlattenHierarchicalExits(topology, policy, graph.asns, level);
  } else {
    for (const AsNumber from_as : ases) {
      std::vector<BgpExit>& exits = level.exits[from_as];
      const auto adjacency_it = level.adjacency.find(from_as);
      for (const AsNumber to_as : ases) {
        if (from_as == to_as) continue;
        const AsNumber via = level.next_for.at(to_as).at(from_as);
        if (via == 0) continue;  // unreachable
        // via != 0 implies from_as has at least one eBGP adjacency.
        exits.push_back(
            {topology.as(to_as).block, &adjacency_it->second.at(via)});
      }
    }
  }
  for (const AsNumber from_as : ases) {
    std::vector<BorderSubnet>& subnets = level.border_subnets[from_as];
    for (const RouterId border : topology.as(from_as).routers) {
      for (const topo::InterfaceId iid :
           topology.router(border).interfaces) {
        const topo::Interface& iface = topology.interface(iid);
        if (iface.link == topo::kNoLink || !topology.link(iface.link).up ||
            topology.IsInternalLink(iface.link)) {
          continue;
        }
        subnets.push_back({iface.subnet, border});
      }
    }
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
  const AsNumber from_as = topology.router(rid).asn;

  // Border routers inject the subnets of their eBGP links into their own
  // AS via iBGP with next-hop-self: other routers of the AS reach such a
  // subnet through the border's loopback, i.e. over an LDP LSP when MPLS
  // is on. (The IGP deliberately does not carry these prefixes.) The
  // subnet list was flattened per AS in ComputeBgpLevel; AddRouteIfAbsent
  // keeps the connected-route-wins rule in a single tree descent.
  for (const BorderSubnet& bs : level.border_subnets.at(from_as)) {
    if (bs.border == rid) continue;  // connected route already present
    const int border_distance = tree.DistanceTo(bs.border);
    if (border_distance == kUnreachable) continue;
    FibEntry entry;
    entry.prefix = bs.subnet;
    entry.source = RouteSource::kBgp;
    entry.metric = border_distance;
    const auto span = tree.FirstHops(bs.border);
    entry.next_hops.assign(span.data(), span.data() + span.size());
    entry.bgp_next_hop = topology.router(bs.border).loopback;
    fib.AddRouteIfAbsent(std::move(entry));
  }

  for (const BgpExit& exit : level.exits.at(from_as)) {
    // Border routers of from_as peering with the chosen next AS.
    const auto& border_links = *exit.borders;

    FibEntry entry;
    entry.prefix = exit.prefix;
    entry.source = RouteSource::kBgp;

    // Direct eBGP exit(s) from this router, if it is itself a border.
    NextHopSet external;
    for (const BorderLink& bl : border_links) {
      if (bl.local == rid) external.push_back({bl.link, bl.remote});
    }
    if (!external.empty()) {
      entry.metric = 0;
      entry.next_hops = std::move(external);
    } else {
      // Hot-potato: nearest border router by IGP metric; ties broken on
      // lower router id via the link-id scan order.
      RouterId egress = topo::kNoRouter;
      int best = kUnreachable;
      for (const BorderLink& bl : border_links) {
        const int d = tree.DistanceTo(bl.local);
        if (d < best) {
          best = d;
          egress = bl.local;
        }
      }
      if (egress == topo::kNoRouter) continue;  // partitioned AS
      entry.metric = best;
      const auto span = tree.FirstHops(egress);
      entry.next_hops.assign(span.data(), span.data() + span.size());
      entry.bgp_next_hop = topology.router(egress).loopback;
    }
    fib.AddRoute(std::move(entry));
  }
}

void InstallBgpRoutes(const Topology& topology, const BgpPolicy& policy,
                      std::vector<Fib>& fibs) {
  const BgpLevel level = ComputeBgpLevel(topology, policy);
  SpfEngine engine(topology);
  for (const AsNumber from_as : topology.AsNumbers()) {
    for (const RouterId rid : topology.as(from_as).routers) {
      InstallBgpRoutesForRouter(topology, level, engine.TreeOf(rid), rid,
                                fibs.at(rid));
    }
  }
}

}  // namespace wormhole::routing
