// BGP resolution through the IGP, checked against the materializing
// install it replaced.
//
// Routers hold no BGP routes: each AS has one BGP table, and each router
// resolves the table's egress groups through its own IGP routes
// (routing/fib.h). The oracle below is the previous design, kept verbatim:
// flatten every AS's exits and injected subnets, then copy each resolved
// BGP route into every router's FIB. Every router's materialized view and
// every lookup must equal the oracle's, on the flat, tiny hierarchical and
// ~8.5k-router hierarchical worlds, before and after intra- and inter-AS
// flaps. The control-plane digests were recorded with the materializing
// install and pin the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen/internet.h"
#include "mpls/ldp.h"
#include "netbase/rng.h"
#include "routing/bgp.h"
#include "routing/fib.h"
#include "routing/igp.h"
#include "routing/spf_engine.h"
#include "sim/network.h"
#include "topo/topology.h"

namespace wormhole::routing {
namespace {

using topo::AsNumber;
using topo::Topology;

// --- The oracle: the materializing per-router install ----------------------

struct BgpExit {
  Prefix prefix;
  const std::vector<BorderLink>* borders = nullptr;
};

struct BorderSubnet {
  Prefix subnet;
  RouterId border = topo::kNoRouter;
};

/// The per-source-AS install plans the materializing install read.
struct OracleLevel {
  std::map<AsNumber, std::vector<BgpExit>> exits;
  std::map<AsNumber, std::vector<BorderSubnet>> border_subnets;
};

Prefix AggregateOf(const Topology& topology, const BgpPolicy& policy,
                   AsNumber asn) {
  const auto it = policy.aggregates.find(asn);
  return it != policy.aggregates.end() ? it->second : topology.as(asn).block;
}

void FlattenHierarchicalExits(const Topology& topology,
                              const BgpPolicy& policy,
                              const std::vector<AsNumber>& core,
                              const BgpLevel& level, OracleLevel& oracle) {
  for (const AsNumber from_as : topology.AsNumbers()) {
    std::vector<BgpExit>& exits = oracle.exits[from_as];
    const auto adjacency_it = level.adjacency.find(from_as);
    if (adjacency_it == level.adjacency.end()) continue;

    if (policy.stub_ases.contains(from_as)) {
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
    for (const auto& [peer, links] : adjacency_it->second) {
      if (!policy.stub_ases.contains(peer)) continue;
      exits.push_back({topology.as(peer).block, &links});
    }
  }
}

OracleLevel BuildOracleLevel(const Topology& topology,
                             const BgpPolicy& policy,
                             const BgpLevel& level) {
  OracleLevel oracle;
  const std::vector<AsNumber> ases = topology.AsNumbers();
  if (policy.hierarchical) {
    std::vector<AsNumber> core;
    for (const AsNumber asn : ases) {
      if (!policy.stub_ases.contains(asn)) core.push_back(asn);
    }
    FlattenHierarchicalExits(topology, policy, core, level, oracle);
  } else {
    for (const AsNumber from_as : ases) {
      std::vector<BgpExit>& exits = oracle.exits[from_as];
      const auto adjacency_it = level.adjacency.find(from_as);
      for (const AsNumber to_as : ases) {
        if (from_as == to_as) continue;
        const AsNumber via = level.next_for.at(to_as).at(from_as);
        if (via == 0) continue;  // unreachable
        exits.push_back(
            {topology.as(to_as).block, &adjacency_it->second.at(via)});
      }
    }
  }
  for (const AsNumber from_as : ases) {
    std::vector<BorderSubnet>& subnets = oracle.border_subnets[from_as];
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
  return oracle;
}

/// The materializing install, unchanged.
void InstallBgpRoutesForRouter(const Topology& topology,
                               const OracleLevel& level, const SpfTree& tree,
                               RouterId rid, Fib& fib) {
  const AsNumber from_as = topology.router(rid).asn;

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

/// Every router's FIB with every BGP route copied in, from a private SPF
/// engine — nothing shared with the network under test but the topology
/// and the AS-level rows.
std::vector<Fib> OracleFibs(const Topology& topology, const BgpPolicy& policy,
                            const BgpLevel& level) {
  const OracleLevel oracle = BuildOracleLevel(topology, policy, level);
  SpfEngine engine(topology);
  std::vector<Fib> fibs(topology.router_count());
  for (const AsNumber asn : topology.AsNumbers()) {
    const IgpPlan plan = BuildIgpPlan(topology, asn);
    for (const RouterId rid : topology.as(asn).routers) {
      const SpfTree& tree = engine.TreeOf(rid);
      InstallIgpRoutesForRouter(topology, plan, tree, rid, fibs[rid]);
      InstallBgpRoutesForRouter(topology, oracle, tree, rid, fibs[rid]);
      fibs[rid].Seal();
    }
  }
  return fibs;
}

// --- Comparison helpers ----------------------------------------------------

std::string Row(const FibEntry& entry) {
  std::ostringstream out;
  out << entry.prefix.ToString() << " s" << static_cast<int>(entry.source)
      << " m" << entry.metric << " nh[";
  for (const NextHop& hop : entry.next_hops) {
    out << hop.link << ":" << hop.neighbor << ",";
  }
  out << "] bgp " << entry.bgp_next_hop.ToString();
  return out.str();
}

std::string Row(const Route& route) {
  if (!route) return "none";
  FibEntry entry;
  entry.prefix = route.prefix;
  entry.source = route.source;
  entry.metric = route.metric;
  entry.next_hops = *route.next_hops;
  entry.bgp_next_hop = route.bgp_next_hop;
  return Row(entry);
}

std::string Row(const FibEntry* entry) {
  return entry == nullptr ? "none" : Row(*entry);
}

bool Same(const FibEntry& a, const FibEntry& b) {
  return a.prefix == b.prefix && a.source == b.source &&
         a.metric == b.metric && a.next_hops == b.next_hops &&
         a.bgp_next_hop == b.bgp_next_hop;
}

bool Same(const Route& route, const FibEntry* entry) {
  if (!route || entry == nullptr) return !route && entry == nullptr;
  return route.prefix == entry->prefix && route.source == entry->source &&
         route.metric == entry->metric &&
         *route.next_hops == entry->next_hops &&
         route.bgp_next_hop == entry->bgp_next_hop;
}

/// The first row where two listings differ, or "" when they are equal.
std::string FirstDifference(const RouteListing& got,
                            const RouteListing& want) {
  auto g = got.begin();
  auto w = want.begin();
  for (; g != got.end() && w != want.end(); ++g, ++w) {
    if (!Same(**g, **w)) return Row(**g) + " vs oracle " + Row(**w);
  }
  if (g != got.end()) return Row(**g) + " vs oracle none";
  if (w != want.end()) return "none vs oracle " + Row(**w);
  return "";
}

/// The addresses every lookup check probes: every loopback, every
/// interface address and subnet base, and a fixed set of random
/// addresses inside and outside the allocated space.
std::vector<Ipv4Address> ProbeAddresses(const Topology& topology) {
  std::vector<Ipv4Address> out;
  for (const topo::Router& router : topology.routers()) {
    out.push_back(router.loopback);
    for (const topo::InterfaceId iid : router.interfaces) {
      const topo::Interface& iface = topology.interface(iid);
      out.push_back(iface.address);
      out.push_back(iface.subnet.address());
    }
  }
  netbase::Rng rng(0x5EED);
  const std::size_t allocated = out.size();
  for (int i = 0; i < 512; ++i) {
    out.push_back(Ipv4Address(rng.UniformU32()));
    // Near an allocated address: same /16, random low bits.
    const std::uint32_t near = out[rng.UniformU32() % allocated].value();
    out.push_back(Ipv4Address((near & 0xFFFF0000u) | (rng.UniformU32() >> 16)));
  }
  return out;
}

/// Checks the network's FIBs against the oracle: the full materialized
/// route set of every router, and Resolve() against the oracle's
/// longest-prefix match on `probes` for every `router_stride`-th router.
void ExpectMatchesOracle(sim::Network& net, const BgpPolicy& policy,
                         std::size_t router_stride, const std::string& state) {
  SCOPED_TRACE(state);
  const Topology& topology = net.topology();
  const std::vector<Fib> oracle =
      OracleFibs(topology, policy, net.bgp_level());
  const std::vector<Ipv4Address> probes = ProbeAddresses(topology);
  int failures = 0;
  for (RouterId r = 0; r < topology.router_count() && failures < 5; ++r) {
    const Fib& fib = net.fibs()[r];
    const std::string difference =
        FirstDifference(fib.Entries(), oracle[r].Entries());
    if (!difference.empty()) {
      ADD_FAILURE() << "router " << r << " materializes " << difference;
      ++failures;
      continue;
    }
    if (r % router_stride != 0) continue;
    for (const Ipv4Address dst : probes) {
      const Route got = fib.Resolve(dst);
      const FibEntry* want = oracle[r].Lookup(dst);
      if (!Same(got, want)) {
        ADD_FAILURE() << "router " << r << " resolves " << dst.ToString()
                      << " to " << Row(got) << ", oracle " << Row(want);
        ++failures;
        break;
      }
    }
  }
}

// --- Control-plane digests --------------------------------------------------

/// The byte format of tests/test_convergence_parity.cpp's dump: every
/// materialized FIB row, then every LDP binding.
std::string DumpControlPlane(sim::Network& net) {
  const Topology& topology = net.topology();
  std::ostringstream out;
  for (std::size_t r = 0; r < topology.router_count(); ++r) {
    out << "R " << r << "\n";
    for (const FibEntry* entry : net.fibs()[r].Entries()) {
      out << "F " << Row(*entry) << "\n";
    }
  }
  for (const AsNumber asn : topology.AsNumbers()) {
    const mpls::LdpDomain* domain = net.ldp().DomainOf(asn);
    if (domain == nullptr) continue;
    out << "L " << asn << "\n";
    for (const RouterId rid : topology.as(asn).routers) {
      std::vector<Prefix> fecs = domain->FecsOf(rid);
      std::sort(fecs.begin(), fecs.end());
      for (const Prefix& fec : fecs) {
        const auto binding = domain->BindingOf(rid, fec);
        if (!binding.has_value()) continue;
        out << "B " << rid << " " << fec.ToString() << " k"
            << static_cast<int>(binding->kind) << " l" << binding->label
            << "\n";
      }
    }
  }
  return out.str();
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- Worlds and flaps -------------------------------------------------------

gen::InternetOptions FlatSmallWorld() {
  gen::InternetOptions options;
  options.seed = 17;
  options.tier1_count = 2;
  options.transit_count = 4;
  options.stub_count = 10;
  options.vp_count = 3;
  return options;
}

gen::InternetOptions HierarchicalTinyWorld() {
  gen::InternetOptions options;
  options.seed = 11;
  options.tier1_count = 2;
  options.transit_count = 2;
  options.stub_count = 4;
  options.tier1_routers = 5;
  options.transit_routers = 4;
  options.stub_routers = 2;
  options.vp_count = 2;
  options.hierarchical = true;
  return options;
}

/// The ~8.5k-router hierarchical world of perfbench's churn-9k workload.
gen::InternetOptions Hierarchical9kWorld() {
  gen::InternetOptions options;
  options.seed = 42;
  options.hierarchical = true;
  options.vp_count = 4;
  options.tier1_count = 2;
  options.transit_count = 40;
  options.transit_routers = 32;
  options.stub_count = 2400;
  return options;
}

/// The first internal link of an MPLS-enabled AS, or any internal link.
topo::LinkId PickInternalLink(const gen::SyntheticInternet& world) {
  const Topology& topology = world.topology();
  topo::LinkId fallback = topo::kNoLink;
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) continue;
    if (fallback == topo::kNoLink) fallback = l;
    const AsNumber asn =
        topology.router(topology.interface(topology.link(l).a).router).asn;
    if (world.profile(asn).mpls) return l;
  }
  return fallback;
}

topo::LinkId PickExternalLink(const gen::SyntheticInternet& world) {
  const Topology& topology = world.topology();
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) return l;
  }
  return topo::kNoLink;
}

/// Control-plane digests of one world, per flap state, recorded with the
/// materializing install.
struct Digests {
  std::uint64_t initial;
  std::uint64_t intra_down;
  std::uint64_t inter_down;
};

/// Walks `options`' world through an intra-AS flap and an inter-AS flap
/// and back, checking the oracle and the pinned digest at every state.
void CheckWorld(const gen::InternetOptions& options, const Digests& want,
                std::size_t router_stride) {
  gen::SyntheticInternet world(options);
  Topology& topology = world.mutable_topology();
  sim::Network& net = world.network();
  const BgpPolicy& policy = world.bgp_policy();
  const topo::LinkId internal = PickInternalLink(world);
  const topo::LinkId external = PickExternalLink(world);
  ASSERT_NE(internal, topo::kNoLink);
  ASSERT_NE(external, topo::kNoLink);

  const auto check = [&](const std::string& state, std::uint64_t digest) {
    EXPECT_EQ(Fnv1a(DumpControlPlane(net)), digest) << state;
    ExpectMatchesOracle(net, policy, router_stride, state);
  };
  check("initial", want.initial);
  topology.SetLinkUp(internal, false);
  net.OnLinkStateChange(internal);
  check("intra-AS flap down", want.intra_down);
  topology.SetLinkUp(internal, true);
  net.OnLinkStateChange(internal);
  check("intra-AS flap back up", want.initial);
  topology.SetLinkUp(external, false);
  net.OnLinkStateChange(external);
  check("inter-AS flap down", want.inter_down);
  topology.SetLinkUp(external, true);
  net.OnLinkStateChange(external);
  check("inter-AS flap back up", want.initial);
}

TEST(BgpResolution, FlatWorldMatchesMaterializingInstall) {
  CheckWorld(FlatSmallWorld(),
             {0x93100915ea2945b9ull, 0x3ab7cc60cc484b1bull,
              0x91ce204d877686e8ull},
             /*router_stride=*/1);
}

TEST(BgpResolution, HierarchicalTinyWorldMatchesMaterializingInstall) {
  CheckWorld(HierarchicalTinyWorld(),
             {0x76f6e971bc49d11aull, 0x4722d40e0ca041cbull,
              0x10a4a36e4934da01ull},
             /*router_stride=*/1);
}

TEST(BgpResolution, Hierarchical9kWorldMatchesMaterializingInstall) {
  CheckWorld(Hierarchical9kWorld(),
             {0x4e5a44401b517cbfull, 0x52facaa22d18c1baull,
              0xdee46b1fc2a134b3ull},
             /*router_stride=*/97);
}

TEST(BgpResolution, RoutersStoreNoResolvedBgpRoute) {
  gen::SyntheticInternet world(Hierarchical9kWorld());
  const Topology& topology = world.topology();
  sim::Network& net = world.network();
  const BgpLevel& level = net.bgp_level();

  std::size_t stored = 0;
  std::size_t direct_exits = 0;
  std::size_t connected_and_igp = 0;
  std::size_t expected_direct_exits = 0;
  std::size_t materialized_bgp = 0;
  SpfEngine engine(topology);
  for (const AsNumber asn : topology.AsNumbers()) {
    const IgpPlan plan = BuildIgpPlan(topology, asn);
    const AsBgp& as_bgp = level.Of(asn);
    for (const RouterId rid : topology.as(asn).routers) {
      const Fib& fib = net.fibs()[rid];
      stored += fib.size();
      direct_exits += fib.direct_exit_count();
      for (const FibEntry* entry : fib.Entries()) {
        if (entry->source == RouteSource::kBgp) ++materialized_bgp;
      }
      // What the router must store: its connected + IGP routes ...
      Fib local;
      InstallIgpRoutesForRouter(topology, plan, engine.TreeOf(rid), rid,
                                local);
      connected_and_igp += local.size();
      // ... plus one next-hop set per exit group it borders.
      for (const EgressGroup& group : as_bgp.groups) {
        if (group.links == nullptr) continue;
        expected_direct_exits += std::any_of(
            group.links->begin(), group.links->end(),
            [&](const BorderLink& bl) { return bl.local == rid; });
      }
    }
  }
  EXPECT_EQ(stored, connected_and_igp);
  EXPECT_EQ(direct_exits, expected_direct_exits);
  EXPECT_GT(direct_exits, 0u);
  // The resolved view is still the full one: far more BGP routes than
  // anything stored.
  EXPECT_GT(materialized_bgp, stored + direct_exits);
}

}  // namespace
}  // namespace wormhole::routing
