#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gen/internet.h"
#include "routing/bgp.h"
#include "routing/fib.h"
#include "routing/igp.h"
#include "topo/topology.h"

namespace wormhole::routing {
namespace {

using topo::AsNumber;
using topo::RouterId;
using topo::Topology;
using topo::Vendor;

// A 2x2 grid inside one AS (ECMP between opposite corners):
//   r0 - r1
//   |     |
//   r2 - r3
Topology Grid() {
  Topology t;
  t.AddAs(1, "grid");
  for (const char* name : {"r0", "r1", "r2", "r3"}) {
    t.AddRouter(1, name, Vendor::kCiscoIos);
  }
  t.AddLink(0, 1);
  t.AddLink(0, 2);
  t.AddLink(1, 3);
  t.AddLink(2, 3);
  return t;
}

TEST(Fib, LongestPrefixMatchWins) {
  Fib fib;
  FibEntry wide;
  wide.prefix = *netbase::Prefix::Parse("5.0.0.0/8");
  wide.source = RouteSource::kBgp;
  fib.AddRoute(wide);
  FibEntry narrow;
  narrow.prefix = *netbase::Prefix::Parse("5.1.0.0/16");
  narrow.source = RouteSource::kIgp;
  fib.AddRoute(narrow);

  const FibEntry* hit = fib.Lookup(*netbase::Ipv4Address::Parse("5.1.2.3"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 16);
  hit = fib.Lookup(*netbase::Ipv4Address::Parse("5.2.2.3"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 8);
  EXPECT_EQ(fib.Lookup(*netbase::Ipv4Address::Parse("9.0.0.1")), nullptr);
}

TEST(Fib, ExactMatchAndReplace) {
  Fib fib;
  FibEntry e;
  e.prefix = *netbase::Prefix::Parse("5.0.0.0/16");
  e.metric = 5;
  fib.AddRoute(e);
  e.metric = 2;
  fib.AddRoute(e);  // replaces
  const FibEntry* hit = fib.LookupExact(e.prefix);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->metric, 2);
  EXPECT_EQ(fib.size(), 1u);
}

TEST(Fib, DeduplicatesNextHops) {
  Fib fib;
  FibEntry e;
  e.prefix = *netbase::Prefix::Parse("5.0.0.0/16");
  e.next_hops = {{3, 7}, {1, 5}, {3, 7}};
  fib.AddRoute(e);
  const FibEntry* hit = fib.LookupExact(e.prefix);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->next_hops.size(), 2u);
  EXPECT_EQ(hit->next_hops[0], (NextHop{1, 5}));
}

TEST(Fib, DefaultRouteCatchesEverythingUncovered) {
  Fib fib;
  FibEntry def;
  def.prefix = *netbase::Prefix::Parse("0.0.0.0/0");
  def.source = RouteSource::kBgp;
  fib.AddRoute(def);
  FibEntry narrow;
  narrow.prefix = *netbase::Prefix::Parse("5.1.0.0/16");
  narrow.source = RouteSource::kIgp;
  fib.AddRoute(narrow);

  // Covered address: the /16 wins over /0.
  const FibEntry* hit = fib.Lookup(*netbase::Ipv4Address::Parse("5.1.9.9"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 16);
  // Anything else falls through to the default route, never to nullptr.
  for (const char* addr : {"5.2.0.1", "9.0.0.1", "0.0.0.0",
                           "255.255.255.255"}) {
    hit = fib.Lookup(*netbase::Ipv4Address::Parse(addr));
    ASSERT_NE(hit, nullptr) << addr;
    EXPECT_EQ(hit->prefix.length(), 0) << addr;
  }
}

TEST(Fib, OverlappingPrefixesMostSpecificWins) {
  // A full nesting chain /8 ⊃ /16 ⊃ /24 ⊃ /32 around one address: each
  // probe address must land on exactly the deepest prefix covering it.
  Fib fib;
  for (const char* p : {"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
                        "10.1.2.3/32"}) {
    FibEntry e;
    e.prefix = *netbase::Prefix::Parse(p);
    fib.AddRoute(e);
  }
  const auto probe = [&](const char* addr) {
    const FibEntry* hit = fib.Lookup(*netbase::Ipv4Address::Parse(addr));
    return hit == nullptr ? -1 : hit->prefix.length();
  };
  EXPECT_EQ(probe("10.1.2.3"), 32);
  EXPECT_EQ(probe("10.1.2.4"), 24);
  EXPECT_EQ(probe("10.1.3.3"), 16);
  EXPECT_EQ(probe("10.2.2.3"), 8);
  EXPECT_EQ(probe("11.1.2.3"), -1);
}

TEST(Fib, HostRoutesMatchExactlyOneAddress) {
  Fib fib;
  FibEntry host;
  host.prefix = netbase::Prefix::Host(*netbase::Ipv4Address::Parse("7.7.7.7"));
  fib.AddRoute(host);
  const FibEntry* hit = fib.Lookup(*netbase::Ipv4Address::Parse("7.7.7.7"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 32);
  // The neighboring addresses share 31 leading bits but must not match.
  EXPECT_EQ(fib.Lookup(*netbase::Ipv4Address::Parse("7.7.7.6")), nullptr);
  EXPECT_EQ(fib.Lookup(*netbase::Ipv4Address::Parse("7.7.7.8")), nullptr);
}

TEST(Fib, LookupExactMissesOnUnpopulatedLengths) {
  Fib fib;
  FibEntry e;
  e.prefix = *netbase::Prefix::Parse("10.0.0.0/8");
  fib.AddRoute(e);
  e.prefix = *netbase::Prefix::Parse("10.1.2.0/24");
  fib.AddRoute(e);
  // Force both code paths: unsealed (map) first, then sealed (flat index).
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(fib.LookupExact(*netbase::Prefix::Parse("10.1.0.0/16")),
              nullptr) << "pass " << pass;
    EXPECT_EQ(fib.LookupExact(*netbase::Prefix::Parse("10.0.0.0/9")),
              nullptr) << "pass " << pass;
    EXPECT_NE(fib.LookupExact(*netbase::Prefix::Parse("10.1.2.0/24")),
              nullptr) << "pass " << pass;
    fib.Seal();
  }
}

TEST(Fib, AddRouteAfterLookupRebuildsTheIndex) {
  Fib fib;
  FibEntry wide;
  wide.prefix = *netbase::Prefix::Parse("5.0.0.0/8");
  fib.AddRoute(wide);
  const auto addr = *netbase::Ipv4Address::Parse("5.1.2.3");
  const FibEntry* hit = fib.Lookup(addr);  // seals lazily
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 8);

  // Installing a more-specific route after the first Lookup must
  // invalidate and rebuild the sealed index.
  FibEntry narrow;
  narrow.prefix = *netbase::Prefix::Parse("5.1.0.0/16");
  fib.AddRoute(narrow);
  hit = fib.Lookup(addr);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix.length(), 16);
}

// --- Resolution through an AS BGP table -----------------------------------

Prefix P(const char* text) { return *netbase::Prefix::Parse(text); }
netbase::Ipv4Address A(const char* text) {
  return *netbase::Ipv4Address::Parse(text);
}

FibEntry Stored(const char* prefix, RouteSource source, int metric,
                RouterId neighbor) {
  FibEntry entry;
  entry.prefix = P(prefix);
  entry.source = source;
  entry.metric = metric;
  if (source != RouteSource::kConnected) {
    entry.next_hops.push_back({topo::LinkId{neighbor}, neighbor});
  }
  return entry;
}

/// A router that stores an IGP route to egress loopback 9.9.9.9 (metric
/// 7 via neighbor 4) and resolves AS table groups through it: group 0
/// via that egress, group 1 over its own eBGP links, group 2 unresolved.
struct ResolvingFib {
  BgpTable table;
  Fib fib;

  explicit ResolvingFib(const std::vector<FibEntry>& stored,
                        const std::vector<BgpTable::Entry>& bgp) {
    fib.AddRoute(Stored("9.9.9.9/32", RouteSource::kIgp, 7, 4));
    for (const FibEntry& entry : stored) fib.AddRoute(entry);
    for (const BgpTable::Entry& entry : bgp) {
      table.Add(entry.prefix, entry.group, entry.exit);
    }
    table.Finish(/*group_count=*/3);
    fib.AttachBgp(table);
    fib.ResolveViaIgp(0, A("9.9.9.9"));
    fib.ResolveDirect(1, {{topo::LinkId{8}, 8}, {topo::LinkId{2}, 2}});
    fib.Seal();
  }
};

TEST(FibResolve, LongestPrefixMatchSpansBothTables) {
  const ResolvingFib r({Stored("10.0.0.0/8", RouteSource::kIgp, 1, 5),
                        Stored("10.1.2.0/24", RouteSource::kIgp, 2, 6)},
                       {{P("10.1.0.0/16"), 0, true},
                        {P("10.1.2.128/25"), 2, true},
                        {P("0.0.0.0/0"), 1, true}});
  // BGP /16 beats the stored /8, and resolves through the egress route.
  Route hit = r.fib.Resolve(A("10.1.9.9"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.prefix, P("10.1.0.0/16"));
  EXPECT_EQ(hit.source, RouteSource::kBgp);
  EXPECT_EQ(hit.metric, 7);
  ASSERT_EQ(hit.next_hops->size(), 1u);
  EXPECT_EQ((*hit.next_hops)[0].neighbor, 4u);
  EXPECT_EQ(hit.bgp_next_hop, A("9.9.9.9"));
  // The stored /24 beats the BGP /16; the unresolved BGP /25 is skipped.
  hit = r.fib.Resolve(A("10.1.2.200"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.prefix, P("10.1.2.0/24"));
  EXPECT_EQ(hit.source, RouteSource::kIgp);
  // Outside the /16, the stored /8 answers; outside everything stored,
  // the direct default: metric 0, sorted own links, no BGP next hop.
  EXPECT_EQ(r.fib.Resolve(A("10.200.0.1")).prefix, P("10.0.0.0/8"));
  hit = r.fib.Resolve(A("77.0.0.1"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.prefix, P("0.0.0.0/0"));
  EXPECT_EQ(hit.metric, 0);
  ASSERT_EQ(hit.next_hops->size(), 2u);
  EXPECT_EQ((*hit.next_hops)[0].neighbor, 2u);
  EXPECT_TRUE(hit.bgp_next_hop.is_unspecified());
  EXPECT_EQ(r.fib.size(), 3u);
  EXPECT_EQ(r.fib.direct_exit_count(), 1u);
}

#if defined(WORMHOLE_HARDENED) || !defined(NDEBUG)
TEST(FibResolveDeathTest, LookupRefusesAFibWithABgpTable) {
  // Lookup sees the stored routes only; on a FIB that resolves BGP it
  // would silently miss every BGP route, so it must not be asked.
  const ResolvingFib r({}, {{P("0.0.0.0/0"), 1, true}});
  EXPECT_DEATH(static_cast<void>(r.fib.Lookup(A("77.0.0.1"))), "Resolve");
}
#endif

TEST(FibResolve, SamePrefixFollowsInstallOrder) {
  const ResolvingFib r({Stored("20.0.0.0/16", RouteSource::kIgp, 1, 5),
                        Stored("30.0.0.0/31", RouteSource::kConnected, 0, 0),
                        Stored("40.0.0.0/16", RouteSource::kIgp, 1, 5),
                        Stored("50.0.0.0/31", RouteSource::kIgp, 3, 6)},
                       {{P("20.0.0.0/16"), 0, true},
                        {P("30.0.0.0/31"), 0, false},
                        {P("40.0.0.0/16"), 2, true},
                        {P("60.0.0.0/31"), 0, false}});
  // An exit overrides a stored route (AddRoute) ...
  EXPECT_EQ(r.fib.Resolve(A("20.0.1.1")).source, RouteSource::kBgp);
  // ... an injected subnet yields to one (AddRouteIfAbsent) ...
  EXPECT_EQ(r.fib.Resolve(A("30.0.0.1")).source, RouteSource::kConnected);
  // ... an unresolved exit leaves the stored route in place ...
  EXPECT_EQ(r.fib.Resolve(A("40.0.1.1")).source, RouteSource::kIgp);
  // ... and a subnet with no stored twin is a BGP route.
  const Route subnet = r.fib.Resolve(A("60.0.0.1"));
  ASSERT_TRUE(subnet);
  EXPECT_EQ(subnet.source, RouteSource::kBgp);
  EXPECT_EQ(subnet.bgp_next_hop, A("9.9.9.9"));

  // Entries() materializes the same choices, in prefix order.
  std::vector<std::pair<Prefix, RouteSource>> rows;
  for (const FibEntry* entry : r.fib.Entries()) {
    rows.emplace_back(entry->prefix, entry->source);
  }
  const std::vector<std::pair<Prefix, RouteSource>> want = {
      {P("9.9.9.9/32"), RouteSource::kIgp},
      {P("20.0.0.0/16"), RouteSource::kBgp},
      {P("30.0.0.0/31"), RouteSource::kConnected},
      {P("40.0.0.0/16"), RouteSource::kIgp},
      {P("50.0.0.0/31"), RouteSource::kIgp},
      {P("60.0.0.0/31"), RouteSource::kBgp}};
  EXPECT_EQ(rows, want);
}

TEST(FibResolve, TableKeepsInstallOrderAmongSamePrefixRoutes) {
  // Subnets go in first (the first one stays), exits after them (the last
  // one wins).
  BgpTable table;
  table.Add(P("70.0.0.0/31"), 0, false);
  table.Add(P("70.0.0.0/31"), 1, false);
  table.Add(P("80.0.0.0/16"), 0, false);
  table.Add(P("80.0.0.0/16"), 1, true);
  table.Add(P("80.0.0.0/16"), 2, true);
  table.Finish(3);
  ASSERT_EQ(table.entries().size(), 2u);
  EXPECT_EQ(table.entries()[0].group, 0u);
  EXPECT_FALSE(table.entries()[0].exit);
  EXPECT_EQ(table.entries()[1].group, 2u);
  EXPECT_TRUE(table.entries()[1].exit);
}

TEST(Spf, DistancesOnGrid) {
  const Topology t = Grid();
  const SpfResult spf = ComputeSpf(t, 0);
  EXPECT_EQ(spf.distance[0], 0);
  EXPECT_EQ(spf.distance[1], 1);
  EXPECT_EQ(spf.distance[2], 1);
  EXPECT_EQ(spf.distance[3], 2);
  EXPECT_EQ(spf.hop_count[3], 2);
}

TEST(Spf, EcmpKeepsBothNextHops) {
  const Topology t = Grid();
  const SpfResult spf = ComputeSpf(t, 0);
  EXPECT_EQ(spf.next_hops[3].size(), 2u);  // via r1 and via r2
  EXPECT_EQ(spf.next_hops[1].size(), 1u);
}

TEST(Spf, EcmpMergedNextHopSetIsSortedAndDeduped) {
  // Regression pin for the bitmask ECMP merge that replaced the
  // sort+unique-per-relaxation hot spot: the first-hop set of every
  // destination must be the union over all shortest paths, emitted in
  // ascending (link, neighbor) order with parallel links kept distinct.
  //
  //       link0
  //   s ======== a --- d      s→d costs 2 via a (either parallel link)
  //   |   link1      link3    and 2 via b — three first hops total.
  //   | link2
  //   b ------------- d'
  //          link4
  Topology t;
  t.AddAs(1, "ecmp");
  for (const char* name : {"s", "a", "b", "d"}) {
    t.AddRouter(1, name, Vendor::kCiscoIos);
  }
  t.AddLink(0, 1);  // link 0: s-a
  t.AddLink(0, 1);  // link 1: s-a (parallel)
  t.AddLink(0, 2);  // link 2: s-b
  t.AddLink(1, 3);  // link 3: a-d
  t.AddLink(2, 3);  // link 4: b-d

  const SpfResult spf = ComputeSpf(t, 0);
  // Towards a: both parallel links, distinct (different LinkId), sorted.
  EXPECT_EQ(spf.next_hops[1],
            (std::vector<NextHop>{{0, 1}, {1, 1}}));
  // Towards d: the union of the via-a and via-b shortest paths.
  EXPECT_EQ(spf.distance[3], 2);
  EXPECT_EQ(spf.next_hops[3],
            (std::vector<NextHop>{{0, 1}, {1, 1}, {2, 2}}));

  // The cached engine tree serves the same spans.
  SpfEngine engine(t);
  const SpfTree& tree = engine.TreeOf(0);
  const std::span<const NextHop> hops = tree.FirstHops(3);
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_TRUE(std::is_sorted(hops.begin(), hops.end()));
  EXPECT_TRUE(std::equal(hops.begin(), hops.end(),
                         spf.next_hops[3].begin()));
}

TEST(Spf, RespectsMetrics) {
  Topology t;
  t.AddAs(1, "m");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  t.AddRouter(1, "b", Vendor::kCiscoIos);
  t.AddRouter(1, "c", Vendor::kCiscoIos);
  t.AddLink(0, 1, {.igp_metric = 10});
  t.AddLink(0, 2, {.igp_metric = 1});
  t.AddLink(2, 1, {.igp_metric = 1});
  const SpfResult spf = ComputeSpf(t, 0);
  EXPECT_EQ(spf.distance[1], 2);  // via c, not the direct metric-10 link
  ASSERT_EQ(spf.next_hops[1].size(), 1u);
  EXPECT_EQ(spf.next_hops[1][0].neighbor, 2u);
}

TEST(Spf, StaysInsideTheAs) {
  Topology t;
  t.AddAs(1, "one");
  t.AddAs(2, "two");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  t.AddRouter(2, "b", Vendor::kCiscoIos);
  t.AddLink(0, 1);
  const SpfResult spf = ComputeSpf(t, 0);
  EXPECT_EQ(spf.distance[1], kUnreachable);
  EXPECT_EQ(IgpDistance(t, 0, 1), kUnreachable);
}

TEST(Igp, InstallsRoutesForAllInternalPrefixes) {
  const Topology t = Grid();
  std::vector<Fib> fibs(t.router_count());
  InstallIgpRoutes(t, 1, fibs);
  // r0 must reach every loopback and every link subnet.
  for (RouterId r = 0; r < 4; ++r) {
    const FibEntry* e =
        fibs[0].LookupExact(netbase::Prefix::Host(t.router(r).loopback));
    ASSERT_NE(e, nullptr) << "loopback of r" << r;
    if (r == 0) {
      EXPECT_EQ(e->source, RouteSource::kConnected);
    } else {
      EXPECT_EQ(e->source, RouteSource::kIgp);
      EXPECT_FALSE(e->next_hops.empty());
    }
  }
  for (const topo::Link& link : t.links()) {
    EXPECT_NE(fibs[0].LookupExact(link.subnet), nullptr);
  }
}

TEST(Igp, SharedLinkSubnetRoutedViaNearestOwner) {
  // Chain a - b - c; the b-c subnet seen from a should be reached via b
  // (the nearer owner), which is the property PHP/BRPR relies on.
  Topology t;
  t.AddAs(1, "chain");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  t.AddRouter(1, "b", Vendor::kCiscoIos);
  t.AddRouter(1, "c", Vendor::kCiscoIos);
  t.AddLink(0, 1);
  const topo::LinkId bc = t.AddLink(1, 2);
  std::vector<Fib> fibs(t.router_count());
  InstallIgpRoutes(t, 1, fibs);
  const FibEntry* e = fibs[0].LookupExact(t.link(bc).subnet);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->metric, 1);  // distance to b, not to c
  ASSERT_EQ(e->next_hops.size(), 1u);
  EXPECT_EQ(e->next_hops[0].neighbor, 1u);
}

// --- BGP ------------------------------------------------------------------

// AS chain 1 - 2 - 3 with AS2 as transit; plus a shortcut 1 - 4 - 3 to
// exercise path selection.
struct BgpWorld {
  Topology t;
  std::vector<Fib> fibs;
  BgpLevel level;  // the FIBs resolve BGP through its per-AS tables
};

BgpWorld MakeBgpWorld(bool with_shortcut) {
  BgpWorld w;
  w.t.AddAs(1, "one");
  w.t.AddAs(2, "two");
  w.t.AddAs(3, "three");
  const RouterId a = w.t.AddRouter(1, "a", Vendor::kCiscoIos);
  const RouterId b1 = w.t.AddRouter(2, "b1", Vendor::kCiscoIos);
  const RouterId b2 = w.t.AddRouter(2, "b2", Vendor::kCiscoIos);
  const RouterId c = w.t.AddRouter(3, "c", Vendor::kCiscoIos);
  w.t.AddLink(a, b1);
  w.t.AddLink(b1, b2);
  w.t.AddLink(b2, c);
  if (with_shortcut) {
    w.t.AddAs(4, "four");
    const RouterId d = w.t.AddRouter(4, "d", Vendor::kCiscoIos);
    w.t.AddLink(a, d);
    w.t.AddLink(d, c);
  }
  w.fibs.resize(w.t.router_count());
  for (const topo::AsNumber asn : w.t.AsNumbers()) {
    InstallIgpRoutes(w.t, asn, w.fibs);
  }
  w.level = ComputeBgpLevel(w.t, {});
  InstallBgpRoutes(w.t, w.level, w.fibs);
  return w;
}

TEST(Bgp, InstallsRoutesAcrossAses) {
  const BgpWorld w = MakeBgpWorld(false);
  // a must have a BGP route to AS3's block via its eBGP link to b1.
  const Route e = w.fibs[0].Resolve(w.t.router(3).loopback);
  ASSERT_TRUE(e);
  EXPECT_EQ(e.source, RouteSource::kBgp);
  ASSERT_EQ(e.next_hops->size(), 1u);
  EXPECT_EQ((*e.next_hops)[0].neighbor, 1u);  // b1
  EXPECT_TRUE(e.bgp_next_hop.is_unspecified());  // direct eBGP exit
}

TEST(Bgp, NonBorderRoutersUseEgressLoopbackNextHop) {
  const BgpWorld w = MakeBgpWorld(false);
  // b1's route to AS3 goes via egress b2 with next-hop-self.
  const Route e = w.fibs[1].Resolve(w.t.router(3).loopback);
  ASSERT_TRUE(e);
  EXPECT_EQ(e.bgp_next_hop, w.t.router(2).loopback);
}

TEST(Bgp, PrefersShorterAsPath) {
  const BgpWorld w = MakeBgpWorld(true);
  // From AS1, AS3 is reachable via AS2 (2 AS hops) or AS4 (2 AS hops);
  // tie-break prefers the lower next ASN: AS2.
  EXPECT_EQ(BgpNextAs(w.t, {}, 1, 3), 2u);
}

TEST(Bgp, StubAsesDoNotTransit) {
  BgpPolicy policy;
  policy.stub_ases = {2};
  const BgpWorld w = MakeBgpWorld(true);
  // With AS2 declared a stub, traffic AS1 -> AS3 must go via AS4.
  EXPECT_EQ(BgpNextAs(w.t, policy, 1, 3), 4u);
}

TEST(Bgp, InjectsExternalLinkSubnetsViaIbgp) {
  const BgpWorld w = MakeBgpWorld(false);
  // The b2-c eBGP link subnet is NOT in AS2's IGP, but b1 must still reach
  // it — via iBGP with next-hop-self b2 (this is what keeps traces to such
  // addresses inside LSPs).
  const topo::Link& ebgp_link = w.t.links()[2];
  const Route e = w.fibs[1].Resolve(ebgp_link.subnet.address());
  ASSERT_TRUE(e);
  EXPECT_EQ(e.prefix, ebgp_link.subnet);  // the exact subnet route
  EXPECT_EQ(e.source, RouteSource::kBgp);
  EXPECT_EQ(e.bgp_next_hop, w.t.router(2).loopback);
}

// --- next_for against the map-based reference BFS -------------------------
//
// ComputeBgpLevel runs its per-destination BFS on a dense, index-addressed
// AS graph. The two map-based BFSes below are the flat and hierarchical
// routines it replaced, kept as the oracle every next_for row must equal.

using ReferenceAdjacency = std::map<AsNumber, std::set<AsNumber>>;

ReferenceAdjacency BuildReferenceAdjacency(const Topology& t) {
  ReferenceAdjacency adjacency;
  for (const topo::Link& link : t.links()) {
    if (!link.up) continue;
    const AsNumber as_a = t.router(t.interface(link.a).router).asn;
    const AsNumber as_b = t.router(t.interface(link.b).router).asn;
    if (as_a == as_b) continue;
    adjacency[as_a].insert(as_b);
    adjacency[as_b].insert(as_a);
  }
  return adjacency;
}

/// Flat mode: BFS over every AS; a stub is reached but not expanded
/// unless it is the destination.
std::map<AsNumber, AsNumber> ReferenceNextAs(
    const Topology& t, const ReferenceAdjacency& adjacency,
    const BgpPolicy& policy, AsNumber to_as) {
  std::map<AsNumber, int> distance;
  std::map<AsNumber, AsNumber> next_as;
  for (const AsNumber asn : t.AsNumbers()) {
    distance[asn] = -1;
    next_as[asn] = 0;
  }
  distance[to_as] = 0;
  next_as[to_as] = to_as;
  std::deque<AsNumber> queue{to_as};
  while (!queue.empty()) {
    const AsNumber current = queue.front();
    queue.pop_front();
    if (policy.stub_ases.contains(current) && current != to_as) continue;
    const auto it = adjacency.find(current);
    if (it == adjacency.end()) continue;
    for (const AsNumber peer : it->second) {
      if (distance[peer] == -1) {
        distance[peer] = distance[current] + 1;
        next_as[peer] = current;
        queue.push_back(peer);
      } else if (distance[peer] == distance[current] + 1 &&
                 current < next_as[peer]) {
        next_as[peer] = current;
      }
    }
  }
  return next_as;
}

/// Hierarchical mode: BFS over the core ASes only; stub peers are skipped.
std::map<AsNumber, AsNumber> ReferenceNextAsCore(
    const std::vector<AsNumber>& core, const ReferenceAdjacency& adjacency,
    const BgpPolicy& policy, AsNumber to_as) {
  std::map<AsNumber, int> distance;
  std::map<AsNumber, AsNumber> next_as;
  for (const AsNumber asn : core) {
    distance[asn] = -1;
    next_as[asn] = 0;
  }
  distance[to_as] = 0;
  next_as[to_as] = to_as;
  std::deque<AsNumber> queue{to_as};
  while (!queue.empty()) {
    const AsNumber current = queue.front();
    queue.pop_front();
    const auto it = adjacency.find(current);
    if (it == adjacency.end()) continue;
    for (const AsNumber peer : it->second) {
      if (policy.stub_ases.contains(peer)) continue;
      if (distance[peer] == -1) {
        distance[peer] = distance[current] + 1;
        next_as[peer] = current;
        queue.push_back(peer);
      } else if (distance[peer] == distance[current] + 1 &&
                 current < next_as[peer]) {
        next_as[peer] = current;
      }
    }
  }
  return next_as;
}

std::map<AsNumber, std::map<AsNumber, AsNumber>> ReferenceNextFor(
    const Topology& t, const BgpPolicy& policy) {
  const ReferenceAdjacency adjacency = BuildReferenceAdjacency(t);
  std::map<AsNumber, std::map<AsNumber, AsNumber>> next_for;
  if (!policy.hierarchical) {
    for (const AsNumber to_as : t.AsNumbers()) {
      next_for[to_as] = ReferenceNextAs(t, adjacency, policy, to_as);
    }
    return next_for;
  }
  std::vector<AsNumber> core;
  for (const AsNumber asn : t.AsNumbers()) {
    if (!policy.stub_ases.contains(asn)) core.push_back(asn);
  }
  std::sort(core.begin(), core.end());
  for (const AsNumber to_as : core) {
    next_for[to_as] = ReferenceNextAsCore(core, adjacency, policy, to_as);
  }
  return next_for;
}

/// Compares every next_for row of ComputeBgpLevel with the oracle.
void ExpectNextForMatchesReference(const Topology& t,
                                   const BgpPolicy& policy) {
  const auto want = ReferenceNextFor(t, policy);
  const BgpLevel level = ComputeBgpLevel(t, policy);
  ASSERT_EQ(level.next_for.size(), want.size());
  for (const auto& [to_as, row] : want) {
    const auto it = level.next_for.find(to_as);
    ASSERT_NE(it, level.next_for.end()) << "no row for AS " << to_as;
    EXPECT_EQ(it->second, row) << "row for AS " << to_as;
  }
}

/// The shape of the tiny worlds tests/test_convergence_parity.cpp flaps.
gen::InternetOptions TinyWorld(bool hierarchical) {
  gen::InternetOptions options;
  options.seed = 11;
  options.tier1_count = 2;
  options.transit_count = 2;
  options.stub_count = hierarchical ? 4 : 3;
  options.tier1_routers = 5;
  options.transit_routers = 4;
  options.stub_routers = 2;
  options.vp_count = 2;
  options.hierarchical = hierarchical;
  return options;
}

TEST(BgpNextFor, MatchesReferenceOnFlatWorldWithStubPolicy) {
  const gen::SyntheticInternet world(TinyWorld(/*hierarchical=*/false));
  ASSERT_FALSE(world.bgp_policy().hierarchical);
  ASSERT_FALSE(world.bgp_policy().stub_ases.empty());
  ExpectNextForMatchesReference(world.topology(), world.bgp_policy());
}

TEST(BgpNextFor, MatchesReferenceOnHierarchicalTinyWorld) {
  const gen::SyntheticInternet world(TinyWorld(/*hierarchical=*/true));
  ASSERT_TRUE(world.bgp_policy().hierarchical);
  ExpectNextForMatchesReference(world.topology(), world.bgp_policy());
}

TEST(BgpNextFor, MatchesReferenceOnHierarchical9kWorld) {
  // The ~8.5k-router hierarchical world of perfbench's churn-9k workload.
  gen::InternetOptions options;
  options.seed = 42;
  options.hierarchical = true;
  options.vp_count = 4;
  options.tier1_count = 2;
  options.transit_count = 40;
  options.transit_routers = 32;
  options.stub_count = 2400;
  const gen::SyntheticInternet world(options);
  ASSERT_GT(world.topology().router_count(), 8000u);
  ExpectNextForMatchesReference(world.topology(), world.bgp_policy());
}

/// One router per AS, one link per listed AS pair.
Topology AsChain(const std::vector<AsNumber>& ases,
                 const std::vector<std::pair<AsNumber, AsNumber>>& links) {
  Topology t;
  std::map<AsNumber, RouterId> router_of;
  for (const AsNumber asn : ases) {
    t.AddAs(asn, "as" + std::to_string(asn));
    router_of[asn] =
        t.AddRouter(asn, "r" + std::to_string(asn), Vendor::kCiscoIos);
  }
  for (const auto& [a, b] : links) t.AddLink(router_of[a], router_of[b]);
  return t;
}

TEST(BgpNextFor, EqualLengthTieGoesToLowerAsnNotFirstReached) {
  // From AS 10, AS 1 is three AS hops away via 9-2 and via 4-3. The BFS
  // from AS 1 reaches 10 first through 9 (2 is dequeued before 3), but
  // the lower next ASN, 4, must win.
  const Topology t = AsChain({1, 2, 3, 4, 9, 10},
                             {{1, 2}, {1, 3}, {2, 9}, {3, 4}, {9, 10},
                              {4, 10}});
  const BgpLevel level = ComputeBgpLevel(t, {});
  EXPECT_EQ(level.next_for.at(1).at(10), 4u);
  EXPECT_EQ(level.next_for.at(1).at(2), 1u);
  EXPECT_EQ(level.next_for.at(1).at(1), 1u);
  EXPECT_EQ(BgpNextAs(t, {}, 10, 1), 4u);
  ExpectNextForMatchesReference(t, {});
}

TEST(BgpNextFor, UnreachableAsMapsToZero) {
  const Topology t = AsChain({1, 2, 7}, {{1, 2}});
  const BgpLevel level = ComputeBgpLevel(t, {});
  EXPECT_EQ(level.next_for.at(1).at(7), 0u);
  EXPECT_EQ(level.next_for.at(7).at(1), 0u);
  EXPECT_EQ(level.next_for.at(7).at(7), 7u);
  EXPECT_TRUE(level.Of(7).table.entries().empty());
  EXPECT_EQ(BgpNextAs(t, {}, 1, 7), 0u);
  ExpectNextForMatchesReference(t, {});
}

TEST(BgpNextFor, StubIsReachedAsDestinationButNeverTransits) {
  BgpPolicy policy;
  policy.stub_ases = {2};
  const Topology t = AsChain({1, 2, 3}, {{1, 2}, {2, 3}});
  const BgpLevel level = ComputeBgpLevel(t, policy);
  EXPECT_EQ(level.next_for.at(2).at(1), 2u);
  EXPECT_EQ(level.next_for.at(2).at(3), 2u);
  EXPECT_EQ(level.next_for.at(3).at(1), 0u);
  EXPECT_EQ(level.next_for.at(1).at(3), 0u);
  EXPECT_EQ(level.next_for.at(3).at(2), 3u);
  EXPECT_EQ(BgpNextAs(t, policy, 1, 3), 0u);
  ExpectNextForMatchesReference(t, policy);
}

}  // namespace
}  // namespace wormhole::routing
