#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <sstream>
#include <vector>

#include "netbase/rng.h"
#include "topo/itdk.h"
#include "topo/topology.h"

namespace wormhole::topo {
namespace {

Topology TwoAsChain() {
  // AS1: a - b; AS2: c; link b-c is inter-AS.
  Topology t;
  t.AddAs(1, "one");
  t.AddAs(2, "two");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  t.AddRouter(1, "b", Vendor::kJuniperJunos);
  t.AddRouter(2, "c", Vendor::kCiscoIos);
  t.AddLink(0, 1);
  t.AddLink(1, 2);
  return t;
}

TEST(Topology, AllocatesDisjointBlocksPerAs) {
  const Topology t = TwoAsChain();
  const Prefix b1 = t.as(1).block;
  const Prefix b2 = t.as(2).block;
  EXPECT_EQ(b1.length(), 16);
  EXPECT_FALSE(b1.Contains(b2));
  EXPECT_FALSE(b2.Contains(b1));
}

TEST(Topology, LoopbacksAndInterfacesAreAddressable) {
  const Topology t = TwoAsChain();
  const Router& a = t.router(0);
  EXPECT_TRUE(t.as(1).block.Contains(a.loopback));
  EXPECT_EQ(t.FindRouterByAddress(a.loopback), std::optional<RouterId>(0));
  for (const InterfaceId iid : a.interfaces) {
    EXPECT_EQ(t.FindRouterByAddress(t.interface(iid).address),
              std::optional<RouterId>(0));
  }
}

TEST(Topology, RejectsDuplicateAsAndRouterNames) {
  Topology t;
  t.AddAs(1, "one");
  EXPECT_THROW(t.AddAs(1, "again"), std::invalid_argument);
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  EXPECT_THROW(t.AddRouter(1, "a", Vendor::kCiscoIos),
               std::invalid_argument);
  EXPECT_THROW(t.AddRouter(9, "b", Vendor::kCiscoIos),
               std::invalid_argument);
}

TEST(Topology, RejectsSelfLoops) {
  Topology t;
  t.AddAs(1, "one");
  t.AddRouter(1, "a", Vendor::kCiscoIos);
  EXPECT_THROW(t.AddLink(0, 0), std::invalid_argument);
}

TEST(Topology, LinkEndsAndNeighbors) {
  const Topology t = TwoAsChain();
  const RouterId a = 0, b = 1, c = 2;
  EXPECT_EQ(t.Neighbor(0, a), b);
  EXPECT_EQ(t.Neighbor(0, b), a);
  EXPECT_EQ(t.EndOn(0, a).router, a);
  EXPECT_EQ(t.OtherEnd(0, a).router, b);
  const auto neighbors_b = t.Neighbors(b);
  ASSERT_EQ(neighbors_b.size(), 2u);
  EXPECT_THROW((void)t.EndOn(0, c), std::invalid_argument);
}

TEST(Topology, InternalLinkDetection) {
  const Topology t = TwoAsChain();
  EXPECT_TRUE(t.IsInternalLink(0));   // a-b inside AS1
  EXPECT_FALSE(t.IsInternalLink(1));  // b-c crosses
}

TEST(Topology, InternalPrefixesExcludeInterAsSubnets) {
  const Topology t = TwoAsChain();
  const auto prefixes = t.InternalPrefixes(1);
  // Two loopbacks + one internal /31.
  EXPECT_EQ(prefixes.size(), 3u);
  const Prefix inter_as = t.link(1).subnet;
  for (const Prefix& p : prefixes) EXPECT_NE(p, inter_as);
}

TEST(Topology, HostsAttachBehindGateways) {
  Topology t = TwoAsChain();
  const Ipv4Address vp = t.AttachHost(0, "VP");
  const Host* host = t.FindHost(vp);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->gateway, 0u);
  // The gateway side of the stub is the even twin of the host address.
  const Interface& stub = t.interface(host->stub_interface);
  EXPECT_EQ(stub.address.value() + 1, vp.value());
  EXPECT_TRUE(stub.subnet.Contains(vp));
  // The stub does not create a router adjacency.
  EXPECT_EQ(t.Neighbors(0).size(), 1u);
}

TEST(Topology, ConnectedPrefixesCoverLoopbackLinksAndStubs) {
  Topology t = TwoAsChain();
  t.AttachHost(0, "VP");
  const auto prefixes = t.ConnectedPrefixes(0);
  // loopback + link a-b + host stub
  EXPECT_EQ(prefixes.size(), 3u);
}

TEST(ItdkDataset, NodesAliasesLinks) {
  ItdkDataset d;
  const NodeId n1 = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  const NodeId n2 = d.NodeOf(Ipv4Address(5, 0, 0, 2));
  EXPECT_NE(n1, n2);
  d.AddAlias(n1, Ipv4Address(5, 0, 0, 3));
  EXPECT_EQ(d.NodeOf(Ipv4Address(5, 0, 0, 3)), n1);
  EXPECT_THROW(d.AddAlias(n2, Ipv4Address(5, 0, 0, 3)), std::logic_error);

  d.AddLink(n1, n2);
  d.AddLink(n2, n1);  // idempotent
  d.AddLink(n1, n1);  // ignored
  EXPECT_EQ(d.link_count(), 1u);
  EXPECT_EQ(d.Degree(n1), 1u);
  EXPECT_TRUE(d.HasLink(n1, n2));
  d.RemoveLink(n1, n2);
  EXPECT_FALSE(d.HasLink(n1, n2));
  EXPECT_EQ(d.Degree(n1), 0u);
}

TEST(ItdkDataset, DegreeDistributionAndHdns) {
  ItdkDataset d;
  // A star: hub with 5 spokes.
  const NodeId hub = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  for (int i = 2; i <= 6; ++i) {
    d.AddLink(hub, d.NodeOf(Ipv4Address(5, 0, 0, static_cast<uint8_t>(i))));
  }
  const auto dist = d.DegreeDistribution();
  EXPECT_EQ(dist.CountOf(5), 1u);
  EXPECT_EQ(dist.CountOf(1), 5u);
  const auto hdns = d.HighDegreeNodes(5);
  ASSERT_EQ(hdns.size(), 1u);
  EXPECT_EQ(hdns[0], hub);
}

TEST(ItdkDataset, DensityOfSubset) {
  ItdkDataset d;
  const NodeId a = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  const NodeId b = d.NodeOf(Ipv4Address(5, 0, 0, 2));
  const NodeId c = d.NodeOf(Ipv4Address(5, 0, 0, 3));
  d.AddLink(a, b);
  d.AddLink(b, c);
  d.AddLink(a, c);
  EXPECT_DOUBLE_EQ(d.Density({a, b, c}), 1.0);
  d.RemoveLink(a, c);
  EXPECT_DOUBLE_EQ(d.Density({a, b, c}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(d.Density({a}), 0.0);
}

// Brute-force density: every link of the whole graph checked against the
// node set — the definition Density must reproduce.
double DensityByLinkScan(const ItdkDataset& d,
                         const std::vector<NodeId>& nodes) {
  const std::set<NodeId> in_set(nodes.begin(), nodes.end());
  if (in_set.size() < 2) return 0.0;
  std::size_t edges = 0;
  for (const auto& [a, b] : d.links()) {
    if (in_set.contains(a) && in_set.contains(b)) ++edges;
  }
  const double v = static_cast<double>(in_set.size());
  return 2.0 * static_cast<double>(edges) / (v * (v - 1.0));
}

TEST(ItdkDataset, DensityMatchesLinkScanOnRandomGraphs) {
  netbase::Rng rng(20170912);
  for (int round = 0; round < 40; ++round) {
    ItdkDataset d;
    // Rounds 0 and 1 are the empty and the one-node graph.
    const int n = round < 2 ? round : rng.UniformInt(2, 60);
    for (int i = 0; i < n; ++i) {
      d.NodeOf(Ipv4Address(static_cast<std::uint32_t>(0x0A000001 + i)));
    }
    // Sparse to dense; the last fifth of the nodes stays isolated.
    const double p = 0.02 + 0.5 * static_cast<double>(round % 5) / 4.0;
    const int connected = n - n / 5;
    for (int a = 0; a < connected; ++a) {
      for (int b = a + 1; b < connected; ++b) {
        if (rng.Chance(p)) d.AddLink(a, b);
      }
    }
    const auto random_subset = [&] {
      std::vector<NodeId> nodes;
      const int size = n == 0 ? 0 : rng.UniformInt(0, 2 * n);
      for (int i = 0; i < size; ++i) {
        nodes.push_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)));
      }
      return nodes;
    };
    const auto check = [&](const std::vector<NodeId>& nodes) {
      EXPECT_EQ(d.Density(nodes), DensityByLinkScan(d, nodes))
          << "round " << round << ", " << nodes.size() << " nodes";
    };
    std::vector<NodeId> all(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
    check(all);
    check({});
    if (n > 0) check({static_cast<NodeId>(rng.UniformInt(0, n - 1))});
    for (int s = 0; s < 8; ++s) check(random_subset());
    // Deflate: drop about a third of the links, then probe again.
    const std::vector<std::pair<NodeId, NodeId>> links(d.links().begin(),
                                                       d.links().end());
    for (const auto& [a, b] : links) {
      if (rng.Chance(1.0 / 3.0)) d.RemoveLink(b, a);
    }
    check(all);
    for (int s = 0; s < 8; ++s) check(random_subset());
  }
}

TEST(ItdkDataset, DensityCountsDistinctNodes) {
  ItdkDataset d;
  const NodeId a = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  const NodeId b = d.NodeOf(Ipv4Address(5, 0, 0, 2));
  const NodeId isolated = d.NodeOf(Ipv4Address(5, 0, 0, 3));
  d.AddLink(a, b);
  EXPECT_DOUBLE_EQ(d.Density({a, b, a, b}), 1.0);
  EXPECT_DOUBLE_EQ(d.Density({a, a}), 0.0);
  EXPECT_DOUBLE_EQ(d.Density({}), 0.0);
  EXPECT_DOUBLE_EQ(d.Density({a, b, isolated}), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(d.Density({isolated, isolated, a}), 0.0);
}

TEST(ItdkDataset, SerializationRoundTrip) {
  ItdkDataset d;
  const NodeId a = d.NodeOf(Ipv4Address(5, 0, 0, 1));
  d.AddAlias(a, Ipv4Address(5, 0, 0, 9));
  const NodeId b = d.NodeOf(Ipv4Address(5, 1, 0, 1));
  d.AddLink(a, b);
  d.SetAs(a, 65001);
  d.SetAs(b, 65002);

  std::stringstream ss;
  d.Write(ss);
  const ItdkDataset back = ItdkDataset::Read(ss);
  EXPECT_EQ(back.node_count(), 2u);
  EXPECT_EQ(back.link_count(), 1u);
  const auto fa = back.FindNode(Ipv4Address(5, 0, 0, 9));
  ASSERT_TRUE(fa.has_value());
  EXPECT_EQ(back.node(*fa).asn, 65001u);
}

TEST(GroundTruthDataset, MatchesTopology) {
  Topology t = TwoAsChain();
  const ItdkDataset d = GroundTruthDataset(t);
  EXPECT_EQ(d.node_count(), t.router_count());
  EXPECT_EQ(d.link_count(), t.link_count());
  // Interface addresses alias to their router's node.
  const auto n0 = d.FindNode(t.router(0).loopback);
  ASSERT_TRUE(n0.has_value());
  for (const InterfaceId iid : t.router(0).interfaces) {
    EXPECT_EQ(d.FindNode(t.interface(iid).address), n0);
  }
  EXPECT_EQ(d.node(*n0).asn, 1u);
}

}  // namespace
}  // namespace wormhole::topo
