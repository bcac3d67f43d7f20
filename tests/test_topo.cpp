#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
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
  EXPECT_FALSE(d.HasLink(n1, n1));  // n1 is node 0: its self key is 0
  d.RemoveLink(n1, n1);
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
    const std::vector<std::pair<NodeId, NodeId>> links = d.links();
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

// Reference model of ItdkDataset on ordered standard containers: the
// behaviour every storage layout of the dataset must reproduce.
struct DatasetModel {
  std::map<std::uint32_t, NodeId> node_of;
  std::vector<std::vector<Ipv4Address>> addresses;
  std::vector<AsNumber> asn;
  std::set<std::pair<NodeId, NodeId>> links;

  NodeId NodeOf(Ipv4Address address) {
    const auto [it, inserted] = node_of.emplace(
        address.value(), static_cast<NodeId>(addresses.size()));
    if (inserted) {
      addresses.push_back({address});
      asn.push_back(0);
    }
    return it->second;
  }
  /// False when the dataset must throw: `address` belongs to another node.
  bool AddAlias(NodeId node, Ipv4Address address) {
    const auto [it, inserted] = node_of.emplace(address.value(), node);
    if (inserted) addresses[node].push_back(address);
    return it->second == node;
  }
  void AddLink(NodeId a, NodeId b) {
    if (a != b) links.insert(std::minmax(a, b));
  }
  void RemoveLink(NodeId a, NodeId b) { links.erase(std::minmax(a, b)); }

  [[nodiscard]] std::vector<std::vector<NodeId>> Adjacency() const {
    std::vector<std::vector<NodeId>> adjacency(addresses.size());
    for (const auto& [a, b] : links) {
      adjacency[a].push_back(b);
      adjacency[b].push_back(a);
    }
    for (auto& neighbors : adjacency) {
      std::sort(neighbors.begin(), neighbors.end());
    }
    return adjacency;
  }
  /// The documented line format of ItdkDataset::Write.
  [[nodiscard]] std::string Written() const {
    std::ostringstream os;
    for (NodeId n = 0; n < addresses.size(); ++n) {
      os << "node N" << n << ":";
      for (const Ipv4Address address : addresses[n]) os << ' ' << address;
      os << '\n';
    }
    for (NodeId n = 0; n < asn.size(); ++n) {
      if (asn[n] != 0) os << "node.AS N" << n << ' ' << asn[n] << '\n';
    }
    for (const auto& [a, b] : links) os << "link N" << a << " N" << b << '\n';
    return os.str();
  }
};

void ExpectMatchesModel(const ItdkDataset& d, const DatasetModel& m,
                        netbase::Rng& rng, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(d.node_count(), m.addresses.size());
  EXPECT_EQ(d.link_count(), m.links.size());
  for (const auto& [value, node] : m.node_of) {
    EXPECT_EQ(d.FindNode(Ipv4Address(value)), node) << Ipv4Address(value);
  }
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t value = rng.UniformU32();
    if (!m.node_of.contains(value)) {
      EXPECT_EQ(d.FindNode(Ipv4Address(value)), std::nullopt);
    }
  }
  const auto adjacency = m.Adjacency();
  for (NodeId n = 0; n < adjacency.size(); ++n) {
    EXPECT_EQ(d.node(n).addresses, m.addresses[n]) << "node " << n;
    EXPECT_EQ(d.node(n).asn, m.asn[n]) << "node " << n;
    EXPECT_EQ(d.Degree(n), adjacency[n].size()) << "node " << n;
    std::vector<NodeId> neighbors(d.NeighborsOf(n).begin(),
                                  d.NeighborsOf(n).end());
    std::sort(neighbors.begin(), neighbors.end());
    EXPECT_EQ(neighbors, adjacency[n]) << "node " << n;
  }
  for (const auto& [a, b] : m.links) {
    EXPECT_TRUE(d.HasLink(a, b) && d.HasLink(b, a)) << a << "-" << b;
  }
  if (!adjacency.empty()) {
    const int last = static_cast<int>(adjacency.size()) - 1;
    for (int i = 0; i < 256; ++i) {
      const auto a = static_cast<NodeId>(rng.UniformInt(0, last));
      const auto b = static_cast<NodeId>(rng.UniformInt(0, last));
      EXPECT_EQ(d.HasLink(a, b), m.links.contains(std::minmax(a, b)))
          << a << "-" << b;
    }
  }
  const auto links = d.links();
  EXPECT_TRUE(std::equal(links.begin(), links.end(), m.links.begin(),
                         m.links.end()));
  std::ostringstream written;
  d.Write(written);
  EXPECT_EQ(written.str(), m.Written());
}

TEST(ItdkDataset, MatchesOrderedReferenceModel) {
  netbase::Rng rng(20171101);
  ItdkDataset d;
  DatasetModel m;
  // A dense address block (so lookups hit), the two extreme addresses and
  // a few scattered ones; the first NodeOf makes 0.0.0.0 node 0.
  const auto random_address = [&] {
    switch (rng.UniformInt(0, 9)) {
      case 0:
        return Ipv4Address(rng.Chance(0.5) ? 0u : 0xFFFFFFFFu);
      case 1:
        return Ipv4Address(rng.UniformU32());
      default:
        return Ipv4Address(0x0A000000u +
                           static_cast<std::uint32_t>(rng.UniformInt(0, 2999)));
    }
  };
  ASSERT_EQ(d.NodeOf(Ipv4Address(0u)), m.NodeOf(Ipv4Address(0u)));
  const auto random_node = [&] {
    // Node 0 often, to cover the id that zero-initialised storage holds.
    if (rng.Chance(0.05)) return NodeId{0};
    return static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int>(m.addresses.size()) - 1));
  };
  std::vector<std::pair<NodeId, NodeId>> removed;
  // Empty until step 2000, then a snapshot the source must not reach.
  ItdkDataset copy;
  DatasetModel copy_model;
  for (int step = 1; step <= 6000; ++step) {
    const int op = rng.UniformInt(0, 99);
    if (op < 25) {
      const Ipv4Address address = random_address();
      ASSERT_EQ(d.NodeOf(address), m.NodeOf(address)) << address;
    } else if (op < 35) {
      const NodeId node = random_node();
      const Ipv4Address address = random_address();
      if (m.AddAlias(node, address)) {
        d.AddAlias(node, address);
      } else {
        EXPECT_THROW(d.AddAlias(node, address), std::logic_error);
      }
    } else if (op < 75) {
      const NodeId a = random_node();
      const NodeId b = rng.Chance(0.02) ? a : random_node();
      d.AddLink(a, b);
      m.AddLink(a, b);
    } else if (op < 85 && !m.links.empty()) {
      // Remove an existing link (either orientation), remembered for a
      // later re-add.
      auto it = m.links.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int>(std::min<std::size_t>(
                                             m.links.size() - 1, 50))));
      const auto [a, b] = *it;
      if (rng.Chance(0.5)) {
        d.RemoveLink(a, b);
      } else {
        d.RemoveLink(b, a);
      }
      m.RemoveLink(a, b);
      removed.emplace_back(a, b);
    } else if (op < 90) {
      const NodeId a = random_node();
      const NodeId b = random_node();
      d.RemoveLink(a, b);  // usually absent: a no-op
      m.RemoveLink(a, b);
    } else if (op < 97 && !removed.empty()) {
      const auto [a, b] = removed[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(removed.size()) - 1))];
      d.AddLink(b, a);
      m.AddLink(b, a);
    } else {
      const NodeId node = random_node();
      const auto asn = static_cast<AsNumber>(rng.UniformInt(0, 70000));
      d.SetAs(node, asn);
      m.asn[node] = asn;
    }

    if (step % 1000 == 0) {
      ExpectMatchesModel(d, m, rng, "step " + std::to_string(step));
      ExpectMatchesModel(copy, copy_model, rng,
                         "copy at step " + std::to_string(step));
    }
    if (step == 2000) {
      // From here on the source moves on; the copy must not follow.
      copy = d;
      copy_model = m;
    }
    if (step == 4000) {
      // ...nor the source follow the copy.
      const auto [ra, rb] = *copy_model.links.begin();
      const auto last = static_cast<NodeId>(copy_model.addresses.size() - 1);
      const Ipv4Address alias(0xC0000201u), fresh(0xC0000202u);
      ASSERT_TRUE(copy_model.AddAlias(0, alias));
      copy_model.AddLink(0, last);
      copy_model.RemoveLink(ra, rb);
      copy_model.NodeOf(fresh);
      copy.AddAlias(0, alias);
      copy.AddLink(0, last);
      copy.RemoveLink(ra, rb);
      copy.NodeOf(fresh);
      ExpectMatchesModel(d, m, rng, "source after copy mutation");
      ExpectMatchesModel(copy, copy_model, rng, "mutated copy");
    }
  }
  // The run must have outgrown any small initial table several times.
  EXPECT_GT(m.addresses.size(), 1000u);
  EXPECT_GT(m.links.size(), 1000u);
  EXPECT_FALSE(removed.empty());
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

/// What ItdkDataset::Read throws on `text` ("" if it parses). Any other
/// exception type escapes and fails the calling test.
std::string ReadError(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)ItdkDataset::Read(in);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

constexpr const char* kTwoNodes =
    "# two nodes\nnode N0: 5.0.0.1\nnode N1: 5.0.0.2 5.0.0.3\n";

TEST(ItdkDatasetRead, AcceptsWellFormedInput) {
  EXPECT_EQ(ReadError(std::string(kTwoNodes) +
                      "\n  \nnode.AS N1 65001\nlink N0 N1\n"),
            "");
}

TEST(ItdkDatasetRead, RejectsNodeReferenceWithoutDigits) {
  const std::string error = ReadError("node N: 5.0.0.1\n");
  EXPECT_NE(error.find("line 1: bad node reference"), std::string::npos)
      << error;
  EXPECT_NE(ReadError(std::string(kTwoNodes) + "link N0 N\n")
                .find("line 4: bad node reference"),
            std::string::npos);
  EXPECT_NE(ReadError("node 7: 5.0.0.1\n").find("line 1:"),
            std::string::npos);
  EXPECT_NE(ReadError("node N1x: 5.0.0.1\n").find("line 1:"),
            std::string::npos);
}

TEST(ItdkDatasetRead, RejectsNodeIdsBeyond32Bits) {
  // 2^32 used to wrap silently to node 0.
  EXPECT_EQ(ReadError("node N4294967295: 5.0.0.1\n"), "");
  const std::string error = ReadError("node N4294967296: 5.0.0.1\n");
  EXPECT_NE(error.find("line 1: bad node reference"), std::string::npos)
      << error;
}

TEST(ItdkDatasetRead, RejectsReferencesToUndeclaredNodes) {
  const std::string error = ReadError(std::string(kTwoNodes) + "link N0 N7\n");
  EXPECT_NE(error.find("line 4: undeclared node N7"), std::string::npos)
      << error;
  EXPECT_NE(ReadError(std::string(kTwoNodes) + "node.AS N2 1\n")
                .find("line 4: undeclared node N2"),
            std::string::npos);
}

TEST(ItdkDatasetRead, RejectsBadAsNumbers) {
  // "abc" used to record AS 0 silently.
  for (const char* asn : {"abc", "-1", "12x", "4294967296", ""}) {
    const std::string error =
        ReadError(std::string(kTwoNodes) + "node.AS N0 " + asn + "\n");
    EXPECT_NE(error.find("line 4:"), std::string::npos)
        << "'" << asn << "': " << error;
  }
}

TEST(ItdkDatasetRead, RejectsOtherMalformedLines) {
  for (const char* bad :
       {"node N2:\n", "node N2: 5.0.0.300\n", "node N0: 5.0.0.9\n",
        "node N2: 5.0.0.1\n", "node N2: 5.0.0.9 5.0.0.9\n", "link N0\n",
        "link N0 N1 N1\n", "edge N0 N1\n"}) {
    const std::string error = ReadError(std::string(kTwoNodes) + bad);
    EXPECT_NE(error.find("line 4:"), std::string::npos)
        << "'" << bad << "': " << error;
  }
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
