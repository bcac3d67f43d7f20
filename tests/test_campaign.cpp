// Integration tests of the full measurement pipeline against ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "analysis/campaign_report.h"
#include "analysis/correct.h"
#include "analysis/tables.h"
#include "campaign/campaign.h"
#include "campaign/crossval.h"
#include "gen/internet.h"

namespace wormhole::campaign {
namespace {

// One shared campaign over the default synthetic Internet (runs in well
// under a second).
class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new gen::SyntheticInternet({.seed = 7});
    Campaign campaign(net_->engine(), net_->vantage_points(), {});
    result_ = new CampaignResult(campaign.Run(net_->AllLoopbacks()));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete net_;
    net_ = nullptr;
    result_ = nullptr;
  }
  static gen::SyntheticInternet* net_;
  static CampaignResult* result_;
};

gen::SyntheticInternet* CampaignTest::net_ = nullptr;
CampaignResult* CampaignTest::result_ = nullptr;

TEST_F(CampaignTest, FindsHdnsAndTargets) {
  EXPECT_GT(result_->targets.hdns.size(), 0u);
  EXPECT_GT(result_->targets.all.size(), 0u);
  EXPECT_GE(result_->targets.set_a.size() + result_->targets.set_b.size(),
            result_->targets.all.size());
}

TEST_F(CampaignTest, RevealsTunnels) {
  EXPECT_GT(result_->revelations.size(), 0u);
  EXPECT_GT(result_->revealed_count(), 0u);
}

TEST_F(CampaignTest, RevelationsOnlyInInvisiblePhpAses) {
  for (const auto& [pair, revelation] : result_->revelations) {
    const topo::AsNumber asn =
        net_->topology().AsOfAddress(pair.egress);
    ASSERT_NE(asn, 0u);
    const gen::AsProfile& profile = net_->profile(asn);
    if (revelation.succeeded()) {
      EXPECT_TRUE(profile.invisible_tunnels())
          << "revealed a tunnel in visible AS" << asn;
      EXPECT_EQ(profile.popping, mpls::Popping::kPhp);
    }
  }
}

TEST_F(CampaignTest, EveryCandidateInInvisiblePhpAsIsRevealed) {
  // The paper's claim: PHP + LDP implies at least one technique works.
  for (const auto& [pair, revelation] : result_->revelations) {
    const topo::AsNumber asn = net_->topology().AsOfAddress(pair.egress);
    const gen::AsProfile& profile = net_->profile(asn);
    if (profile.invisible_tunnels() &&
        profile.popping == mpls::Popping::kPhp) {
      EXPECT_TRUE(revelation.succeeded())
          << "unrevealed PHP tunnel in AS" << asn;
    }
  }
}

TEST_F(CampaignTest, RevealedHopsAreTrueRouterAddressesOfTheSameAs) {
  for (const auto& [pair, revelation] : result_->revelations) {
    if (!revelation.succeeded()) continue;
    const topo::AsNumber asn = net_->topology().AsOfAddress(pair.egress);
    for (const netbase::Ipv4Address hop : revelation.revealed) {
      const auto router = net_->topology().FindRouterByAddress(hop);
      ASSERT_TRUE(router.has_value());
      EXPECT_EQ(net_->topology().router(*router).asn, asn);
    }
  }
}

TEST_F(CampaignTest, RevealedPathMatchesGroundTruthAdjacency) {
  // Consecutive revealed hops (plus the LER endpoints) must be physically
  // adjacent routers — the revelation reconstructs a real path.
  const topo::Topology& topology = net_->topology();
  const auto router_of = [&](netbase::Ipv4Address a) {
    return *topology.FindRouterByAddress(a);
  };
  const auto adjacent = [&](topo::RouterId a, topo::RouterId b) {
    for (const auto& [neighbor, link] : topology.Neighbors(a)) {
      if (neighbor == b) return true;
    }
    return false;
  };
  for (const auto& [pair, revelation] : result_->revelations) {
    if (!revelation.succeeded()) continue;
    std::vector<topo::RouterId> chain{router_of(pair.ingress)};
    for (const auto hop : revelation.revealed) {
      chain.push_back(router_of(hop));
    }
    chain.push_back(router_of(pair.egress));
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      EXPECT_TRUE(adjacent(chain[i], chain[i + 1]))
          << "non-adjacent revealed hop pair";
    }
  }
}

TEST_F(CampaignTest, MethodMixMatchesLdpPolicies) {
  // Cisco-profile (all-prefix) ASes must be peeled by BRPR, Juniper-profile
  // (loopback-only) ones by DPR; single-LSR tunnels stay ambiguous.
  for (const auto& [pair, revelation] : result_->revelations) {
    if (!revelation.succeeded()) continue;
    if (revelation.method == reveal::RevelationMethod::kEither) continue;
    const topo::AsNumber asn = net_->topology().AsOfAddress(pair.egress);
    const gen::AsProfile& profile = net_->profile(asn);
    if (profile.hardware == gen::HardwareProfile::kCisco) {
      EXPECT_EQ(revelation.method, reveal::RevelationMethod::kBrpr)
          << "AS" << asn;
    }
    if (profile.hardware == gen::HardwareProfile::kJuniper ||
        profile.hardware == gen::HardwareProfile::kMixed) {
      EXPECT_EQ(revelation.method, reveal::RevelationMethod::kDpr)
          << "AS" << asn;
    }
  }
}

TEST(CampaignFrpla, ShiftsPositiveOnRevealedEgresses) {
  // FRPLA needs egress LERs whose time-exceeded replies start at 255 — for
  // a <128,128> or <64,64> egress the return LSE-TTL (from 255) always
  // exceeds the reply's IP-TTL, the min rule never fires, and the return
  // tunnel stays uncounted (a real limitation, see Table 1 discussion).
  // Use a Cisco/Juniper world, as in the paper's Fig. 7.
  gen::InternetOptions options;
  options.seed = 7;
  options.cisco_weight = 0.55;
  options.juniper_weight = 0.45;
  options.mixed_weight = 0.0;
  options.other_weight = 0.0;
  gen::SyntheticInternet net(options);
  Campaign campaign(net.engine(), net.vantage_points(), {});
  const CampaignResult result = campaign.Run(net.AllLoopbacks());

  const auto egress =
      result.frpla.Combined(reveal::ResponderRole::kEgressRevealed);
  const auto others = result.frpla.Combined(reveal::ResponderRole::kOther);
  ASSERT_FALSE(egress.empty());
  ASSERT_FALSE(others.empty());
  // Fig. 7a: the egress PDF shifts right of the others.
  EXPECT_GE(egress.Median(), others.Median() + 1);
  EXPECT_GT(egress.Mean(), others.Mean());
  EXPECT_LE(std::abs(others.Mean()), 1.5);
}

TEST_F(CampaignTest, RtlaMatchesRevealedTunnelLengths) {
  // Fig. 9b: return tunnel length (RTLA) minus forward tunnel length
  // (revealed) centres near 0 when routing is near-symmetric.
  netbase::IntDistribution asymmetry;
  for (const CandidateRecord& record : result_->candidates) {
    if (!record.revealed || !record.egress_echo_ttl) continue;
    const auto obs = reveal::ObserveRtla(
        record.pair.egress, record.egress_return_ttl,
        *record.egress_echo_ttl);
    if (!obs) continue;
    asymmetry.Add(obs->return_tunnel_length() - record.revealed_count);
  }
  if (!asymmetry.empty()) {
    EXPECT_LE(std::abs(asymmetry.Median()), 1);
  }
}

TEST_F(CampaignTest, PathLengthsGrowAfterCorrection) {
  ASSERT_FALSE(result_->path_length_invisible.empty());
  EXPECT_GT(result_->path_length_visible.Mean(),
            result_->path_length_invisible.Mean());
}

TEST_F(CampaignTest, CorrectionReducesDegreeAndDensity) {
  const auto corrected = analysis::CorrectedCopy(
      result_->inferred, result_->revelations,
      TruthResolver(net_->topology()), net_->topology());
  // Max degree must not grow; at least one HDN deflates.
  const auto before = result_->inferred.DegreeDistribution();
  const auto after = corrected.DegreeDistribution();
  EXPECT_LE(after.Max(), before.Max());

  const auto rows = analysis::MakeDiscoveryTable(
      *result_, corrected, net_->topology(), 8);
  ASSERT_FALSE(rows.empty());
  bool any_denser_before = false;
  for (const auto& row : rows) {
    if (row.pct_revealed > 50.0 && row.density_before > row.density_after) {
      any_denser_before = true;
    }
  }
  EXPECT_TRUE(any_denser_before);
}

TEST_F(CampaignTest, DeploymentTableReflectsHardwareProfiles) {
  const auto rows =
      analysis::MakeDeploymentTable(*result_, net_->topology());
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    const gen::AsProfile& profile = net_->profile(row.asn);
    switch (profile.hardware) {
      case gen::HardwareProfile::kCisco:
        EXPECT_GT(row.pct_cisco, 80.0) << "AS" << row.asn;
        break;
      case gen::HardwareProfile::kJuniper:
        EXPECT_GT(row.pct_junos, 80.0) << "AS" << row.asn;
        break;
      case gen::HardwareProfile::kMixed:
        EXPECT_GT(row.pct_junos + row.pct_6464 + row.pct_cisco, 80.0);
        break;
      case gen::HardwareProfile::kOther:
        EXPECT_GT(row.pct_other + row.pct_6464, 50.0);
        break;
    }
    // Sane percentages.
    EXPECT_LE(row.pct_dpr + row.pct_brpr + row.pct_either + row.pct_hybrid,
              100.001);
  }
}

double PercentOf(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

// Reference Table 4: the per-AS loop, rescanning the whole HDN list for
// every row. Slow, but a direct transcription of each column's definition
// (Density itself is pinned against a link scan in test_topo.cpp); rows
// that tie on the sort key keep ascending AS order.
std::vector<analysis::DiscoveryRow> DiscoveryTableByPerAsScan(
    const CampaignResult& result, const topo::ItdkDataset& corrected,
    const topo::Topology& topology, std::size_t hdn_threshold) {
  struct Bucket {
    std::set<EndpointPair> pairs;
    std::set<EndpointPair> revealed_pairs;
    std::set<std::vector<netbase::Ipv4Address>> raw_lsps;
    std::set<netbase::Ipv4Address> lsr_ips;
    std::set<netbase::Ipv4Address> ler_ips;
    std::set<topo::NodeId> candidate_nodes;
  };
  std::map<topo::AsNumber, Bucket> buckets;
  for (const CandidateRecord& record : result.candidates) {
    Bucket& bucket = buckets[record.asn];
    bucket.pairs.insert(record.pair);
    bucket.ler_ips.insert(record.pair.ingress);
    bucket.ler_ips.insert(record.pair.egress);
    for (const auto address : {record.pair.ingress, record.pair.egress}) {
      if (const auto n = result.inferred.FindNode(address)) {
        bucket.candidate_nodes.insert(*n);
      }
    }
  }
  for (const auto& [pair, revelation] : result.revelations) {
    if (!revelation.succeeded()) continue;
    const auto node = result.inferred.FindNode(pair.egress);
    if (!node) continue;
    Bucket& bucket = buckets[result.inferred.node(*node).asn];
    bucket.revealed_pairs.insert(pair);
    bucket.raw_lsps.insert(revelation.revealed);
    bucket.lsr_ips.insert(revelation.revealed.begin(),
                          revelation.revealed.end());
  }

  std::vector<analysis::DiscoveryRow> rows;
  for (const auto& [asn, bucket] : buckets) {
    analysis::DiscoveryRow row;
    row.asn = asn;
    row.name = topology.HasAs(asn) ? topology.as(asn).name : "?";
    for (const topo::NodeId hdn : result.targets.hdns) {
      if (result.inferred.node(hdn).asn == asn) ++row.hdns_itdk;
    }
    for (const topo::NodeId node : bucket.candidate_nodes) {
      if (result.inferred.Degree(node) >= hdn_threshold) ++row.hdns_candidate;
    }
    row.ie_pairs = bucket.pairs.size();
    row.pct_revealed =
        PercentOf(bucket.revealed_pairs.size(), bucket.pairs.size());
    row.raw_lsps = bucket.raw_lsps.size();
    row.lsr_ips = bucket.lsr_ips.size();
    std::size_t also_ler = 0;
    for (const netbase::Ipv4Address ip : bucket.lsr_ips) {
      if (bucket.ler_ips.contains(ip)) ++also_ler;
    }
    row.pct_ips_lers = PercentOf(also_ler, bucket.lsr_ips.size());
    const std::vector<topo::NodeId> nodes(bucket.candidate_nodes.begin(),
                                          bucket.candidate_nodes.end());
    row.density_before = result.inferred.Density(nodes);
    row.density_after = corrected.Density(nodes);
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const analysis::DiscoveryRow& a,
                      const analysis::DiscoveryRow& b) {
                     return a.hdns_itdk > b.hdns_itdk;
                   });
  return rows;
}

void ExpectSameRows(const std::vector<analysis::DiscoveryRow>& actual,
                    const std::vector<analysis::DiscoveryRow>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const analysis::DiscoveryRow& a = actual[i];
    const analysis::DiscoveryRow& e = expected[i];
    SCOPED_TRACE("row " + std::to_string(i) + ", AS" + std::to_string(e.asn));
    EXPECT_EQ(a.asn, e.asn);
    EXPECT_EQ(a.name, e.name);
    EXPECT_EQ(a.hdns_itdk, e.hdns_itdk);
    EXPECT_EQ(a.hdns_candidate, e.hdns_candidate);
    EXPECT_EQ(a.ie_pairs, e.ie_pairs);
    EXPECT_EQ(a.pct_revealed, e.pct_revealed);
    EXPECT_EQ(a.raw_lsps, e.raw_lsps);
    EXPECT_EQ(a.lsr_ips, e.lsr_ips);
    EXPECT_EQ(a.pct_ips_lers, e.pct_ips_lers);
    EXPECT_EQ(a.density_before, e.density_before);
    EXPECT_EQ(a.density_after, e.density_after);
  }
}

TEST_F(CampaignTest, DiscoveryTableMatchesPerAsReference) {
  const auto corrected = analysis::CorrectedCopy(
      result_->inferred, result_->revelations,
      TruthResolver(net_->topology()), net_->topology());
  const auto rows =
      analysis::MakeDiscoveryTable(*result_, corrected, net_->topology(), 8);
  ASSERT_FALSE(rows.empty());
  ExpectSameRows(rows, DiscoveryTableByPerAsScan(*result_, corrected,
                                                 net_->topology(), 8));
}

TEST(DiscoveryTable, TiedRowsKeepAscendingAsOrder) {
  // 40 ASes, each with one candidate pair whose endpoints are linked. Every
  // fifth AS holds one HDN, every tenth a second, so 32 rows tie at 0 HDNs
  // — past the 16 rows up to which an unstable sort happens to keep order.
  constexpr topo::AsNumber kFirstAs = 100;
  constexpr topo::AsNumber kAsCount = 40;
  topo::Topology topology;
  topology.AddAs(kFirstAs + 3, "named");
  CampaignResult result;
  topo::ItdkDataset& inferred = result.inferred;
  // Candidates in descending AS order: the table must not depend on it.
  for (topo::AsNumber k = kAsCount; k-- > 0;) {
    const topo::AsNumber asn = kFirstAs + k;
    const auto octet = static_cast<std::uint8_t>(k);
    const EndpointPair pair{netbase::Ipv4Address(10, octet, 0, 1),
                            netbase::Ipv4Address(10, octet, 0, 2)};
    const topo::NodeId ingress = inferred.NodeOf(pair.ingress);
    const topo::NodeId egress = inferred.NodeOf(pair.egress);
    const topo::NodeId spare = inferred.NodeOf(
        netbase::Ipv4Address(10, octet, 0, 3));
    for (const topo::NodeId node : {ingress, egress, spare}) {
      inferred.SetAs(node, asn);
    }
    inferred.AddLink(ingress, egress);
    inferred.AddLink(egress, spare);
    result.candidates.push_back({.pair = pair, .asn = asn});
    if (k % 5 == 0) result.targets.hdns.push_back(ingress);
    if (k % 10 == 0) result.targets.hdns.push_back(egress);
    if (k % 3 == 0) {
      reveal::RevelationResult revelation;
      revelation.method = reveal::RevelationMethod::kDpr;
      revelation.revealed = {netbase::Ipv4Address(10, octet, 0, 3),
                             pair.ingress};
      result.revelations[pair] = revelation;
    }
  }
  // The corrected graph loses the false ingress-egress link of every
  // revealed pair.
  topo::ItdkDataset corrected = inferred;
  for (const auto& [pair, revelation] : result.revelations) {
    corrected.RemoveLink(*inferred.FindNode(pair.ingress),
                         *inferred.FindNode(pair.egress));
  }

  const auto rows = analysis::MakeDiscoveryTable(result, corrected, topology,
                                                 /*hdn_threshold=*/2);
  ExpectSameRows(rows,
                 DiscoveryTableByPerAsScan(result, corrected, topology, 2));
  ASSERT_EQ(rows.size(), kAsCount);
  std::size_t ties_at_zero = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].hdns_itdk == 0) ++ties_at_zero;
    if (i == 0) continue;
    ASSERT_GE(rows[i - 1].hdns_itdk, rows[i].hdns_itdk);
    if (rows[i - 1].hdns_itdk == rows[i].hdns_itdk) {
      EXPECT_LT(rows[i - 1].asn, rows[i].asn) << "row " << i;
    }
  }
  EXPECT_EQ(ties_at_zero, 32u);
  EXPECT_EQ(rows.front().hdns_itdk, 2u);
  EXPECT_EQ(rows.front().asn, kFirstAs);
}

TEST_F(CampaignTest, DatasetBuilderPrunesPrivateAddressesAndGaps) {
  probe::TraceResult trace;
  trace.hops.resize(4);
  trace.hops[0] = {.probe_ttl = 1,
                   .address = netbase::Ipv4Address(5, 0, 0, 1)};
  trace.hops[1] = {.probe_ttl = 2,
                   .address = netbase::Ipv4Address(192, 168, 0, 1)};
  trace.hops[2] = {.probe_ttl = 3};  // timeout
  trace.hops[3] = {.probe_ttl = 4,
                   .address = netbase::Ipv4Address(5, 0, 0, 2)};
  topo::ItdkDataset dataset;
  const auto identity = [](netbase::Ipv4Address a) { return a; };
  AddTraceToDataset(dataset, trace, identity, net_->topology());
  EXPECT_EQ(dataset.node_count(), 2u);  // private hop pruned
  EXPECT_EQ(dataset.link_count(), 0u);  // gap broke adjacency
}

TEST(CampaignUhp, UhpSuspicionsPointAtUhpAses) {
  // Force a world with UHP clouds and check the duplicate-hop signal is
  // attributed to them (and overwhelmingly to actual UHP deployments).
  gen::InternetOptions options;
  options.seed = 5;
  options.tier1_count = 2;
  options.transit_count = 6;
  options.stub_count = 12;
  options.vp_count = 6;
  options.uhp_probability = 0.5;
  options.no_ttl_propagate_probability = 1.0;
  gen::SyntheticInternet net(options);
  bool has_uhp = false;
  for (const auto& [asn, profile] : net.profiles()) {
    if (profile.mpls && profile.popping == mpls::Popping::kUhp) {
      has_uhp = true;
    }
  }
  ASSERT_TRUE(has_uhp);

  Campaign campaign(net.engine(), net.vantage_points(), {});
  const auto result = campaign.Run(net.AllLoopbacks());
  ASSERT_FALSE(result.uhp_suspicions.empty());
  std::size_t at_uhp = 0, elsewhere = 0;
  for (const auto& [asn, count] : result.uhp_suspicions) {
    if (net.profile(asn).popping == mpls::Popping::kUhp &&
        net.profile(asn).mpls) {
      at_uhp += count;
    } else {
      elsewhere += count;
    }
  }
  EXPECT_GT(at_uhp, 0u);
  EXPECT_GT(at_uhp, elsewhere * 3);
}

TEST_F(CampaignTest, ReportContainsTheHeadlineSections) {
  std::stringstream report;
  analysis::WriteCampaignReport(report, *result_, net_->topology());
  const std::string text = report.str();
  for (const char* expected :
       {"campaign report", "Graph correction", "Discovery per AS",
        "Deployment per AS", "tunnels revealed", "forward tunnel length"}) {
    EXPECT_NE(text.find(expected), std::string::npos) << expected;
  }
}

TEST_F(CampaignTest, DistributionCsvIsWellFormed) {
  std::stringstream csv;
  analysis::WriteDistributionCsv(csv, result_->path_length_invisible);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "value,count,pdf");
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2) << line;
    ++rows;
  }
  EXPECT_EQ(rows, result_->path_length_invisible.buckets().size());
}

TEST_F(CampaignTest, AliasResolutionMergesNodesAndLinks) {
  // Alias resolution can only merge: fewer (or equal) nodes and links than
  // the raw per-interface graph, and every interface-level address must
  // resolve into some truth-level node.
  const auto none = BuildDataset(result_->traces, InterfaceResolver(),
                                 net_->topology());
  const auto truth = BuildDataset(result_->traces,
                                  TruthResolver(net_->topology()),
                                  net_->topology());
  EXPECT_GE(none.node_count(), truth.node_count());
  EXPECT_GE(none.link_count(), truth.link_count());
  for (const topo::ItdkNode& node : none.nodes()) {
    EXPECT_TRUE(truth.FindNode(node.addresses.front()).has_value());
  }
}

TEST_F(CampaignTest, NoisyResolverInterpolatesBetweenExtremes) {
  const auto truth = BuildDataset(result_->traces,
                                  TruthResolver(net_->topology()),
                                  net_->topology());
  const auto noisy = BuildDataset(
      result_->traces, NoisyResolver(net_->topology(), 0.3, 1),
      net_->topology());
  const auto none = BuildDataset(result_->traces, InterfaceResolver(),
                                 net_->topology());
  EXPECT_GE(noisy.node_count(), truth.node_count());
  EXPECT_LE(noisy.node_count(), none.node_count());
  // Determinism: the same seed merges the same addresses.
  const auto again = BuildDataset(
      result_->traces, NoisyResolver(net_->topology(), 0.3, 1),
      net_->topology());
  EXPECT_EQ(noisy.node_count(), again.node_count());
  EXPECT_EQ(noisy.link_count(), again.link_count());
}

// --- Cross-validation (Table 3) ---------------------------------------------

TEST(CrossValidation, ValidatesDprAndBrprOnExplicitTunnels) {
  gen::SyntheticInternet net({.seed = 11});
  net.ForceTtlPropagation(true);

  std::vector<probe::Prober> probers;
  for (const auto vp : net.vantage_points()) {
    probers.emplace_back(net.engine(), vp);
  }
  // Collect explicit tunnels with plain traces to every loopback.
  std::vector<probe::TraceResult> traces;
  for (std::size_t i = 0; i < probers.size(); ++i) {
    for (const auto loopback : net.AllLoopbacks()) {
      traces.push_back(probers[i].Traceroute(loopback, {.first_ttl = 2}));
    }
  }
  const auto tunnels = ExtractExplicitTunnels(traces, net.topology());
  ASSERT_GT(tunnels.size(), 0u);

  const auto summary = CrossValidateAll(probers, tunnels, {.first_ttl = 2});
  EXPECT_EQ(summary.pairs_total, tunnels.size());
  // The bulk must validate: DPR on loopback-only ASes, BRPR on all-prefix
  // ones, "either" for single-LSR tunnels.
  const std::size_t ok =
      summary.dpr + summary.brpr + summary.either + summary.hybrid;
  EXPECT_GT(ok, 0u);
  EXPECT_GE(static_cast<double>(ok),
            0.8 * static_cast<double>(summary.validated()));
}

TEST(CrossValidation, ExtractsOnlySameAsCleanTunnels) {
  gen::SyntheticInternet net({.seed = 11});
  net.ForceTtlPropagation(true);
  probe::Prober prober(net.engine(), net.vantage_points().front());
  std::vector<probe::TraceResult> traces;
  for (const auto loopback : net.AllLoopbacks()) {
    traces.push_back(prober.Traceroute(loopback, {.first_ttl = 2}));
  }
  for (const auto& tunnel :
       ExtractExplicitTunnels(traces, net.topology())) {
    EXPECT_FALSE(tunnel.lsrs.empty());
    EXPECT_EQ(net.topology().AsOfAddress(tunnel.ingress), tunnel.asn);
    EXPECT_EQ(net.topology().AsOfAddress(tunnel.egress), tunnel.asn);
    for (const auto lsr : tunnel.lsrs) {
      EXPECT_EQ(net.topology().AsOfAddress(lsr), tunnel.asn);
    }
  }
}

}  // namespace
}  // namespace wormhole::campaign
