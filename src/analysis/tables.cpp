#include "analysis/tables.h"

#include <algorithm>
#include <map>
#include <set>

namespace wormhole::analysis {

namespace {

using campaign::CampaignResult;
using campaign::EndpointPair;
using topo::AsNumber;
using topo::NodeId;

double Percent(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

}  // namespace

std::vector<DiscoveryRow> MakeDiscoveryTable(
    const CampaignResult& result, const topo::ItdkDataset& corrected,
    const topo::Topology& topology, std::size_t hdn_threshold) {
  // Group the campaign's candidate pairs / revelations by AS.
  struct Bucket {
    std::set<EndpointPair> pairs;
    std::set<EndpointPair> revealed_pairs;
    std::set<std::vector<netbase::Ipv4Address>> raw_lsps;
    std::set<netbase::Ipv4Address> lsr_ips;
    std::set<netbase::Ipv4Address> ler_ips;
    std::set<NodeId> candidate_nodes;  ///< nodes acting as I or E
  };
  std::map<AsNumber, Bucket> buckets;

  for (const campaign::CandidateRecord& record : result.candidates) {
    Bucket& bucket = buckets[record.asn];
    bucket.pairs.insert(record.pair);
    bucket.ler_ips.insert(record.pair.ingress);
    bucket.ler_ips.insert(record.pair.egress);
    if (const auto n = result.inferred.FindNode(record.pair.ingress)) {
      bucket.candidate_nodes.insert(*n);
    }
    if (const auto n = result.inferred.FindNode(record.pair.egress)) {
      bucket.candidate_nodes.insert(*n);
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

  // HDNs per AS in the inferred dataset.
  std::map<AsNumber, std::size_t> hdns_per_as;
  for (const NodeId hdn : result.targets.hdns) {
    ++hdns_per_as[result.inferred.node(hdn).asn];
  }

  std::vector<DiscoveryRow> rows;
  for (const auto& [asn, bucket] : buckets) {
    DiscoveryRow row;
    row.asn = asn;
    row.name = topology.HasAs(asn) ? topology.as(asn).name : "?";

    if (const auto it = hdns_per_as.find(asn); it != hdns_per_as.end()) {
      row.hdns_itdk = it->second;
    }
    for (const NodeId node : bucket.candidate_nodes) {
      if (result.inferred.Degree(node) >= hdn_threshold) {
        ++row.hdns_candidate;
      }
    }
    row.ie_pairs = bucket.pairs.size();
    row.pct_revealed = Percent(bucket.revealed_pairs.size(),
                               bucket.pairs.size());
    row.raw_lsps = bucket.raw_lsps.size();
    row.lsr_ips = bucket.lsr_ips.size();
    std::size_t also_ler = 0;
    for (const netbase::Ipv4Address ip : bucket.lsr_ips) {
      if (bucket.ler_ips.contains(ip)) ++also_ler;
    }
    row.pct_ips_lers = Percent(also_ler, bucket.lsr_ips.size());

    // Density over the candidate LER nodes, before/after correction.
    const std::vector<NodeId> nodes(bucket.candidate_nodes.begin(),
                                    bucket.candidate_nodes.end());
    row.density_before = result.inferred.Density(nodes);
    // Node ids are stable across the corrected copy (it only adds nodes).
    row.density_after = corrected.Density(nodes);
    rows.push_back(std::move(row));
  }

  // Largest HDN counts first, like the paper's Table 4 ordering.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const DiscoveryRow& a, const DiscoveryRow& b) {
                     return a.hdns_itdk > b.hdns_itdk;
                   });
  return rows;
}

std::vector<DeploymentRow> MakeDeploymentTable(
    const CampaignResult& result, const topo::Topology& topology) {
  struct Bucket {
    std::size_t cisco = 0, junos = 0, b6464 = 0, other = 0, total = 0;
    std::size_t dpr = 0, brpr = 0, either = 0, hybrid = 0, revealed = 0;
    netbase::IntDistribution ftl;
  };
  std::map<AsNumber, Bucket> buckets;

  // Signature mix per AS over every fingerprinted address.
  for (const auto& [address, signature] : result.signatures.SortedEntries()) {
    const AsNumber asn = topology.AsOfAddress(address);
    if (asn == 0) continue;
    if (!result.signatures.SignatureOf(address)) continue;
    Bucket& bucket = buckets[asn];
    ++bucket.total;
    switch (fingerprint::Classify(signature)) {
      case fingerprint::SignatureClass::kCisco: ++bucket.cisco; break;
      case fingerprint::SignatureClass::kJuniperJunos: ++bucket.junos; break;
      case fingerprint::SignatureClass::kBrocadeLinux: ++bucket.b6464; break;
      default: ++bucket.other; break;
    }
  }

  // Discovery technique mix per AS.
  for (const auto& [pair, revelation] : result.revelations) {
    if (!revelation.succeeded()) continue;
    const AsNumber asn = topology.AsOfAddress(pair.egress);
    if (asn == 0) continue;
    Bucket& bucket = buckets[asn];
    ++bucket.revealed;
    bucket.ftl.Add(static_cast<int>(revelation.revealed.size()));
    switch (revelation.method) {
      case reveal::RevelationMethod::kDpr: ++bucket.dpr; break;
      case reveal::RevelationMethod::kBrpr: ++bucket.brpr; break;
      case reveal::RevelationMethod::kEither: ++bucket.either; break;
      case reveal::RevelationMethod::kHybrid: ++bucket.hybrid; break;
      case reveal::RevelationMethod::kNone: break;
    }
  }

  std::vector<DeploymentRow> rows;
  for (const auto& [asn, bucket] : buckets) {
    if (bucket.revealed == 0) continue;  // ASes with no revealed tunnels
    DeploymentRow row;
    row.asn = asn;
    row.pct_cisco = Percent(bucket.cisco, bucket.total);
    row.pct_junos = Percent(bucket.junos, bucket.total);
    row.pct_6464 = Percent(bucket.b6464, bucket.total);
    row.pct_other = Percent(bucket.other, bucket.total);
    row.pct_dpr = Percent(bucket.dpr, bucket.revealed);
    row.pct_brpr = Percent(bucket.brpr, bucket.revealed);
    row.pct_either = Percent(bucket.either, bucket.revealed);
    row.pct_hybrid = Percent(bucket.hybrid, bucket.revealed);
    row.frpla_median = result.frpla.EstimatedTunnelLength(asn);
    row.rtla_median = result.rtla.EstimatedTunnelLength(asn);
    if (!bucket.ftl.empty()) row.ftl_median = bucket.ftl.Median();
    rows.push_back(std::move(row));
  }

  // Sort by Cisco share descending, like the paper's Table 5.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const DeploymentRow& a, const DeploymentRow& b) {
                     return a.pct_cisco > b.pct_cisco;
                   });
  return rows;
}

}  // namespace wormhole::analysis
