// Per-AS aggregation of campaign results into the paper's Table 4
// (discovery) and Table 5 (deployment) rows.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace wormhole::analysis {

/// Table 4: invisible MPLS tunnel discovery per AS of interest.
struct DiscoveryRow {
  topo::AsNumber asn = 0;
  std::string name;
  std::size_t hdns_itdk = 0;       ///< HDN nodes of this AS in the dataset
  std::size_t hdns_candidate = 0;  ///< HDNs that showed up as I or E
  std::size_t ie_pairs = 0;        ///< candidate Ingress–Egress pairs
  double pct_revealed = 0.0;
  std::size_t raw_lsps = 0;   ///< unique revealed LSPs (IP sequences)
  std::size_t lsr_ips = 0;    ///< unique revealed LSR addresses
  double pct_ips_lers = 0.0;  ///< revealed IPs also acting as I/E somewhere
  double density_before = 0.0;
  double density_after = 0.0;
};

/// One row per AS with candidate pairs or revelations, sorted by
/// `hdns_itdk` descending; rows that tie keep ascending AS-number order.
/// Linear in the HDNs, candidates and revelations (up to log factors)
/// plus the degrees of each row's candidate nodes.
std::vector<DiscoveryRow> MakeDiscoveryTable(
    const campaign::CampaignResult& result,
    const topo::ItdkDataset& corrected, const topo::Topology& topology,
    std::size_t hdn_threshold);

/// Table 5: MPLS deployment per AS.
struct DeploymentRow {
  topo::AsNumber asn = 0;
  // TTL signature mix over this AS's responding addresses (percent).
  double pct_cisco = 0.0;      ///< <255,255>
  double pct_junos = 0.0;      ///< <255,64>
  double pct_6464 = 0.0;       ///< <64,64>
  double pct_other = 0.0;      ///< anything else
  // Hidden-hop discovery mix over this AS's revealed tunnels (percent).
  double pct_dpr = 0.0;
  double pct_brpr = 0.0;
  double pct_either = 0.0;
  double pct_hybrid = 0.0;
  // Median hidden hop estimates.
  std::optional<int> frpla_median;
  std::optional<int> rtla_median;
  std::optional<int> ftl_median;  ///< revealed forward tunnel LSR count
};

/// One row per AS with at least one revealed tunnel, sorted by `pct_cisco`
/// descending; rows that tie keep ascending AS-number order.
std::vector<DeploymentRow> MakeDeploymentTable(
    const campaign::CampaignResult& result, const topo::Topology& topology);

}  // namespace wormhole::analysis
