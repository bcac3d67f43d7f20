// Table 4: invisible MPLS tunnel discovery per AS of interest — HDNs,
// candidate Ingress-Egress pairs, revelation rate, revealed LSPs/addresses,
// and the graph-density correction.
#include <iostream>

#include "analysis/correct.h"
#include "analysis/report.h"
#include "analysis/tables.h"
#include "bench/common.h"

int main() {
  using namespace wormhole;
  bench::PrintHeader("Invisible MPLS tunnel discovery per AS", "Table 4");

  const auto world = bench::RunFlagshipCampaign();
  const auto& result = world.result;

  const auto corrected = analysis::CorrectedCopy(
      result.inferred, result.revelations,
      campaign::TruthResolver(world.net->topology()),
      world.net->topology());
  const auto rows = analysis::MakeDiscoveryTable(result, corrected,
                                                 world.net->topology(), 8);

  analysis::TextTable table({"AS", "HDNs", "HDN cand", "I-E pairs", "%Rev.",
                             "Raw LSPs", "#IPs LSRs", "%IPs LERs",
                             "Dens before", "Dens after", "ground truth"});
  for (const auto& row : rows) {
    const auto& profile = world.net->profile(row.asn);
    std::string truth = profile.mpls
                            ? (profile.invisible_tunnels()
                                   ? (profile.popping == mpls::Popping::kUhp
                                          ? "invisible (UHP)"
                                          : "invisible (PHP)")
                                   : "visible MPLS")
                            : "no MPLS";
    table.AddRow({"AS" + std::to_string(row.asn),
                  analysis::TextTable::Num(row.hdns_itdk),
                  analysis::TextTable::Num(row.hdns_candidate),
                  analysis::TextTable::Num(row.ie_pairs),
                  analysis::TextTable::Pct(row.pct_revealed),
                  analysis::TextTable::Num(row.raw_lsps),
                  analysis::TextTable::Num(row.lsr_ips),
                  analysis::TextTable::Pct(row.pct_ips_lers),
                  analysis::TextTable::Real(row.density_before),
                  analysis::TextTable::Real(row.density_after), truth});
  }
  std::cout << table.ToString();

  if (!result.uhp_suspicions.empty()) {
    std::cout << "\nUHP (duplicate-hop) suspicions — totally invisible "
                 "clouds the revelation techniques cannot open:\n";
    for (const auto& [asn, count] : result.uhp_suspicions) {
      const auto& profile = world.net->profile(asn);
      std::cout << "  AS" << asn << ": " << count << " traces  (truth: "
                << (profile.popping == mpls::Popping::kUhp ? "UHP"
                                                           : "not UHP")
                << ")\n";
    }
  }
  std::cout << "\ncampaign: " << result.probes_sent << " probes, "
            << result.trace_count << " targeted traces, "
            << result.revelations.size() << " candidate pairs, "
            << result.revealed_count() << " revealed.\n";
  std::cout << "at the paper's probing rate (25 pkt/s per VP set) this "
               "campaign would take ~"
            << analysis::TextTable::Real(
                   static_cast<double>(result.probes_sent) / 25.0 / 60.0 /
                       static_cast<double>(
                           world.net->vantage_points().size()),
                   1)
            << " minutes of wall clock.\n";
  std::cout << "shape: invisible-PHP ASes reveal at high rate and their "
               "candidate-LER density drops sharply after correction "
               "(paper: e.g. Deutsche Telekom 0.108 -> 0.013); UHP or "
               "visible ASes reveal ~nothing.\n";
  return 0;
}
