// internet_campaign — the paper's Sec. 4 pipeline end to end on a synthetic
// Internet: plain discovery, HDN detection, targeted probing, revelation,
// fingerprinting, per-AS reporting, and persisting the raw traces.
//
// Usage: internet_campaign [seed] [tracefile.out]
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "analysis/correct.h"
#include "analysis/report.h"
#include "analysis/tables.h"
#include "campaign/campaign.h"
#include "gen/internet.h"
#include "io/tracefile.h"

using namespace wormhole;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 29;

  std::cout << "building synthetic Internet (seed " << seed << ")...\n";
  gen::SyntheticInternet net({.seed = seed});
  std::cout << "  " << net.profiles().size() << " ASes, "
            << net.topology().router_count() << " routers, "
            << net.topology().link_count() << " links, "
            << net.vantage_points().size() << " vantage points\n";
  int invisible = 0;
  for (const auto& [asn, profile] : net.profiles()) {
    if (profile.invisible_tunnels()) ++invisible;
  }
  std::cout << "  ground truth: " << invisible
            << " ASes hide their MPLS tunnels (no-ttl-propagate)\n\n";

  campaign::Campaign campaign(net.engine(), net.vantage_points(), {});
  std::cout << "running campaign (discovery + HDN-guided probing)...\n";
  const auto result = campaign.Run(net.AllLoopbacks());
  std::cout << "  " << result.probes_sent << " probes, "
            << result.trace_count << " targeted traces, "
            << result.targets.hdns.size() << " HDNs, "
            << result.revelations.size() << " candidate tunnels, "
            << result.revealed_count() << " revealed\n\n";

  const auto corrected = analysis::CorrectedCopy(
      result.inferred, result.revelations,
      campaign::TruthResolver(net.topology()), net.topology());

  std::cout << "--- discovery per AS (Table 4 style) ---\n";
  const auto discovery =
      analysis::MakeDiscoveryTable(result, corrected, net.topology(), 8);
  analysis::TextTable table(
      {"AS", "I-E pairs", "%Rev.", "LSR IPs", "density", "->", "truth"});
  for (const auto& row : discovery) {
    const auto& profile = net.profile(row.asn);
    table.AddRow({"AS" + std::to_string(row.asn),
                  analysis::TextTable::Num(row.ie_pairs),
                  analysis::TextTable::Pct(row.pct_revealed, 0),
                  analysis::TextTable::Num(row.lsr_ips),
                  analysis::TextTable::Real(row.density_before, 2),
                  analysis::TextTable::Real(row.density_after, 2),
                  profile.invisible_tunnels() ? "invisible" : "visible"});
  }
  std::cout << table.ToString() << "\n";

  std::cout << "--- graph correction ---\n";
  const auto before = result.inferred.DegreeDistribution();
  const auto after = corrected.DegreeDistribution();
  std::cout << "max node degree: " << before.Max() << " -> " << after.Max()
            << "\nmean path length: "
            << analysis::TextTable::Real(result.path_length_invisible.Mean(),
                                         2)
            << " -> "
            << analysis::TextTable::Real(result.path_length_visible.Mean(),
                                         2)
            << " (over tunnel-crossing traces)\n";

  if (argc > 2) {
    std::ofstream out(argv[2]);
    io::WriteTraces(out, result.traces);
    std::cout << "\nwrote " << result.trace_count << " traces to "
              << argv[2] << "\n";
  }
  return 0;
}
