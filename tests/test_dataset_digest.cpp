// Byte pins for the inferred router-level graph itself. The campaign report
// covers `CampaignResult::inferred` and its corrected copy only through
// the numbers it derives from them; these tests digest the serialized
// graphs directly (`ItdkDataset::Write`, FNV-1a 64) so that any change to
// how the dataset is stored, copied or corrected that moves a single node
// id, alias, AS or link shows up here. The digests were recorded before
// the dataset moved to flat, index-addressed storage.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "analysis/correct.h"
#include "campaign/campaign.h"
#include "campaign/trace_cache.h"
#include "gen/internet.h"
#include "routing/as_path.h"
#include "sim/network.h"

namespace wormhole {
namespace {

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t DigestOf(const topo::ItdkDataset& dataset) {
  std::ostringstream out;
  dataset.Write(out);
  return Fnv1a(out.str());
}

struct GraphDigests {
  std::uint64_t inferred = 0;
  std::uint64_t corrected = 0;
};

/// Digests of the inferred graph and of its corrected copy (the report's
/// correction: truth alias resolver over every revelation).
GraphDigests DigestsOf(const campaign::CampaignResult& result,
                       const topo::Topology& topology) {
  return {.inferred = DigestOf(result.inferred),
          .corrected = DigestOf(analysis::CorrectedCopy(
              result.inferred, result.revelations,
              campaign::TruthResolver(topology), topology))};
}

/// The golden-snapshot world (tests/test_golden_campaign.cpp).
gen::InternetOptions GoldenWorldOptions() {
  gen::InternetOptions options;
  options.seed = 17;
  options.tier1_count = 2;
  options.transit_count = 4;
  options.stub_count = 10;
  options.vp_count = 3;
  options.anonymous_router_probability = 0.02;
  options.icmp_loss = 0.05;
  return options;
}

GraphDigests RunCampaign(const campaign::CampaignOptions& options) {
  gen::SyntheticInternet net(GoldenWorldOptions());
  campaign::Campaign campaign(net.engine(), net.vantage_points(), options);
  const campaign::CampaignResult result = campaign.Run(net.AllLoopbacks());
  return DigestsOf(result, net.topology());
}

// Recorded on the golden world before the flat layout; buffered and
// streaming runs at any worker count build the same graph.
constexpr std::uint64_t kGoldenInferred = 0xc8d0aa0a996980ddull;
constexpr std::uint64_t kGoldenCorrected = 0x7d95b505ac648e58ull;

TEST(DatasetDigest, GoldenWorldSequential) {
  const GraphDigests d = RunCampaign({.jobs = 1});
  EXPECT_EQ(d.inferred, kGoldenInferred) << std::hex << d.inferred;
  EXPECT_EQ(d.corrected, kGoldenCorrected) << std::hex << d.corrected;
}

TEST(DatasetDigest, GoldenWorldParallel) {
  const GraphDigests d = RunCampaign({.jobs = 4});
  EXPECT_EQ(d.inferred, kGoldenInferred) << std::hex << d.inferred;
  EXPECT_EQ(d.corrected, kGoldenCorrected) << std::hex << d.corrected;
}

TEST(DatasetDigest, GoldenWorldStreaming) {
  const GraphDigests d = RunCampaign({.jobs = 1, .stream_shard_size = 64});
  EXPECT_EQ(d.inferred, kGoldenInferred) << std::hex << d.inferred;
  EXPECT_EQ(d.corrected, kGoldenCorrected) << std::hex << d.corrected;
}

/// The first internal link of an AS without MPLS. Flapping a link inside
/// an invisible tunnel would leave the inferred graph as it was; a link
/// traceroute sees moves links of the graph.
topo::LinkId PickFlapLink(const gen::SyntheticInternet& world) {
  const topo::Topology& topology = world.topology();
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) continue;
    const topo::AsNumber asn =
        topology.router(topology.interface(topology.link(l).a).router).asn;
    if (!world.profile(asn).mpls) return l;
  }
  return topo::kNoLink;
}

TEST(DatasetDigest, DeltaRunAfterOneFlap) {
  gen::SyntheticInternet world(GoldenWorldOptions());
  const auto targets = world.AllLoopbacks();
  const topo::LinkId link = PickFlapLink(world);
  ASSERT_NE(link, topo::kNoLink);
  campaign::Campaign campaign(world.engine(), world.vantage_points(),
                              {.jobs = 1, .stream_shard_size = 64});
  campaign::TraceCache cache;
  (void)campaign.RunDelta(targets, cache);

  world.mutable_topology().SetLinkUp(link, false);
  const routing::ConvergenceDelta delta =
      world.network().OnLinkStateChange(link);
  const routing::AsPathOracle oracle(world.topology(),
                                     world.network().bgp_level(),
                                     world.network().bgp_policy());
  cache.Invalidate(delta, oracle);

  const GraphDigests d =
      DigestsOf(campaign.RunDelta(targets, cache), world.topology());
  EXPECT_EQ(d.inferred, 0x209c6e0b0932079dull) << std::hex << d.inferred;
  EXPECT_EQ(d.corrected, 0xdee4f6366f0b104dull) << std::hex << d.corrected;
}

}  // namespace
}  // namespace wormhole
