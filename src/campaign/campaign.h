// The full measurement campaign (paper Sec. 4): plain discovery traces →
// inferred dataset → HDN detection → targeted probing around HDNs →
// candidate Ingress/Egress extraction → revelation (DPR/BRPR) →
// fingerprinting + FRPLA + RTLA analyses.
#pragma once

#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "campaign/compact_trace.h"
#include "campaign/dataset.h"
#include "campaign/targets.h"
#include "campaign/trace_cache.h"
#include "exec/thread_pool.h"
#include "fingerprint/signature.h"
#include "netbase/stats.h"
#include "probe/prober.h"
#include "reveal/frpla.h"
#include "reveal/revelator.h"
#include "reveal/rtla.h"
#include "reveal/uhp_trigger.h"
#include "sim/engine.h"

namespace wormhole::campaign {

struct EndpointPair {
  netbase::Ipv4Address ingress;
  netbase::Ipv4Address egress;
  friend auto operator<=>(const EndpointPair&, const EndpointPair&) = default;
};

struct CampaignOptions {
  /// Degree threshold tagging High Degree Nodes (the paper uses 128 at
  /// Internet scale; scaled to our synthetic size).
  std::size_t hdn_threshold = 8;
  /// Probing options; the paper's scamper starts at TTL 2.
  probe::TraceOptions trace_options{.first_ttl = 2};
  /// Drive every trace (discovery, targeted and revelation) through the
  /// batched SendBatch stepper. Results are byte-identical to sequential
  /// stepping, and no A/B has measured a throughput gain above noise
  /// (ROADMAP). On by default, so perfbench runs the batched tracer.
  /// Overrides `trace_options.batched` at construction.
  bool batched_stepping = true;
  /// Require both candidate endpoints to be HDN nodes (paper Sec. 4); relax
  /// for small topologies.
  bool require_hdn_endpoints = true;
  /// Ping every new address for the echo-reply half of its signature.
  bool fingerprint = true;
  /// Split phase-one targets across VPs (the paper's five teams probed
  /// disjoint destination shards). Default off: every VP probes every
  /// HDN-area target, which maximises the number of (ingress, egress)
  /// views per suspicious AS — the discovery phase stays sharded either
  /// way.
  bool shard_targets = false;
  /// Worker threads probing vantage-point shards concurrently; 0 means
  /// hardware concurrency. The result is bit-identical for every value
  /// (see "Concurrency model" in docs/semantics.md).
  std::size_t jobs = 0;
  /// Shard size of the probing loop (docs/scaling.md). Every vantage
  /// point traces its targets in consecutive shards of this many targets
  /// (0 = one whole-list shard), appending each trace to a packed per-VP
  /// log (CompactTraceLog, ~8 B/hop) that the reduce reads; the shard
  /// size never changes a byte of the result. It also picks the sink:
  /// at 0, Run keeps every whole targeted trace in CampaignResult::traces
  /// for the tracefile writer; above 0 that buffer stays empty and peak
  /// memory does not grow with full traces.
  std::size_t stream_shard_size = 0;
};

/// Everything the campaign measured. Figures/tables are derived from this.
struct CandidateRecord {
  EndpointPair pair;
  topo::AsNumber asn = 0;  ///< AS of the suspected tunnel
  int egress_forward_ttl = 0;   ///< probe TTL the egress answered at
  int egress_return_ttl = 0;    ///< raw time-exceeded reply TTL
  std::optional<int> egress_echo_ttl;  ///< raw echo-reply TTL (ping)
  bool revealed = false;
  int revealed_count = 0;
};

struct CampaignResult {
  /// The whole targeted traces, labels and RTTs included, for
  /// io::WriteTraces. Filled only by Run at stream_shard_size 0; no
  /// analysis reads them.
  std::vector<probe::TraceResult> traces;
  /// Number of targeted traces, set by Run and RunDelta at every shard
  /// size.
  std::uint64_t trace_count = 0;
  /// Dataset inferred from ALL traces (discovery + targeted).
  topo::ItdkDataset inferred;
  TargetSets targets;
  std::map<EndpointPair, reveal::RevelationResult> revelations;
  std::vector<CandidateRecord> candidates;
  fingerprint::SignatureCollector signatures;
  reveal::FrplaAnalysis frpla;
  reveal::RtlaAnalysis rtla;
  /// Trace path lengths before (tunnels hidden) / after (revealed hops
  /// added back) — Fig. 11.
  netbase::IntDistribution path_length_invisible;
  netbase::IntDistribution path_length_visible;
  /// Duplicate-hop (UHP) suspicions per AS of the suspected ingress — the
  /// only signal a totally invisible cloud leaves behind.
  std::map<topo::AsNumber, std::size_t> uhp_suspicions;
  std::uint64_t probes_sent = 0;
  std::uint64_t revelation_traces = 0;
  /// Delta-run accounting (RunDelta only; zero otherwise): (vp, target)
  /// pairs considered across both probing phases, and how many of them
  /// were actually re-probed live (the rest were served from the cache).
  /// Not part of the report — the report stays byte-identical to a cold
  /// run by construction.
  std::uint64_t delta_pairs_total = 0;
  std::uint64_t delta_pairs_reprobed = 0;

  /// Successful revelations only.
  [[nodiscard]] std::size_t revealed_count() const;
  /// Forward-tunnel-length distribution per method (Fig. 5). Length is the
  /// hop count to the egress: revealed LSRs + 1.
  [[nodiscard]] netbase::IntDistribution TunnelLengths(
      reveal::RevelationMethod method) const;
  [[nodiscard]] netbase::IntDistribution AllTunnelLengths() const;
};

/// Runs the measurement pipeline, spreading the probing load over a
/// per-VP worker pool (options.jobs threads). Parallelism never changes
/// the result: probing is sharded per vantage point (each prober is
/// driven by exactly one task, so its probe-id sequence is fixed), and
/// everything order-dependent — dataset mutation, candidate analysis,
/// revelation dedup — happens in a sequential post-merge pass over the
/// traces in (vp, target-index) order. Every public call starts from
/// fresh probers, so a reused Campaign returns what a new one would.
class Campaign {
 public:
  /// One prober per vantage point is created on `engine`.
  Campaign(const sim::Engine& engine, std::vector<netbase::Ipv4Address> vps,
           CampaignOptions options = {});

  /// Runs the whole pipeline. `discovery_targets` seeds the plain campaign
  /// that builds the inferred dataset (typically every router loopback).
  /// At stream_shard_size 0 the whole targeted traces are also returned
  /// in CampaignResult::traces.
  CampaignResult Run(const std::vector<netbase::Ipv4Address>&
                         discovery_targets);

  /// Phase-zero only: the whole traces of the plain campaign (Fig. 1).
  std::vector<probe::TraceResult> RunDiscovery(
      const std::vector<netbase::Ipv4Address>& targets);

  /// Run backed by a trace cache (docs/incremental.md), with the same
  /// result bytes at any jobs/shard combination except that `traces`
  /// stays empty: every (vp, target) trace whose cache entry carries the
  /// current convergence epoch is spliced from the cache (with its
  /// probe-id consumption replayed), everything else — cache misses,
  /// fingerprint pings, revelations — runs live. Typical cycle: cold
  /// RunDelta fills `cache`; after topology.SetLinkUp +
  /// Network::OnLinkStateChange, Invalidate the cache with the returned
  /// delta; RunDelta again re-probes only the dirty pairs.
  CampaignResult RunDelta(
      const std::vector<netbase::Ipv4Address>& discovery_targets,
      TraceCache& cache);

  /// The worker count actually in use (resolves jobs == 0).
  [[nodiscard]] std::size_t jobs() const { return pool_.size(); }

 private:
  /// A delta run's cache, convergence epoch and offset rule; `cache` is
  /// null outside RunDelta. Reduce-time echo pings go through the cache's
  /// ping table too; revelation probing always runs live.
  struct CacheContext {
    TraceCache* cache = nullptr;
    std::uint64_t epoch = 0;
    /// Serve a hit only at the probe-id offset it was recorded at (lossy
    /// worlds, where reply bytes depend on probe ids).
    bool strict_offsets = false;
  };

  /// One vantage point's traces of one probing phase, in target order.
  struct VpTraces {
    CompactTraceLog log;
    /// The full traces (labels and RTTs included), only when kept.
    std::vector<probe::TraceResult> whole;
    /// Traces served from the cache instead of probed live.
    std::uint64_t served = 0;
  };

  /// The one probing loop. Each VP walks its target list in
  /// FixedShards(shards[vp], options_.stream_shard_size) order on its own
  /// prober; every target is either a cache hit (spliced from the cache,
  /// its probe-id budget replayed) or traced live, Recorded in the cache
  /// if there is one and appended to the VP's log. `keep_whole` also
  /// keeps the live traces; it needs `delta.cache == nullptr`.
  std::vector<VpTraces> TraceTargets(
      TraceCache::Phase phase,
      const std::vector<std::vector<netbase::Ipv4Address>>& shards,
      const CacheContext& delta, bool keep_whole);

  /// Shared body of Run (cache == nullptr) and RunDelta: discovery,
  /// target selection, targeted probing, one sequential reduce over the
  /// logs in (vp, target-index) order, FRPLA and the Fig. 11 tail.
  CampaignResult RunPipeline(
      const std::vector<netbase::Ipv4Address>& discovery_targets,
      TraceCache* cache);

  /// Rebuilds every prober in place so probe ids restart at 1 — the first
  /// step of every public entry, so no call sees an earlier one's ids.
  void ResetProbers();

  /// Returns the candidate endpoint pair extracted from the trace, if any.
  /// `vp` is the prober's vantage-point index (CachedPing slot key).
  std::optional<EndpointPair> AnalyzeTrace(
      const probe::TraceResult& trace, CampaignResult& result, std::size_t vp,
      probe::Prober& prober, const std::unordered_set<topo::NodeId>& hdn_set,
      const CacheContext& delta);

  /// Reduce-time echo ping (fingerprint echo half, candidate egress
  /// probe). Outside a delta run this is exactly prober.Ping; inside one
  /// it consults the cache's per-VP ping table first, replaying the
  /// probe-id budget of a hit so the prober's id stream stays id-for-id
  /// the cold run's (docs/incremental.md).
  probe::PingResult CachedPing(std::size_t vp, probe::Prober& prober,
                               netbase::Ipv4Address address,
                               const CacheContext& delta);

  /// The ingress/egress address sets of the revelation map — the FRPLA
  /// responder-role classifier's inputs, computed once after the reduce.
  struct FrplaSets {
    std::unordered_set<netbase::Ipv4Address> ingresses;
    std::unordered_set<netbase::Ipv4Address> egresses;
  };
  static FrplaSets FrplaSetsOf(const CampaignResult& result);
  /// Adds one trace's hop-level RFA samples.
  static void FrplaFromTrace(const probe::TraceResult& trace,
                             const FrplaSets& sets, CampaignResult& result);
  static void RfaSampleFromCandidate(const CandidateRecord& record,
                                     CampaignResult& result);

  const sim::Engine* engine_;
  std::vector<probe::Prober> probers_;
  CampaignOptions options_;
  exec::ThreadPool pool_;
};

}  // namespace wormhole::campaign
