#include "campaign/campaign.h"

#include <stdexcept>

#include "netbase/contracts.h"

namespace wormhole::campaign {

using netbase::PacketKind;

std::size_t CampaignResult::revealed_count() const {
  std::size_t count = 0;
  for (const auto& [pair, revelation] : revelations) {
    if (revelation.succeeded()) ++count;
  }
  return count;
}

netbase::IntDistribution CampaignResult::TunnelLengths(
    reveal::RevelationMethod method) const {
  netbase::IntDistribution d;
  for (const auto& [pair, revelation] : revelations) {
    if (revelation.method == method) d.Add(revelation.tunnel_length());
  }
  return d;
}

netbase::IntDistribution CampaignResult::AllTunnelLengths() const {
  netbase::IntDistribution d;
  for (const auto& [pair, revelation] : revelations) {
    if (revelation.succeeded()) d.Add(revelation.tunnel_length());
  }
  return d;
}

Campaign::Campaign(const sim::Engine& engine,
                   std::vector<netbase::Ipv4Address> vps,
                   CampaignOptions options)
    : engine_(&engine),
      options_(options),
      pool_(options.jobs != 0 ? options.jobs : exec::HardwareConcurrency()) {
  options_.trace_options.batched = options_.batched_stepping;
  probers_.reserve(vps.size());
  for (const netbase::Ipv4Address vp : vps) {
    probers_.emplace_back(engine, vp);
  }
  if (probers_.empty()) {
    throw std::invalid_argument("Campaign: no vantage points");
  }
}

void Campaign::ResetProbers() {
  for (probe::Prober& prober : probers_) {
    prober = probe::Prober(*engine_, prober.vantage_point());
  }
}

std::vector<Campaign::VpTraces> Campaign::TraceTargets(
    TraceCache::Phase phase,
    const std::vector<std::vector<netbase::Ipv4Address>>& shards,
    const CacheContext& delta, bool keep_whole) {
  WORMHOLE_ASSERT(!(keep_whole && delta.cache != nullptr),
                  "a cache hit has no whole trace to keep");
  // One task per vantage point: probers_[vp] is touched by that task only,
  // and it walks its targets in order, so the probe-id stream of every
  // prober — and with it every simulated reply — is independent of the
  // worker count, of scheduling and of the shard size. A cache hit
  // replays the id budget of the trace it serves (SkipProbes), so live
  // probes land on exactly the ids a cold run gives them. Each task reads
  // and writes only its own (phase, vp) cache slot — see the TraceCache
  // thread-safety contract.
  TraceCache* cache = delta.cache;
  std::vector<VpTraces> per_vp(probers_.size());
  exec::ParallelFor(pool_, probers_.size(), [&](std::size_t vp) {
    probe::Prober& prober = probers_[vp];
    CompactTraceLog& log = per_vp[vp].log;
    std::vector<probe::TraceResult>& whole = per_vp[vp].whole;
    if (keep_whole) whole.reserve(shards[vp].size());
    for (const auto shard : FixedShards(shards[vp],
                                        options_.stream_shard_size)) {
      // A probing pass must never span a reconvergence: reconvergence is
      // the engine's exclusive write phase, and a mid-shard epoch bump
      // would mean traces of two routing states under one epoch stamp.
      WORMHOLE_ASSERT(engine_->convergence_epoch() == delta.epoch,
                      "reconvergence during a probing shard");
      for (const netbase::Ipv4Address target : shard) {
        if (cache != nullptr) {
          const TraceCache::Lookup cached =
              cache->Find(phase, vp, target, delta.epoch,
                          prober.probes_sent(), delta.strict_offsets);
          if (cached.hit) {
            log.AppendFrom(cache->LogOf(phase, vp), cached.trace_index);
            prober.SkipProbes(cached.probes_used);
            ++per_vp[vp].served;
            continue;
          }
        }
        const std::uint64_t before = prober.probes_sent();
        probe::TraceResult trace =
            prober.Traceroute(target, options_.trace_options);
        if (cache != nullptr) {
          cache->Record(phase, vp, trace, delta.epoch, before,
                        prober.probes_sent() - before);
        }
        log.Append(trace);
        if (keep_whole) whole.push_back(std::move(trace));
      }
    }
  });
  return per_vp;
}

std::vector<probe::TraceResult> Campaign::RunDiscovery(
    const std::vector<netbase::Ipv4Address>& targets) {
  ResetProbers();
  auto per_vp = TraceTargets(TraceCache::Phase::kDiscovery,
                             ShardTargets(targets, probers_.size()),
                             {.epoch = engine_->convergence_epoch()},
                             /*keep_whole=*/true);
  std::vector<probe::TraceResult> traces;
  traces.reserve(targets.size());
  for (VpTraces& vp_traces : per_vp) {
    for (auto& trace : vp_traces.whole) traces.push_back(std::move(trace));
  }
  return traces;
}

CampaignResult Campaign::Run(
    const std::vector<netbase::Ipv4Address>& discovery_targets) {
  return RunPipeline(discovery_targets, nullptr);
}

CampaignResult Campaign::RunDelta(
    const std::vector<netbase::Ipv4Address>& discovery_targets,
    TraceCache& cache) {
  return RunPipeline(discovery_targets, &cache);
}

CampaignResult Campaign::RunPipeline(
    const std::vector<netbase::Ipv4Address>& discovery_targets,
    TraceCache* cache) {
  // Fresh probers make every call id-for-id the campaign a new Campaign
  // object would run, whatever ran on this object before.
  ResetProbers();
  CampaignResult result;
  const topo::Topology& topology = engine_->topology();
  const AliasResolver resolver = TruthResolver(topology);

  // On a lossy world the reply bytes depend on probe ids, so a cached
  // trace may only be served at the exact id offset it was recorded at;
  // loss-free worlds can serve at any offset (docs/incremental.md).
  const CacheContext delta{
      .cache = cache,
      .epoch = engine_->convergence_epoch(),
      .strict_offsets =
          cache != nullptr && engine_->RepliesDependOnProbeIds()};
  if (cache != nullptr) cache->Begin(topology, probers_.size());
  std::uint64_t pairs_total = 0;
  std::uint64_t pairs_served = 0;

  // Phase 0: plain discovery campaign; infer the (biased) dataset from
  // the logs in (vp, target-index) order. The logs die with the scope.
  probe::TraceResult scratch;
  {
    const auto discovery = TraceTargets(
        TraceCache::Phase::kDiscovery,
        ShardTargets(discovery_targets, probers_.size()), delta,
        /*keep_whole=*/false);
    for (const VpTraces& vp_traces : discovery) {
      pairs_total += vp_traces.log.size();
      pairs_served += vp_traces.served;
      for (std::size_t i = 0; i < vp_traces.log.size(); ++i) {
        vp_traces.log.InflateInto(i, scratch);
        AddTraceToDataset(result.inferred, scratch, resolver, topology);
      }
    }
  }

  // Phase 1: HDN-guided probing. The whole traces are kept only for the
  // tracefile writer (CampaignResult::traces); nothing below reads them.
  result.targets = SelectTargets(result.inferred, options_.hdn_threshold);
  const std::unordered_set<topo::NodeId> hdn_set(
      result.targets.hdns.begin(), result.targets.hdns.end());
  const auto shards = options_.shard_targets
                          ? ShardTargets(result.targets.all, probers_.size())
                          : std::vector<std::vector<netbase::Ipv4Address>>(
                                probers_.size(), result.targets.all);
  const bool keep_whole =
      cache == nullptr && options_.stream_shard_size == 0;
  auto targeted = TraceTargets(TraceCache::Phase::kTargeted, shards, delta,
                               keep_whole);

  // Sequential reduce in (vp, target-index) order, inflating one trace
  // at a time: dataset mutation, candidate analysis, revelation dedup.
  // All tracing above is already done, so the analysis probes
  // AnalyzeTrace issues (fingerprint pings, revelation traces) extend
  // each prober's id stream at positions that depend on nothing but the
  // trace order.
  std::size_t total_traces = 0;
  for (const VpTraces& vp_traces : targeted) {
    total_traces += vp_traces.log.size();
    pairs_served += vp_traces.served;
  }
  pairs_total += total_traces;
  std::vector<std::optional<EndpointPair>> trace_pair;
  trace_pair.reserve(total_traces);
  std::vector<int> observed_ttls;
  observed_ttls.reserve(total_traces);
  for (std::size_t vp = 0; vp < probers_.size(); ++vp) {
    const CompactTraceLog& log = targeted[vp].log;
    for (std::size_t i = 0; i < log.size(); ++i) {
      log.InflateInto(i, scratch);
      AddTraceToDataset(result.inferred, scratch, resolver, topology);
      trace_pair.push_back(
          AnalyzeTrace(scratch, result, vp, probers_[vp], hdn_set, delta));
      observed_ttls.push_back(scratch.LastRespondingTtl());
    }
  }
  result.trace_count = total_traces;

  // FRPLA needs the full revelation map, so it is a second pass over the
  // logs. Egress RFA samples come from the traces in which the address
  // actually acted as a tunnel egress (the candidate observations). A
  // trace aimed *at* the same PE follows a route that hides nothing, so
  // counting every appearance would wash the shift out.
  const FrplaSets sets = FrplaSetsOf(result);
  for (const CandidateRecord& record : result.candidates) {
    RfaSampleFromCandidate(record, result);
  }
  for (const VpTraces& vp_traces : targeted) {
    for (std::size_t i = 0; i < vp_traces.log.size(); ++i) {
      vp_traces.log.InflateInto(i, scratch);
      FrplaFromTrace(scratch, sets, result);
    }
  }

  // Fig. 11 material: observed vs revelation-corrected path lengths, over
  // the traces that crossed a suspected tunnel (the paper's campaign is
  // exactly that population — transit paths through suspicious ASes).
  for (std::size_t i = 0; i < total_traces; ++i) {
    if (!trace_pair[i]) continue;
    const int observed = observed_ttls[i];
    if (observed == 0) continue;
    result.path_length_invisible.Add(observed);
    int corrected = observed;
    const auto it = result.revelations.find(*trace_pair[i]);
    if (it != result.revelations.end() && it->second.succeeded()) {
      corrected += static_cast<int>(it->second.revealed.size());
    }
    result.path_length_visible.Add(corrected);
  }

  for (const probe::Prober& prober : probers_) {
    result.probes_sent += prober.probes_sent();
  }
  if (cache != nullptr) {
    result.delta_pairs_total = pairs_total;
    result.delta_pairs_reprobed = pairs_total - pairs_served;
  }
  if (keep_whole) {
    result.traces.reserve(total_traces);
    for (VpTraces& vp_traces : targeted) {
      for (auto& trace : vp_traces.whole) {
        result.traces.push_back(std::move(trace));
      }
    }
  }
  return result;
}

probe::PingResult Campaign::CachedPing(std::size_t vp,
                                       probe::Prober& prober,
                                       netbase::Ipv4Address address,
                                       const CacheContext& delta) {
  TraceCache* cache = delta.cache;
  if (cache == nullptr) return prober.Ping(address);
  const TraceCache::PingLookup cached = cache->FindPing(
      vp, address, delta.epoch, prober.probes_sent(), delta.strict_offsets);
  if (cached.hit) {
    prober.SkipProbes(cached.probes_used);
    return cached.result;
  }
  const std::uint64_t before = prober.probes_sent();
  const probe::PingResult ping = prober.Ping(address);
  cache->RecordPing(vp, prober.vantage_point(), ping, delta.epoch, before,
                    prober.probes_sent() - before);
  return ping;
}

std::optional<EndpointPair> Campaign::AnalyzeTrace(
    const probe::TraceResult& trace, CampaignResult& result, std::size_t vp,
    probe::Prober& prober, const std::unordered_set<topo::NodeId>& hdn_set,
    const CacheContext& delta) {
  // UHP signatures: attribute each duplicate-hop suspicion to the AS of
  // the hop before it (the suspected Ingress LER of the invisible cloud).
  for (const auto& suspicion : reveal::DetectUhpSuspicions(trace)) {
    if (!suspicion.before) continue;
    const auto node = result.inferred.FindNode(*suspicion.before);
    const topo::AsNumber asn =
        node ? result.inferred.node(*node).asn
             : engine_->topology().AsOfAddress(*suspicion.before);
    if (asn != 0) ++result.uhp_suspicions[asn];
  }

  // Fingerprinting: the time-exceeded half comes for free from the trace;
  // the echo-reply half needs one ping per new address.
  for (const probe::Hop& hop : trace.hops) {
    if (!hop.address) continue;
    if (hop.reply_kind == PacketKind::kTimeExceeded) {
      result.signatures.RecordTimeExceeded(*hop.address, hop.reply_ip_ttl);
    } else if (hop.reply_kind == PacketKind::kEchoReply) {
      result.signatures.RecordEchoReply(*hop.address, hop.reply_ip_ttl);
    }
    if (options_.fingerprint &&
        result.signatures.NeedsEchoReply(*hop.address)) {
      const probe::PingResult ping = CachedPing(vp, prober, *hop.address, delta);
      if (ping.responded) {
        result.signatures.RecordEchoReply(*hop.address, ping.reply_ip_ttl);
      }
    }
  }

  // Candidate endpoints: the trace must have reached D with ... X, Y, D and
  // X, Y apparently adjacent in the same AS (paper Sec. 4).
  if (!trace.reached) return std::nullopt;
  const auto last3 = trace.LastResponders(3);
  if (last3.size() < 3) return std::nullopt;
  const netbase::Ipv4Address x = last3[0];
  const netbase::Ipv4Address y = last3[1];

  const auto nx = result.inferred.FindNode(x);
  const auto ny = result.inferred.FindNode(y);
  if (!nx || !ny || *nx == *ny) return std::nullopt;
  const topo::AsNumber asn = result.inferred.node(*ny).asn;
  if (asn == 0 || result.inferred.node(*nx).asn != asn) return std::nullopt;

  const auto hop_x = trace.HopOf(x);
  const auto hop_y = trace.HopOf(y);
  if (!hop_x || !hop_y || *hop_y != *hop_x + 1) return std::nullopt;

  if (options_.require_hdn_endpoints) {
    if (!hdn_set.contains(*nx) || !hdn_set.contains(*ny)) {
      return std::nullopt;
    }
  }

  const EndpointPair pair{x, y};
  auto it = result.revelations.find(pair);
  if (it == result.revelations.end()) {
    reveal::Revelator revelator(prober,
                                {.trace_options = options_.trace_options});
    reveal::RevelationResult revelation = revelator.Reveal(x, y);
    result.revelation_traces +=
        static_cast<std::uint64_t>(revelation.traces_used);
    it = result.revelations.emplace(pair, std::move(revelation)).first;
  }

  CandidateRecord record;
  record.pair = pair;
  record.asn = asn;
  const probe::Hop& egress_hop =
      trace.hops.at(static_cast<std::size_t>(*hop_y) -
                    static_cast<std::size_t>(trace.hops[0].probe_ttl));
  record.egress_forward_ttl = egress_hop.probe_ttl;
  record.egress_return_ttl = egress_hop.reply_ip_ttl;
  const probe::PingResult ping = CachedPing(vp, prober, y, delta);
  if (ping.responded) record.egress_echo_ttl = ping.reply_ip_ttl;
  record.revealed = it->second.succeeded();
  record.revealed_count = static_cast<int>(it->second.revealed.size());
  result.candidates.push_back(record);

  // RTLA applies when the egress has a <255,64>-style signature.
  if (record.egress_echo_ttl) {
    const auto observation = reveal::ObserveRtla(
        y, record.egress_return_ttl, *record.egress_echo_ttl);
    if (observation) result.rtla.Add(asn, *observation);
  }
  return pair;
}

Campaign::FrplaSets Campaign::FrplaSetsOf(const CampaignResult& result) {
  FrplaSets sets;
  for (const auto& [pair, revelation] : result.revelations) {
    sets.ingresses.insert(pair.ingress);
    sets.egresses.insert(pair.egress);
  }
  return sets;
}

void Campaign::FrplaFromTrace(const probe::TraceResult& trace,
                              const FrplaSets& sets,
                              CampaignResult& result) {
  for (const probe::Hop& hop : trace.hops) {
    if (!hop.address) continue;
    if (hop.reply_kind != PacketKind::kTimeExceeded) continue;
    // Egresses are handled by RfaSampleFromCandidate.
    if (sets.egresses.contains(*hop.address)) continue;
    const auto observation = reveal::ObserveRfa(hop);
    if (!observation) continue;
    const auto node = result.inferred.FindNode(*hop.address);
    if (!node) continue;
    const topo::AsNumber asn = result.inferred.node(*node).asn;
    if (asn == 0) continue;

    const reveal::ResponderRole role =
        sets.ingresses.contains(*hop.address)
            ? reveal::ResponderRole::kIngress
            : reveal::ResponderRole::kOther;
    result.frpla.Add(asn, role, *observation);
  }
}

void Campaign::RfaSampleFromCandidate(const CandidateRecord& record,
                                      CampaignResult& result) {
  reveal::RfaObservation observation;
  observation.responder = record.pair.egress;
  observation.forward_length = record.egress_forward_ttl;
  observation.return_length =
      reveal::ReturnPathLength(record.egress_return_ttl);
  result.frpla.Add(record.asn,
                   record.revealed
                       ? reveal::ResponderRole::kEgressRevealed
                       : reveal::ResponderRole::kEgressHidden,
                   observation);
}

}  // namespace wormhole::campaign
