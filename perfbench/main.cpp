// World->report benchmark (see README.md).
//
//   perfbench --workload <cold-88k|churn-9k> --seconds S
//             [--seed N] [--trace 0|1] [--spans FILE]
//   perfbench --selftest
//
// One closed-loop client: each op starts only after the previous one
// returned. The library is driven only through its public calls; every
// op's output is checked, and the last stdout line is one JSON object
// with the run's metrics (end-to-end with --trace 0, per-layer with
// --trace 1).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/campaign_report.h"
#include "analysis/correct.h"
#include "analysis/metrics.h"
#include "analysis/tables.h"
#include "campaign/campaign.h"
#include "campaign/dataset.h"
#include "campaign/targets.h"
#include "campaign/trace_cache.h"
#include "exec/thread_pool.h"
#include "gen/internet.h"
#include "io/tracefile.h"
#include "netbase/rng.h"
#include "routing/as_path.h"
#include "sim/network.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace wormhole;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;

/// Measured ops a run needs for the rule to support its p90 (ten samples
/// beyond it; see TailPercentile).
constexpr std::size_t kP90Ops = 100;
/// HDN threshold of the campaigns and their reports (the library default).
constexpr std::size_t kHdnThreshold = 8;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Process peak RSS in MB (Linux reports ru_maxrss in KB).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Report(const campaign::CampaignResult& result,
                   const topo::Topology& topology) {
  std::ostringstream os;
  analysis::WriteCampaignReport(os, result, topology,
                                {.hdn_threshold = kHdnThreshold});
  return os.str();
}

/// What one op produced. Every field is a deterministic function of the
/// workload's inputs, so it must repeat exactly wherever the op repeats.
struct Outcome {
  std::uint64_t probes_sent = 0;
  std::uint64_t traces = 0;
  std::uint64_t candidate_pairs = 0;
  std::uint64_t revealed = 0;
  std::uint64_t revelation_traces = 0;
  std::uint64_t signatures = 0;
  std::uint64_t delta_pairs_total = 0;
  std::uint64_t delta_pairs_reprobed = 0;
  sim::EngineStats engine;
  std::uint64_t report_digest = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// The campaign-level part of an outcome (what a cold run at the same
/// link state must reproduce; engine and delta counters differ by design).
bool SameCampaign(const Outcome& a, const Outcome& b) {
  return a.probes_sent == b.probes_sent && a.traces == b.traces &&
         a.candidate_pairs == b.candidate_pairs && a.revealed == b.revealed &&
         a.revelation_traces == b.revelation_traces &&
         a.signatures == b.signatures && a.report_digest == b.report_digest;
}

Outcome OutcomeOf(const campaign::CampaignResult& result,
                  const sim::EngineStats& engine, const std::string& report) {
  return {.probes_sent = result.probes_sent,
          .traces = result.trace_count,
          .candidate_pairs = result.revelations.size(),
          .revealed = result.revealed_count(),
          .revelation_traces = result.revelation_traces,
          .signatures = result.signatures.size(),
          .delta_pairs_total = result.delta_pairs_total,
          .delta_pairs_reprobed = result.delta_pairs_reprobed,
          .engine = engine,
          .report_digest = Fnv1a(report)};
}

sim::EngineStats Minus(const sim::EngineStats& a, const sim::EngineStats& b) {
  return {.packets_injected = a.packets_injected - b.packets_injected,
          .hops_processed = a.hops_processed - b.hops_processed,
          .icmp_generated = a.icmp_generated - b.icmp_generated,
          .labels_pushed = a.labels_pushed - b.labels_pushed,
          .labels_popped = a.labels_popped - b.labels_popped};
}

/// Exact per-layer counts, keyed by metric name.
using Counts = std::map<std::string, double>;

/// The campaign's phases re-run from outside through their public calls
/// (traced runs only): discovery and targeted probing with one prober per
/// vantage point, exactly as the campaign shards them, so each prober's
/// probe-id stream — and with it every probe count — is the campaign's;
/// in between, the discovery traces' tracefile round trip.
struct PhaseProbes {
  std::uint64_t discovery = 0;
  std::uint64_t targeted = 0;
  campaign::TargetSets targets;
  /// Size of the discovery traces' tracefile.
  std::uint64_t io_bytes = 0;
};

/// Field-by-field equality within the tracefile's contract: RTTs are
/// written with three decimals, a timeout hop carries only its TTL, and a
/// label entry only its label and TTL.
bool SameWithinTracefileContract(const probe::TraceResult& a,
                                 const probe::TraceResult& b) {
  if (a.source != b.source || a.target != b.target ||
      a.flow_id != b.flow_id || a.reached != b.reached ||
      a.unreachable != b.unreachable || a.hops.size() != b.hops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    const probe::Hop& x = a.hops[i];
    const probe::Hop& y = b.hops[i];
    if (x.probe_ttl != y.probe_ttl || x.address != y.address) return false;
    if (!x.responded()) continue;
    if (x.reply_kind != y.reply_kind || x.reply_ip_ttl != y.reply_ip_ttl ||
        std::fabs(x.rtt_ms - y.rtt_ms) > 0.0005 + 1e-9 ||
        x.labels.size() != y.labels.size()) {
      return false;
    }
    for (std::size_t j = 0; j < x.labels.size(); ++j) {
      if (x.labels[j].label != y.labels[j].label ||
          x.labels[j].ttl != y.labels[j].ttl) {
        return false;
      }
    }
  }
  return true;
}

/// The CLI's campaign -> tracefile -> replay path over `traces`:
/// io::WriteTraces, io::ReadTraces and an interface-level BuildDataset
/// over the traces read back. The traces read back must equal the ones
/// written within the tracefile contract, and the replayed dataset the
/// one the original traces give. Returns the tracefile's size.
std::uint64_t RoundTripTraces(const std::vector<probe::TraceResult>& traces,
                              SpanRecorder& recorder,
                              std::vector<std::string>& failures) {
  std::string tracefile;
  {
    Scope span(recorder, "io.write");
    std::ostringstream os;
    io::WriteTraces(os, traces);
    tracefile = os.str();
  }
  std::vector<probe::TraceResult> read_back;
  {
    Scope span(recorder, "io.read");
    std::istringstream is(tracefile);
    read_back = io::ReadTraces(is);
  }
  const topo::Topology none;
  topo::ItdkDataset replay;
  {
    Scope span(recorder, "io.replay_dataset");
    replay = campaign::BuildDataset(read_back, campaign::InterfaceResolver(),
                                    none);
  }
  bool same = read_back.size() == traces.size();
  for (std::size_t i = 0; same && i < read_back.size(); ++i) {
    same = SameWithinTracefileContract(traces[i], read_back[i]);
  }
  if (!same) failures.push_back("tracefile read back different traces");
  const auto direct =
      campaign::BuildDataset(traces, campaign::InterfaceResolver(), none);
  if (direct.node_count() != replay.node_count() ||
      direct.link_count() != replay.link_count() ||
      direct.DegreeDistribution().buckets() !=
          replay.DegreeDistribution().buckets()) {
    failures.push_back("replayed dataset differs from the direct one");
  }
  return tracefile.size();
}

PhaseProbes DecomposeCampaign(const sim::Engine& engine,
                              const std::vector<netbase::Ipv4Address>& vps,
                              const std::vector<netbase::Ipv4Address>& targets,
                              const campaign::CampaignOptions& options,
                              const topo::Topology& topology, std::size_t jobs,
                              SpanRecorder& recorder,
                              std::vector<std::string>& failures) {
  exec::ThreadPool pool(jobs);
  std::vector<probe::Prober> probers;
  for (const netbase::Ipv4Address vp : vps) probers.emplace_back(engine, vp);
  probe::TraceOptions trace_options = options.trace_options;
  trace_options.batched = options.batched_stepping;
  const auto sent = [&] {
    std::uint64_t total = 0;
    for (const probe::Prober& prober : probers) total += prober.probes_sent();
    return total;
  };

  PhaseProbes out;
  std::vector<std::vector<probe::TraceResult>> per_vp(probers.size());
  {
    Scope span(recorder, "probe.discovery");
    const auto shards = campaign::ShardTargets(targets, probers.size());
    exec::ParallelFor(pool, probers.size(), [&](std::size_t vp) {
      for (const netbase::Ipv4Address target : shards[vp]) {
        per_vp[vp].push_back(probers[vp].Traceroute(target, trace_options));
      }
    });
  }
  out.discovery = sent();
  std::vector<probe::TraceResult> discovery;
  for (auto& traces : per_vp) {
    for (auto& trace : traces) discovery.push_back(std::move(trace));
    traces = {};
  }
  topo::ItdkDataset dataset;
  {
    Scope span(recorder, "campaign.dataset");
    dataset = campaign::BuildDataset(
        discovery, campaign::TruthResolver(topology), topology);
  }
  out.io_bytes = RoundTripTraces(discovery, recorder, failures);
  discovery = {};
  {
    Scope span(recorder, "campaign.select");
    out.targets = campaign::SelectTargets(dataset, options.hdn_threshold);
  }
  const auto shards =
      options.shard_targets
          ? campaign::ShardTargets(out.targets.all, probers.size())
          : std::vector<std::vector<netbase::Ipv4Address>>(probers.size(),
                                                           out.targets.all);
  {
    Scope span(recorder, "probe.targeted");
    exec::ParallelFor(pool, probers.size(), [&](std::size_t vp) {
      for (const netbase::Ipv4Address target : shards[vp]) {
        probers[vp].Traceroute(target, trace_options);
      }
    });
  }
  out.targeted = sent() - out.discovery;
  return out;
}

/// The report's analysis steps, each timed through its public call.
void DecomposeReport(const campaign::CampaignResult& result,
                     const topo::Topology& topology, SpanRecorder& recorder) {
  topo::ItdkDataset corrected;
  {
    Scope span(recorder, "analysis.corrected_copy");
    corrected = analysis::CorrectedCopy(result.inferred, result.revelations,
                                        campaign::TruthResolver(topology),
                                        topology);
  }
  {
    Scope span(recorder, "analysis.clustering");
    (void)analysis::AverageClustering(result.inferred);
    (void)analysis::AverageClustering(corrected);
  }
  {
    Scope span(recorder, "analysis.discovery_table");
    (void)analysis::MakeDiscoveryTable(result, corrected, topology,
                                       kHdnThreshold);
  }
  {
    Scope span(recorder, "analysis.deployment_table");
    (void)analysis::MakeDeploymentTable(result, topology);
  }
}

/// One workload: a world, a unit of work (the op) and the checks on it.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Set-up repetitions per run; set-up time is their median.
  [[nodiscard]] virtual std::size_t setup_repetitions() const = 0;
  /// Probing workers of the campaigns and convergence workers of the
  /// world (`jobs = convergence_jobs`).
  [[nodiscard]] virtual std::size_t jobs() const = 0;
  /// Ops a run completes even past its time budget (warm-up included),
  /// so every exact counter covers the same work on every run, and a
  /// workload whose p90 is reported measures the 100 ops that p90 needs.
  [[nodiscard]] virtual std::size_t min_ops() const = 0;
  /// Ops per repeating cycle of the workload (1 when every op is alike).
  /// A run measures whole cycles only, so every run sees the same op mix.
  [[nodiscard]] virtual std::size_t period() const { return 1; }
  /// Leading ops that fill caches; checked but not timed.
  [[nodiscard]] virtual std::size_t warmup_ops() const { return 0; }
  /// Consecutive ops sharing a tracing mode inside one cycle.
  [[nodiscard]] virtual std::size_t group() const { return 1; }

  /// Builds the world (and whatever else an op needs) from scratch.
  virtual void Setup(SpanRecorder& recorder) = 0;
  /// The timed op.
  virtual Outcome RunOp(std::size_t op, SpanRecorder& recorder) = 0;
  /// Untimed checks of op `op`; appends a reason per failed check.
  virtual void Check(std::size_t op, const Outcome& outcome,
                     std::vector<std::string>& failures) = 0;
  /// Traced runs, after the op loop: re-times the campaign and report
  /// phases from outside and returns the exact layer counts.
  virtual Counts Decompose(SpanRecorder& recorder,
                           std::vector<std::string>& failures) = 0;
  /// Deterministic outcome counts printed for drift detection.
  virtual void PrintCounts(std::ostream& os) const = 0;
  /// Whether op `op` of a traced run is traced. Traced and untraced ops
  /// alternate over the cycle so both halves see the same op mix.
  [[nodiscard]] bool Traced(std::size_t op) const {
    return ((op / period()) + (op % period()) / group()) % 2 == 1;
  }
};

/// A campaign result's layer counts (reveal, fingerprint, campaign).
void AddResultCounts(const Outcome& outcome, const PhaseProbes& phases,
                     Counts& counts) {
  counts["campaign.probes_sent"] = static_cast<double>(outcome.probes_sent);
  counts["campaign.traces"] = static_cast<double>(outcome.traces);
  counts["campaign.reduce_probes"] =
      static_cast<double>(outcome.probes_sent) -
      static_cast<double>(phases.discovery + phases.targeted);
  counts["reveal.revelation_traces"] =
      static_cast<double>(outcome.revelation_traces);
  counts["reveal.success_frac"] =
      outcome.candidate_pairs == 0
          ? 0.0
          : static_cast<double>(outcome.revealed) /
                static_cast<double>(outcome.candidate_pairs);
  counts["fingerprint.addresses"] = static_cast<double>(outcome.signatures);
  counts["probe.probes"] = static_cast<double>(phases.discovery +
                                               phases.targeted);
  counts["io.bytes"] = static_cast<double>(phases.io_bytes);
}

void AddEngineCounts(const sim::EngineStats& stats, double ops,
                     Counts& counts) {
  counts["sim.packets"] = static_cast<double>(stats.packets_injected) / ops;
  counts["sim.icmp"] = static_cast<double>(stats.icmp_generated) / ops;
  counts["sim.labels_pushed"] = static_cast<double>(stats.labels_pushed) / ops;
  counts["sim.labels_popped"] = static_cast<double>(stats.labels_popped) / ops;
  counts["sim.hops_per_probe"] =
      stats.packets_injected == 0
          ? 0.0
          : static_cast<double>(stats.hops_processed) /
                static_cast<double>(stats.packets_injected);
}

void CheckDecomposition(const campaign::TargetSets& outside,
                        const campaign::CampaignResult& reference,
                        const PhaseProbes& phases,
                        std::vector<std::string>& failures) {
  if (outside.all != reference.targets.all ||
      outside.hdns != reference.targets.hdns) {
    failures.push_back("outside SelectTargets differs from the campaign's");
  }
  if (phases.discovery + phases.targeted > reference.probes_sent) {
    failures.push_back("outside probing sent more probes than the campaign");
  }
}

void PrintOutcome(std::ostream& os, const char* label, const Outcome& o) {
  os << label << ": probes " << o.probes_sent << ", targeted traces "
     << o.traces << ", candidate pairs " << o.candidate_pairs
     << ", tunnels revealed " << o.revealed << ", revelation traces "
     << o.revelation_traces << ", signatures " << o.signatures
     << ", engine packets " << o.engine.packets_injected << " hops "
     << o.engine.hops_processed << " icmp " << o.engine.icmp_generated
     << " push " << o.engine.labels_pushed << " pop "
     << o.engine.labels_popped << ", report fnv1a " << std::hex
     << o.report_digest << std::dec << "\n";
}

// --- cold-88k ------------------------------------------------------------

/// The worlds are fixed; a run's seed draws what is measured on them: the
/// order of the discovery targets, which decides which vantage point
/// probes which target (the campaign deals them out round-robin), and in
/// churn-9k the order of the flaps.
constexpr std::uint64_t kHierarchicalWorldSeed = 42;

std::vector<netbase::Ipv4Address> SeededOrder(
    std::vector<netbase::Ipv4Address> targets, std::uint64_t seed) {
  netbase::Rng rng(seed);
  for (std::size_t i = targets.size(); i > 1; --i) {
    std::swap(targets[i - 1], targets[rng.UniformU32() % i]);
  }
  return targets;
}

/// The hierarchical world shapes: size 1 is ~8.5k routers, size 2 ~87.7k.
gen::InternetOptions HierarchicalWorld(int size, std::size_t jobs) {
  gen::InternetOptions options;
  options.seed = kHierarchicalWorldSeed;
  options.hierarchical = true;
  options.vp_count = 4;
  options.convergence_jobs = jobs;
  if (size == 1) {
    options.tier1_count = 2;
    options.transit_count = 40;
    options.transit_routers = 32;
    options.stub_count = 2400;
  } else {
    options.tier1_count = 3;
    options.tier1_routers = 150;
    options.transit_count = 300;
    options.transit_routers = 40;
    options.stub_count = 25000;
  }
  return options;
}

class ColdWorkload final : public Workload {
 public:
  /// The world->report target of the parallel-pipeline work: its ops are
  /// seconds long, so jitter of the worker threads averages out.
  static constexpr std::size_t kJobs = 4;

  explicit ColdWorkload(std::uint64_t seed) : seed_(seed) {}

  std::size_t setup_repetitions() const override { return 3; }
  std::size_t jobs() const override { return kJobs; }
  std::size_t min_ops() const override { return 2; }

  void Setup(SpanRecorder& recorder) override {
    last_result_.reset();
    world_.reset();
    Scope span(recorder, "gen.world_build");
    world_ = std::make_unique<gen::SyntheticInternet>(
        HierarchicalWorld(2, jobs()));
    targets_ = SeededOrder(world_->AllLoopbacks(), seed_);
  }

  Outcome RunOp(std::size_t, SpanRecorder& recorder) override {
    const sim::EngineStats before = world_->engine().stats();
    campaign::Campaign campaign(world_->engine(), world_->vantage_points(),
                                options_);
    auto result = std::make_unique<campaign::CampaignResult>();
    {
      Scope span(recorder, "campaign.run");
      *result = campaign.Run(targets_);
    }
    std::string report;
    {
      Scope span(recorder, "analysis.report");
      report = Report(*result, world_->topology());
    }
    const Outcome outcome = OutcomeOf(
        *result, Minus(world_->engine().stats(), before), report);
    last_result_ = std::move(result);
    return outcome;
  }

  void Check(std::size_t op, const Outcome& outcome,
             std::vector<std::string>& failures) override {
    if (op == 0) {
      first_ = outcome;
      if (outcome.traces == 0 || outcome.revealed == 0) {
        failures.push_back("op 0 revealed no tunnel");
      }
    } else if (!(outcome == first_)) {
      failures.push_back("op " + std::to_string(op) +
                         " output differs from op 0");
    }
  }

  Counts Decompose(SpanRecorder& recorder,
                   std::vector<std::string>& failures) override {
    {
      Scope span(recorder, "routing.converge_full");
      const sim::Network network(world_->topology(), world_->configs(),
                                 world_->bgp_policy(), {}, nullptr, nullptr,
                                 jobs());
      (void)network;
    }
    const PhaseProbes phases =
        DecomposeCampaign(world_->engine(), world_->vantage_points(),
                          targets_, options_, world_->topology(), jobs(),
                          recorder, failures);
    CheckDecomposition(phases.targets, *last_result_, phases, failures);
    DecomposeReport(*last_result_, world_->topology(), recorder);
    Counts counts;
    AddResultCounts(first_, phases, counts);
    AddEngineCounts(first_.engine, 1.0, counts);
    return counts;
  }

  void PrintCounts(std::ostream& os) const override {
    os << "world: " << world_->topology().router_count() << " routers, "
       << targets_.size() << " discovery targets, "
       << world_->vantage_points().size() << " VPs\n";
    PrintOutcome(os, "op", first_);
  }

 private:
  std::uint64_t seed_;
  campaign::CampaignOptions options_{.shard_targets = true,
                                     .jobs = kJobs,
                                     .stream_shard_size = 4096};
  std::unique_ptr<gen::SyntheticInternet> world_;
  std::vector<netbase::Ipv4Address> targets_;
  std::unique_ptr<campaign::CampaignResult> last_result_;
  Outcome first_;
};

// --- churn-9k ------------------------------------------------------------

class ChurnWorkload final : public Workload {
 public:
  /// Flaps per cycle; each flap is two ops (down, then up).
  static constexpr std::size_t kFlaps = 21;
  /// The flap population, the internal links of transit and tier-1 ASes,
  /// falls into strata of different reach. Links of transit ASes that
  /// peer with no vantage point's AS re-probe about 1-3% of pairs; those
  /// of transit ASes adjacent to a vantage point's AS about 27% (every
  /// path of that vantage point crosses them); those of tier-1 ASes from
  /// about 1% to almost every pair. A cycle's flaps are apportioned to
  /// the strata by their share of the population, so every cycle of every
  /// seed holds the population's mix.
  enum Stratum : std::size_t { kDistantTransit, kVpAdjacentTransit, kTier1 };
  static constexpr const char* kStratumNames[] = {
      "distant transit", "VP-adjacent transit", "tier-1"};
  /// The p90 lies among a cycle's heaviest ops, about one op in seven, so
  /// a run measures several cycles' worth of them. Eight cycles (about
  /// 40 s) also outlast most of the shared host's speed swings, which
  /// otherwise move a whole run's medians.
  static constexpr std::size_t kMinMeasuredCycles = 8;
  /// Ops of the first cycle compared against a cold streaming campaign.
  static constexpr std::size_t kColdChecks = 4;
  /// One worker: a delta run probes a few hundred to a few thousand pairs
  /// in shards of 64 targets, so four workers gain little (about 10% on
  /// 4 vCPUs) and their per-shard barriers make every op wait on the
  /// slowest of four shared vCPUs.
  static constexpr std::size_t kJobs = 1;

  explicit ChurnWorkload(std::uint64_t seed) : seed_(seed) {}

  std::size_t setup_repetitions() const override { return 9; }
  std::size_t jobs() const override { return kJobs; }
  /// The warm-up cycle plus at least kMinMeasuredCycles whole cycles,
  /// and enough of them for a supported p90.
  std::size_t min_ops() const override {
    return period() * (1 + std::max(kMinMeasuredCycles,
                                    (kP90Ops + period() - 1) / period()));
  }
  std::size_t period() const override { return 2 * flaps_.size(); }
  std::size_t warmup_ops() const override { return period(); }
  std::size_t group() const override { return 2; }

  void Setup(SpanRecorder& recorder) override {
    campaign_.reset();
    cache_.reset();
    world_.reset();
    {
      Scope span(recorder, "gen.world_build");
      world_ = std::make_unique<gen::SyntheticInternet>(
          HierarchicalWorld(1, jobs()));
    }
    targets_ = SeededOrder(world_->AllLoopbacks(), seed_);
    campaign_ = std::make_unique<campaign::Campaign>(
        world_->engine(), world_->vantage_points(), options_);
    cache_ = std::make_unique<campaign::TraceCache>();
    const sim::EngineStats before = world_->engine().stats();
    {
      Scope span(recorder, "cache.fill");
      base_result_ = campaign_->RunDelta(targets_, *cache_);
    }
    base_ = OutcomeOf(base_result_, Minus(world_->engine().stats(), before),
                      Report(base_result_, world_->topology()));
    PickFlaps();
  }

  Outcome RunOp(std::size_t op, SpanRecorder& recorder) override {
    const topo::LinkId link = flaps_[(op % period()) / 2];
    const bool up = op % 2 == 1;
    topo::Topology& topology = world_->mutable_topology();
    const sim::EngineStats before = world_->engine().stats();
    topology.SetLinkUp(link, up);
    routing::ConvergenceDelta delta;
    {
      Scope span(recorder, "routing.reconverge");
      delta = world_->network().OnLinkStateChange(link);
    }
    {
      const routing::AsPathOracle oracle(topology,
                                         world_->network().bgp_level(),
                                         world_->network().bgp_policy());
      Scope span(recorder, "cache.invalidate");
      cache_->Invalidate(delta, oracle);
    }
    campaign::CampaignResult result;
    {
      Scope span(recorder, "campaign.run");
      result = campaign_->RunDelta(targets_, *cache_);
    }
    std::string report;
    {
      Scope span(recorder, "analysis.report");
      report = Report(result, topology);
    }
    return OutcomeOf(result, Minus(world_->engine().stats(), before), report);
  }

  void Check(std::size_t op, const Outcome& outcome,
             std::vector<std::string>& failures) override {
    // The report at a link state never depends on the cache's history.
    // The delta work does: ops after a flap's first down/up re-probe
    // against entries recorded at the down state, so the work counters
    // settle from the second cycle on, and repeat exactly after that.
    const std::size_t slot = op % period();
    const std::size_t cycle = op / period();
    const std::string name = "op " + std::to_string(op);
    if (cycle <= 1) cycles_[cycle].push_back(outcome);
    if (cycle >= 1 && !SameCampaign(outcome, cycles_[0][slot])) {
      failures.push_back(name + " differs from the same flap of cycle 0");
    }
    if (cycle >= 2 && !(outcome == cycles_[1][slot])) {
      failures.push_back(name + " work differs from the same flap of cycle 1");
    }
    if (op % 2 == 1 && !SameCampaign(outcome, base_)) {
      failures.push_back(name + " (link back up) differs from the base");
    }
    if (cycle == 1) {
      pairs_total_ += outcome.delta_pairs_total;
      pairs_reprobed_ += outcome.delta_pairs_reprobed;
      if (slot + 1 == period()) retained_bytes_ = cache_->RetainedBytes();
    }
    if (op < period() && std::find(cold_checked_.begin(), cold_checked_.end(),
                                   slot) != cold_checked_.end()) {
      campaign::Campaign cold(world_->engine(), world_->vantage_points(),
                              options_);
      const auto result = cold.Run(targets_);
      const Outcome expected = OutcomeOf(
          result, {}, Report(result, world_->topology()));
      if (!SameCampaign(outcome, expected)) {
        failures.push_back(name + " differs from a cold campaign");
      }
    }
  }

  Counts Decompose(SpanRecorder& recorder,
                   std::vector<std::string>& failures) override {
    // Back to the base link state: the decomposition runs there, against
    // the set-up's cold result, whatever op the loop stopped at.
    topo::Topology& topology = world_->mutable_topology();
    for (const topo::LinkId link : flaps_) {
      if (topology.link(link).up) continue;
      topology.SetLinkUp(link, true);
      world_->network().OnLinkStateChange(link);
    }
    {
      Scope span(recorder, "routing.converge_full");
      const sim::Network network(topology, world_->configs(),
                                 world_->bgp_policy(), {}, nullptr, nullptr,
                                 jobs());
      (void)network;
    }
    const PhaseProbes phases =
        DecomposeCampaign(world_->engine(), world_->vantage_points(),
                          targets_, options_, topology, jobs(), recorder,
                          failures);
    CheckDecomposition(phases.targets, base_result_, phases, failures);
    DecomposeReport(base_result_, topology, recorder);
    Counts counts;
    AddResultCounts(base_, phases, counts);
    sim::EngineStats cycle;
    for (const Outcome& o : cycles_[1]) cycle += o.engine;
    AddEngineCounts(cycle, static_cast<double>(cycles_[1].size()), counts);
    counts["cache.reprobe_frac"] =
        pairs_total_ == 0 ? 0.0
                          : static_cast<double>(pairs_reprobed_) /
                                static_cast<double>(pairs_total_);
    counts["cache.retained_mb"] =
        static_cast<double>(retained_bytes_) / (1024.0 * 1024.0);
    return counts;
  }

  void PrintCounts(std::ostream& os) const override {
    os << "world: " << world_->topology().router_count() << " routers, "
       << targets_.size() << " discovery targets, "
       << world_->vantage_points().size() << " VPs\n";
    for (std::size_t s = 0; s < std::size(kStratumNames); ++s) {
      os << "flap stratum " << kStratumNames[s] << ": "
         << stratum_links_[s] << " internal links, "
         << stratum_flaps_[s] << " flaps per cycle\n";
    }
    os << "flaps (link ids, seeded order):";
    for (const topo::LinkId link : flaps_) os << ' ' << link;
    os << "\n";
    PrintOutcome(os, "base (cold RunDelta)", base_);
    os << "cycle 1 (cycle 0 warms the cache up):\n";
    for (std::size_t i = 0; i < cycles_[1].size(); ++i) {
      const Outcome& o = cycles_[1][i];
      os << "op " << i << (i % 2 == 0 ? " down" : " up  ") << " link "
         << flaps_[i / 2] << ": reprobed " << o.delta_pairs_reprobed << "/"
         << o.delta_pairs_total << ", probes " << o.probes_sent
         << ", engine packets " << o.engine.packets_injected
         << ", candidate pairs " << o.candidate_pairs << ", revealed "
         << o.revealed << ", report fnv1a " << std::hex << o.report_digest
         << std::dec << "\n";
    }
    os << "cycle 1: reprobed " << pairs_reprobed_ << "/" << pairs_total_
       << " pairs, cache retains " << retained_bytes_ << " B\n";
  }

 private:
  /// The flap sequence: distinct links drawn per stratum, in numbers
  /// apportioned to the strata's sizes, in an order drawn from the seed.
  /// Like the world, the set is fixed: which links a seed drew would
  /// decide how many ops of a cycle are heavy, and the p90, which lies at
  /// the edge of the heavy ops, would then move with the seed.
  void PickFlaps() {
    if (!flaps_.empty()) return;
    const topo::Topology& topology = world_->topology();
    const auto as_of = [&](topo::InterfaceId interface) {
      return topology.router(topology.interface(interface).router).asn;
    };
    std::set<topo::AsNumber> vp_ases;
    for (const netbase::Ipv4Address vp : world_->vantage_points()) {
      if (const topo::Host* host = topology.FindHost(vp)) {
        vp_ases.insert(topology.router(host->gateway).asn);
      }
    }
    std::set<topo::AsNumber> vp_adjacent;
    for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
      if (topology.IsInternalLink(l)) continue;
      const topo::AsNumber a = as_of(topology.link(l).a);
      const topo::AsNumber b = as_of(topology.link(l).b);
      if (vp_ases.contains(a)) vp_adjacent.insert(b);
      if (vp_ases.contains(b)) vp_adjacent.insert(a);
    }
    std::vector<topo::LinkId> strata[std::size(kStratumNames)];
    for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
      if (!topology.IsInternalLink(l)) continue;
      const topo::AsNumber asn = as_of(topology.link(l).a);
      switch (world_->profile(asn).role) {
        case gen::AsRole::kTier1: strata[kTier1].push_back(l); break;
        case gen::AsRole::kTransit:
          strata[vp_adjacent.contains(asn) ? kVpAdjacentTransit
                                           : kDistantTransit]
              .push_back(l);
          break;
        case gen::AsRole::kStub: break;
      }
    }
    for (std::size_t s = 0; s < std::size(strata); ++s) {
      stratum_links_.push_back(strata[s].size());
    }
    stratum_flaps_ = Apportion(stratum_links_, kFlaps);
    netbase::Rng draw(kHierarchicalWorldSeed ^ 0x9e3779b97f4a7c15ULL);
    for (std::size_t s = 0; s < std::size(strata); ++s) {
      std::vector<topo::LinkId>& pool = strata[s];
      for (std::size_t i = 0; i < stratum_flaps_[s] && !pool.empty(); ++i) {
        const std::size_t pick = draw.UniformU32() % pool.size();
        flaps_.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    netbase::Rng rng(seed_ ^ 0x9e3779b97f4a7c15ULL);
    for (std::size_t i = flaps_.size(); i > 1; --i) {
      std::swap(flaps_[i - 1], flaps_[rng.UniformU32() % i]);
    }
    while (cold_checked_.size() < std::min(kColdChecks, period())) {
      const std::size_t slot = rng.UniformU32() % period();
      if (std::find(cold_checked_.begin(), cold_checked_.end(), slot) ==
          cold_checked_.end()) {
        cold_checked_.push_back(slot);
      }
    }
  }

  std::uint64_t seed_;
  campaign::CampaignOptions options_{.shard_targets = true,
                                     .jobs = kJobs,
                                     .stream_shard_size = 64};
  std::unique_ptr<gen::SyntheticInternet> world_;
  std::vector<netbase::Ipv4Address> targets_;
  std::unique_ptr<campaign::Campaign> campaign_;
  std::unique_ptr<campaign::TraceCache> cache_;
  campaign::CampaignResult base_result_;
  Outcome base_;
  std::vector<topo::LinkId> flaps_;
  /// Internal links per stratum, and the flaps each gets per cycle.
  std::vector<std::size_t> stratum_links_;
  std::vector<std::size_t> stratum_flaps_;
  std::vector<std::size_t> cold_checked_;
  /// Outcomes of the first two cycles of ops.
  std::vector<Outcome> cycles_[2];
  std::uint64_t pairs_total_ = 0;
  std::uint64_t pairs_reprobed_ = 0;
  std::size_t retained_bytes_ = 0;
};

// --- main loop -----------------------------------------------------------

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  /// Required for a workload run: the length lives in BENCHMARK.json.
  std::optional<double> seconds;
  bool trace = false;
  std::string spans_path;
  bool selftest = false;
};

constexpr std::uint64_t kDefaultSeed = 1;

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "cold-88k") return std::make_unique<ColdWorkload>(seed);
  if (name == "churn-9k") return std::make_unique<ChurnWorkload>(seed);
  return nullptr;
}

int Usage() {
  std::cerr << "usage: perfbench --workload <cold-88k|churn-9k> "
               "--seconds S [--seed N] [--trace 0|1] [--spans FILE]\n"
               "       perfbench --selftest\n";
  return 2;
}

std::optional<Options> Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      options.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return std::nullopt;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (options.selftest) return options;
  if (options.workload.empty() || !options.seconds ||
      !(*options.seconds >= 0.0 && *options.seconds <= 3600.0)) {
    return std::nullopt;
  }
  return options;
}

/// The value and unit of one reported metric.
struct Metric {
  double value;
  const char* unit;
};

void PrintJson(bool correct, std::size_t attempted, std::size_t failed,
               const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << metric.value << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Median duration (seconds) of the recorded spans called `name`.
double SpanMedian(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (span.name == name) durations.push_back(span.end_s - span.start_s);
  }
  return Median(durations);
}

int Run(const Options& options) {
  const std::uint64_t seed = options.seed.value_or(kDefaultSeed);
  auto workload = MakeWorkload(options.workload, seed);
  if (workload == nullptr) return Usage();

  SpanRecorder recorder;
  std::vector<std::string> failures;

  // One set-up runs before the ops and the other repetitions after them:
  // peak RSS is read in the op loop, so it covers one set-up, not the
  // heap that rebuilding the world leaves behind (which varies run to run).
  std::vector<double> setup_s;
  const auto setup = [&] {
    recorder.set_enabled(options.trace);
    recorder.set_op(-1);
    const auto start = Clock::now();
    Scope span(recorder, "setup");
    workload->Setup(recorder);
    setup_s.push_back(Since(start));
  };
  setup();

  std::vector<double> latency_s;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<double> cpu_s;
  std::vector<double> cpu_util;
  std::size_t attempted = 0;
  std::size_t failed_ops = 0;
  double peak_rss_mb = 0.0;
  const std::size_t warmup = workload->warmup_ops();
  auto window_start = Clock::now();
  for (std::size_t op = 0;; ++op) {
    if (op == warmup) window_start = Clock::now();
    const double elapsed = Since(window_start);
    if (op >= workload->min_ops() &&
        (op - warmup) % workload->period() == 0 &&
        elapsed >= *options.seconds) {
      break;
    }
    // Warm-up ops are timed by no metric, so they are not traced either.
    const bool traced = options.trace && op >= warmup && workload->Traced(op);
    recorder.set_enabled(traced);
    recorder.set_op(static_cast<std::int64_t>(op));
    const double cpu_start = CpuSeconds();
    const auto start = Clock::now();
    Outcome outcome;
    {
      Scope span(recorder, "op");
      outcome = workload->RunOp(op, recorder);
    }
    const double wall = Since(start);
    const double cpu = CpuSeconds() - cpu_start;
    recorder.set_enabled(false);
    ++attempted;
    if (op >= warmup) {
      latency_s.push_back(wall);
      (traced ? traced_s : untraced_s).push_back(wall);
      cpu_s.push_back(cpu);
      cpu_util.push_back(cpu /
                         (wall * static_cast<double>(workload->jobs())));
    }
    const std::size_t before = failures.size();
    workload->Check(op, outcome, failures);
    if (failures.size() != before) ++failed_ops;
    // Peak RSS over set-up plus a fixed prefix of ops, so the figure
    // covers the same work however many ops the time budget allows.
    if (op + 1 == workload->min_ops()) peak_rss_mb = PeakRssMb();
  }

  Counts counts;
  if (options.trace) {
    recorder.set_enabled(true);
    recorder.set_op(-1);
    Scope span(recorder, "decompose");
    counts = workload->Decompose(recorder, failures);
  }
  while (setup_s.size() < workload->setup_repetitions()) setup();
  const int selftest_failures = RunSelfTests();
  if (selftest_failures != 0) {
    failures.push_back(std::to_string(selftest_failures) +
                       " self-test check(s) failed");
  }

  std::cout << "workload " << options.workload << ", seed " << seed
            << ", jobs " << workload->jobs() << ", closed loop (1 client), "
            << (options.trace ? "traced" : "untraced") << " run\n";
  workload->PrintCounts(std::cout);
  for (const std::string& failure : failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }

  std::map<std::string, Metric> metrics;
  const double p50 = Median(latency_s);
  const auto p90 = TailPercentile(latency_s, 0.9);
  std::cout << std::setprecision(6);
  if (!options.trace) {
    // Without ten samples beyond it the rule supports no p90; the JSON
    // then carries the plain nearest-rank p90 (the slowest op below ten
    // ops), flagged as such here.
    const double p90_rank = *TailPercentile(latency_s, 0.9, 0);
    metrics["setup_s"] = {Median(setup_s), "s"};
    metrics["latency_p50_s"] = {p50, "s"};
    metrics["latency_p90_s"] = {p90.value_or(p90_rank), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    metrics["ops_ok_frac"] = {
        1.0 - static_cast<double>(failed_ops) / static_cast<double>(attempted),
        "fraction"};
    std::cout << "setup_s " << Median(setup_s) << " s (median of "
              << setup_s.size() << ")\n"
              << "latency_p50_s " << p50 << " s (n=" << latency_s.size()
              << ")\n";
    if (p90) {
      std::cout << "latency_p90_s " << *p90 << " s (n=" << latency_s.size()
                << ")\n";
    } else {
      std::cout << "latency_p90_s " << p90_rank << " s (n=" << latency_s.size()
                << ", below the rule's 100 samples: nearest rank, "
                << "unsupported)\n";
    }
    std::cout << "peak_rss_mb " << peak_rss_mb << " MB\n"
              << "ops_failed_frac "
              << static_cast<double>(failed_ops) /
                     static_cast<double>(attempted)
              << " (" << failed_ops << " of " << attempted << ")\n";
  } else {
    const auto& spans = recorder.spans();
    const auto span_s = [&](const char* name) {
      return SpanMedian(spans, name);
    };
    const double discovery = span_s("probe.discovery");
    const double targeted = span_s("probe.targeted");
    const double reprobe =
        counts.contains("cache.reprobe_frac") ? counts["cache.reprobe_frac"]
                                              : 1.0;
    metrics["gen.world_build_s"] = {span_s("gen.world_build"), "s"};
    metrics["routing.converge_full_s"] = {span_s("routing.converge_full"),
                                          "s"};
    metrics["routing.reconverge_ms"] = {
        1e3 * span_s("routing.reconverge"), "ms"};
    metrics["probe.discovery_s"] = {discovery, "s"};
    metrics["probe.targeted_s"] = {targeted, "s"};
    metrics["probe.probes_per_s"] = {
        counts["probe.probes"] / (discovery + targeted), "1/s"};
    for (const char* name : {"sim.packets", "sim.icmp", "sim.labels_pushed",
                             "sim.labels_popped"}) {
      metrics[name] = {counts[name], "count"};
    }
    metrics["sim.hops_per_probe"] = {counts["sim.hops_per_probe"],
                                     "hops/probe"};
    const double run = span_s("campaign.run");
    metrics["campaign.run_s"] = {run, "s"};
    metrics["campaign.dataset_s"] = {span_s("campaign.dataset"), "s"};
    metrics["campaign.select_s"] = {span_s("campaign.select"), "s"};
    metrics["campaign.reduce_s"] = {
        DerivedReduce(run, discovery, targeted, span_s("campaign.dataset"),
                      span_s("campaign.select"), reprobe),
        "s"};
    for (const char* name : {"campaign.probes_sent", "campaign.traces",
                             "campaign.reduce_probes",
                             "reveal.revelation_traces",
                             "fingerprint.addresses"}) {
      metrics[name] = {counts[name], "count"};
    }
    metrics["cache.invalidate_ms"] = {1e3 * span_s("cache.invalidate"),
                                      "ms"};
    metrics["cache.reprobe_frac"] = {counts["cache.reprobe_frac"],
                                     "fraction"};
    metrics["cache.retained_mb"] = {counts["cache.retained_mb"], "MB"};
    metrics["cache.fill_s"] = {span_s("cache.fill"), "s"};
    metrics["reveal.success_frac"] = {counts["reveal.success_frac"],
                                      "fraction"};
    for (const char* name :
         {"analysis.report", "analysis.discovery_table",
          "analysis.corrected_copy", "analysis.clustering",
          "analysis.deployment_table", "io.write", "io.read",
          "io.replay_dataset"}) {
      metrics[std::string(name) + "_s"] = {span_s(name), "s"};
    }
    metrics["io.bytes"] = {counts["io.bytes"], "B"};
    metrics["exec.cpu_util"] = {Median(cpu_util), "fraction"};
    metrics["process.cpu_s"] = {Median(cpu_s), "s"};
    const double overhead = Median(traced_s) - Median(untraced_s);
    metrics["trace.overhead_s"] = {overhead, "s"};

    std::cout << "per-layer self time (s, summed over " << spans.size()
              << " spans; set-ups, " << traced_s.size()
              << " traced ops and the decomposition):\n";
    for (const auto& [layer, seconds] : LayerSelfTimes(spans)) {
      std::cout << "  " << std::left << std::setw(12) << layer << std::right
                << ' ' << seconds << "\n";
    }
    std::cout << "tracing overhead: traced - untraced latency_p50_s = "
              << overhead << " s (" << traced_s.size() << " traced, "
              << untraced_s.size() << " untraced ops)\n";
    for (const auto& [name, metric] : metrics) {
      std::cout << name << " " << metric.value << " " << metric.unit << "\n";
    }
    if (!options.spans_path.empty()) {
      std::ofstream out(options.spans_path);
      recorder.WriteJsonLines(out);
      if (!out) failures.push_back("cannot write " + options.spans_path);
    }
  }

  PrintJson(failures.empty(), attempted, failed_ops, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto options = perfbench::Parse(argc, argv);
  if (!options) return perfbench::Usage();
  if (options->selftest) {
    const int failures = perfbench::RunSelfTests();
    std::cout << (failures == 0 ? "selftest ok" : "selftest FAILED") << "\n";
    return failures == 0 ? 0 : 1;
  }
  return perfbench::Run(*options);
}
