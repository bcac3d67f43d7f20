// Convenience facade: computes the full converged control plane (IGP, BGP,
// LDP) for a topology + MPLS configuration and exposes a ready Engine.
//
// Convergence is phased over the shared routing::SpfEngine — one SPF per
// (AS, source) per topology generation — and each phase fans out over an
// exec::ThreadPool with deterministic merges, so the converged state is
// bit-identical at any jobs count (see docs/convergence.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/sync.h"
#include "mpls/config.h"
#include "mpls/ldp.h"
#include "mpls/segment_routing.h"
#include "netbase/thread_annotations.h"
#include "routing/bgp.h"
#include "routing/delta.h"
#include "routing/fib.h"
#include "routing/igp.h"
#include "routing/spf_engine.h"
#include "sim/engine.h"
#include "topo/topology.h"

namespace wormhole::exec {
class ThreadPool;
}  // namespace wormhole::exec

namespace wormhole::sim {

class Network {
 public:
  /// `topology`, `configs` and `te` (if given) must outlive the network.
  /// `convergence_jobs`: worker threads for the control-plane build; 0 is
  /// auto (hardware concurrency), 1 forces the serial path. The converged
  /// state does not depend on the value.
  Network(const topo::Topology& topology, const mpls::MplsConfigMap& configs,
          routing::BgpPolicy bgp_policy = {}, EngineOptions options = {},
          const mpls::TeDatabase* te = nullptr,
          const mpls::SrDatabase* sr = nullptr,
          std::size_t convergence_jobs = 0);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Incremental reconvergence after topology.SetLinkUp(link): recomputes
  /// only the state the flip can affect and re-seals only the touched
  /// FIBs. The result is byte-identical to a full rebuild.
  ///
  ///  * Intra-AS link: that AS's SPF trees, its routers' stored routes and
  ///    BGP egress choices, and its LDP domain are rebuilt; everything
  ///    else (including the per-AS BGP tables, which only see inter-AS
  ///    links) is reused.
  ///  * Inter-AS link: no SPF tree changes, but the AS graph and the two
  ///    endpoint border routers' connected/injected subnets do — so the
  ///    per-AS BGP tables are rebuilt, every router re-resolves its egress
  ///    choices from the cached trees, and only the two endpoints' stored
  ///    routes are rebuilt; LDP domains (internal FECs only) are kept.
  ///
  /// Call it once per SetLinkUp, before any further topology mutation,
  /// and never concurrently with Send/SendBatch: reconvergence is the
  /// exclusive write phase of the engine's shared read-only state (the
  /// `convergence_role_` capability below — every rebuild helper
  /// REQUIRES it, so mutation outside the phase fails to compile).
  ///
  /// Returns the convergence delta — what the reconvergence dropped and
  /// rebuilt, stamped with the new epoch — so epoch-versioned result
  /// caches (campaign::TraceCache) can invalidate exactly the entries
  /// the flip can have dirtied (docs/incremental.md). Callers that keep
  /// no cache may ignore it.
  routing::ConvergenceDelta OnLinkStateChange(topo::LinkId link);

  [[nodiscard]] Engine& engine() { return *engine_; }
  [[nodiscard]] const std::vector<routing::Fib>& fibs() const { return fibs_; }
  [[nodiscard]] const mpls::LdpTables& ldp() const { return ldp_; }
  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }
  /// The shared SPF cache (also the per-convergence SPF counting hook).
  [[nodiscard]] routing::SpfEngine& spf() { return spf_; }
  /// The engine's epoch counter, bumped by the constructor's full
  /// convergence and by every OnLinkStateChange — the single source of
  /// truth trace caches stamp entries with.
  [[nodiscard]] std::uint64_t convergence_epoch() const {
    return engine_->convergence_epoch();
  }
  /// The cached AS-level BGP state / policy, exposed so the AS-path
  /// oracle (routing::AsPathOracle) can mirror the converged AS-level
  /// routing when computing dirty sets.
  [[nodiscard]] const routing::BgpLevel& bgp_level() const {
    return bgp_level_;
  }
  [[nodiscard]] const routing::BgpPolicy& bgp_policy() const {
    return bgp_policy_;
  }

 private:
  /// Full phased build: prime SPF, install IGP+BGP per router, seal,
  /// build LDP, build the engine.
  void ConvergeFull() REQUIRES(convergence_role_);
  /// Rebuilds one AS after an internal link flip, filling `delta` with
  /// what was dropped (scope kIntraAs).
  void ReconvergeAs(topo::AsNumber asn, routing::ConvergenceDelta& delta)
      REQUIRES(convergence_role_);
  /// Rebuilds the per-AS BGP tables and every router's egress choices
  /// after a flip of inter-AS link `link`, plus the two endpoints' stored
  /// routes (delta scope kGlobal).
  void ReconvergeInterAs(topo::LinkId link, routing::ConvergenceDelta& delta)
      REQUIRES(convergence_role_);
  /// Installs connected+IGP routes, resolves the AS's BGP egress groups
  /// and seals, for each listed
  /// router, in parallel; `plans` must cover every listed router's AS.
  /// The fan-out tasks write disjoint FIB slots and read shared inputs
  /// published by the phase hand-off (see docs/static-analysis.md).
  void InstallRoutes(const std::vector<topo::RouterId>& routers,
                     const std::vector<routing::IgpPlan>& plans)
      REQUIRES(convergence_role_);

  /// The exclusive convergence phase: scoped (exec::RoleLock) by the
  /// constructor and OnLinkStateChange. `fibs_`, `ldp_`, `bgp_level_`
  /// and the engine caches are mutated only inside it and are read-only
  /// shared state for any number of prober threads outside it; the
  /// fields themselves stay un-GUARDED_BY because the parallel install
  /// tasks and the public read accessors touch them from outside the
  /// role by design.
  exec::Role convergence_role_;

  const topo::Topology* topology_;
  const mpls::MplsConfigMap* configs_;
  routing::BgpPolicy bgp_policy_;
  EngineOptions options_;
  const mpls::TeDatabase* te_;
  const mpls::SrDatabase* sr_;
  /// Null when the effective jobs count is 1 (every fan-out runs inline).
  std::unique_ptr<exec::ThreadPool> pool_;
  routing::SpfEngine spf_;
  /// Cached AS-level BGP state; reusable while no inter-AS link changes.
  routing::BgpLevel bgp_level_;
  std::vector<routing::Fib> fibs_;
  mpls::LdpTables ldp_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace wormhole::sim
