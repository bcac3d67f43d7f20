// Inter-AS routing (BGP-lite).
//
// Model: every AS announces its address block; best path = shortest AS path
// (ties broken on lowest neighbor ASN, deterministically); inside an AS each
// router picks its *nearest* border router towards the chosen next-hop AS
// (hot-potato), with next-hop-self semantics — the recursive BGP next hop is
// the egress border's loopback, which is what an Ingress LER resolves
// through an LDP LSP. Hot-potato egress choice is the mechanism that makes
// forward and return paths asymmetric, which FRPLA must tolerate (paper
// Sec. 3.4).
//
// As on a real router, BGP routes are stored once and resolved through the
// IGP: each AS has one BGP prefix table (BgpLevel::tables), and each router
// stores only which border every egress group of its AS resolves to (see
// routing/fib.h). No router holds a copy of a BGP route.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "routing/fib.h"
#include "routing/spf_engine.h"
#include "topo/topology.h"

namespace wormhole::routing {

struct BgpPolicy {
  /// ASes that never transit traffic (stub/customer ASes). They can be the
  /// source or destination AS of a path but are not expanded through.
  std::set<topo::AsNumber> stub_ases;

  /// Hierarchical (valley-free) scale mode. Off, every AS routes one
  /// prefix per reachable AS — O(#ASes) BGP routes per AS, which is
  /// fine for testbed worlds and fatal at 100k routers. On, routing
  /// mirrors provider aggregation in the real Internet: a stub AS
  /// installs its intra-AS routes plus a single 0.0.0.0/0 default toward
  /// its lowest-ASN non-stub neighbour; a core (non-stub) AS installs one
  /// covering `aggregates` prefix per other reachable core AS plus a
  /// direct route per adjacent stub. Per-AS BGP table size drops from
  /// O(#ASes) to O(#core ASes + adjacent stubs). The AS-level BFS runs on
  /// the core graph alone — stubs are neither nodes nor peers in it — so
  /// BgpLevel::next_for holds one row per core AS, covering core ASes
  /// only. Requires customer address blocks to be allocated inside their
  /// provider's announced aggregate (gen::internet's hierarchical address
  /// plan does this).
  bool hierarchical = false;
  /// Covering prefix each core AS announces (its own block plus its
  /// customers' blocks); a core AS absent from the map announces just
  /// its own block. Ignored unless `hierarchical`.
  std::map<topo::AsNumber, Prefix> aggregates;
};

/// One eBGP adjacency: local border router + the link to the remote AS.
struct BorderLink {
  RouterId local = topo::kNoRouter;
  RouterId remote = topo::kNoRouter;
  topo::LinkId link = topo::kNoLink;
};

/// One egress group of an AS: where a set of its BGP prefixes leaves it.
/// Either an exit group — the AS's border links toward one next AS, in
/// link-id order (which fixes every hot-potato tie-break) — or a subnet
/// group: the one border router that injects eBGP-link subnets.
struct EgressGroup {
  /// The exit group's border links; null for a subnet group. Points into
  /// BgpLevel::adjacency.
  const std::vector<BorderLink>* links = nullptr;
  /// The subnet group's border router.
  RouterId border = topo::kNoRouter;
};

/// One AS's BGP state: its prefix table, which every router of the AS
/// resolves through, and the egress groups the table's entries name.
struct AsBgp {
  BgpTable table;
  std::vector<EgressGroup> groups;
};

/// The AS-level view of a converged BGP: the eBGP adjacency (per AS,
/// grouped by peer, in link-id order) and, for every destination AS, each
/// source AS's chosen next AS (0 when unreachable; the destination maps to
/// itself; core ASes only in hierarchical mode). Shorter AS paths win, and
/// equal lengths go to the lower next ASN.
///
/// `tables` holds one AsBgp per AS, in ascending ASN order (`asns`).
/// Its table maps each prefix the AS routes externally to a group:
///  * every eBGP-link subnet a border router of the AS injects via iBGP
///    (next-hop-self) — one subnet group per injecting border;
///  * every destination's block (flat mode), or each other core AS's
///    aggregate plus each stub customer's block (a core AS in
///    hierarchical mode), or one default route (a stub AS in hierarchical
///    mode) — one exit group per next AS used.
/// Groups are numbered in first-use order, subnet groups first. Routers
/// hold no copy of these routes: routing::Fib resolves them per group.
/// Groups point into `adjacency` and FIBs point into `tables`: moving a
/// BgpLevel is fine (map nodes and vector buffers survive), copying one
/// is not.
struct BgpLevel {
  BgpLevel() = default;
  BgpLevel(BgpLevel&&) = default;
  BgpLevel& operator=(BgpLevel&&) = default;
  BgpLevel(const BgpLevel&) = delete;
  BgpLevel& operator=(const BgpLevel&) = delete;

  /// `asn`'s BGP state; `asn` must be an AS of the topology.
  [[nodiscard]] const AsBgp& Of(topo::AsNumber asn) const;

  std::map<topo::AsNumber,
           std::map<topo::AsNumber, std::vector<BorderLink>>>
      adjacency;
  std::map<topo::AsNumber, std::map<topo::AsNumber, topo::AsNumber>>
      next_for;
  std::vector<topo::AsNumber> asns;
  std::vector<AsBgp> tables;
};

/// Computes the AS-level state once. Depends only on the topology's
/// inter-AS links and the policy — not on any FIB — so it can run before
/// (or concurrently with) IGP installation.
BgpLevel ComputeBgpLevel(const topo::Topology& topology,
                         const BgpPolicy& policy);

/// Attaches one router's FIB to its AS's BGP table and resolves each of
/// the AS's egress groups for it: a border router with eBGP links in an
/// exit group leaves over them directly; otherwise the group goes to the
/// nearest border by IGP metric (hot-potato; ties to the first in link-id
/// order), through the router's IGP route to that border's loopback.
/// Requires `fib` to already hold the router's connected + IGP routes,
/// and `level` to outlive it. Writes only `fib` — safe to fan out across
/// routers.
void InstallBgpRoutesForRouter(const topo::Topology& topology,
                               const BgpLevel& level, const SpfTree& tree,
                               RouterId rid, Fib& fib);

/// InstallBgpRoutesForRouter for every router. IGP routes must already be
/// installed (hot-potato needs intra-AS distances). Serial convenience
/// wrapper that builds a private SpfEngine.
void InstallBgpRoutes(const topo::Topology& topology, const BgpLevel& level,
                      std::vector<Fib>& fibs);

/// The chosen next AS from `from_as` towards `to_as`; 0 if unreachable or
/// equal. Exposed for tests and for the generator's sanity checks.
topo::AsNumber BgpNextAs(const topo::Topology& topology,
                         const BgpPolicy& policy, topo::AsNumber from_as,
                         topo::AsNumber to_as);

}  // namespace wormhole::routing
