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

  /// Hierarchical (valley-free) scale mode. Off, every router carries one
  /// route per reachable AS — O(#ASes) FIB entries per router, which is
  /// fine for testbed worlds and fatal at 100k routers. On, routing
  /// mirrors provider aggregation in the real Internet: a stub AS
  /// installs its intra-AS routes plus a single 0.0.0.0/0 default toward
  /// its lowest-ASN non-stub neighbour; a core (non-stub) AS installs one
  /// covering `aggregates` prefix per other reachable core AS plus a
  /// direct route per adjacent stub. Per-router FIB size drops from
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

/// One pre-resolved inter-AS destination for the routers of a source AS:
/// the destination's address block and the source's border links toward
/// the chosen next AS.
struct BgpExit {
  Prefix prefix;
  const std::vector<BorderLink>* borders = nullptr;
};

/// One eBGP-link subnet a border router injects into its AS via iBGP.
struct BorderSubnet {
  Prefix subnet;
  RouterId border = topo::kNoRouter;
};

/// The AS-level view of a converged BGP: the eBGP adjacency (per AS,
/// grouped by peer, in link-id order — which fixes all hot-potato
/// tie-breaks) and, for every destination AS, each source AS's chosen
/// next AS (0 when unreachable; the destination maps to itself; core ASes
/// only in hierarchical mode). Shorter AS paths win, and equal lengths go
/// to the lower next ASN.
///
/// `exits` and `border_subnets` are the same data flattened into each
/// source AS's install order, resolved once in ComputeBgpLevel so the
/// per-router install loop does no map descents. `exits` points into
/// `adjacency`: moving a BgpLevel is fine (map nodes survive), copying
/// one is not.
struct BgpLevel {
  std::map<topo::AsNumber,
           std::map<topo::AsNumber, std::vector<BorderLink>>>
      adjacency;
  std::map<topo::AsNumber, std::map<topo::AsNumber, topo::AsNumber>>
      next_for;
  std::map<topo::AsNumber, std::vector<BgpExit>> exits;
  std::map<topo::AsNumber, std::vector<BorderSubnet>> border_subnets;
};

/// Computes the AS-level state once. Depends only on the topology's
/// inter-AS links and the policy — not on any FIB — so it can run before
/// (or concurrently with) IGP installation.
BgpLevel ComputeBgpLevel(const topo::Topology& topology,
                         const BgpPolicy& policy);

/// Installs BGP routes for one router from its SPF tree and the AS-level
/// state. Requires `fib` to already hold the router's connected + IGP
/// routes. Writes only `fib` — safe to fan out across routers.
void InstallBgpRoutesForRouter(const topo::Topology& topology,
                               const BgpLevel& level, const SpfTree& tree,
                               RouterId rid, Fib& fib);

/// Computes AS-level best paths for every destination AS and installs BGP
/// routes into every router's FIB. IGP routes must already be installed
/// (hot-potato needs intra-AS distances). Serial convenience wrapper that
/// builds a private SpfEngine.
void InstallBgpRoutes(const topo::Topology& topology, const BgpPolicy& policy,
                      std::vector<Fib>& fibs);

/// The chosen next AS from `from_as` towards `to_as`; 0 if unreachable or
/// equal. Exposed for tests and for the generator's sanity checks.
topo::AsNumber BgpNextAs(const topo::Topology& topology,
                         const BgpPolicy& policy, topo::AsNumber from_as,
                         topo::AsNumber to_as);

}  // namespace wormhole::routing
