// Per-router forwarding state.
//
// A router forwards from two tables. Its own `Fib` stores the routes that
// really are per router: connected prefixes and IGP routes (plus whatever
// a test AddRoute()s). The BGP routes of its AS are stored once per AS,
// in a shared `BgpTable` (routing/bgp.h's ComputeBgpLevel builds them):
// each BGP prefix maps to an *egress group* — the AS's border links
// toward one next AS, or the one border router that injects an eBGP-link
// subnet. The Fib keeps, per group, where that group resolves for this
// router: through its own IGP route to the chosen egress border's
// loopback (next-hop-self — the BGP next hop an Ingress LER resolves, and
// the FEC it pushes the LDP label for), or straight out of its own eBGP
// links (a border router's direct exit). Resolve() is longest-prefix
// match over the union of both tables; Entries() materializes the full
// per-router view that a router copying every BGP route would hold.
//
// Both tables are queried through a PrefixIndex: a populated-prefix-length
// bitmask plus an open-addressing hash over (masked address, length). LPM
// then touches only the handful of prefix lengths that actually exist
// instead of walking all 33, and each probe is a single hash slot chase.
// A Fib's stored routes are a sorted vector; Seal() compiles their index
// lazily on the first lookup (thread-safely) or eagerly, and AddRoute
// invalidates it, so build → query → rebuild cycles just work.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netbase/contracts.h"
#include "netbase/inline_vec.h"
#include "netbase/ipv4.h"
#include "topo/topology.h"

namespace wormhole::routing {

using netbase::Ipv4Address;
using netbase::Prefix;
using topo::LinkId;
using topo::RouterId;

enum class RouteSource : std::uint8_t {
  kConnected,  ///< prefix on a local interface (or the loopback)
  kIgp,        ///< learned via intra-AS SPF
  kBgp,        ///< external, via the AS-level best path
};

/// One forwarding adjacency: send over `link` to `neighbor`.
struct NextHop {
  LinkId link = topo::kNoLink;
  RouterId neighbor = topo::kNoRouter;

  friend bool operator==(const NextHop&, const NextHop&) = default;
  friend auto operator<=>(const NextHop&, const NextHop&) = default;
};

/// An ECMP next-hop set. Real sets are almost always 1-3 hops, so they
/// live inline in the FibEntry — installing ~10^5 routes per convergence
/// must not mean ~10^5 heap vectors.
using NextHopSet = netbase::InlineVec<NextHop, 4>;

struct FibEntry {
  Prefix prefix;
  RouteSource source = RouteSource::kConnected;
  /// IGP metric to the prefix (0 for connected; AS-internal part for BGP).
  int metric = 0;
  /// Equal-cost next hops, sorted for determinism. Empty for a connected
  /// prefix on the router itself (local delivery).
  NextHopSet next_hops;
  /// For BGP routes on non-border routers: the loopback of the chosen
  /// egress border router (next-hop-self). Unspecified otherwise.
  Ipv4Address bgp_next_hop;
};

/// A longest-prefix-match result from either table, by value. `next_hops`
/// points into the router's Fib (valid until the Fib next changes) and is
/// null when no route covers the address.
struct Route {
  Prefix prefix;
  RouteSource source = RouteSource::kConnected;
  int metric = 0;
  const NextHopSet* next_hops = nullptr;
  Ipv4Address bgp_next_hop;

  explicit operator bool() const { return next_hops != nullptr; }
};

/// The sealed query side of a prefix table: maps each of a table's
/// distinct prefixes to a 32-bit value. Build() is one pass; lookups are
/// lock-free afterwards.
class PrefixIndex {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Indexes `count` prefixes; `entry_of(i)` returns the i-th (prefix,
  /// value) pair. Values must not be kAbsent.
  template <typename EntryOf>
  void Build(std::size_t count, EntryOf entry_of) {
    Reset(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto [prefix, value] = entry_of(i);
      Insert(prefix, value);
    }
  }

  /// The value of the prefix (`address` already masked to `length`), or
  /// kAbsent.
  [[nodiscard]] std::uint32_t Find(std::uint32_t address, int length) const;

  /// Hints the first hash slot of (masked `address`, `length`).
  void Prefetch(std::uint32_t address, int length) const;

  /// Bit l set ⇔ some /l prefix is indexed; LPM probes only these
  /// lengths, most specific first.
  [[nodiscard]] std::uint64_t lengths() const { return lengths_; }

 private:
  struct Slot {
    std::uint64_t key = 0;  ///< 0 = empty (KeyOf never returns 0)
    std::uint32_t value = 0;
  };

  void Reset(std::size_t count);
  void Insert(const Prefix& prefix, std::uint32_t value);

  std::vector<Slot> slots_;
  std::uint64_t slot_mask_ = 0;
  std::uint64_t lengths_ = 0;
};

/// One AS's BGP routes, shared read-only by all of its routers' FIBs.
/// Every prefix maps to one egress group of the AS (the group numbering
/// is the builder's; routing/bgp.h documents it). Finished once, by its
/// builder, before any Fib attaches to it.
class BgpTable {
 public:
  struct Entry {
    Prefix prefix;
    std::uint32_t group = 0;
    /// An exit (AS-level best path) overrides a router's stored route for
    /// the same prefix; an injected eBGP-link subnet yields to it.
    bool exit = false;
  };

  /// Adds a route; `group` must be below `group_count`.
  void Add(const Prefix& prefix, std::uint32_t group, bool exit);
  /// Sorts the routes and indexes them. Among routes of one prefix the
  /// historical install order decides: the last exit, else the first
  /// subnet. `group_count` is the number of egress groups.
  void Finish(std::uint32_t group_count);

  /// Maps each prefix to `Code(entry)`, so a lookup needs no load of the
  /// entry itself.
  [[nodiscard]] const PrefixIndex& index() const { return index_; }
  static constexpr std::uint32_t Code(std::uint32_t group, bool exit) {
    return group << 1 | static_cast<std::uint32_t>(exit);
  }
  /// All routes, in (address, length-ascending) order.
  [[nodiscard]] std::span<const Entry> entries() const { return entries_; }
  [[nodiscard]] std::uint32_t group_count() const { return group_count_; }

 private:
  std::vector<Entry> entries_;
  PrefixIndex index_;
  std::uint32_t group_count_ = 0;
};

/// A router's full route set, materialized from both tables in (address,
/// length-ascending) order. Iterates as `const FibEntry*`.
class RouteListing {
 public:
  class Iterator {
   public:
    explicit Iterator(const FibEntry* at) : at_(at) {}
    const FibEntry* operator*() const { return at_; }
    Iterator& operator++() {
      ++at_;
      return *this;
    }
    friend bool operator==(Iterator, Iterator) = default;

   private:
    const FibEntry* at_;
  };

  explicit RouteListing(std::vector<FibEntry> routes)
      : routes_(std::move(routes)) {}
  [[nodiscard]] Iterator begin() const { return Iterator(routes_.data()); }
  [[nodiscard]] Iterator end() const {
    return Iterator(routes_.data() + routes_.size());
  }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }

 private:
  std::vector<FibEntry> routes_;
};

class Fib {
 public:
  Fib() = default;
  // The sealed index is positional, so it could travel with the routes,
  // but copies and moves transfer only the tables and re-seal lazily — a
  // moved-from source must drop its index too: it would otherwise keep
  // probing positions its emptied route vector no longer has.
  Fib(const Fib& other) { *this = other; }
  Fib(Fib&& other) noexcept { *this = std::move(other); }
  Fib& operator=(const Fib& other) {
    if (this != &other) {
      routes_ = other.routes_;
      bgp_ = other.bgp_;
      egress_ = other.egress_;
      direct_exits_ = other.direct_exits_;
      Invalidate();
    }
    return *this;
  }
  Fib& operator=(Fib&& other) noexcept {
    if (this != &other) {
      routes_ = std::move(other.routes_);
      bgp_ = other.bgp_;
      egress_ = std::move(other.egress_);
      direct_exits_ = std::move(other.direct_exits_);
      Invalidate();
      other.Clear();
    }
    return *this;
  }

  /// Inserts or replaces the stored route for `entry.prefix`. Build-side
  /// only: not safe to call concurrently with a lookup, nor after
  /// AttachBgp (group resolutions point at stored routes by position).
  void AddRoute(FibEntry entry);

  /// Inserts only when no stored route for `entry.prefix` exists yet;
  /// returns whether it inserted — the connected-wins pattern of the
  /// install loops.
  bool AddRouteIfAbsent(FibEntry entry);

  /// Resolves BGP through `table` (the router's AS table, which must
  /// outlive this attachment); every group starts unresolved — a router
  /// with no path to a group's egress has no route for its prefixes.
  void AttachBgp(const BgpTable& table);
  /// Group `group` resolves through this router's stored IGP route to
  /// `egress_loopback`: that route's metric and next hops, BGP next hop
  /// the loopback. Requires the route.
  void ResolveViaIgp(std::uint32_t group, Ipv4Address egress_loopback);
  /// Group `group` leaves over this router's own eBGP links: metric 0,
  /// `hops` (sorted and deduplicated here), no BGP next hop.
  void ResolveDirect(std::uint32_t group, NextHopSet hops);

  /// Compiles the flat query index (idempotent, thread-safe). The first
  /// lookup seals automatically; calling this eagerly after route
  /// installation (sim::Network does) keeps the first packet fast.
  void Seal() const;

  /// Longest-prefix match over the router's full view: its stored routes
  /// and its AS's BGP table, walked once over the union of their
  /// populated lengths, most specific first. For a prefix in both, an
  /// exit beats the stored route and a stored route beats a subnet; an
  /// unresolved BGP route is skipped. The packet path's lookup.
  [[nodiscard]] Route Resolve(Ipv4Address dst) const;

  /// Longest-prefix match over the stored routes alone; nullptr when none
  /// covers `dst`. Only for a Fib with no BGP table attached (standalone
  /// tables, the materializing test oracle): on a sim::Network FIB it
  /// would miss every BGP route, so packet forwarding uses Resolve().
  [[nodiscard]] const FibEntry* Lookup(Ipv4Address dst) const;

  /// Best-effort cache warming for an imminent Resolve(dst): prefetches
  /// the first-probe hash slots of the most specific populated prefix
  /// lengths of both tables. Purely advisory — no effect on results, and
  /// a no-op before the index is sealed (prefetching never seals).
  void PrefetchLookup(Ipv4Address dst) const;

  /// Exact match on a stored prefix (FEC lookup for LDP, SR and TE —
  /// internal prefixes only); nullptr if absent. Uses the sealed index
  /// when available and a binary search otherwise (so interleaved
  /// AddRoute/LookupExact during route installation never reseals).
  [[nodiscard]] const FibEntry* LookupExact(const Prefix& prefix) const;

  /// Stored prefix routes (connected + IGP); BGP routes are not stored.
  [[nodiscard]] std::size_t size() const { return routes_.size(); }
  /// Groups this router leaves over its own eBGP links — the only BGP
  /// state stored per router besides one resolution per group.
  [[nodiscard]] std::size_t direct_exit_count() const {
    return direct_exits_.size();
  }

  /// Every route of the full view Resolve() answers from, materialized,
  /// in (address, length-ascending) order.
  [[nodiscard]] RouteListing Entries() const;

 private:
  /// egress_ encoding: a stored-route position, or kDirect | an index
  /// into direct_exits_, or kUnresolved.
  static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};
  static constexpr std::uint32_t kDirect = std::uint32_t{1} << 31;

  [[nodiscard]] const FibEntry* FindStored(std::uint32_t address,
                                           int length) const;
  /// The BGP route for `prefix` through group `group`; a false Route if
  /// the group is unresolved here.
  [[nodiscard]] Route ResolveBgp(const Prefix& prefix,
                                 std::uint32_t group) const;
  void Invalidate() { sealed_.store(false, std::memory_order_release); }
  void Clear() {
    routes_.clear();
    bgp_ = nullptr;
    egress_.clear();
    direct_exits_.clear();
    Invalidate();
  }

  // Build side: stored routes in (address, length-ascending) order, which
  // is also Entries()' order. Install loops add in ascending order, so
  // most inserts append.
  std::vector<FibEntry> routes_;
  /// The AS's shared BGP table (null before AttachBgp), and per group of
  /// it where the group resolves for this router.
  const BgpTable* bgp_ = nullptr;
  std::vector<std::uint32_t> egress_;
  std::vector<NextHopSet> direct_exits_;

  // Query side, built by Seal(). `sealed_` is the publication point:
  // readers acquire-load it before touching the index. Concurrency
  // contract: `index_` is written only inside Seal() while holding the
  // per-Fib stripe of the seal StripedMutex (fib.cpp) and read lock-free
  // strictly after the `sealed_` release-store — the stripe is dynamic,
  // so the guard is not GUARDED_BY-nameable; the discipline is pinned by
  // tests/test_thread_safety.cpp instead.
  mutable std::atomic<bool> sealed_{false};
  mutable PrefixIndex index_;
};

}  // namespace wormhole::routing
