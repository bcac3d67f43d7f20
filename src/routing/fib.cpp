#include "routing/fib.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "exec/sync.h"
#include "netbase/contracts.h"

namespace wormhole::routing {

namespace {

// splitmix64 finalizer: avalanches the packed (address, length) key so
// linear probing sees a uniform slot distribution.
std::uint64_t HashKey(std::uint64_t key) {
  key += 0x9E3779B97F4A7C15ull;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ull;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBull;
  return key ^ (key >> 31);
}

/// Packs (masked address, length) so that no valid prefix collides with
/// the empty-slot sentinel: length 0..32 maps to low bits 1..33.
constexpr std::uint64_t KeyOf(std::uint32_t address, int length) {
  return (std::uint64_t{address} << 8) |
         static_cast<std::uint64_t>(length + 1);
}

constexpr std::uint32_t MaskAddress(std::uint32_t address, int length) {
  return length <= 0 ? 0 : address & (~std::uint32_t{0} << (32 - length));
}

/// The most specific length left in `lengths`, cleared from it.
int PopLongest(std::uint64_t& lengths) {
  const int length = std::bit_width(lengths) - 1;
  lengths &= ~(std::uint64_t{1} << length);
  return length;
}

void SortHops(NextHopSet& hops) {
  std::sort(hops.begin(), hops.end());
  NextHop* const unique_end = std::unique(hops.begin(), hops.end());
  hops.truncate(static_cast<std::size_t>(unique_end - hops.begin()));
}

// A striped lock shared by all FIBs, keyed on the Fib address: sealing is
// a rare, short, build-time event, and a per-Fib mutex would cost 40
// bytes on every router for nothing — but the parallel convergence seals
// many distinct FIBs at once, so one global mutex would serialize that
// whole phase. Striping keeps the memory cost flat and lets unrelated
// FIBs seal concurrently. The stripe is selected dynamically, so the
// mutable index fields cannot be GUARDED_BY-named; the lock discipline
// below (acquire stripe -> recheck sealed_ -> build -> release-store) is
// instead pinned by tests/test_thread_safety.cpp's concurrent-seal race.
exec::Mutex& SealMutexFor(const void* fib) {
  static exec::StripedMutex stripes(64);
  return stripes.For(std::hash<const void*>{}(fib));
}

}  // namespace

// --- PrefixIndex ------------------------------------------------------------

void PrefixIndex::Reset(std::size_t count) {
  // Load factor <= 0.5: next power of two >= 2 * count (minimum 8 so the
  // empty-slot terminator always exists).
  const std::uint64_t capacity =
      std::bit_ceil(std::max<std::uint64_t>(8, 2 * count));
  WORMHOLE_ASSERT(capacity > count,
                  "sealed index must keep at least one empty slot");
  slots_.assign(capacity, Slot{});
  slot_mask_ = capacity - 1;
  lengths_ = 0;
}

void PrefixIndex::Insert(const Prefix& prefix, std::uint32_t value) {
  lengths_ |= std::uint64_t{1} << prefix.length();
  const std::uint64_t packed =
      KeyOf(prefix.address().value(), prefix.length());
  WORMHOLE_DCHECK(packed != 0, "KeyOf must never produce the empty key");
  std::uint64_t i = HashKey(packed) & slot_mask_;
  while (slots_[i].key != 0) i = (i + 1) & slot_mask_;
  slots_[i] = Slot{packed, value};
}

std::uint32_t PrefixIndex::Find(std::uint32_t address, int length) const {
  // slot_mask_ == 0 would turn the probe loop into a single-slot spin on
  // stale data: only a built index may be probed.
  WORMHOLE_DCHECK(slot_mask_ != 0, "probe of an index that was never built");
  const std::uint64_t packed = KeyOf(address, length);
  for (std::uint64_t i = HashKey(packed) & slot_mask_;;
       i = (i + 1) & slot_mask_) {
    const Slot& slot = slots_[i];
    if (slot.key == packed) return slot.value;
    if (slot.key == 0) return kAbsent;
  }
}

void PrefixIndex::Prefetch(std::uint32_t address, int length) const {
  const std::uint64_t packed = KeyOf(MaskAddress(address, length), length);
  __builtin_prefetch(&slots_[HashKey(packed) & slot_mask_]);
}

// --- BgpTable ---------------------------------------------------------------

void BgpTable::Add(const Prefix& prefix, std::uint32_t group, bool exit) {
  entries_.push_back(Entry{prefix, group, exit});
}

void BgpTable::Finish(std::uint32_t group_count) {
  group_count_ = group_count;
  // Stable, so same-prefix routes keep their add order for the
  // precedence rule: later exits replace (AddRoute), later subnets do not
  // (AddRouteIfAbsent).
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.prefix < b.prefix;
                   });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    WORMHOLE_ASSERT(entries_[i].group < group_count,
                    "BGP route names a group outside the table");
    if (kept > 0 && entries_[kept - 1].prefix == entries_[i].prefix) {
      if (entries_[i].exit) entries_[kept - 1] = entries_[i];
      continue;
    }
    entries_[kept++] = entries_[i];
  }
  entries_.resize(kept);
  index_.Build(entries_.size(), [&](std::size_t i) {
    return std::make_pair(entries_[i].prefix,
                          Code(entries_[i].group, entries_[i].exit));
  });
}

// --- Fib: build side --------------------------------------------------------

void Fib::AddRoute(FibEntry entry) {
  WORMHOLE_ASSERT(
      entry.prefix.length() >= 0 && entry.prefix.length() <= 32,
      "FIB prefix length outside [0, 32]");
  WORMHOLE_ASSERT(bgp_ == nullptr,
                  "AddRoute after AttachBgp would move resolved routes");
  SortHops(entry.next_hops);
  if (routes_.empty() || routes_.back().prefix < entry.prefix) {
    routes_.push_back(std::move(entry));
  } else {
    const auto it = std::lower_bound(
        routes_.begin(), routes_.end(), entry.prefix,
        [](const FibEntry& e, const Prefix& p) { return e.prefix < p; });
    if (it != routes_.end() && it->prefix == entry.prefix) {
      *it = std::move(entry);
    } else {
      routes_.insert(it, std::move(entry));
    }
  }
  Invalidate();
}

bool Fib::AddRouteIfAbsent(FibEntry entry) {
  if (LookupExact(entry.prefix) != nullptr) return false;
  AddRoute(std::move(entry));
  return true;
}

void Fib::AttachBgp(const BgpTable& table) {
  bgp_ = &table;
  egress_.assign(table.group_count(), kUnresolved);
  direct_exits_.clear();
}

void Fib::ResolveViaIgp(std::uint32_t group, Ipv4Address egress_loopback) {
  const FibEntry* route = LookupExact(Prefix::Host(egress_loopback));
  WORMHOLE_ASSERT(route != nullptr && route->source == RouteSource::kIgp,
                  "BGP egress without an IGP route to its loopback");
  egress_.at(group) = static_cast<std::uint32_t>(route - routes_.data());
}

void Fib::ResolveDirect(std::uint32_t group, NextHopSet hops) {
  SortHops(hops);
  egress_.at(group) =
      kDirect | static_cast<std::uint32_t>(direct_exits_.size());
  direct_exits_.push_back(std::move(hops));
}

// --- Fib: query side --------------------------------------------------------

void Fib::Seal() const {
  exec::MutexLock lock(SealMutexFor(this));
  if (sealed_.load(std::memory_order_relaxed)) return;
  index_.Build(routes_.size(), [&](std::size_t i) {
    return std::make_pair(routes_[i].prefix, static_cast<std::uint32_t>(i));
  });
  sealed_.store(true, std::memory_order_release);
}

const FibEntry* Fib::FindStored(std::uint32_t address, int length) const {
  // Sealed-state transition contract: the flat index may only be probed
  // after the Seal() publication store.
  WORMHOLE_DCHECK(sealed_.load(std::memory_order_acquire),
                  "FindStored before Seal() published the index");
  const std::uint32_t position = index_.Find(address, length);
  return position == PrefixIndex::kAbsent ? nullptr : &routes_[position];
}

Route Fib::ResolveBgp(const Prefix& prefix, std::uint32_t group) const {
  const std::uint32_t via = egress_[group];
  if (via == kUnresolved) return {};
  if ((via & kDirect) != 0) {
    return Route{prefix, RouteSource::kBgp, 0,
                 &direct_exits_[via & ~kDirect], Ipv4Address()};
  }
  // Next-hop-self: the route to the egress loopback is the resolution.
  const FibEntry& igp = routes_[via];
  return Route{prefix, RouteSource::kBgp, igp.metric, &igp.next_hops,
               igp.prefix.address()};
}

Route Fib::Resolve(Ipv4Address dst) const {
  if (!sealed_.load(std::memory_order_acquire)) Seal();
  const std::uint32_t address = dst.value();
  const std::uint64_t stored_lengths = index_.lengths();
  const std::uint64_t bgp_lengths =
      bgp_ == nullptr ? 0 : bgp_->index().lengths();
  std::uint64_t lengths = stored_lengths | bgp_lengths;
  while (lengths != 0) {
    const int length = PopLongest(lengths);
    const std::uint64_t bit = std::uint64_t{1} << length;
    const std::uint32_t masked = MaskAddress(address, length);
    const FibEntry* stored =
        (stored_lengths & bit) != 0 ? FindStored(masked, length) : nullptr;
    if ((bgp_lengths & bit) != 0) {
      const std::uint32_t code = bgp_->index().Find(masked, length);
      const bool exit = (code & 1) != 0;
      if (code != PrefixIndex::kAbsent && (exit || stored == nullptr)) {
        const Prefix prefix(Ipv4Address(masked), length);
        if (const Route route = ResolveBgp(prefix, code >> 1)) return route;
      }
    }
    if (stored != nullptr) {
      return Route{stored->prefix, stored->source, stored->metric,
                   &stored->next_hops, stored->bgp_next_hop};
    }
  }
  return {};
}

const FibEntry* Fib::Lookup(Ipv4Address dst) const {
  WORMHOLE_DCHECK(bgp_ == nullptr,
                  "Lookup ignores the attached BGP table; use Resolve");
  if (!sealed_.load(std::memory_order_acquire)) Seal();
  std::uint64_t lengths = index_.lengths();
  const std::uint32_t address = dst.value();
  while (lengths != 0) {
    const int length = PopLongest(lengths);
    if (const FibEntry* entry =
            FindStored(MaskAddress(address, length), length)) {
      return entry;
    }
  }
  return nullptr;
}

void Fib::PrefetchLookup(Ipv4Address dst) const {
  if (!sealed_.load(std::memory_order_acquire)) return;
  // Mirror Resolve's probe order, but only hint the first hash slots of
  // the two most specific lengths it probes — the common LPM hit depth.
  const std::uint32_t address = dst.value();
  const std::uint64_t stored = index_.lengths();
  const std::uint64_t bgp = bgp_ == nullptr ? 0 : bgp_->index().lengths();
  std::uint64_t lengths = stored | bgp;
  for (int hinted = 0; lengths != 0 && hinted < 2; ++hinted) {
    const int length = PopLongest(lengths);
    const std::uint64_t bit = std::uint64_t{1} << length;
    if ((stored & bit) != 0) index_.Prefetch(address, length);
    if ((bgp & bit) != 0) bgp_->index().Prefetch(address, length);
  }
}

const FibEntry* Fib::LookupExact(const Prefix& prefix) const {
  if (sealed_.load(std::memory_order_acquire)) {
    return FindStored(prefix.address().value(), prefix.length());
  }
  const auto it = std::lower_bound(
      routes_.begin(), routes_.end(), prefix,
      [](const FibEntry& e, const Prefix& p) { return e.prefix < p; });
  return it != routes_.end() && it->prefix == prefix ? &*it : nullptr;
}

RouteListing Fib::Entries() const {
  // Merge the two sorted tables; on a shared prefix the same precedence
  // as Resolve() picks the row.
  std::vector<FibEntry> out;
  const std::span<const BgpTable::Entry> bgp =
      bgp_ == nullptr ? std::span<const BgpTable::Entry>()
                      : bgp_->entries();
  out.reserve(routes_.size() + bgp.size());
  const auto emit_bgp = [&](const BgpTable::Entry& entry) {
    const Route route = ResolveBgp(entry.prefix, entry.group);
    if (!route) return false;
    FibEntry row;
    row.prefix = route.prefix;
    row.source = route.source;
    row.metric = route.metric;
    row.next_hops = *route.next_hops;
    row.bgp_next_hop = route.bgp_next_hop;
    out.push_back(std::move(row));
    return true;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < routes_.size() || j < bgp.size()) {
    if (j == bgp.size() ||
        (i < routes_.size() && routes_[i].prefix < bgp[j].prefix)) {
      out.push_back(routes_[i++]);
    } else if (i == routes_.size() || bgp[j].prefix < routes_[i].prefix) {
      emit_bgp(bgp[j++]);
    } else {
      if (!(bgp[j].exit && emit_bgp(bgp[j]))) out.push_back(routes_[i]);
      ++i;
      ++j;
    }
  }
  return RouteListing(std::move(out));
}

}  // namespace wormhole::routing
