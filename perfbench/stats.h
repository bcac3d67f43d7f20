// Arithmetic of the benchmark's reported numbers and inputs: medians, the
// tail percentile rule, the flap-mix apportionment, span self time and the
// derived reduce time. Kept apart
// from the main loop so the self-tests (selftest.cpp) can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <map>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> samples);

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, returned only
/// when at least `min_beyond` samples lie strictly above its rank, so a
/// tail figure always rests on that many observations. q = 0.9 with the
/// default needs 100 samples.
std::optional<double> TailPercentile(std::vector<double> samples, double q,
                                     std::size_t min_beyond = 10);

/// Splits `total` into whole shares proportional to `weights` by the
/// largest-remainder rule: each entry gets the floor of its exact quota,
/// and the units left over go to the largest remainders (ties to the
/// lower index). All zero weights give all zero shares.
std::vector<std::size_t> Apportion(const std::vector<std::size_t>& weights,
                                   std::size_t total);

/// One traced interval: a call into a layer, timed from outside.
struct Span {
  std::uint32_t id = 0;
  /// 0 for a root span.
  std::uint32_t parent = 0;
  /// The op (unit of user-visible work) the span belongs to; -1 outside
  /// any op (set-up, decomposition).
  std::int64_t op = -1;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Per span id: duration minus the part of [start, end] covered by the
/// span's direct children (overlapping children are counted once).
std::map<std::uint32_t, double> SelfTimes(const std::vector<Span>& spans);

/// The layer of a span name: the text before the first '.', or the whole
/// name.
std::string LayerOf(const std::string& span_name);

/// Sum of self time per layer over all spans.
std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans);

/// The campaign's reduce time, derived from outside: the campaign's wall
/// time minus the phases measured separately (discovery and targeted
/// probing, dataset build, target selection) — with the probing phases
/// scaled by `live_probe_share`, the share of (vp, target) pairs the run
/// actually probed (1 for a cold run; a delta run splices the rest from
/// its cache).
double DerivedReduce(double run_s, double discovery_s, double targeted_s,
                     double dataset_s, double select_s,
                     double live_probe_share);

/// Runs the self-tests; prints failures to stderr and returns how many
/// checks failed.
int RunSelfTests();

}  // namespace perfbench
