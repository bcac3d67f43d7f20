#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> TailPercentile(std::vector<double> samples, double q,
                                     std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank, 1-based: the smallest k with k / n >= q.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[rank - 1];
}

std::vector<std::size_t> Apportion(const std::vector<std::size_t>& weights,
                                   std::size_t total) {
  std::vector<std::size_t> shares(weights.size(), 0);
  std::size_t sum = 0;
  for (const std::size_t w : weights) sum += w;
  if (sum == 0) return shares;
  // Exact quota weights[i] * total / sum = shares[i] + remainder[i] / sum.
  std::vector<std::size_t> remainder(weights.size());
  std::size_t given = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    shares[i] = weights[i] * total / sum;
    remainder[i] = weights[i] * total % sum;
    given += shares[i];
  }
  std::vector<std::size_t> order(weights.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return remainder[a] > remainder[b];
  });
  for (std::size_t k = 0; given < total; ++k, ++given) ++shares[order[k]];
  return shares;
}

std::map<std::uint32_t, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_s, span.end_s);
    }
  }
  std::map<std::uint32_t, double> self;
  for (const Span& span : spans) {
    double covered = 0.0;
    auto& intervals = children[span.id];
    std::sort(intervals.begin(), intervals.end());
    double run_start = 0.0;
    double run_end = 0.0;
    bool open = false;
    for (auto [start, end] : intervals) {
      start = std::max(start, span.start_s);
      end = std::min(end, span.end_s);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[span.id] = (span.end_s - span.start_s) - covered;
  }
  return self;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans) {
  const auto self = SelfTimes(spans);
  std::map<std::string, double> per_layer;
  for (const Span& span : spans) {
    per_layer[LayerOf(span.name)] += self.at(span.id);
  }
  return per_layer;
}

double DerivedReduce(double run_s, double discovery_s, double targeted_s,
                     double dataset_s, double select_s,
                     double live_probe_share) {
  return run_s - live_probe_share * (discovery_s + targeted_s) - dataset_s -
         select_s;
}

}  // namespace perfbench
