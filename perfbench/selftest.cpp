// Self-tests of the benchmark's arithmetic (stats.h). Every benchmark run
// repeats them; `perfbench --selftest` runs them alone.
#include <cmath>
#include <iostream>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "selftest FAILED: " << what << "\n";
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int RunSelfTests() {
  failures = 0;

  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Near(Median({3, 1, 2}), 2.0), "odd median");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "even median");

  // p90 needs ten samples beyond its rank: 100 samples give rank 90 with
  // ten above it; 99 give rank 90 with only nine above.
  const auto p90 = TailPercentile(Ramp(100), 0.9);
  Expect(p90.has_value() && Near(*p90, 90.0), "p90 of 1..100 is 90");
  Expect(!TailPercentile(Ramp(99), 0.9).has_value(),
         "p90 refused with 9 samples beyond");
  const auto p99 = TailPercentile(Ramp(1000), 0.99);
  Expect(p99.has_value() && Near(*p99, 990.0), "p99 of 1..1000 is 990");
  Expect(!TailPercentile(Ramp(999), 0.99).has_value(),
         "p99 refused with 9 samples beyond");
  const auto p50 = TailPercentile(Ramp(20), 0.5);
  Expect(p50.has_value() && Near(*p50, 10.0), "p50 of 1..20 is 10");
  Expect(!TailPercentile(Ramp(19), 0.5).has_value(),
         "p50 refused with 9 samples beyond");
  Expect(!TailPercentile({}, 0.9, 0).has_value(), "no percentile of nothing");

  // Apportionment: floors of the exact quotas, leftovers to the largest
  // remainders. 21 over 150/30/20 has quotas 15.75, 3.15 and 2.1.
  Expect(Apportion({150, 30, 20}, 21) ==
             std::vector<std::size_t>({16, 3, 2}),
         "largest remainder gets the leftover unit");
  Expect(Apportion({1, 1, 1}, 2) == std::vector<std::size_t>({1, 1, 0}),
         "tied remainders go to the lower index");
  Expect(Apportion({7, 0}, 5) == std::vector<std::size_t>({5, 0}),
         "a zero weight gets nothing");
  Expect(Apportion({0, 0}, 5) == std::vector<std::size_t>({0, 0}),
         "all zero weights give nothing");

  // Self time: a root [0, 10] with children [1, 3] and [2, 5] (overlapping,
  // covered once: 4 s) and [8, 12] (clipped to the parent: 2 s); the
  // grandchild [1, 2] belongs to its own parent only.
  const std::vector<Span> spans = {
      {.id = 1, .parent = 0, .name = "op", .start_s = 0, .end_s = 10},
      {.id = 2, .parent = 1, .name = "campaign.run", .start_s = 1,
       .end_s = 3},
      {.id = 3, .parent = 1, .name = "campaign.run", .start_s = 2,
       .end_s = 5},
      {.id = 4, .parent = 1, .name = "analysis.report", .start_s = 8,
       .end_s = 12},
      {.id = 5, .parent = 2, .name = "probe.discovery", .start_s = 1,
       .end_s = 2},
  };
  const auto self = SelfTimes(spans);
  Expect(Near(self.at(1), 4.0), "root self time = 10 - 4 - 2");
  Expect(Near(self.at(2), 1.0), "child self time = 2 - 1");
  Expect(Near(self.at(3), 3.0), "leaf self time = duration");
  Expect(Near(self.at(4), 4.0), "leaf self time ignores parent clip");
  const auto layers = LayerSelfTimes(spans);
  Expect(Near(layers.at("op"), 4.0), "op layer");
  Expect(Near(layers.at("campaign"), 4.0), "campaign layer sums spans");
  Expect(Near(layers.at("probe"), 1.0), "probe layer");
  Expect(LayerOf("campaign.run") == "campaign" && LayerOf("op") == "op",
         "layer of a span name");

  // Derived reduce: run minus the separately measured phases, probing
  // scaled by the live share.
  Expect(Near(DerivedReduce(10, 2, 3, 1, 0.5, 1.0), 3.5), "cold reduce");
  Expect(Near(DerivedReduce(10, 2, 3, 1, 0.5, 0.2), 7.5), "delta reduce");
  Expect(Near(DerivedReduce(1, 2, 3, 1, 0.5, 0.0), -0.5),
         "reduce is not clamped");

  return failures;
}

}  // namespace perfbench
