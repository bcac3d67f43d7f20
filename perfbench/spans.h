// In-memory span recorder: the traced run wraps each public library call
// in a Scope; spans stay in memory until the run ends and are written out
// once. A disabled recorder records nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// The op later spans belong to (-1: outside any op).
  void set_op(std::int64_t op) { op_ = op; }

  /// Records one span from construction to destruction, nested under the
  /// innermost open Scope of the same recorder.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
    std::uint32_t saved_parent_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span, one per line.
  void WriteJsonLines(std::ostream& os) const;

 private:
  [[nodiscard]] double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::int64_t op_ = -1;
  std::uint32_t open_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
