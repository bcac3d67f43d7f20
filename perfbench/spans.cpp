#include "spans.h"

#include <ostream>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name)
    : recorder_(recorder.enabled_ ? &recorder : nullptr) {
  if (recorder_ == nullptr) return;
  Span span;
  span.id = static_cast<std::uint32_t>(recorder.spans_.size() + 1);
  span.parent = recorder.open_;
  span.op = recorder.op_;
  span.name = std::move(name);
  index_ = recorder.spans_.size();
  saved_parent_ = recorder.open_;
  recorder.open_ = span.id;
  span.start_s = recorder.Now();
  recorder.spans_.push_back(std::move(span));
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[index_].end_s = recorder_->Now();
  recorder_->open_ = saved_parent_;
}

void SpanRecorder::WriteJsonLines(std::ostream& os) const {
  for (const Span& span : spans_) {
    os << "{\"id\": " << span.id << ", \"parent\": " << span.parent
       << ", \"op\": " << span.op << ", \"name\": \"" << span.name
       << "\", \"start_s\": " << span.start_s << ", \"end_s\": "
       << span.end_s << "}\n";
  }
}

}  // namespace perfbench
