#include "trace.h"

#include <algorithm>

#include "util/json_writer.h"
#include "util/logging.h"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  MSOPDS_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost-first";
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  // Children of one parent never overlap (one thread, strict nesting), so
  // the covered part of a parent is the sum of its children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    SpanTotals& entry = totals[spans_[i].name];
    ++entry.count;
    entry.total_s += static_cast<double>(duration) * 1e-9;
    entry.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
  }
  return totals;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return total;
}

int64_t Tracer::Count(const std::string& name) const {
  return std::count_if(spans_.begin(), spans_.end(),
                       [&](const Span& span) { return span.name == name; });
}

std::string Tracer::ChromeTraceJson() const {
  msopds::JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit").String("ms");
  json.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json.BeginObject();
    json.Key("name").String(span.name);
    json.Key("ph").String("X");
    json.Key("pid").Int(1);
    json.Key("tid").Int(1);
    json.Key("ts").Double(static_cast<double>(span.start_ns) * 1e-3);
    json.Key("dur").Double(static_cast<double>(span.end_ns - span.start_ns) *
                           1e-3);
    json.Key("args").BeginObject();
    json.Key("id").Int(static_cast<int64_t>(i));
    json.Key("parent").Int(span.parent);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name)
    : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name) : -1) {}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(index_);
}

}  // namespace perfbench
