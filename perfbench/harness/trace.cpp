#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread open-span stack and track id.  One Tracer per process is
/// the benchmark's use, so thread-locals need no per-tracer keying.
thread_local std::vector<std::size_t> t_open;
thread_local int t_tid = 0;

}  // namespace

Tracer::Tracer() : origin_ns_(steady_ns()) {}

std::int64_t Tracer::now_ns() const { return steady_ns() - origin_ns_; }

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t op)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (!tracer_) return;
  const std::int64_t parent =
      t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    if (t_tid == 0) t_tid = tracer_->next_tid_++;
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back({name, 0, 0, parent, op, t_tid});
  }
  t_open.push_back(index_);
  // Stamp the start last so the bookkeeping above is outside the span.
  const std::int64_t start = tracer_->now_ns();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_[index_].start_ns = start;
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  const std::int64_t end = tracer_->now_ns();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_[index_].end_ns = end;
}

std::vector<double> Tracer::self_all_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  for (double& s : self) s /= 1000.0;
  return self;
}

std::vector<double> Tracer::self_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = self_all_us();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(self[i]);
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = self_all_us();
  std::string out =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"perfbench\"}}";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ",\n  {\"name\": \"%s\", \"cat\": \"perfbench\", "
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %lld, "
                  "\"op\": %llu, \"self_us\": %.3f}}",
                  s.name, s.tid, static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op), self[i]);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
