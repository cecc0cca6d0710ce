// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls
// into each pnlab layer — never inside the program — so the untraced
// run measures exactly the code users run.  Each span keeps its name,
// start, end, parent span and op id; parents come from a per-thread
// stack, so nesting follows the call structure on every thread.  At
// exit the spans are written as Chrome trace-event JSON (the format
// `pnc_analyze --trace` emits), loadable in Perfetto or
// chrome://tracing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span; records nothing when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  Scope span(const char* name, std::uint64_t op = 0) {
    return Scope(this, name, op);
  }

  /// Self time (duration minus the time its direct children cover), in
  /// microseconds, of every span called @p name, in recording order.
  std::vector<double> self_us(const std::string& name) const;

  /// Chrome trace-event JSON of every span recorded so far.
  std::string chrome_json() const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< index into spans_, -1 for a root
    std::uint64_t op;
    int tid;
  };

  std::int64_t now_ns() const;
  std::vector<double> self_all_us() const;  // caller holds mutex_

  bool enabled_ = false;
  const std::int64_t origin_ns_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  int next_tid_ = 1;         // guarded by mutex_
};

}  // namespace perfbench
