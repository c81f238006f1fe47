#ifndef HSIS_PERFBENCH_TRACE_H_
#define HSIS_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// \brief In-memory span recorder for the benchmark's traced runs.
///
/// Spans are recorded in the benchmark's own code around each call into
/// a library layer's public function. A span's name is
/// `<layer>.<stage>`, where the layer is one of the library's modules
/// (crypto, sovereign, audit, core, serve, game, common). Each span
/// carries its start, end, parent span and operation id; spans of one
/// operation share the id. Recording appends to a per-thread buffer, so
/// hot loops take no lock; a disabled tracer records nothing. Spans stay
/// in memory until `WriteChromeTrace` at exit.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Milliseconds elapsed since `start_ns` (a `NowNs` reading).
inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// One recorded span.
struct Span {
  const char* name = "";  ///< Static `<layer>.<stage>` name.
  int64_t start_ns = 0;   ///< Steady-clock start.
  int64_t end_ns = 0;     ///< Steady-clock end.
  uint64_t id = 0;        ///< Unique per span, never 0.
  uint64_t parent = 0;    ///< Enclosing span on the same thread, or 0.
  uint64_t op = 0;        ///< Operation id shared by one request's spans.
};

/// Per-name and per-layer totals over every recorded span.
struct SpanTotals {
  uint64_t count = 0;  ///< Spans recorded.
  double busy_ms = 0;  ///< Summed span duration.
  double self_ms = 0;  ///< Busy time minus time covered by child spans.
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), serial_(NextSerial()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: records [construction, destruction) when enabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  // null when tracing is off
    Span span_;
  };

  /// Opens a span named `name` for operation `op`.
  Scope Busy(const char* name, uint64_t op = 0) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }

  /// Every span recorded so far, across threads. Call once the
  /// recording threads have been joined.
  std::vector<Span> Collect() const;

  /// Totals per span name.
  std::map<std::string, SpanTotals> TotalsByName() const;

  /// Totals per layer (the name up to its first '.'). Busy time counts
  /// only a layer's outermost spans, so nested spans of one layer are
  /// not double counted; self time is exclusive of every child span.
  std::map<std::string, SpanTotals> TotalsByLayer() const;

  /// Writes at most `max_spans` spans in Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<uint64_t> stack;  // open span ids, innermost last
  };
  ThreadBuffer& Local();
  static uint64_t NextSerial();

  const bool enabled_;
  // Identifies this tracer to the per-thread buffer cache; unlike its
  // address, never reused by a later tracer.
  const uint64_t serial_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // HSIS_PERFBENCH_TRACE_H_
