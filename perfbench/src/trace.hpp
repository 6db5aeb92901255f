// In-memory span recorder for the traced run.
//
// A span is one timed call into a layer of the program, recorded from the
// benchmark's own wrappers around the program's interfaces. Its name is
// "<layer>.<what>", e.g. "sim.interval"; the layer is everything before
// the first dot. Spans carry their parent span and the round they belong
// to, and stay in per-thread buffers until the run ends, when
// write_chrome_trace() dumps them as Chrome trace-event JSON (Perfetto
// opens it) and analyze() turns them into per-layer figures.
//
// Two span names are the benchmark's own frame, not a layer: "bench.round"
// (one per round, the round wall) and "bench.final" (a workload's closing
// step, such as the Table III completion evaluation). Spans opened by pool
// workers inside a "runtime.*" parallel region take the region as their
// parent; the region records its pool width so analyze() can fold the
// workers' time back onto the driving thread's wall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string, "<layer>.<what>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;      ///< (thread index + 1) << 32 | per-thread seq
  std::uint64_t parent = 0;  ///< 0 = top level
  std::uint32_t round = 0;
  std::uint32_t width = 0;   ///< pool width for a parallel region, else 0
  std::uint32_t tid = 0;     ///< recording thread's index

  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) * 1e-3;
  }
};

/// Process-wide recorder. Recording is off until set_recording(true); the
/// disabled cost of a span is one relaxed atomic load.
namespace tracer {

void set_recording(bool on);
bool recording();
/// Round id stamped on spans opened from now on (any thread).
void set_round(std::uint32_t round);
/// Number of spans recorded so far.
std::size_t recorded();
/// Every recorded span, merged across threads and sorted by start time.
std::vector<Span> collect();
/// Drops every recorded span (the thread buffers stay registered).
void clear();

}  // namespace tracer

/// RAII span: opens on construction, closes (and is recorded) on
/// destruction. A region span (width > 0) becomes the parent of spans that
/// pool workers open while it is live.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t width = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Renames the span before it closes (e.g. a controller step that turned
  /// out to run a training update).
  void rename(const char* name) noexcept { span_.name = name; }

 private:
  Span span_;
  std::uint64_t outer_region_ = 0;  ///< region to restore when this one closes
  bool active_ = false;
};

/// What analyze() derives from a run's spans.
struct TraceReport {
  /// Durations in microseconds per span name.
  std::map<std::string, std::vector<double>> durations_us;
  /// Self time per layer, in seconds of the driving thread's wall: time a
  /// span did not spend in its children; inside a parallel region each
  /// worker span counts 1/width, and the region's own self time is the
  /// pool's idle share.
  std::map<std::string, double> layer_self_s;
  /// Sum of the "bench.round" and "bench.final" spans, seconds.
  double wall_s = 0.0;
  /// Share of wall_s that layer spans cover (1 - the frame's self time).
  double coverage = 0.0;
};

TraceReport analyze(const std::vector<Span>& spans);

struct Outcome;

/// Adds "<layer>.share" for every layer in the report (self time over the
/// round wall), "trace.coverage" and "trace.rounds_per_s".
void add_trace_summary(const TraceReport& report, double rounds_per_s,
                       Outcome& out);

/// Writes the spans as Chrome trace-event JSON ("X" events, microsecond
/// timestamps relative to the first span). Returns false on an I/O error.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench
