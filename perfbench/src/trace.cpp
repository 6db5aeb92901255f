#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "clock.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::uint32_t next_seq = 0;
  std::vector<std::uint64_t> stack;  ///< open spans on this thread
  std::vector<Span> spans;
};

std::atomic<bool> g_recording{false};
std::atomic<std::uint32_t> g_round{0};
/// Innermost open parallel region of the driving thread (0 = none).
std::atomic<std::uint64_t> g_region{0};

/// Buffers outlive the threads that fill them (pool threads come and go
/// with each pass), so the registry owns them.
std::mutex g_registry_mutex;
std::deque<ThreadBuffer> g_buffers;  // guarded by g_registry_mutex

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_buffers.emplace_back();
    buffer = &g_buffers.back();
    buffer->index = static_cast<std::uint32_t>(g_buffers.size() - 1);
    buffer->spans.reserve(1u << 14);
  }
  return *buffer;
}

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

bool is_frame(std::string_view name) { return layer_of(name) == "bench"; }

}  // namespace

namespace tracer {

void set_recording(bool on) {
  g_recording.store(on, std::memory_order_relaxed);
}
bool recording() { return g_recording.load(std::memory_order_relaxed); }
void set_round(std::uint32_t round) {
  g_round.store(round, std::memory_order_relaxed);
}
std::size_t recorded() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::size_t total = 0;
  for (const ThreadBuffer& buffer : g_buffers) total += buffer.spans.size();
  return total;
}

std::vector<Span> collect() {
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const ThreadBuffer& buffer : g_buffers)
      all.insert(all.end(), buffer.spans.begin(), buffer.spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (ThreadBuffer& buffer : g_buffers) buffer.spans.clear();
}

}  // namespace tracer

ScopedSpan::ScopedSpan(const char* name, std::uint32_t width) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = this_thread_buffer();
  active_ = true;
  span_.name = name;
  span_.width = width;
  span_.tid = buffer.index;
  span_.round = g_round.load(std::memory_order_relaxed);
  span_.id = (static_cast<std::uint64_t>(buffer.index) + 1) << 32 |
             ++buffer.next_seq;
  span_.parent = buffer.stack.empty()
                     ? g_region.load(std::memory_order_acquire)
                     : buffer.stack.back();
  buffer.stack.push_back(span_.id);
  if (width > 0)
    outer_region_ = g_region.exchange(span_.id, std::memory_order_acq_rel);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  ThreadBuffer& buffer = this_thread_buffer();
  buffer.stack.pop_back();
  if (span_.width > 0) g_region.store(outer_region_, std::memory_order_release);
  buffer.spans.push_back(span_);
}

TraceReport analyze(const std::vector<Span>& spans) {
  TraceReport report;
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Children's total duration per span, and for each span the width of the
  // parallel region it runs under (1 outside any region).
  std::vector<double> child_s(spans.size(), 0.0);
  std::vector<double> weight(spans.size(), 1.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    report.durations_us[s.name].push_back(s.duration_us());
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    child_s[it->second] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  // Spans are sorted by start, so a parent precedes its children and its
  // weight is final when a child reads it.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    weight[i] = p.width > 0 ? weight[it->second] / p.width : weight[it->second];
  }
  double frame_self_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double children =
        s.width > 0 ? child_s[i] / s.width : child_s[i];
    const double self_s = std::max(0.0, dur_s - children) * weight[i];
    const std::string_view name(s.name);
    if (is_frame(name)) {
      if (s.parent == 0) report.wall_s += dur_s;
      frame_self_s += self_s;
      continue;
    }
    report.layer_self_s[std::string(layer_of(name))] += self_s;
  }
  report.coverage =
      report.wall_s > 0.0 ? 1.0 - frame_self_s / report.wall_s : 0.0;
  return report;
}

void add_trace_summary(const TraceReport& report, double rounds_per_s,
                       Outcome& out) {
  for (const auto& [layer, self_s] : report.layer_self_s)
    out.metric(layer + ".share",
               report.wall_s > 0.0 ? self_s / report.wall_s : 0.0, "ratio");
  out.metric("trace.coverage", report.coverage, "ratio");
  out.metric("trace.rounds_per_s", rounds_per_s, "rounds/s");
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name(s.name);
    const std::string layer(layer_of(name));
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"round\":%u}}",
                 i == 0 ? "" : ",\n", s.name, layer.c_str(), s.tid,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 s.duration_us(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.round);
  }
  std::fputs("\n]}\n", out);
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace perfbench
