// Hierarchical phase timers: the measured side of the Section 5 story.
//
// A Span is an RAII wall-clock timer with a *path*: spans opened on the
// same thread nest, and a span's path is its ancestors' names joined
// with '/' ("/step/force/walk"). Worker threads inherit the path of the
// thread that launched them when the launcher propagates it (see
// ScopedParentPath and util::ThreadPool::parallel_for), so the lane
// spans of a parallel tree walk file under the walk phase that spawned
// them. Every closed span adds its duration to a global per-path
// accumulator (phase_report()) and, when tracing is on, appends a
// Chrome trace event (obs/trace.hpp).
//
// Cost contract: with the master switch off (the default) a Span is one
// relaxed atomic load and nothing else — bench_p2_obs_overhead holds the
// instrumented hot paths to that. Compiling with G5_OBS_ENABLED=0
// removes the G5_OBS_SPAN statements entirely.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef G5_OBS_ENABLED
#define G5_OBS_ENABLED 1
#endif

namespace g5::obs {

/// Master switch for all observability instrumentation (spans, phase
/// accumulation, trace collection). Off by default; relaxed-atomic read.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Microseconds since an arbitrary process-wide epoch (steady clock);
/// the time base of spans and trace events.
[[nodiscard]] double now_us() noexcept;

class Span {
 public:
  /// Opens a phase. `name` must not contain '/'; `category` groups
  /// events in the trace viewer ("tree", "grape", "sim", "pool", ...).
  /// Both must outlive the span (string literals in practice).
  explicit Span(std::string_view name, std::string_view category = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Nesting depth of the calling thread (0 outside any span).
  [[nodiscard]] static int current_depth() noexcept;

  /// Path of the calling thread's innermost open span, else the
  /// propagated parent path (ScopedParentPath), else "".
  [[nodiscard]] static std::string current_path();

 private:
  bool active_ = false;
  double start_us_ = 0.0;
  std::size_t prev_len_ = 0;  ///< thread path length before this span
  std::string_view category_;
};

/// Propagates a parent span path into a thread that has no open spans:
/// while alive, spans opened on this thread nest under `parent_path`.
/// Inactive (a no-op) when instrumentation is off, when `parent_path`
/// is empty, or when the thread already has open spans (the fork-join
/// caller lane re-entering its own job).
class ScopedParentPath {
 public:
  explicit ScopedParentPath(const std::string& parent_path);
  ~ScopedParentPath();
  ScopedParentPath(const ScopedParentPath&) = delete;
  ScopedParentPath& operator=(const ScopedParentPath&) = delete;

 private:
  bool active_ = false;
};

/// Add `seconds` to the phase accumulator at the calling thread's
/// current path extended with `/name` — for phases measured by lap
/// accumulation rather than a live scope (e.g. per-lane busy seconds
/// reduced after a parallel region). No-op when instrumentation is off.
void record_phase(std::string_view name, double seconds,
                  std::uint64_t count = 1);

/// One row of the measured per-phase table.
struct PhaseStat {
  std::string path;
  std::uint64_t count = 0;
  double total_s = 0.0;
  [[nodiscard]] double mean_s() const {
    return count ? total_s / static_cast<double>(count) : 0.0;
  }
};

/// Snapshot of every phase accumulated so far, sorted by path.
[[nodiscard]] std::vector<PhaseStat> phase_report();

/// Clear the phase accumulators (counters/gauges are separate:
/// obs/registry.hpp).
void reset_phases();

#if G5_OBS_ENABLED
#define G5_OBS_CONCAT_INNER(a, b) a##b
#define G5_OBS_CONCAT(a, b) G5_OBS_CONCAT_INNER(a, b)
/// Statement form: a span covering the rest of the enclosing scope.
#define G5_OBS_SPAN(name, category) \
  ::g5::obs::Span G5_OBS_CONCAT(g5_obs_span_, __LINE__) { (name), (category) }
#else
#define G5_OBS_SPAN(name, category) static_cast<void>(0)
#endif

}  // namespace g5::obs
