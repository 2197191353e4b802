// In-memory span recorder for the traced run of the stack benchmark.
//
// Each span covers one public call into a layer (BhTree::build,
// collect_groups, walk_group, set_j_particles, Grape5System::compute,
// ...) and records its name, start, end, lane and parent span. Spans are
// opened from the benchmark's own code around those calls; nothing inside
// the program is instrumented. The main thread opens nested spans through
// Tracer::Scope; pool lanes record flat walk_group spans into per-lane
// buffers under the parent that launched the parallel region, so
// recording takes no lock. Spans stay in memory and are written out once,
// as Chrome trace JSON, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace stackbench {

struct Span {
  const char* name = "";  ///< string literal naming the public call
  int parent = -1;        ///< index into Tracer::spans(), -1 = root
  unsigned lane = 0;      ///< 0 = main thread, k + 1 = pool lane k
  double t0 = 0.0;        ///< seconds since the tracer's epoch
  double t1 = 0.0;
  [[nodiscard]] double seconds() const { return t1 - t0; }
};

class Tracer {
 public:
  using clock = std::chrono::steady_clock;

  explicit Tracer(unsigned lanes) : lane_spans_(lanes) {}

  /// Spans are recorded only while on; off costs one branch per call.
  void set_on(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }

  /// RAII main-thread span; nests under the innermost open Scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.on_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(
          Span{name, tracer_.open_, 0, tracer_.now(), 0.0});
      tracer_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
      s.t1 = tracer_.now();
      tracer_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Innermost open main-thread span (the parent for lane spans).
  [[nodiscard]] int open_span() const { return open_; }

  /// Record a finished span from pool lane `lane`. Lanes write only their
  /// own buffer, so concurrent lanes need no lock; merge_lanes() folds
  /// the buffers in after the parallel region.
  void lane_span(unsigned lane, const char* name, int parent, double t0,
                 double t1) {
    if (on_) lane_spans_[lane].push_back(Span{name, parent, lane + 1, t0, t1});
  }

  /// Move the lane buffers into the span list (call outside any
  /// parallel region).
  void merge_lanes() {
    for (auto& buf : lane_spans_) {
      spans_.insert(spans_.end(), buf.begin(), buf.end());
      buf.clear();
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as Chrome trace JSON ("X" events, microseconds).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name, s.lane, s.t0 * 1e6,
                   s.seconds() * 1e6, i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  clock::time_point epoch_ = clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
  std::vector<std::vector<Span>> lane_spans_;
};

}  // namespace stackbench
