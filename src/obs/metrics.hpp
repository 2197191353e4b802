// Per-step metrics record and JSON-lines sink.
//
// One StepMetrics per simulation step: wall clock, the engine's
// per-phase second deltas, walk/list work, and the GRAPE account deltas
// (zeros for host engines). core::Simulation fills and emits these when
// SimulationConfig::metrics_jsonl is set; tools/check_trace.py holds
// the machine-checked schema (tools/schema/metrics.schema.json) and
// docs/observability.md documents every field.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

namespace g5::obs {

struct StepMetrics {
  std::uint64_t step = 0;       ///< 1-based step index
  double t_sim = 0.0;           ///< simulation time after the step
  double wall_s = 0.0;          ///< measured wall clock of the step

  // Engine phase seconds for this step (deltas of EngineStats; the
  // walk/kernel entries are per-lane busy seconds summed over lanes, as
  // in EngineStats: steady_clock laps, not thread CPU time, so they may
  // exceed engine_s; for host tree engines walk_s + kernel_s <= lanes *
  // engine_s).
  double build_s = 0.0;
  double walk_s = 0.0;
  double kernel_s = 0.0;
  double engine_s = 0.0;        ///< whole compute() wall

  // Work performed this step.
  std::uint64_t interactions = 0;
  std::uint64_t list_entries = 0;
  std::uint64_t groups = 0;

  // GRAPE hardware account deltas (all zero for host engines).
  std::uint64_t grape_force_calls = 0;
  std::uint64_t grape_j_uploaded = 0;
  std::uint64_t grape_bytes = 0;         ///< host-interface bytes moved
  double grape_emulation_s = 0.0;        ///< measured emulator wall
  double grape_modeled_dma_s = 0.0;      ///< modeled silicon DMA
  double grape_modeled_compute_s = 0.0;  ///< modeled silicon compute
  double grape_occupancy = 0.0;          ///< i-slot fill fraction [0,1]

  // Accuracy telemetry, filled only on steps where the conservation
  // diagnostics / force-error probe ran (SimulationConfig::probe_every).
  // NaN means "not measured this step" and is emitted as JSON null (the
  // sink turns every non-finite double into null — JSON has no NaN/Inf).
  double energy_drift = kUnmeasured;    ///< |(E - E0) / E0|
  double momentum_drift = kUnmeasured;  ///< |p - p0|
  double err_total_p50 = kUnmeasured;   ///< sampled |dF|/|F| medians...
  double err_total_p99 = kUnmeasured;
  double err_tree_p50 = kUnmeasured;    ///< ...tree component
  double err_tree_p99 = kUnmeasured;
  double err_codec_p50 = kUnmeasured;   ///< ...GRAPE codec component
  double err_codec_p99 = kUnmeasured;

  static constexpr double kUnmeasured =
      std::numeric_limits<double>::quiet_NaN();
};

/// One StepMetrics as a JSON object — exactly the JSONL line format
/// (no trailing newline). Shared by MetricsWriter and the status-file
/// exporter (obs/export.hpp) so both artifacts agree byte-for-byte.
[[nodiscard]] std::string step_metrics_json(const StepMetrics& m);

/// Appends StepMetrics as one JSON object per line (JSON Lines). The
/// stream is line-buffered and flushed per record so an abnormal exit
/// (crash, SIGKILL) keeps every completed-step record.
class MetricsWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit MetricsWriter(const std::string& path);
  ~MetricsWriter();
  MetricsWriter(const MetricsWriter&) = delete;
  MetricsWriter& operator=(const MetricsWriter&) = delete;

  void write(const StepMetrics& m);

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_;
  }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t records_ = 0;
};

}  // namespace g5::obs
