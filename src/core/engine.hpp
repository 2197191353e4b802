// ForceEngine: the backend abstraction of the simulation core.
//
// Four implementations reproduce the paper's design space:
//   * HostDirectEngine — O(N^2) direct summation in double on the host;
//   * HostTreeEngine   — Barnes-Hut on the host (original per-particle
//                        walk, or Barnes' modified grouped walk);
//   * GrapeDirectEngine— O(N^2) with the force loop on emulated GRAPE-5;
//   * GrapeTreeEngine  — the paper's system: modified treecode with the
//                        interaction lists evaluated on emulated GRAPE-5.
//
// Every engine fills acc() and pot() of the ParticleSet (G = 1 units;
// potential excludes the self term) and keeps per-phase wall-clock and
// work statistics for the benches.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "grape/config.hpp"
#include "model/particles.hpp"
#include "tree/walk.hpp"

namespace g5::core {

/// Knobs shared by the engines (subset used depends on the backend).
struct ForceParams {
  double eps = 0.01;          ///< Plummer softening
  double theta = 0.75;        ///< tree opening angle
  std::uint32_t n_crit = 256; ///< group size bound (modified algorithm)
  std::uint32_t leaf_max = 8; ///< tree leaf capacity
  tree::Mac mac = tree::Mac::Edge;  ///< acceptance criterion variant
  /// Quadrupole moments for accepted cells. Host tree engines only — the
  /// GRAPE pipelines evaluate point masses, which is exactly the ablation:
  /// host accuracy per list entry vs hardware throughput.
  bool quadrupole = false;
  /// Host worker threads for the tree-walk and tree-build phases (tree
  /// engines) and for the GRAPE engines' device evaluation lanes
  /// (pipeline_depth >= 2). 0 = auto: the G5_THREADS environment
  /// variable, else hardware concurrency. Results are bitwise-identical
  /// for any thread count.
  std::uint32_t threads = 0;
  /// Tree engines: minimum particle count for the parallel tree build
  /// (tree::TreeBuildParams::parallel_cutoff). Below it the build runs
  /// serially — the fork-join overhead would dominate; above it all
  /// build phases (bbox, keys, radix sort, subtree construction,
  /// moments) spread across the walk pool, bitwise-identical to the
  /// serial build.
  std::uint32_t build_parallel_cutoff = 1u << 15;
  /// GRAPE engines: interaction-list batch buffers in flight. >= 2 runs
  /// the asynchronous pipeline — the host walks batch k+1 while the
  /// device thread evaluates batch k (grape::AsyncDevice), with each
  /// job's (board, i-block) tiles spread over `threads` evaluation lanes.
  /// 0 or 1 evaluates synchronously on the calling thread, as the
  /// pre-pipeline code did. Groups are submitted in the same order with
  /// the same chunking either way, so results are bitwise-identical
  /// across all values (determinism_test checks this).
  std::uint32_t pipeline_depth = 2;
  /// GRAPE engines: arithmetic backend of the emulated pipelines.
  /// BitExact (default) is the bit-level GRAPE-5 datapath every golden
  /// number refers to; Native evaluates the same interaction lists in
  /// plain double (codec error ~ 0, roughly 10x faster emulation).
  /// Ignored when the caller hands make_engine a pre-built device.
  grape::BackendKind backend = grape::BackendKind::BitExact;
  /// GRAPE engines: processor boards in the emulated machine. 0 keeps
  /// the paper's configuration (2 boards); any B >= 1 scales the
  /// emulated cluster (j-particles block-shard across boards —
  /// docs/scaling.md). Results are bitwise-identical for every B.
  /// Ignored when the caller hands make_engine a pre-built device.
  std::uint32_t boards = 0;
};

/// Per-engine cumulative statistics (reset with reset_stats()).
struct EngineStats {
  std::uint64_t evaluations = 0;     ///< compute() calls
  std::uint64_t interactions = 0;    ///< pairwise interactions evaluated
  tree::WalkStats walk;              ///< tree engines only
  double seconds_total = 0.0;        ///< host wall clock, whole compute()
  double seconds_tree_build = 0.0;
  /// Traversal + list packing. Per-lane busy seconds (steady_clock laps,
  /// not thread CPU time: a preempted lane keeps counting) summed over
  /// worker lanes, so with threads > 1 it may exceed seconds_total;
  /// divide by the lane count for a wall-clock estimate. Host tree
  /// engines guarantee seconds_walk + seconds_kernel <= lanes *
  /// seconds_total (every lap lies inside one parallel region of
  /// compute()).
  double seconds_walk = 0.0;
  /// Force kernel (host, same per-lane summing as seconds_walk) or
  /// emulator wall (grape engines; with pipeline_depth >= 2 this runs
  /// concurrently with the walk, so it can overlap seconds_walk and
  /// exceed its share of seconds_total).
  double seconds_kernel = 0.0;
  std::uint64_t groups = 0;          ///< interaction lists shipped
};

class ForceEngine {
 public:
  explicit ForceEngine(const ForceParams& params) : params_(params) {}
  virtual ~ForceEngine() = default;
  ForceEngine(const ForceEngine&) = delete;
  ForceEngine& operator=(const ForceEngine&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Fill pset.acc() and pset.pot() from pset.pos()/mass().
  virtual void compute(model::ParticleSet& pset) = 0;

  /// Fill acc()/pot() for the given target indices ONLY (other entries
  /// must be left untouched — the block-timestep integrator relies on
  /// this). Sources are always the full set.
  virtual void compute_targets(model::ParticleSet& pset,
                               std::span<const std::uint32_t> targets) = 0;

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  virtual void reset_stats() { stats_ = EngineStats{}; }

  [[nodiscard]] const ForceParams& params() const noexcept { return params_; }
  void set_params(const ForceParams& params) { params_ = params; }

 protected:
  ForceParams params_;
  EngineStats stats_;
};

}  // namespace g5::core
