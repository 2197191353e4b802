// LayeredForcePhase: one force phase of the grape-tree engine, replayed
// layer by layer through the same public calls GrapeTreeEngine::compute
// makes, in the same order and with the same parameters:
//
//   BhTree::build -> configure_device_window -> collect_groups ->
//   per batch of groups: walk_group on the walk pool, then per group
//   Grape5System::set_j_particles + Grape5System::compute (board lanes
//   attached through set_eval_pool) -> scatter into caller order.
//
// The engine overlaps the walk with device evaluation; the replay runs
// each layer to completion, so every call can carry its own span and the
// forces must still match the engine's bit for bit (the benchmark's
// correctness gate compares them).
//
// With Eval::HostHalf the phase runs only its host half: the lists are
// built and marshalled into the boards' j-memory, but never evaluated;
// the GRAPE half is summed from TimingModel::force_call instead, and
// acc/pot stay zero. That is how the paper-scale workload measures the
// host side of a step whose device side is out of reach to emulate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/engines.hpp"
#include "grape/config.hpp"
#include "grape/driver.hpp"
#include "tree/groupwalk.hpp"
#include "tree/tree.hpp"
#include "util/parallel.hpp"

#include "trace.hpp"

namespace stackbench {

class LayeredForcePhase final : public g5::core::ForceEngine {
 public:
  enum class Eval { All, HostHalf };

  /// Counts and modeled GRAPE time of the last compute().
  struct PhaseCounts {
    std::size_t particles = 0;
    std::size_t nodes = 0;
    g5::tree::WalkStats walk;
    double modeled_grape_s = 0.0;   ///< GRAPE half on the silicon, modeled
    double modeled_compute_s = 0.0; ///< of it: the Grape5System::compute calls
    std::uint64_t i_processed = 0;  ///< VMP occupancy numerator
    std::uint64_t vmp_slots = 0;    ///< VMP occupancy denominator
  };

  LayeredForcePhase(const g5::core::ForceParams& params,
                    const g5::grape::SystemConfig& system, Eval eval,
                    Tracer& tracer);

  [[nodiscard]] std::string_view name() const override {
    return eval_ == Eval::All ? "layered-replay" : "layered-host-half";
  }
  void compute(g5::model::ParticleSet& pset) override;
  /// Not part of the replayed path.
  void compute_targets(g5::model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override;

  /// Evaluate the forces on `sample` (caller indices) against the lists
  /// of their groups, on the snapshot of the last compute(): each group
  /// holding samples is walked again and its sampled members run through
  /// set_j_particles + compute. Spans go under "grape.sampled_eval".
  void evaluate_sample(std::span<const std::uint32_t> sample,
                       std::vector<g5::math::Vec3d>& acc,
                       std::vector<double>& pot);

  [[nodiscard]] const PhaseCounts& last() const noexcept { return last_; }
  [[nodiscard]] g5::grape::Grape5System& system() noexcept {
    return device_->system();
  }

 private:
  /// Walk groups_[idx[k]] into lists_[k] for k < idx.size(), in parallel.
  void walk_batch(std::span<const std::size_t> idx, g5::tree::WalkStats& stats);

  Eval eval_;
  Tracer& tracer_;
  g5::util::ThreadPool pool_;
  /// Board lanes for Grape5System::compute; declared before device_ so
  /// the device (which holds a non-owning pointer) goes first.
  std::unique_ptr<g5::util::ThreadPool> eval_pool_;
  std::unique_ptr<g5::grape::Grape5Device> device_;
  g5::tree::BhTree tree_;
  std::vector<g5::tree::Group> groups_;
  std::vector<g5::tree::InteractionList> lists_;
  std::vector<g5::tree::WalkStats> lane_stats_;
  std::vector<g5::math::Vec3d> acc_sorted_;
  std::vector<double> pot_sorted_;
  PhaseCounts last_;
};

}  // namespace stackbench
