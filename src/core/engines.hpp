// Concrete force engines. See engine.hpp for the contract.
#pragma once

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "grape/async_device.hpp"
#include "grape/driver.hpp"
#include "tree/groupwalk.hpp"
#include "tree/tree.hpp"
#include "util/parallel.hpp"

namespace g5::core {

/// Recycled interaction-list buffers for the device pipeline. Slots keep
/// their heap capacity across batches and steps so steady-state walks
/// allocate nothing; record_use() tracks the high-water entry count per
/// slot and end_phase() (a) publishes the reserved-bytes peak to the
/// monotone g5.walk.list_bytes_peak counter and (b) releases the excess
/// capacity of slots that hold more than kShrinkFactor x their observed
/// use, so one pathological batch cannot pin memory for a whole run.
///
/// Threading follows the WalkScratch lane-ownership contract: inside a
/// parallel walk each lane touches only the slots of the groups it was
/// assigned; ensure()/end_phase() run on the calling thread outside any
/// parallel region (and after the device drained, for pipelined slots).
class ListBufferPool {
 public:
  /// Grow to at least `slots` buffers (never shrinks the slot count).
  void ensure(std::size_t slots);
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] tree::InteractionList& slot(std::size_t i) {
    return slots_[i];
  }
  /// Record slot i's current entry count toward its high-water mark.
  /// Call after each walk into the slot, from the owning lane.
  void record_use(std::size_t i);
  /// End of a force phase: publish the peak and apply the shrink policy.
  void end_phase();
  /// High-water total of bytes reserved across slots (whole lifetime).
  [[nodiscard]] std::size_t peak_bytes() const noexcept { return peak_bytes_; }

 private:
  /// Shrink a slot once its capacity exceeds this multiple of its
  /// observed use; 4x leaves comfortable headroom for step-to-step
  /// list-length jitter while still bounding the waste.
  static constexpr std::size_t kShrinkFactor = 4;
  /// Never shrink below this many entries; tiny lists are not worth the
  /// reallocation churn.
  static constexpr std::size_t kMinEntries = 256;

  std::vector<tree::InteractionList> slots_;
  std::vector<std::size_t> used_;  ///< per-slot high-water entries, per phase
  std::size_t peak_bytes_ = 0;
  std::size_t counted_peak_bytes_ = 0;  ///< already published to obs
};

/// Per-lane scratch for parallel tree walks: each pool lane owns an
/// interaction list, acc/pot buffers and private stat/timer accumulators,
/// reduced into EngineStats in lane order after the parallel region.
///
/// Thread-safety contract (lane ownership, not a lock): inside a
/// parallel_for body, lane `k` may touch only `scratch[k]`; outside any
/// parallel region the calling thread owns the whole vector (resize in
/// ensure_walk_pool, reduction in reduce_scratch). This partition is not
/// expressible with G5_GUARDED_BY — it is what the TSan CI job checks
/// dynamically; see docs/static_analysis.md.
struct WalkScratch {
  tree::InteractionList list;
  std::vector<math::Vec3d> acc;
  std::vector<double> pot;
  tree::WalkStats walk;
  double seconds_walk = 0.0;
  double seconds_kernel = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t groups = 0;

  void reset_accumulators() noexcept {
    walk = tree::WalkStats{};
    seconds_walk = 0.0;
    seconds_kernel = 0.0;
    interactions = 0;
    groups = 0;
  }
};

/// Lazily (re)build a walk pool honoring `requested` threads (0 = auto)
/// and size the per-lane scratch to match. Shared by the tree engines.
util::ThreadPool& ensure_walk_pool(std::unique_ptr<util::ThreadPool>& pool,
                                   std::uint32_t requested,
                                   std::vector<WalkScratch>& scratch);

/// O(N^2) direct summation in double precision on the host.
class HostDirectEngine final : public ForceEngine {
 public:
  explicit HostDirectEngine(const ForceParams& params) : ForceEngine(params) {}
  [[nodiscard]] std::string_view name() const override {
    return "host-direct";
  }
  void compute(model::ParticleSet& pset) override;
  void compute_targets(model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override;
};

/// Barnes-Hut on the host.
class HostTreeEngine final : public ForceEngine {
 public:
  enum class Mode {
    Original,  ///< per-particle interaction lists (Barnes & Hut 1986)
    Modified   ///< grouped lists (Barnes 1990)
  };

  HostTreeEngine(const ForceParams& params, Mode mode)
      : ForceEngine(params), mode_(mode) {}

  [[nodiscard]] std::string_view name() const override {
    return mode_ == Mode::Original ? "host-tree-original"
                                   : "host-tree-modified";
  }
  void compute(model::ParticleSet& pset) override;
  void compute_targets(model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] const tree::BhTree& tree() const noexcept { return tree_; }

 private:
  Mode mode_;
  tree::BhTree tree_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<WalkScratch> scratch_;
  std::vector<tree::Group> groups_;  ///< reused across steps (Modified mode)

  /// Reduce per-lane accumulators into stats_ (lane order).
  void reduce_scratch();
};

/// O(N^2) with the force loop on the emulated GRAPE-5 (whole particle set
/// as both i and j, chunked through the particle memory by the driver).
class GrapeDirectEngine final : public ForceEngine {
 public:
  GrapeDirectEngine(const ForceParams& params,
                    std::shared_ptr<grape::Grape5Device> device);
  [[nodiscard]] std::string_view name() const override {
    return "grape-direct";
  }
  void compute(model::ParticleSet& pset) override;
  void compute_targets(model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override;

  [[nodiscard]] grape::Grape5Device& device() noexcept { return *device_; }
  [[nodiscard]] const grape::Grape5Device& device() const noexcept {
    return *device_;
  }

 private:
  std::shared_ptr<grape::Grape5Device> device_;
  /// Async submission layer (pipeline_depth >= 2). Direct summation has
  /// no walk to overlap, but routing through AsyncDevice still buys the
  /// tile-parallel evaluation it attaches to the device. Declared after
  /// device_ so it is destroyed (joining its thread) first.
  std::unique_ptr<grape::AsyncDevice> async_;
  /// Job + gathered-target buffers; must outlive the in-flight job, so
  /// they are members rather than locals.
  grape::ForceJob job_;
  std::vector<math::Vec3d> i_pos_;
  std::vector<math::Vec3d> acc_;
  std::vector<double> pot_;
};

/// The paper's system: Barnes' modified treecode with interaction lists
/// evaluated on the emulated GRAPE-5.
class GrapeTreeEngine final : public ForceEngine {
 public:
  GrapeTreeEngine(const ForceParams& params,
                  std::shared_ptr<grape::Grape5Device> device);
  [[nodiscard]] std::string_view name() const override { return "grape-tree"; }
  void compute(model::ParticleSet& pset) override;
  void compute_targets(model::ParticleSet& pset,
                       std::span<const std::uint32_t> targets) override;

  [[nodiscard]] grape::Grape5Device& device() noexcept { return *device_; }
  [[nodiscard]] const grape::Grape5Device& device() const noexcept {
    return *device_;
  }
  [[nodiscard]] const tree::BhTree& tree() const noexcept { return tree_; }

 private:
  std::shared_ptr<grape::Grape5Device> device_;
  /// Async submission layer (pipeline_depth >= 2): walk batch k+1
  /// overlaps device evaluation of batch k. Declared after device_ so it
  /// is destroyed (joining its thread) before the device and the list /
  /// output buffers it reads. nullptr on the synchronous path.
  std::unique_ptr<grape::AsyncDevice> async_;
  tree::BhTree tree_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<WalkScratch> scratch_;
  std::vector<tree::Group> groups_;  ///< reused across steps
  /// Interaction lists of the batches in flight: pipeline_depth sets of
  /// `batch` slots each (slot = set * batch + i); a set is recycled only
  /// after its last job's ticket completes.
  ListBufferPool lists_;
  /// Per-set job descriptors and (compute_targets only) target
  /// positions; like the lists, they must stay valid until the set's
  /// tickets complete, so they are members indexed by set.
  std::vector<std::vector<grape::ForceJob>> jobs_;
  std::vector<std::vector<math::Vec3d>> target_pos_;
  std::vector<math::Vec3d> acc_sorted_;
  std::vector<double> pot_sorted_;
};

/// Factory by name ("host-direct", "host-tree", "host-tree-modified",
/// "grape-direct", "grape-tree"); grape engines get a fresh device with
/// the paper's SystemConfig unless one is supplied.
std::unique_ptr<ForceEngine> make_engine(
    const std::string& name, const ForceParams& params,
    std::shared_ptr<grape::Grape5Device> device = nullptr);

/// Shared helper: set the device range window (snapshot hull + margin) and
/// softening before a force phase. Returns the window used.
std::pair<double, double> configure_device_window(
    grape::Grape5Device& device, const model::ParticleSet& pset, double eps);

/// Shared helper: lazily (re)build the async submission layer of a grape
/// engine. Returns nullptr when pipeline_depth < 2 (synchronous path);
/// otherwise ensures `async` wraps `device` with at least
/// `queue_capacity` queue slots, rebuilding it if a previous device
/// error poisoned it. A new AsyncDevice gets `eval_threads` evaluation
/// lanes (ForceParams::threads: the walk pool's count, 0 = auto). Called
/// between phases only (no jobs in flight).
grape::AsyncDevice* ensure_async_device(
    std::unique_ptr<grape::AsyncDevice>& async,
    const std::shared_ptr<grape::Grape5Device>& device,
    std::uint32_t pipeline_depth, std::size_t queue_capacity,
    std::uint32_t eval_threads);

}  // namespace g5::core
