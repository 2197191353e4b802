// AsyncDevice: asynchronous command queue over a Grape5Device.
//
// The GRAPE-5 host interface is asynchronous by design (Kawai et al.
// 1999): the host can keep building interaction lists while the boards
// grind the previous ones. The synchronous engines serialized those two
// phases; AsyncDevice restores the hardware's concurrency for the
// emulator. It owns one dedicated submitter thread (the only thread
// that touches the device — and thus HardwareAccount — between the
// first submit and the matching drain), consumes ForceJobs in exact
// submission order through a util::BoundedQueue, and records per-job
// completion accounting so callers never read the account mid-flight.
//
// It also attaches an evaluation worker pool to the underlying
// Grape5System (set_eval_pool) so each job's (board, i-block) tiles run
// concurrently, the way the silicon boards and their i-slots did. Both
// layers preserve bitwise-identical results (submission-order
// evaluation; per-board partial sums reduced in board order).
//
// Synchronization contract:
//   * submit(job) — job's spans must stay valid, inputs unmodified and
//     outputs untouched by the caller, until the job completes (its
//     ticket passes wait_for / drain returns).
//   * Completion fields of the job (interactions, hib_bytes,
//     emulation_seconds) are readable only after that point.
//   * The caller must not touch device()/its account while jobs are in
//     flight; drain() first.
//   * Multiple producers may submit (the queue is MPMC); ticket order
//     then matches the order submit() calls committed.
//
// Errors thrown by the device on the submitter thread (e.g. a mis-set
// range window) are captured; the failing and all later jobs complete
// without running ("failed fast") so waits always terminate, and the
// first error rethrows on the next wait_for()/drain(). After a failure
// the AsyncDevice is poisoned (failed() == true) — destroy and rebuild.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>

#include "grape/driver.hpp"
#include "util/annotations.hpp"
#include "util/bounded_queue.hpp"
#include "util/mutex.hpp"
#include "util/parallel.hpp"
#include "util/thread.hpp"

namespace g5::grape {

/// One force evaluation: targets against an interaction list, routed to
/// Grape5Device::compute_forces_chunked on the submitter thread.
struct ForceJob {
  std::span<const Vec3d> i_pos;     ///< targets
  std::span<const Vec3d> j_pos;     ///< interaction-list positions
  std::span<const double> j_mass;   ///< interaction-list masses
  std::span<Vec3d> acc;             ///< overwritten on completion
  std::span<double> pot;            ///< overwritten on completion

  /// When true the j-list must fit the boards' particle memory in one
  /// upload: the submitter calls set_j + compute_forces instead of the
  /// chunked path, and a list over capacity raises JmemCapacityError —
  /// which poisons the AsyncDevice (failed() == true) and rethrows on
  /// the next wait_for()/drain(), like any device error. For producers
  /// that sized their lists to the hardware and want overflow to be a
  /// hard fault rather than silently chunked.
  bool require_resident = false;

  // Completion accounting, written by the submitter thread before the
  // ticket is published (synchronized through wait_for/drain).
  std::uint64_t interactions = 0;
  std::uint64_t hib_bytes = 0;
  double emulation_seconds = 0.0;
};

class AsyncDevice {
 public:
  struct Config {
    /// Jobs the queue holds before submit() blocks (backpressure).
    std::size_t queue_capacity = 64;
    /// Evaluation worker lanes attached to the device's system while
    /// this AsyncDevice exists, for any board count. 0 = auto
    /// (util::resolve_thread_count: G5_THREADS, else the host's cores);
    /// 1 evaluates serially on the submitter thread.
    unsigned eval_threads = 0;
  };

  /// Monotone per-submission id; wait_for(t) returns once the job that
  /// got ticket t has completed.
  using Ticket = std::uint64_t;

  explicit AsyncDevice(std::shared_ptr<Grape5Device> device)
      : AsyncDevice(std::move(device), Config{}) {}
  AsyncDevice(std::shared_ptr<Grape5Device> device, const Config& config);
  /// Closes the queue, lets the submitter finish every queued job (the
  /// caller's output buffers outlive this object by the submit
  /// contract), joins it, and detaches the eval pool from the device.
  ~AsyncDevice();
  AsyncDevice(const AsyncDevice&) = delete;
  AsyncDevice& operator=(const AsyncDevice&) = delete;

  /// Enqueue a job (blocks while the queue is full). The returned
  /// ticket orders completion; see the synchronization contract above.
  Ticket submit(ForceJob& job);

  /// Block until the job with this ticket has completed; rethrows the
  /// first device error if one occurred at or before it.
  void wait_for(Ticket ticket);

  /// Block until every submitted job has completed; rethrows the first
  /// device error. The device is safe to touch directly afterwards
  /// (until the next submit).
  void drain();

  /// True once a job failed on the submitter thread. Poisoned for good:
  /// later jobs complete without running; rebuild to recover.
  [[nodiscard]] bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }

  /// Aggregate accounting of jobs completed since the last take.
  struct Completed {
    std::uint64_t jobs = 0;
    std::uint64_t interactions = 0;
    std::uint64_t hib_bytes = 0;
    double emulation_seconds = 0.0;  ///< emulated-datapath wall (account delta)
    double busy_seconds = 0.0;       ///< submitter wall spent processing jobs
  };
  /// Return and reset the aggregate. Call after drain() (or accept a
  /// snapshot that trails in-flight jobs).
  Completed take_completed();

  /// The wrapped device. Only safe while no jobs are in flight.
  [[nodiscard]] Grape5Device& device() noexcept { return *device_; }

  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return queue_.capacity();
  }

  [[nodiscard]] Ticket submitted() const {
    util::MutexLock lock(mutex_);
    return submitted_;
  }

  /// Jobs submitted but not yet completed. Producers use it to tell
  /// whether work they do right now overlaps device evaluation (the
  /// g5.pipeline.overlap gauge); a snapshot, racy by nature.
  [[nodiscard]] std::uint64_t in_flight() const {
    util::MutexLock lock(mutex_);
    return submitted_ - completed_;
  }

 private:
  struct Item {
    ForceJob* job = nullptr;
    Ticket ticket = 0;
    /// Caller's span path at submit time, so the job's eval span files
    /// under the phase that produced it (obs/span.hpp). Empty when
    /// instrumentation is off.
    std::string obs_path;
  };

  void submitter_loop();
  void process(Item& item);
  void publish_queue_depth();

  std::shared_ptr<Grape5Device> device_;
  /// Tile-parallel eval lanes; attached to the device's system for
  /// this object's lifetime. Declared before submitter_ so the thread
  /// (which uses it) joins first on destruction.
  std::unique_ptr<util::ThreadPool> eval_pool_;
  util::BoundedQueue<Item> queue_;

  mutable util::Mutex mutex_;
  util::CondVar completed_cv_;
  /// Producer-side lock serializing {ticket allocation, enqueue} so
  /// queue order always equals ticket order, even with racing
  /// producers. Held across a potentially blocking push — safe, the
  /// consumer never takes it.
  util::Mutex submit_mutex_;
  Ticket submitted_ G5_GUARDED_BY(mutex_) = 0;
  Ticket completed_ G5_GUARDED_BY(mutex_) = 0;
  Completed totals_ G5_GUARDED_BY(mutex_);
  std::exception_ptr error_ G5_GUARDED_BY(mutex_);
  std::atomic<bool> failed_{false};

  /// Must be last: starts in the constructor and reads every member.
  util::Thread submitter_;
};

}  // namespace g5::grape
