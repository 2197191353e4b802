#include "grape/async_device.hpp"

#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

namespace g5::grape {

namespace {

/// Validate before any member that starts a thread is constructed: a
/// throw from the constructor body would join a submitter blocked on a
/// never-closed queue.
std::shared_ptr<Grape5Device> require_device(
    std::shared_ptr<Grape5Device> device) {
  if (!device) throw std::invalid_argument("grape device is null");
  return device;
}

}  // namespace

AsyncDevice::AsyncDevice(std::shared_ptr<Grape5Device> device,
                         const Config& config)
    : device_(require_device(std::move(device))),
      queue_(config.queue_capacity),
      submitter_("g5-submit", [this] { submitter_loop(); }) {
  const unsigned eval_lanes = util::resolve_thread_count(config.eval_threads);
  if (eval_lanes > 1) {
    eval_pool_ = std::make_unique<util::ThreadPool>(eval_lanes);
    device_->system().set_eval_pool(eval_pool_.get());
  }
}

AsyncDevice::~AsyncDevice() {
  queue_.close();
  submitter_.join();
  if (eval_pool_) device_->system().set_eval_pool(nullptr);
}

void AsyncDevice::publish_queue_depth() {
  if (!obs::enabled()) return;
  obs::gauge("g5.grape.queue_depth")
      .set(static_cast<double>(queue_.size()));
  // Submitted-but-not-completed jobs; the crash post-mortem and the
  // status file read this to show what the device pipeline was doing.
  obs::gauge("g5.grape.in_flight").set(static_cast<double>(in_flight()));
}

AsyncDevice::Ticket AsyncDevice::submit(ForceJob& job) {
  Item item;
  item.job = &job;
  if (obs::enabled()) item.obs_path = obs::Span::current_path();
  // submit_mutex_ makes {ticket allocation, enqueue} atomic against
  // other producers, so queue order == ticket order always holds.
  util::MutexLock order(submit_mutex_);
  Ticket ticket = 0;
  {
    util::MutexLock lock(mutex_);
    ticket = ++submitted_;
  }
  item.ticket = ticket;
  if (!queue_.push(std::move(item))) {
    // Queue closed (destructor raced a submit) — count the job as
    // completed-without-running so waits terminate.
    util::MutexLock lock(mutex_);
    completed_ = ticket;
    completed_cv_.notify_all();
    return ticket;
  }
  publish_queue_depth();
  return ticket;
}

void AsyncDevice::submitter_loop() {
  Item item;
  while (queue_.pop(item)) {
    process(item);
    item = Item{};
  }
}

void AsyncDevice::process(Item& item) {
  util::Stopwatch busy;
  ForceJob& job = *item.job;
  Completed delta;
  if (!failed()) {
    try {
      // File the device spans under the producer's phase (the engine's
      // pipeline span), as pool workers do for walk lanes.
      obs::ScopedParentPath parent(item.obs_path);
      G5_OBS_SPAN("eval", "grape");
      Grape5System& sys = device_->system();
      const HardwareAccount before = sys.account();
      const std::uint64_t bytes_before = sys.bytes_moved();
      if (job.require_resident) {
        device_->set_j(job.j_pos, job.j_mass);
        device_->compute_forces(job.i_pos, job.acc, job.pot);
      } else {
        device_->compute_forces_chunked(job.i_pos, job.j_pos, job.j_mass,
                                        job.acc, job.pot);
      }
      const HardwareAccount& after = sys.account();
      job.interactions = after.interactions - before.interactions;
      job.emulation_seconds = after.emulation_wall - before.emulation_wall;
      job.hib_bytes = sys.bytes_moved() - bytes_before;
      delta.jobs = 1;
      delta.interactions = job.interactions;
      delta.hib_bytes = job.hib_bytes;
      delta.emulation_seconds = job.emulation_seconds;
    } catch (...) {
      failed_.store(true, std::memory_order_release);
      util::MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  delta.busy_seconds = busy.elapsed();
  if (obs::enabled()) {
    // Per-batch device occupancy distribution: how long each submitted
    // job held the submitter thread, in microseconds.
    obs::histogram("g5.grape.job_us").observe(delta.busy_seconds * 1e6);
  }
  {
    util::MutexLock lock(mutex_);
    totals_.jobs += delta.jobs;
    totals_.interactions += delta.interactions;
    totals_.hib_bytes += delta.hib_bytes;
    totals_.emulation_seconds += delta.emulation_seconds;
    totals_.busy_seconds += delta.busy_seconds;
    completed_ = item.ticket;
    completed_cv_.notify_all();
  }
  publish_queue_depth();
}

void AsyncDevice::wait_for(Ticket ticket) {
  util::MutexLock lock(mutex_);
  while (completed_ < ticket) completed_cv_.wait(mutex_);
  if (error_) std::rethrow_exception(error_);
}

void AsyncDevice::drain() {
  util::MutexLock lock(mutex_);
  while (completed_ < submitted_) completed_cv_.wait(mutex_);
  if (error_) std::rethrow_exception(error_);
}

AsyncDevice::Completed AsyncDevice::take_completed() {
  util::MutexLock lock(mutex_);
  Completed out = totals_;
  totals_ = Completed{};
  return out;
}

}  // namespace g5::grape
