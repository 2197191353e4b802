#include "core/engines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/span.hpp"
#include "util/timer.hpp"

namespace g5::core {

std::pair<double, double> configure_device_window(
    grape::Grape5Device& device, const model::ParticleSet& pset, double eps) {
  const model::Aabb box = pset.bounding_box();
  // Cubic window with margin: particles drift between range updates, and
  // the interaction lists also contain cell centers of mass, which stay
  // inside the hull — 12.5 % margin each side covers both.
  const double size = std::max(box.cube_size(), 1e-12) * 1.25;
  const math::Vec3d c = box.center();
  const double half = 0.5 * size;
  const double lo = c.min_component() - half;
  const double hi = c.max_component() + half;
  double min_mass = std::numeric_limits<double>::infinity();
  for (double m : pset.mass()) min_mass = std::min(min_mass, m);
  if (!std::isfinite(min_mass) || min_mass <= 0.0) min_mass = 1.0;
  device.set_range(lo, hi, min_mass);
  device.set_eps(eps);
  return {lo, hi};
}

grape::AsyncDevice* ensure_async_device(
    std::unique_ptr<grape::AsyncDevice>& async,
    const std::shared_ptr<grape::Grape5Device>& device,
    std::uint32_t pipeline_depth, std::size_t queue_capacity,
    std::uint32_t eval_threads) {
  if (pipeline_depth < 2) {
    async.reset();  // switch back to the synchronous path
    return nullptr;
  }
  if (async &&
      (async->failed() || async->queue_capacity() < queue_capacity)) {
    async.reset();  // poisoned by a device error, or the batch grew
  }
  if (!async) {
    grape::AsyncDevice::Config cfg;
    cfg.queue_capacity = queue_capacity;
    cfg.eval_threads = eval_threads;
    async = std::make_unique<grape::AsyncDevice>(device, cfg);
  }
  return async.get();
}

GrapeDirectEngine::GrapeDirectEngine(
    const ForceParams& params, std::shared_ptr<grape::Grape5Device> device)
    : ForceEngine(params), device_(std::move(device)) {
  if (!device_) throw std::invalid_argument("grape device is null");
}

void GrapeDirectEngine::compute(model::ParticleSet& pset) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  pset.zero_force();
  const std::size_t n = pset.size();
  if (n == 0) return;

  configure_device_window(*device_, pset, params_.eps);

  grape::AsyncDevice* async =
      ensure_async_device(async_, device_, params_.pipeline_depth, 1,
                          params_.threads);
  if (async != nullptr) {
    // One job covering the whole set: direct summation has no walk to
    // overlap, but the async layer's tile-parallel evaluation still
    // applies (bitwise-identical; see Grape5System::set_eval_pool).
    job_ = grape::ForceJob{};
    job_.i_pos = pset.pos();
    job_.j_pos = pset.pos();
    job_.j_mass = pset.mass();
    job_.acc = pset.acc();
    job_.pot = pset.pot();
    try {
      async->submit(job_);
      async->drain();
    } catch (...) {
      try {
        async_->drain();
      } catch (...) {
      }
      async_.reset();
      throw;
    }
    const grape::AsyncDevice::Completed done = async->take_completed();
    stats_.interactions += done.interactions;
    stats_.seconds_kernel += done.emulation_seconds;
  } else {
    const auto before = device_->system().account();
    device_->compute_forces_chunked(pset.pos(), pset.pos(), pset.mass(),
                                    pset.acc(), pset.pot());
    const auto& after = device_->system().account();
    stats_.interactions += after.interactions - before.interactions;
    stats_.seconds_kernel += after.emulation_wall - before.emulation_wall;
  }

  // j includes every i; the pipeline's coincident-pair cut drops the
  // self term, so no correction is needed.

  ++stats_.evaluations;
  stats_.seconds_total += total.elapsed();
}

void GrapeDirectEngine::compute_targets(
    model::ParticleSet& pset, std::span<const std::uint32_t> targets) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  if (pset.empty() || targets.empty()) return;

  configure_device_window(*device_, pset, params_.eps);

  // Gather targets as i-particles against the whole set as j. The
  // buffers are members: an in-flight async job reads/writes them.
  i_pos_.resize(targets.size());
  acc_.resize(targets.size());
  pot_.resize(targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k) {
    i_pos_[k] = pset.pos()[targets[k]];
  }

  grape::AsyncDevice* async =
      ensure_async_device(async_, device_, params_.pipeline_depth, 1,
                          params_.threads);
  if (async != nullptr) {
    job_ = grape::ForceJob{};
    job_.i_pos = i_pos_;
    job_.j_pos = pset.pos();
    job_.j_mass = pset.mass();
    job_.acc = acc_;
    job_.pot = pot_;
    try {
      async->submit(job_);
      async->drain();
    } catch (...) {
      try {
        async_->drain();
      } catch (...) {
      }
      async_.reset();
      throw;
    }
    const grape::AsyncDevice::Completed done = async->take_completed();
    stats_.interactions += done.interactions;
    stats_.seconds_kernel += done.emulation_seconds;
  } else {
    const auto before = device_->system().account();
    device_->compute_forces_chunked(i_pos_, pset.pos(), pset.mass(), acc_,
                                    pot_);
    const auto& after = device_->system().account();
    stats_.interactions += after.interactions - before.interactions;
    stats_.seconds_kernel += after.emulation_wall - before.emulation_wall;
  }

  for (std::size_t k = 0; k < targets.size(); ++k) {
    const std::uint32_t t = targets[k];
    pset.acc()[t] = acc_[k];
    pset.pot()[t] = pot_[k];
  }
  ++stats_.evaluations;
  stats_.seconds_total += total.elapsed();
}

}  // namespace g5::core
