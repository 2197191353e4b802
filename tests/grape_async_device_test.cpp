// grape::AsyncDevice: submission-order evaluation, bitwise equality with
// the synchronous driver path, completion accounting, error poisoning,
// and the eval pool's sizing. Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/engines.hpp"
#include "grape/async_device.hpp"
#include "ic/plummer.hpp"
#include "util/parallel.hpp"

namespace {

using namespace g5;

struct Problem {
  std::vector<math::Vec3d> pos;
  std::vector<double> mass;
};

Problem make_problem(std::size_t n, std::uint64_t seed) {
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = n, .seed = seed});
  Problem p;
  p.pos.assign(pset.pos().begin(), pset.pos().end());
  p.mass.assign(pset.mass().begin(), pset.mass().end());
  return p;
}

void configure(grape::Grape5Device& device) {
  device.set_range(-20.0, 20.0, 1e-6);
  device.set_eps(0.05);
}

TEST(AsyncDevice, MatchesSynchronousBitwise) {
  const Problem p = make_problem(256, 17);
  const std::size_t n = p.pos.size();

  // Synchronous reference on a fresh device.
  std::vector<math::Vec3d> acc_ref(n);
  std::vector<double> pot_ref(n);
  {
    grape::Grape5Device device;
    configure(device);
    device.compute_forces_chunked(p.pos, p.pos, p.mass, acc_ref, pot_ref);
  }

  // Async path: the same work split into several jobs.
  std::vector<math::Vec3d> acc(n);
  std::vector<double> pot(n);
  auto device = std::make_shared<grape::Grape5Device>();
  configure(*device);
  grape::AsyncDevice async(device);
  const std::size_t chunk = 64;
  std::vector<grape::ForceJob> jobs((n + chunk - 1) / chunk);
  std::size_t j = 0;
  for (std::size_t base = 0; base < n; base += chunk, ++j) {
    const std::size_t m = std::min(chunk, n - base);
    grape::ForceJob& job = jobs[j];
    job.i_pos = std::span<const math::Vec3d>(p.pos.data() + base, m);
    job.j_pos = p.pos;
    job.j_mass = p.mass;
    job.acc = std::span<math::Vec3d>(acc.data() + base, m);
    job.pot = std::span<double>(pot.data() + base, m);
    async.submit(job);
  }
  async.drain();

  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(acc[i], acc_ref[i]) << i;
    ASSERT_EQ(pot[i], pot_ref[i]) << i;
  }

  // Per-job accounting sums to the device's own account.
  const grape::AsyncDevice::Completed done = async.take_completed();
  EXPECT_EQ(done.jobs, jobs.size());
  EXPECT_EQ(done.interactions, device->system().account().interactions);
  std::uint64_t per_job = 0;
  for (const auto& job : jobs) per_job += job.interactions;
  EXPECT_EQ(per_job, done.interactions);
  // A second take returns the zeroed aggregate.
  EXPECT_EQ(async.take_completed().jobs, 0u);
}

TEST(AsyncDevice, TicketsOrderAndWaitFor) {
  const Problem p = make_problem(96, 23);
  const std::size_t n = p.pos.size();
  std::vector<math::Vec3d> acc(n);
  std::vector<double> pot(n);
  auto device = std::make_shared<grape::Grape5Device>();
  configure(*device);
  grape::AsyncDevice::Config cfg;
  cfg.queue_capacity = 2;  // force backpressure
  grape::AsyncDevice async(device, cfg);

  std::vector<grape::ForceJob> jobs(n / 32);
  grape::AsyncDevice::Ticket last = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    grape::ForceJob& job = jobs[j];
    job.i_pos = std::span<const math::Vec3d>(p.pos.data() + j * 32, 32);
    job.j_pos = p.pos;
    job.j_mass = p.mass;
    job.acc = std::span<math::Vec3d>(acc.data() + j * 32, 32);
    job.pot = std::span<double>(pot.data() + j * 32, 32);
    const grape::AsyncDevice::Ticket t = async.submit(job);
    EXPECT_EQ(t, last + 1);  // tickets are dense and increasing
    last = t;
  }
  EXPECT_EQ(async.submitted(), last);
  async.wait_for(last);  // implies all earlier tickets completed
  for (const auto& job : jobs) EXPECT_GT(job.interactions, 0u);
  EXPECT_FALSE(async.failed());
  async.drain();  // no-op: everything already completed
}

TEST(AsyncDevice, DeviceErrorPoisonsAndRethrows) {
  const Problem p = make_problem(32, 5);
  std::vector<math::Vec3d> acc(p.pos.size());
  std::vector<double> pot(p.pos.size());
  // No set_range: the device throws on first use, on the submitter thread.
  auto device = std::make_shared<grape::Grape5Device>();
  grape::AsyncDevice async(device);
  grape::ForceJob job;
  job.i_pos = p.pos;
  job.j_pos = p.pos;
  job.j_mass = p.mass;
  job.acc = acc;
  job.pot = pot;
  const grape::AsyncDevice::Ticket t = async.submit(job);
  EXPECT_THROW(async.wait_for(t), std::logic_error);
  EXPECT_TRUE(async.failed());
  // Later jobs complete without running; waits still terminate and
  // rethrow the original error.
  grape::ForceJob job2 = job;
  async.submit(job2);
  EXPECT_THROW(async.drain(), std::logic_error);
  EXPECT_EQ(job2.interactions, 0u);
}

TEST(AsyncDevice, DestructorFinishesQueuedJobs) {
  const Problem p = make_problem(64, 9);
  std::vector<math::Vec3d> acc(p.pos.size());
  std::vector<double> pot(p.pos.size());
  std::vector<grape::ForceJob> jobs(4);
  {
    auto device = std::make_shared<grape::Grape5Device>();
    configure(*device);
    grape::AsyncDevice async(device);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      grape::ForceJob& job = jobs[j];
      job.i_pos = std::span<const math::Vec3d>(p.pos.data() + j * 16, 16);
      job.j_pos = p.pos;
      job.j_mass = p.mass;
      job.acc = std::span<math::Vec3d>(acc.data() + j * 16, 16);
      job.pot = std::span<double>(pot.data() + j * 16, 16);
      async.submit(job);
    }
    // No drain: destruction closes the queue and finishes every job.
  }
  for (const auto& job : jobs) EXPECT_GT(job.interactions, 0u);
}

TEST(AsyncDevice, OneBoardDeviceGetsEvalPool) {
  // The eval pool is sized to the host, not to the board count: a
  // one-board device splits each call's i's over the lanes too.
  grape::SystemConfig cfg = grape::SystemConfig::paper_system();
  cfg.boards = 1;
  auto device = std::make_shared<grape::Grape5Device>(cfg);
  {
    grape::AsyncDevice::Config async_cfg;
    async_cfg.eval_threads = 3;
    grape::AsyncDevice async(device, async_cfg);
    ASSERT_NE(device->system().eval_pool(), nullptr);
    EXPECT_EQ(device->system().eval_pool()->size(), 3u);
  }
  EXPECT_EQ(device->system().eval_pool(), nullptr);  // detached on exit
  {
    grape::AsyncDevice async(device);  // eval_threads 0 = auto
    const unsigned lanes = util::resolve_thread_count(0);
    if (lanes > 1) {
      ASSERT_NE(device->system().eval_pool(), nullptr);
      EXPECT_EQ(device->system().eval_pool()->size(), lanes);
    } else {
      EXPECT_EQ(device->system().eval_pool(), nullptr);
    }
  }
}

TEST(AsyncDevice, EvalLanesFollowForceParamsThreads) {
  // ForceParams::threads reaches the eval pool through the engine's
  // ensure_async_device, so --threads governs walk and eval lanes alike;
  // one thread evaluates serially on the submitter (no pool).
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 64, .seed = 3});
  for (const std::uint32_t threads : {1u, 2u, 3u}) {
    SCOPED_TRACE(threads);
    auto device = std::make_shared<grape::Grape5Device>();
    core::ForceParams params;
    params.threads = threads;
    ASSERT_GE(params.pipeline_depth, 2u);  // the async path
    core::GrapeDirectEngine engine(params, device);
    engine.compute(pset);
    const util::ThreadPool* pool = device->system().eval_pool();
    if (threads == 1) {
      EXPECT_EQ(pool, nullptr);
    } else {
      ASSERT_NE(pool, nullptr);
      EXPECT_EQ(pool->size(), threads);
    }
  }
}

TEST(AsyncDevice, NullDeviceThrows) {
  EXPECT_THROW(grape::AsyncDevice(nullptr), std::invalid_argument);
}

}  // namespace
