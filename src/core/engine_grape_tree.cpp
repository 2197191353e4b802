#include "core/engines.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

namespace g5::core {

namespace {

/// Reduce the per-lane walk scratch of one force phase into stats and,
/// when instrumentation is on, the obs phase table and counters (same
/// accounting as HostTreeEngine::reduce_scratch; kernel CPU time is
/// absent here because evaluation runs on the device).
void reduce_walk_scratch(const std::vector<WalkScratch>& scratch,
                         EngineStats& stats) {
  double walk_cpu = 0.0;
  tree::WalkStats walked;
  for (const auto& ws : scratch) {
    stats.walk.merge(ws.walk);
    stats.seconds_walk += ws.seconds_walk;
    walked.merge(ws.walk);
    walk_cpu += ws.seconds_walk;
  }
  if (obs::enabled()) {
    obs::record_phase("walk.cpu", walk_cpu, walked.lists);
    obs::counter("g5.walk.lists").add(walked.lists);
    obs::counter("g5.walk.list_entries").add(walked.list_entries);
    obs::counter("g5.walk.interactions").add(walked.interactions);
  }
}

/// Publish the pipeline concurrency fraction, the additive-model excess
/// (host_busy + device_busy − wall) / wall. That difference equals the
/// time both sides were active at once, so we measure it directly from
/// the producer: walk/submit wall accumulated while the device had jobs
/// in flight. The old walk-wall formulation subtracted two large nearly
/// equal numbers and reported 0 for runs with a real 1.08× pipelined
/// speedup; the direct form stays positive whenever the device ground
/// jobs while the host kept walking — even on a single host core, where
/// the interleaving still hides walk latency behind device turnaround.
/// 0 = the phases ran serially (the additive Section 5 model).
void publish_overlap(double hidden_s, double pipeline_wall) {
  if (!obs::enabled()) return;
  obs::gauge("g5.pipeline.overlap")
      .set(pipeline_wall > 0.0
               ? std::min(std::max(hidden_s, 0.0) / pipeline_wall, 1.0)
               : 0.0);
}

std::size_t list_reserved_bytes(const tree::InteractionList& list) {
  return list.pos.capacity() * sizeof(math::Vec3d) +
         list.mass.capacity() * sizeof(double) +
         list.quad.capacity() * sizeof(tree::Quadrupole);
}

}  // namespace

void ListBufferPool::ensure(std::size_t slots) {
  if (slots_.size() < slots) {
    slots_.resize(slots);
    used_.resize(slots, 0);
  }
}

void ListBufferPool::record_use(std::size_t i) {
  used_[i] = std::max(used_[i], slots_[i].size());
}

void ListBufferPool::end_phase() {
  std::size_t total = 0;
  for (const auto& list : slots_) total += list_reserved_bytes(list);
  peak_bytes_ = std::max(peak_bytes_, total);
  if (obs::enabled() && peak_bytes_ > counted_peak_bytes_) {
    // Monotone counter tracking the high-water mark: publish the delta so
    // the counter's value always equals peak_bytes().
    obs::counter("g5.walk.list_bytes_peak")
        .add(peak_bytes_ - counted_peak_bytes_);
    counted_peak_bytes_ = peak_bytes_;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    tree::InteractionList& list = slots_[i];
    const std::size_t used = std::max(used_[i], kMinEntries);
    if (list.pos.capacity() > kShrinkFactor * used) {
      // Swap-shrink: shrink_to_fit is a non-binding request, a fresh
      // vector with an exact reserve is not.
      tree::InteractionList fresh;
      fresh.reserve(used);
      list = std::move(fresh);
    }
    used_[i] = 0;
  }
}

GrapeTreeEngine::GrapeTreeEngine(const ForceParams& params,
                                 std::shared_ptr<grape::Grape5Device> device)
    : ForceEngine(params), device_(std::move(device)) {
  if (!device_) throw std::invalid_argument("grape device is null");
}

void GrapeTreeEngine::compute(model::ParticleSet& pset) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  const std::size_t n = pset.size();
  pset.zero_force();
  if (n == 0) return;

  // Host phase 1: tree construction, parallel over the walk pool.
  auto& pool = ensure_walk_pool(pool_, params_.threads, scratch_);
  util::Stopwatch phase;
  {
    G5_OBS_SPAN("build", "tree");
    tree::TreeBuildConfig build_cfg;
    build_cfg.leaf_max = params_.leaf_max;
    build_cfg.parallel = {params_.threads, params_.build_parallel_cutoff};
    tree_.build(pset, build_cfg, &pool);
  }
  stats_.seconds_tree_build += phase.lap();
  if (obs::enabled()) {
    obs::counter("g5.tree.builds").add(1);
    obs::counter("g5.tree.nodes").add(tree_.node_count());
  }

  // Hardware setup for this force phase: window from the current hull.
  configure_device_window(*device_, pset, params_.eps);

  tree::collect_groups(tree_, tree::GroupConfig{params_.n_crit}, groups_);
  const tree::WalkConfig walk_cfg{params_.theta, params_.mac};
  const auto& orig = tree_.original_index();

  if (acc_sorted_.size() < n) {
    acc_sorted_.resize(n);
    pot_sorted_.resize(n);
  }

  // Per batch of groups: host lanes build the shared interaction lists in
  // parallel (phase 2), then GRAPE evaluates them in group order (phase
  // 3). Batching bounds the lists held in memory while keeping every lane
  // busy during the walk phase.
  //
  // With pipeline_depth >= 2 the evaluation moves to the AsyncDevice
  // submitter thread and the batches double-buffer: while the device
  // grinds batch k's jobs, the lanes walk batch k+1 into the next buffer
  // set. Group order, chunking, and the per-board reduction order are
  // unchanged, so the result is bitwise-identical to the synchronous
  // path (determinism_test pins this).
  const std::size_t batch =
      std::max<std::size_t>(std::size_t{4} * pool.size(), 8);
  const std::size_t depth = std::min<std::size_t>(
      std::max<std::size_t>(params_.pipeline_depth, 2), 8);
  grape::AsyncDevice* async =
      ensure_async_device(async_, device_, params_.pipeline_depth,
                          depth * batch, params_.threads);

  // Distribution telemetry: hoisted once per phase (one enabled() check);
  // the walk lanes then publish through the pinned slots lock-free.
  obs::Histogram* h_list =
      obs::enabled() ? &obs::histogram("g5.walk.list_len") : nullptr;
  obs::Histogram* h_group =
      obs::enabled() ? &obs::histogram("g5.walk.group_size") : nullptr;

  if (async != nullptr) {
    lists_.ensure(depth * batch);
    if (jobs_.size() < depth) jobs_.resize(depth);
    // Last ticket submitted per buffer set: the set is recycled only
    // once that ticket has completed.
    std::vector<grape::AsyncDevice::Ticket> last_ticket(depth, 0);
    double hidden_s = 0.0;  // producer work done while jobs were in flight
    double pipeline_wall = 0.0;
    util::Stopwatch pipe_watch;
    try {
      G5_OBS_SPAN("pipeline", "engine");
      std::size_t set_index = 0;
      for (std::size_t base = 0; base < groups_.size();
           base += batch, ++set_index) {
        const std::size_t m = std::min(batch, groups_.size() - base);
        const std::size_t set = set_index % depth;
        async->wait_for(last_ticket[set]);
        const bool overlapping = async->in_flight() > 0;
        util::Stopwatch batch_watch;
        {
          // Lane-ownership contract (WalkScratch doc): each lane touches
          // only scratch_[lane] and the list slots of the groups it was
          // assigned, checked by TSan.
          G5_OBS_SPAN("walk", "tree");
          pool.parallel_for(
              m, 1, [&](std::size_t begin, std::size_t end, unsigned lane) {
                WalkScratch& ws = scratch_[lane];
                util::Stopwatch lap;
                for (std::size_t i = begin; i < end; ++i) {
                  lap.restart();
                  const std::size_t slot = set * batch + i;
                  tree::walk_group(tree_, groups_[base + i], walk_cfg,
                                   lists_.slot(slot), &ws.walk);
                  lists_.record_use(slot);
                  ws.seconds_walk += lap.lap();
                  if (h_list != nullptr) {
                    h_list->observe(
                        static_cast<double>(lists_.slot(slot).pos.size()));
                    h_group->observe(
                        static_cast<double>(groups_[base + i].count));
                  }
                }
              });
        }
        auto& jobs = jobs_[set];
        if (jobs.size() < m) jobs.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
          const tree::Group& group = groups_[base + i];
          const tree::InteractionList& list = lists_.slot(set * batch + i);
          grape::ForceJob& job = jobs[i];
          job = grape::ForceJob{};
          job.i_pos = std::span<const math::Vec3d>(
              tree_.sorted_pos().data() + group.first, group.count);
          job.j_pos = list.pos;
          job.j_mass = list.mass;
          job.acc = std::span<math::Vec3d>(acc_sorted_.data() + group.first,
                                           group.count);
          job.pot =
              std::span<double>(pot_sorted_.data() + group.first, group.count);
          last_ticket[set] = async->submit(job);
          ++stats_.groups;
        }
        if (overlapping) hidden_s += batch_watch.elapsed();
      }
      async->drain();
      {
        // Under a walk span so walk.cpu files at a ".../walk/walk.cpu"
        // path like the synchronous engines'.
        G5_OBS_SPAN("walk", "tree");
        reduce_walk_scratch(scratch_, stats_);
      }
      pipeline_wall = pipe_watch.elapsed();
    } catch (...) {
      // Let the submitter finish/skip whatever is queued (our buffers are
      // members, still alive), then rebuild it on the next compute.
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
    publish_overlap(hidden_s, pipeline_wall);
  } else {
    lists_.ensure(std::min(batch, groups_.size()));
    for (std::size_t base = 0; base < groups_.size(); base += batch) {
      const std::size_t m = std::min(batch, groups_.size() - base);
      // Lane-ownership contract (WalkScratch doc): each lane touches only
      // scratch_[lane] and its own list slots, checked by TSan.
      {
        G5_OBS_SPAN("walk", "tree");
        pool.parallel_for(
            m, 1, [&](std::size_t begin, std::size_t end, unsigned lane) {
              WalkScratch& ws = scratch_[lane];
              util::Stopwatch lap;
              for (std::size_t i = begin; i < end; ++i) {
                lap.restart();
                tree::walk_group(tree_, groups_[base + i], walk_cfg,
                                 lists_.slot(i), &ws.walk);
                lists_.record_use(i);
                ws.seconds_walk += lap.lap();
                if (h_list != nullptr) {
                  h_list->observe(
                      static_cast<double>(lists_.slot(i).pos.size()));
                  h_group->observe(
                      static_cast<double>(groups_[base + i].count));
                }
              }
            });
      }
      G5_OBS_SPAN("eval", "grape");
      for (std::size_t i = 0; i < m; ++i) {
        const tree::Group& group = groups_[base + i];
        const tree::InteractionList& list = lists_.slot(i);
        std::span<const math::Vec3d> targets(
            tree_.sorted_pos().data() + group.first, group.count);
        const auto before = device_->system().account();
        device_->compute_forces_chunked(
            targets, list.pos, list.mass,
            std::span<math::Vec3d>(acc_sorted_.data() + group.first,
                                   group.count),
            std::span<double>(pot_sorted_.data() + group.first, group.count));
        const auto& after = device_->system().account();
        stats_.interactions += after.interactions - before.interactions;
        stats_.seconds_kernel += after.emulation_wall - before.emulation_wall;
        ++stats_.groups;
      }
    }
    {
      // Under a walk span so walk.cpu files at the same path as in
      // HostTreeEngine ("/force/walk/walk.cpu"); the scope itself only
      // adds the (negligible) reduction time to the walk phase.
      G5_OBS_SPAN("walk", "tree");
      reduce_walk_scratch(scratch_, stats_);
    }
  }
  lists_.end_phase();

  // Scatter sorted-order results back to the caller's ordering.
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::uint32_t dst = orig[slot];
    pset.acc()[dst] = acc_sorted_[slot];
    pset.pot()[dst] = pot_sorted_[slot];
  }

  // The group's direct part includes each member itself; the pipeline's
  // coincident-pair cut drops those self terms in hardware.

  ++stats_.evaluations;
  stats_.seconds_total += total.elapsed();
}

void GrapeTreeEngine::compute_targets(model::ParticleSet& pset,
                                      std::span<const std::uint32_t> targets) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  if (pset.empty() || targets.empty()) return;

  auto& pool = ensure_walk_pool(pool_, params_.threads, scratch_);
  util::Stopwatch phase;
  {
    G5_OBS_SPAN("build", "tree");
    tree::TreeBuildConfig build_cfg;
    build_cfg.leaf_max = params_.leaf_max;
    build_cfg.parallel = {params_.threads, params_.build_parallel_cutoff};
    tree_.build(pset, build_cfg, &pool);
  }
  stats_.seconds_tree_build += phase.lap();
  if (obs::enabled()) {
    obs::counter("g5.tree.builds").add(1);
    obs::counter("g5.tree.nodes").add(tree_.node_count());
  }

  configure_device_window(*device_, pset, params_.eps);

  // Per-target original walks; each list streams through the hardware
  // with the target as the single i-particle. (The grouped algorithm
  // pays off for full-set evaluations; scattered subsets use the
  // original per-particle lists, as individual-timestep GRAPE codes did.)
  // Walks run batched across the host lanes; with pipeline_depth >= 2
  // the evaluations run on the AsyncDevice thread, double-buffered
  // against the next batch's walks, exactly as in compute().
  const tree::WalkConfig walk_cfg{params_.theta, params_.mac};
  const std::size_t batch =
      std::max<std::size_t>(std::size_t{16} * pool.size(), 64);
  const std::size_t depth = std::min<std::size_t>(
      std::max<std::size_t>(params_.pipeline_depth, 2), 8);
  grape::AsyncDevice* async =
      ensure_async_device(async_, device_, params_.pipeline_depth,
                          depth * batch, params_.threads);

  // Per-target original walks always have a single i-particle, so only
  // the list-length distribution is published (no group sizes).
  obs::Histogram* h_list =
      obs::enabled() ? &obs::histogram("g5.walk.list_len") : nullptr;

  if (async != nullptr) {
    lists_.ensure(depth * batch);
    if (jobs_.size() < depth) jobs_.resize(depth);
    if (target_pos_.size() < depth) target_pos_.resize(depth);
    std::vector<grape::AsyncDevice::Ticket> last_ticket(depth, 0);
    double hidden_s = 0.0;  // producer work done while jobs were in flight
    double pipeline_wall = 0.0;
    util::Stopwatch pipe_watch;
    try {
      G5_OBS_SPAN("pipeline", "engine");
      std::size_t set_index = 0;
      for (std::size_t base = 0; base < targets.size();
           base += batch, ++set_index) {
        const std::size_t m = std::min(batch, targets.size() - base);
        const std::size_t set = set_index % depth;
        async->wait_for(last_ticket[set]);
        const bool overlapping = async->in_flight() > 0;
        util::Stopwatch batch_watch;
        {
          G5_OBS_SPAN("walk", "tree");
          pool.parallel_for(
              m, 8, [&](std::size_t begin, std::size_t end, unsigned lane) {
                WalkScratch& ws = scratch_[lane];
                util::Stopwatch lap;
                for (std::size_t i = begin; i < end; ++i) {
                  lap.restart();
                  const std::size_t slot = set * batch + i;
                  tree::walk_original(tree_, pset.pos()[targets[base + i]],
                                      walk_cfg, lists_.slot(slot), &ws.walk);
                  lists_.record_use(slot);
                  ws.seconds_walk += lap.lap();
                  if (h_list != nullptr) {
                    h_list->observe(
                        static_cast<double>(lists_.slot(slot).pos.size()));
                  }
                }
              });
        }
        auto& jobs = jobs_[set];
        if (jobs.size() < m) jobs.resize(m);
        // Target positions must outlive the in-flight job — persist them
        // in the set's buffer (a stack local would dangle).
        auto& tpos = target_pos_[set];
        if (tpos.size() < m) tpos.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
          const std::uint32_t t = targets[base + i];
          const tree::InteractionList& list = lists_.slot(set * batch + i);
          tpos[i] = pset.pos()[t];
          grape::ForceJob& job = jobs[i];
          job = grape::ForceJob{};
          job.i_pos = std::span<const math::Vec3d>(&tpos[i], 1);
          job.j_pos = list.pos;
          job.j_mass = list.mass;
          job.acc = std::span<math::Vec3d>(&pset.acc()[t], 1);
          job.pot = std::span<double>(&pset.pot()[t], 1);
          last_ticket[set] = async->submit(job);
          ++stats_.groups;
        }
        if (overlapping) hidden_s += batch_watch.elapsed();
      }
      async->drain();
      {
        G5_OBS_SPAN("walk", "tree");
        reduce_walk_scratch(scratch_, stats_);
      }
      pipeline_wall = pipe_watch.elapsed();
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
    publish_overlap(hidden_s, pipeline_wall);
  } else {
    lists_.ensure(std::min(batch, targets.size()));
    for (std::size_t base = 0; base < targets.size(); base += batch) {
      const std::size_t m = std::min(batch, targets.size() - base);
      {
        G5_OBS_SPAN("walk", "tree");
        pool.parallel_for(
            m, 8, [&](std::size_t begin, std::size_t end, unsigned lane) {
              WalkScratch& ws = scratch_[lane];
              util::Stopwatch lap;
              for (std::size_t i = begin; i < end; ++i) {
                lap.restart();
                tree::walk_original(tree_, pset.pos()[targets[base + i]],
                                    walk_cfg, lists_.slot(i), &ws.walk);
                lists_.record_use(i);
                ws.seconds_walk += lap.lap();
                if (h_list != nullptr) {
                  h_list->observe(
                      static_cast<double>(lists_.slot(i).pos.size()));
                }
              }
            });
      }
      G5_OBS_SPAN("eval", "grape");
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t t = targets[base + i];
        const tree::InteractionList& list = lists_.slot(i);
        const math::Vec3d xi = pset.pos()[t];
        const auto before = device_->system().account();
        device_->compute_forces_chunked({&xi, 1}, list.pos, list.mass,
                                        {&pset.acc()[t], 1},
                                        {&pset.pot()[t], 1});
        const auto& after = device_->system().account();
        stats_.interactions += after.interactions - before.interactions;
        stats_.seconds_kernel += after.emulation_wall - before.emulation_wall;
        ++stats_.groups;
      }
    }
    {
      G5_OBS_SPAN("walk", "tree");  // same path as compute(), see above
      reduce_walk_scratch(scratch_, stats_);
    }
  }
  lists_.end_phase();
  ++stats_.evaluations;
  stats_.seconds_total += total.elapsed();
}

std::unique_ptr<ForceEngine> make_engine(
    const std::string& name, const ForceParams& params,
    std::shared_ptr<grape::Grape5Device> device) {
  auto need_device = [&]() -> std::shared_ptr<grape::Grape5Device> {
    if (device) return device;
    grape::SystemConfig cfg = grape::SystemConfig::paper_system();
    cfg.numerics.backend = params.backend;
    if (params.boards > 0) cfg.boards = params.boards;
    return std::make_shared<grape::Grape5Device>(cfg);
  };
  if (name == "host-direct") {
    return std::make_unique<HostDirectEngine>(params);
  }
  if (name == "host-tree" || name == "host-tree-original") {
    return std::make_unique<HostTreeEngine>(params,
                                            HostTreeEngine::Mode::Original);
  }
  if (name == "host-tree-modified") {
    return std::make_unique<HostTreeEngine>(params,
                                            HostTreeEngine::Mode::Modified);
  }
  if (name == "grape-direct") {
    return std::make_unique<GrapeDirectEngine>(params, need_device());
  }
  if (name == "grape-tree") {
    return std::make_unique<GrapeTreeEngine>(params, need_device());
  }
  throw std::invalid_argument("unknown engine '" + name +
                              "' (host-direct, host-tree[-original], "
                              "host-tree-modified, grape-direct, grape-tree)");
}

}  // namespace g5::core
