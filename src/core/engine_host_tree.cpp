#include "core/engines.hpp"

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

namespace g5::core {

util::ThreadPool& ensure_walk_pool(std::unique_ptr<util::ThreadPool>& pool,
                                   std::uint32_t requested,
                                   std::vector<WalkScratch>& scratch) {
  const unsigned want = util::resolve_thread_count(requested);
  if (!pool || pool->size() != want) {
    pool = std::make_unique<util::ThreadPool>(want);
  }
  scratch.resize(pool->size());
  for (auto& s : scratch) s.reset_accumulators();
  return *pool;
}

void HostTreeEngine::reduce_scratch() {
  double walk_cpu = 0.0;
  double kernel_cpu = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t groups = 0;
  tree::WalkStats walked;
  for (const auto& s : scratch_) {
    stats_.walk.merge(s.walk);
    stats_.seconds_walk += s.seconds_walk;
    stats_.seconds_kernel += s.seconds_kernel;
    stats_.interactions += s.interactions;
    stats_.groups += s.groups;
    walked.merge(s.walk);
    walk_cpu += s.seconds_walk;
    kernel_cpu += s.seconds_kernel;
    interactions += s.interactions;
    groups += s.groups;
  }
  if (obs::enabled()) {
    // Lane busy seconds overlap in wall time, so they enter the phase
    // table by lap accumulation under the live walk span, not as scopes.
    obs::record_phase("walk.cpu", walk_cpu, walked.lists);
    obs::record_phase("kernel.cpu", kernel_cpu, walked.lists);
    obs::counter("g5.walk.lists").add(walked.lists);
    obs::counter("g5.walk.list_entries").add(walked.list_entries);
    obs::counter("g5.walk.interactions").add(interactions);
    obs::counter("g5.walk.groups").add(groups);
  }
}

void HostTreeEngine::compute(model::ParticleSet& pset) {
  G5_OBS_SPAN("force", "engine");
  util::Stopwatch total;
  const std::size_t n = pset.size();
  pset.zero_force();
  if (n == 0) return;

  auto& pool = ensure_walk_pool(pool_, params_.threads, scratch_);
  util::Stopwatch phase;
  {
    G5_OBS_SPAN("build", "tree");
    tree::TreeBuildConfig build_cfg;
    build_cfg.leaf_max = params_.leaf_max;
    build_cfg.quadrupole = params_.quadrupole;
    build_cfg.parallel = {params_.threads, params_.build_parallel_cutoff};
    tree_.build(pset, build_cfg, &pool);
  }
  stats_.seconds_tree_build += phase.lap();
  if (obs::enabled()) {
    obs::counter("g5.tree.builds").add(1);
    obs::counter("g5.tree.nodes").add(tree_.node_count());
  }

  const tree::WalkConfig walk_cfg{params_.theta, params_.mac,
                                  params_.quadrupole};
  const auto& orig = tree_.original_index();

  G5_OBS_SPAN("walk", "tree");

  // Distribution telemetry: hoisted once per phase (one enabled() check);
  // lanes publish through the pinned slots lock-free.
  obs::Histogram* h_list =
      obs::enabled() ? &obs::histogram("g5.walk.list_len") : nullptr;
  obs::Histogram* h_group =
      obs::enabled() ? &obs::histogram("g5.walk.group_size") : nullptr;

  // Every particle belongs to exactly one group (modified) or slot
  // (original), so each lane writes disjoint acc/pot entries: the
  // parallel result is bitwise-identical to the serial one regardless of
  // how chunks land on lanes.
  if (mode_ == Mode::Original) {
    pool.parallel_for(
        n, 32, [&](std::size_t begin, std::size_t end, unsigned lane) {
          WalkScratch& ws = scratch_[lane];
          util::Stopwatch lap;
          for (std::size_t slot = begin; slot < end; ++slot) {
            lap.restart();
            tree::walk_original(tree_, tree_.sorted_pos()[slot], walk_cfg,
                                ws.list, &ws.walk);
            ws.seconds_walk += lap.lap();
            if (h_list != nullptr) {
              h_list->observe(static_cast<double>(ws.list.size()));
            }

            math::Vec3d acc{};
            double pot = 0.0;
            tree::evaluate_list_host(ws.list, {&tree_.sorted_pos()[slot], 1},
                                     params_.eps, {&acc, 1}, {&pot, 1},
                                     {&tree_.sorted_mass()[slot], 1});
            ws.seconds_kernel += lap.lap();
            ws.interactions += ws.list.size();
            const std::uint32_t dst = orig[slot];
            pset.acc()[dst] = acc;
            pset.pot()[dst] = pot;
            ++ws.groups;
          }
        });
  } else {
    tree::collect_groups(tree_, tree::GroupConfig{params_.n_crit}, groups_);
    pool.parallel_for(
        groups_.size(), 1,
        [&](std::size_t begin, std::size_t end, unsigned lane) {
          WalkScratch& ws = scratch_[lane];
          util::Stopwatch lap;
          for (std::size_t gi = begin; gi < end; ++gi) {
            const tree::Group& group = groups_[gi];
            lap.restart();
            tree::walk_group(tree_, group, walk_cfg, ws.list, &ws.walk);
            ws.seconds_walk += lap.lap();
            if (h_list != nullptr) {
              h_list->observe(static_cast<double>(ws.list.size()));
              h_group->observe(static_cast<double>(group.count));
            }

            if (ws.acc.size() < group.count) {
              ws.acc.resize(group.count);
              ws.pot.resize(group.count);
            }
            const std::span<const math::Vec3d> targets(
                tree_.sorted_pos().data() + group.first, group.count);
            const std::span<const double> self_mass(
                tree_.sorted_mass().data() + group.first, group.count);
            tree::evaluate_list_host(
                ws.list, targets, params_.eps,
                std::span<math::Vec3d>(ws.acc.data(), group.count),
                std::span<double>(ws.pot.data(), group.count), self_mass);
            ws.seconds_kernel += lap.lap();
            ws.interactions +=
                static_cast<std::uint64_t>(ws.list.size()) * group.count;

            for (std::uint32_t k = 0; k < group.count; ++k) {
              const std::uint32_t dst = orig[group.first + k];
              pset.acc()[dst] = ws.acc[k];
              pset.pot()[dst] = ws.pot[k];
            }
            ++ws.groups;
          }
        });
  }
  reduce_scratch();

  // Both walks place the target itself in its own list (the original walk
  // via its leaf, the modified walk via the group's direct part); the
  // evaluation kernel excludes exactly that self term via the supplied
  // self masses, so distinct particles at coincident positions keep their
  // softened mutual potential.

  ++stats_.evaluations;
  stats_.seconds_total += total.elapsed();
}

void HostTreeEngine::compute_targets(model::ParticleSet& pset,
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
    build_cfg.quadrupole = params_.quadrupole;
    build_cfg.parallel = {params_.threads, params_.build_parallel_cutoff};
    tree_.build(pset, build_cfg, &pool);
  }
  stats_.seconds_tree_build += phase.lap();
  if (obs::enabled()) {
    obs::counter("g5.tree.builds").add(1);
    obs::counter("g5.tree.nodes").add(tree_.node_count());
  }

  // Per-target original walks (groups do not pay off for scattered
  // subsets), evaluated on the host. Target indices are distinct by the
  // engine contract, so per-target writes stay race-free.
  const tree::WalkConfig walk_cfg{params_.theta, params_.mac,
                                  params_.quadrupole};
  G5_OBS_SPAN("walk", "tree");
  obs::Histogram* h_list =
      obs::enabled() ? &obs::histogram("g5.walk.list_len") : nullptr;
  pool.parallel_for(
      targets.size(), 16,
      [&](std::size_t begin, std::size_t end, unsigned lane) {
        WalkScratch& ws = scratch_[lane];
        util::Stopwatch lap;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t t = targets[i];
          lap.restart();
          tree::walk_original(tree_, pset.pos()[t], walk_cfg, ws.list,
                              &ws.walk);
          ws.seconds_walk += lap.lap();
          if (h_list != nullptr) {
            h_list->observe(static_cast<double>(ws.list.size()));
          }
          const math::Vec3d xi = pset.pos()[t];
          tree::evaluate_list_host(ws.list, {&xi, 1}, params_.eps,
                                   {&pset.acc()[t], 1}, {&pset.pot()[t], 1},
                                   {&pset.mass()[t], 1});
          ws.seconds_kernel += lap.lap();
          ws.interactions += ws.list.size();
        }
      });
  reduce_scratch();
  ++stats_.evaluations;
  stats_.seconds_total += total.elapsed();
}

}  // namespace g5::core
