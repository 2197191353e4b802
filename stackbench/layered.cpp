#include "layered.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/timer.hpp"

namespace stackbench {

using g5::math::Vec3d;

LayeredForcePhase::LayeredForcePhase(const g5::core::ForceParams& params,
                                     const g5::grape::SystemConfig& system,
                                     Eval eval, Tracer& tracer)
    : ForceEngine(params),
      eval_(eval),
      tracer_(tracer),
      pool_(g5::util::resolve_thread_count(params.threads)),
      device_(std::make_unique<g5::grape::Grape5Device>(system)) {
  // The lane count AsyncDevice gives the engine's device: one per board.
  if (system.boards > 1) {
    eval_pool_ = std::make_unique<g5::util::ThreadPool>(
        static_cast<unsigned>(std::min<std::size_t>(system.boards, 64)));
    device_->system().set_eval_pool(eval_pool_.get());
  }
}

void LayeredForcePhase::compute_targets(g5::model::ParticleSet&,
                                        std::span<const std::uint32_t>) {
  throw std::logic_error("LayeredForcePhase replays compute() only");
}

void LayeredForcePhase::walk_batch(std::span<const std::size_t> idx,
                                   g5::tree::WalkStats& stats) {
  const g5::tree::WalkConfig walk_cfg{params_.theta, params_.mac};
  if (lists_.size() < idx.size()) lists_.resize(idx.size());
  lane_stats_.assign(pool_.size(), g5::tree::WalkStats{});
  const bool tracing = tracer_.on();
  {
    Tracer::Scope span(tracer_, "tree.walk");
    const int parent = tracer_.open_span();
    pool_.parallel_for(
        idx.size(), 1, [&](std::size_t begin, std::size_t end, unsigned lane) {
          for (std::size_t k = begin; k < end; ++k) {
            const double t0 = tracing ? tracer_.now() : 0.0;
            g5::tree::walk_group(tree_, groups_[idx[k]], walk_cfg, lists_[k],
                                 &lane_stats_[lane]);
            if (tracing) {
              tracer_.lane_span(lane, "tree.walk_group", parent, t0,
                                tracer_.now());
            }
          }
        });
  }
  tracer_.merge_lanes();
  for (const auto& s : lane_stats_) stats.merge(s);
}

void LayeredForcePhase::compute(g5::model::ParticleSet& pset) {
  g5::util::Stopwatch total;
  Tracer::Scope phase_span(
      tracer_, eval_ == Eval::All ? "core.force_phase" : "core.host_half");
  pset.zero_force();
  const std::size_t n = pset.size();
  last_ = PhaseCounts{};
  last_.particles = n;
  if (n == 0) return;

  g5::grape::Grape5System& sys = device_->system();
  const g5::grape::HardwareAccount before = sys.account();
  {
    Tracer::Scope span(tracer_, "tree.build");
    g5::tree::TreeBuildConfig build_cfg;
    build_cfg.leaf_max = params_.leaf_max;
    build_cfg.parallel = {params_.threads, params_.build_parallel_cutoff};
    tree_.build(pset, build_cfg, &pool_);
  }
  last_.nodes = tree_.node_count();
  {
    Tracer::Scope span(tracer_, "core.configure_device_window");
    g5::core::configure_device_window(*device_, pset, params_.eps);
  }
  {
    Tracer::Scope span(tracer_, "tree.collect_groups");
    g5::tree::collect_groups(tree_, g5::tree::GroupConfig{params_.n_crit},
                             groups_);
  }
  acc_sorted_.assign(n, Vec3d{});
  pot_sorted_.assign(n, 0.0);

  // Unrun force calls of the host half, summed from the timing model the
  // way Grape5System::compute would have accounted them.
  double unrun_s = 0.0;
  const std::size_t i_slots = sys.config().board.i_slots();
  const std::size_t batch = std::max<std::size_t>(4 * pool_.size(), 8);
  std::vector<std::size_t> idx;
  for (std::size_t base = 0; base < groups_.size(); base += batch) {
    const std::size_t m = std::min(batch, groups_.size() - base);
    idx.resize(m);
    for (std::size_t k = 0; k < m; ++k) idx[k] = base + k;
    walk_batch(idx, last_.walk);
    for (std::size_t k = 0; k < m; ++k) {
      const g5::tree::Group& group = groups_[base + k];
      const g5::tree::InteractionList& list = lists_[k];
      {
        Tracer::Scope span(tracer_, "grape.set_j_particles");
        sys.set_j_particles(list.pos, list.mass);
      }
      if (eval_ == Eval::All) {
        Tracer::Scope span(tracer_, "grape.compute");
        sys.compute(
            std::span<const Vec3d>(tree_.sorted_pos().data() + group.first,
                                   group.count),
            std::span<Vec3d>(acc_sorted_.data() + group.first, group.count),
            std::span<double>(pot_sorted_.data() + group.first, group.count));
      } else {
        unrun_s += sys.timing().force_call(group.count, list.size(), false)
                       .total();
        last_.i_processed += group.count;
        last_.vmp_slots += (group.count + i_slots - 1) / i_slots * i_slots;
      }
    }
  }

  const g5::grape::HardwareAccount& after = sys.account();
  const double dma_j = after.modeled_dma_j - before.modeled_dma_j;
  const double calls = (after.modeled_dma_i - before.modeled_dma_i) +
                       (after.modeled_compute - before.modeled_compute) +
                       (after.modeled_dma_result - before.modeled_dma_result);
  last_.modeled_compute_s = calls;
  last_.modeled_grape_s = dma_j + calls + unrun_s;
  if (eval_ == Eval::All) {
    last_.i_processed = after.i_processed - before.i_processed;
    last_.vmp_slots = after.vmp_slots - before.vmp_slots;
    Tracer::Scope span(tracer_, "core.scatter");
    const auto& orig = tree_.original_index();
    for (std::size_t slot = 0; slot < n; ++slot) {
      pset.acc()[orig[slot]] = acc_sorted_[slot];
      pset.pot()[orig[slot]] = pot_sorted_[slot];
    }
  }

  ++stats_.evaluations;
  stats_.interactions += last_.walk.interactions;
  stats_.groups += groups_.size();
  stats_.walk.merge(last_.walk);
  stats_.seconds_total += total.elapsed();
}

void LayeredForcePhase::evaluate_sample(std::span<const std::uint32_t> sample,
                                        std::vector<Vec3d>& acc,
                                        std::vector<double>& pot) {
  if (groups_.empty()) {
    throw std::logic_error("evaluate_sample needs a compute() first");
  }
  Tracer::Scope phase_span(tracer_, "grape.sampled_eval");
  const auto& orig = tree_.original_index();
  std::vector<std::uint32_t> slot_of(orig.size());
  for (std::size_t slot = 0; slot < orig.size(); ++slot) {
    slot_of[orig[slot]] = static_cast<std::uint32_t>(slot);
  }
  // (slot, sample position) pairs in slot order, so each group's sampled
  // members are one contiguous run.
  std::vector<std::pair<std::uint32_t, std::size_t>> order(sample.size());
  for (std::size_t s = 0; s < sample.size(); ++s) {
    order[s] = {slot_of[sample[s]], s};
  }
  std::sort(order.begin(), order.end());

  // Groups holding samples, each with its run [begin, end) in `order`.
  struct Hit {
    std::size_t group, begin, end;
  };
  std::vector<Hit> hits;
  std::size_t g = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    while (order[k].first >= groups_[g].first + groups_[g].count) ++g;
    if (hits.empty() || hits.back().group != g) hits.push_back({g, k, k});
    hits.back().end = k + 1;
  }

  acc.assign(sample.size(), Vec3d{});
  pot.assign(sample.size(), 0.0);
  g5::grape::Grape5System& sys = device_->system();
  std::vector<Vec3d> i_pos, i_acc;
  std::vector<double> i_pot;
  g5::tree::WalkStats walked;
  const std::size_t batch = std::max<std::size_t>(4 * pool_.size(), 8);
  std::vector<std::size_t> idx;
  for (std::size_t base = 0; base < hits.size(); base += batch) {
    const std::size_t m = std::min(batch, hits.size() - base);
    idx.resize(m);
    for (std::size_t k = 0; k < m; ++k) idx[k] = hits[base + k].group;
    walk_batch(idx, walked);
    for (std::size_t k = 0; k < m; ++k) {
      const Hit& hit = hits[base + k];
      const std::size_t ni = hit.end - hit.begin;
      i_pos.resize(ni);
      i_acc.resize(ni);
      i_pot.resize(ni);
      for (std::size_t r = 0; r < ni; ++r) {
        i_pos[r] = tree_.sorted_pos()[order[hit.begin + r].first];
      }
      {
        Tracer::Scope span(tracer_, "grape.set_j_particles");
        sys.set_j_particles(lists_[k].pos, lists_[k].mass);
      }
      {
        Tracer::Scope span(tracer_, "grape.compute");
        sys.compute(i_pos, i_acc, i_pot);
      }
      for (std::size_t r = 0; r < ni; ++r) {
        acc[order[hit.begin + r].second] = i_acc[r];
        pot[order[hit.begin + r].second] = i_pot[r];
      }
    }
  }
}

}  // namespace stackbench
