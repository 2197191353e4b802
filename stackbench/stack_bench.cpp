// Layered benchmark of the treecode + GRAPE-5 force stack on the SCDM
// cosmological sphere (the paper's workload).
//
//   stack_bench --workload sphere-native|sphere-bitexact|paper-sphere-host
//               --seed N --seconds S --trace 0|1 [--smoke] [--spans FILE]
//
// The program is driven as a black box through the public functions of
// its ic, tree, grape and core modules, which are also the layers
// reported. obs stays off throughout (obs::set_enabled(false)).
//
// --trace 0 measures the end-to-end metrics: set-up time (median of
// several set-ups), step time around LeapfrogIntegrator::step, the host
// half of a force phase, the projected paper step, peak RSS and the
// sampled force error against direct summation.
// --trace 1 measures the per-layer metrics: the force phase is replayed
// layer by layer (layered.hpp) with a span around every public call
// (trace.hpp); traced and untraced replays alternate, so the run also
// reports what tracing costs. --spans FILE writes the spans as Chrome
// trace JSON.
//
// Every run checks the forces: a force phase fails if any force or
// potential is non-finite, if the replay differs in any bit from the
// engine on the same snapshot, or if the sampled p99 force error exceeds
// kErrCeiling. The human-readable report goes to stdout; its last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is nonzero when any check failed.
//
// stackbench/README.md explains the workloads and metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engines.hpp"
#include "core/integrator.hpp"
#include "core/perf.hpp"
#include "grape/host_reference.hpp"
#include "ic/zeldovich.hpp"
#include "math/rng.hpp"
#include "model/cosmology.hpp"
#include "model/units.hpp"
#include "obs/span.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

#include "layered.hpp"
#include "trace.hpp"

namespace {

using g5::math::Vec3d;
using stackbench::LayeredForcePhase;
using stackbench::Span;
using stackbench::Tracer;

constexpr std::uint32_t kThreads = 4;       ///< walk lanes, every workload
constexpr double kTheta = 0.75;
constexpr std::size_t kScheduleSteps = 999; ///< the paper's log-a schedule
constexpr std::uint64_t kSampleSeed = 0x5eed;
/// Sanity ceiling on the sampled p99 force error: far above the paper's
/// budgets (0.3 % pairwise, 0.1 % total), so only broken forces trip it.
constexpr double kErrCeiling = 0.25;
/// sphere-*: host-half replays per step, as a share of the step's wall.
constexpr double kHostHalfShare = 0.2;

struct Workload {
  const char* name;
  std::size_t grid;          ///< lattice cells per dimension
  double radius_mpc;         ///< comoving sphere radius; 0 = 0.45 box
  std::uint32_t n_crit;
  g5::grape::BackendKind backend;
  std::uint32_t boards;
  bool host_half;            ///< force phases run only their host half
  std::uint32_t err_samples; ///< force-error sample; 0 = every particle
  /// Spheres set up per untraced run (setup_s is their median), each
  /// from its own IC seed, all kept and stepped in turn.
  int realizations;
};

// sphere-native runs the paper's 2 boards, not 4: with 4 board lanes on a
// 4-vCPU shared host, any other runnable thread stalls one lane of every
// board fork-join, and one CPU-bound competitor made a step 1.6-1.8x
// slower (1.0-1.25x with 2 lanes).
// clang-format off
constexpr Workload kWorkloads[] = {
  {"sphere-native",     64,  0.0, 256,  g5::grape::BackendKind::Native,   2, false, 4096, 3},
  {"sphere-bitexact",   32,  0.0, 256,  g5::grape::BackendKind::BitExact, 2, false, 0,    5},
  {"paper-sphere-host", 256, 50.0, 6000, g5::grape::BackendKind::BitExact, 2, true,  1024, 1},
};
/// --smoke: the same three shapes at small N, to finish in seconds.
constexpr Workload kSmoke[] = {
  {"sphere-native",     16, 0.0, 64,  g5::grape::BackendKind::Native,   2, false, 256, 2},
  {"sphere-bitexact",   16, 0.0, 64,  g5::grape::BackendKind::BitExact, 2, false, 0,   2},
  {"paper-sphere-host", 32, 0.0, 512, g5::grape::BackendKind::BitExact, 2, true,  256, 1},
};
// clang-format on

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Cumulative CPU steal time of the machine (all CPUs, /proc/stat), in
/// seconds; 0 where it cannot be read. Steal is time the hypervisor gave
/// this machine's CPUs to someone else: the report prints it beside the
/// timings it inflates.
double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / 100.0 : 0.0;  // USER_HZ
}

bool forces_finite(const g5::model::ParticleSet& pset) {
  for (std::size_t i = 0; i < pset.size(); ++i) {
    const Vec3d& a = pset.acc()[i];
    if (!std::isfinite(a.x) || !std::isfinite(a.y) || !std::isfinite(a.z) ||
        !std::isfinite(pset.pot()[i])) {
      return false;
    }
  }
  return true;
}

bool bitwise_equal(const g5::model::ParticleSet& a,
                   const g5::model::ParticleSet& b) {
  const std::size_t n = a.size();
  return n == b.size() &&
         std::memcmp(a.acc().data(), b.acc().data(), n * sizeof(Vec3d)) == 0 &&
         std::memcmp(a.pot().data(), b.pot().data(), n * sizeof(double)) == 0;
}

/// Ordered metric list printed as the result's "metrics" object.
struct Metrics {
  struct Entry {
    std::string name, unit;
    double value;
  };
  std::vector<Entry> entries;
  void add(const std::string& name, double value, const char* unit) {
    entries.push_back({name, unit, value});
  }
};

// ---------------------------------------------------------------------
// Set-up: IC generation, engine construction, priming force phase.
// ---------------------------------------------------------------------

struct Setup {
  g5::model::ParticleSet pset;
  std::vector<double> dt;  ///< the paper's log-a schedule
  g5::core::ForceParams params;
  g5::grape::SystemConfig system;
  std::unique_ptr<g5::core::ForceEngine> engine;
  g5::core::LeapfrogIntegrator integrator;
  std::size_t next_step = 0;
  double seconds = 0.0;

  double next_dt() { return dt[next_step++ % dt.size()]; }
};

/// IC seed of set-up k of a run: a fixed function of (--seed, k).
std::uint64_t ic_seed(std::uint64_t seed, int k) {
  g5::math::Rng rng(seed);
  std::uint64_t out = rng.next_u64();
  for (int i = 0; i < k; ++i) out = rng.next_u64();
  return out;
}

std::unique_ptr<Setup> set_up(const Workload& w, std::uint64_t seed,
                              Tracer& tracer) {
  g5::util::Stopwatch watch;
  auto s = std::make_unique<Setup>();
  Tracer::Scope setup_span(tracer, "core.setup");
  g5::ic::CosmologicalSphereConfig cc;
  cc.grid_n = w.grid;
  cc.sphere_radius = w.radius_mpc;
  cc.seed = seed;
  double spacing = 0.0;
  {
    Tracer::Scope span(tracer, "ic.make_cosmological_sphere");
    g5::ic::CosmologicalSphereResult icr = g5::ic::make_cosmological_sphere(cc);
    s->pset = std::move(icr.particles);
    spacing = icr.box_size / static_cast<double>(w.grid);
    s->dt = g5::model::Cosmology(cc.cosmo)
                .log_a_timesteps(icr.a_start, 1.0, kScheduleSteps);
  }
  // Units and softening as g5run and bench_e1_section5 set them up.
  const double G = g5::model::gravitational_constant();
  for (double& m : s->pset.mass()) m *= G;

  s->params.eps = 0.05 * spacing;
  s->params.theta = kTheta;
  s->params.n_crit = w.n_crit;
  s->params.threads = kThreads;
  s->params.pipeline_depth = 2;
  s->params.backend = w.backend;
  s->params.boards = w.boards;
  s->system = g5::grape::SystemConfig::paper_system();
  s->system.numerics.backend = w.backend;
  s->system.boards = w.boards;
  {
    Tracer::Scope span(tracer, "core.make_engine");
    if (w.host_half) {
      s->engine = std::make_unique<LayeredForcePhase>(
          s->params, s->system, LayeredForcePhase::Eval::HostHalf, tracer);
    } else {
      s->engine = g5::core::make_engine("grape-tree", s->params);
    }
  }
  {
    Tracer::Scope span(tracer, "core.prime");
    s->integrator.prime(s->pset, *s->engine);
  }
  s->seconds = watch.elapsed();
  return s;
}

// ---------------------------------------------------------------------
// Steps, checks and force error.
// ---------------------------------------------------------------------

struct StepSample {
  double wall = 0.0;   ///< around LeapfrogIntegrator::step
  double force = 0.0;  ///< the engine's seconds_total delta
  double interactions = 0.0;
};

struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED: %s\n", what);
    }
  }
};

StepSample timed_step(Setup& s, Gate& gate, bool check_finite) {
  const g5::core::EngineStats before = s.engine->stats();
  g5::util::Stopwatch watch;
  s.integrator.step(s.pset, *s.engine, s.next_dt());
  StepSample out;
  out.wall = watch.elapsed();
  const g5::core::EngineStats& after = s.engine->stats();
  out.force = after.seconds_total - before.seconds_total;
  out.interactions =
      static_cast<double>(after.interactions - before.interactions);
  if (check_finite) gate.check(forces_finite(s.pset), "non-finite force");
  return out;
}

/// Steps until `seconds` have passed and at least `min_steps` ran.
std::vector<StepSample> run_steps(Setup& s, double seconds,
                                  std::size_t min_steps, Gate& gate,
                                  bool check_finite) {
  std::vector<StepSample> out;
  g5::util::Stopwatch watch;
  while (out.size() < min_steps || watch.elapsed() < seconds) {
    out.push_back(timed_step(s, gate, check_finite));
  }
  return out;
}

std::vector<std::uint32_t> force_sample(std::size_t n, std::uint32_t count) {
  std::vector<std::uint32_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
  if (count == 0 || count >= n) return idx;
  g5::math::Rng rng(kSampleSeed);
  for (std::size_t i = 0; i < count; ++i) {  // partial Fisher-Yates
    const std::size_t j = i + rng.uniform_index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Relative acceleration error |acc - exact| / |exact| of each sampled
/// particle, against exact direct summation over every particle.
std::vector<double> relative_errors(const g5::model::ParticleSet& pset,
                                    double eps,
                                    std::span<const std::uint32_t> sample,
                                    std::span<const Vec3d> acc,
                                    g5::util::ThreadPool& pool) {
  const std::size_t m = sample.size();
  std::vector<Vec3d> i_pos(m), ref(m);
  std::vector<double> i_mass(m), ref_pot(m), err(m);
  for (std::size_t k = 0; k < m; ++k) {
    i_pos[k] = pset.pos()[sample[k]];
    i_mass[k] = pset.mass()[sample[k]];
  }
  pool.parallel_for(m, 16, [&](std::size_t begin, std::size_t end, unsigned) {
    const std::size_t len = end - begin;
    g5::grape::host_forces_on_targets(
        std::span<const Vec3d>(i_pos).subspan(begin, len), pset.pos(),
        pset.mass(), eps, std::span<Vec3d>(ref).subspan(begin, len),
        std::span<double>(ref_pot).subspan(begin, len),
        std::span<const double>(i_mass).subspan(begin, len));
  });
  for (std::size_t k = 0; k < m; ++k) {
    const double norm = ref[k].norm();
    err[k] = norm > 0.0 ? (acc[k] - ref[k]).norm() / norm : 0.0;
  }
  return err;
}

/// Order statistic at fraction q (nearest rank).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank];
}

// ---------------------------------------------------------------------
// Span aggregation for the traced runs.
// ---------------------------------------------------------------------

/// Per-name totals of the spans under one root span: `direct` sums the
/// root's children by name, `lane` sums pool-lane spans under them.
struct LayerTimes {
  double wall = 0.0;
  std::vector<std::pair<std::string, double>> direct, lane;
  [[nodiscard]] double of(const std::string& name) const {
    for (const auto& [n, s] : direct)
      if (n == name) return s;
    for (const auto& [n, s] : lane)
      if (n == name) return s;
    return 0.0;
  }
};

void add_to(std::vector<std::pair<std::string, double>>& v,
            const std::string& name, double s) {
  for (auto& [n, total] : v)
    if (n == name) {
      total += s;
      return;
    }
  v.emplace_back(name, s);
}

/// Layer times of the most recent span named `root`.
LayerTimes layer_times(const Tracer& tracer, const char* root) {
  const auto& spans = tracer.spans();
  int r = -1;
  for (std::size_t i = spans.size(); i-- > 0;) {
    if (spans[i].lane == 0 && std::strcmp(spans[i].name, root) == 0) {
      r = static_cast<int>(i);
      break;
    }
  }
  LayerTimes out;
  if (r < 0) return out;
  out.wall = spans[static_cast<std::size_t>(r)].seconds();
  for (const Span& s : spans) {
    if (s.parent == r) {
      add_to(out.direct, s.name, s.seconds());
    } else if (s.lane > 0 && s.parent >= 0 &&
               spans[static_cast<std::size_t>(s.parent)].parent == r) {
      add_to(out.lane, s.name, s.seconds());
    }
  }
  return out;
}

/// Median over phases of one layer's time.
double median_of(const std::vector<LayerTimes>& phases,
                 const std::string& name) {
  std::vector<double> v;
  for (const auto& p : phases) v.push_back(p.of(name));
  return median(v);
}

// ---------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------

void print_result(const Metrics& m, const Gate& gate) {
  std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
  for (const auto& e : m.entries) {
    std::printf("%-34s %18.6g  %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::printf("%-34s %18.6g  %s   (failed %llu of %llu checks)\n", "fail_frac",
              gate.attempted ? static_cast<double>(gate.failed) /
                                   static_cast<double>(gate.attempted)
                             : 0.0,
              "frac", static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              gate.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed));
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    const auto& e = m.entries[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_self_times(const std::vector<LayerTimes>& phases) {
  if (phases.empty()) return;
  std::vector<double> wall;
  for (const auto& p : phases) wall.push_back(p.wall);
  std::printf("\nspan times, median over %zu traced phases (phase wall "
              "%.4f s; each child below is a leaf, so its time is its self "
              "time)\n",
              phases.size(), median(wall));
  for (const auto& [name, s] : phases.back().direct) {
    std::printf("  %-34s %10.4f s\n", name.c_str(), median_of(phases, name));
  }
  for (const auto& [name, s] : phases.back().lane) {
    std::printf("  %-34s %10.4f s  (lane CPU, all lanes)\n", name.c_str(),
                median_of(phases, name));
  }
}

// ---------------------------------------------------------------------
// End-to-end run (--trace 0).
// ---------------------------------------------------------------------

void run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                    Metrics& m, Gate& gate) {
  Tracer off(kThreads);
  // Several realizations of the sphere, stepped in turn, so one run
  // averages over them.
  std::vector<std::unique_ptr<Setup>> live;
  std::vector<double> setup_s;
  for (int k = 0; k < w.realizations; ++k) {
    live.push_back(set_up(w, ic_seed(seed, k), off));
    setup_s.push_back(live.back()->seconds);
  }
  std::printf("%s: N = %zu, %d realization(s), median set-up %.4f s\n",
              w.name, live.back()->pset.size(), w.realizations,
              median(setup_s));

  // Force error on the primed snapshots, so it is a function of the
  // seed alone (not of how many steps the timed loop managed).
  g5::util::ThreadPool pool(kThreads);
  g5::util::Stopwatch watch;
  std::vector<double> errors;
  for (auto& sp : live) {
    Setup& s = *sp;
    const std::vector<std::uint32_t> sample =
        force_sample(s.pset.size(), w.err_samples);
    std::vector<Vec3d> acc(sample.size());
    if (w.host_half) {
      std::vector<double> pot;
      static_cast<LayeredForcePhase&>(*s.engine)
          .evaluate_sample(sample, acc, pot);
      bool finite = true;
      for (std::size_t k = 0; k < acc.size(); ++k) {
        finite &= std::isfinite(acc[k].x) && std::isfinite(acc[k].y) &&
                  std::isfinite(acc[k].z) && std::isfinite(pot[k]);
      }
      gate.check(finite, "non-finite sampled force");
    } else {
      for (std::size_t k = 0; k < sample.size(); ++k) {
        acc[k] = s.pset.acc()[sample[k]];
      }
    }
    const std::vector<double> e =
        relative_errors(s.pset, s.params.eps, sample, acc, pool);
    errors.insert(errors.end(), e.begin(), e.end());
  }
  const double err = percentile(errors, 0.99);
  gate.check(std::isfinite(err) && err < kErrCeiling,
             "p99 force error above the sanity ceiling");
  std::printf("force error over %zu sampled particles (%.1f s): p99 %.4f%% "
              "(paper budgets: 0.3%% pairwise, 0.1%% total)\n",
              errors.size(), watch.elapsed(), 100.0 * err);

  // sphere-*: after each step, host halves of a copy of the stepped
  // snapshot for kHostHalfShare of the step's wall time, so host_step_s
  // samples the same stretch of time as step_s.
  // One untimed host half each first, so the timed ones find their
  // buffers allocated, as the engines do after priming.
  std::vector<std::unique_ptr<LayeredForcePhase>> halves;
  g5::model::ParticleSet scratch;
  if (!w.host_half) {
    for (auto& sp : live) {
      halves.push_back(std::make_unique<LayeredForcePhase>(
          sp->params, sp->system, LayeredForcePhase::Eval::HostHalf, off));
      scratch = sp->pset;
      halves.back()->compute(scratch);
    }
  }
  std::vector<double> wall, host, projected;
  double inter = 0.0, wall_sum = 0.0;
  const double steal0 = steal_seconds();
  watch.restart();
  // --seconds bounds the whole loop, host halves included.
  for (std::size_t k = 0; k < live.size() || watch.elapsed() < seconds; ++k) {
    Setup& s = *live[k % live.size()];
    const StepSample st = timed_step(s, gate, !w.host_half);
    wall.push_back(st.wall);
    inter += st.interactions;
    wall_sum += st.wall;
    if (w.host_half) {
      // The engine is the host half itself: its compute() wall is the
      // host step, and the GRAPE half is modeled per phase.
      host.push_back(st.force);
      projected.push_back(
          st.force +
          static_cast<LayeredForcePhase&>(*s.engine).last().modeled_grape_s);
      continue;
    }
    LayeredForcePhase& half = *halves[k % live.size()];
    scratch = s.pset;
    g5::util::Stopwatch spent;
    do {
      const double before = half.stats().seconds_total;
      half.compute(scratch);
      host.push_back(half.stats().seconds_total - before);
      projected.push_back(host.back() + half.last().modeled_grape_s);
    } while (spent.elapsed() < kHostHalfShare * st.wall);
  }
  std::printf("%zu timed steps, %zu host halves in %.1f s; CPU steal "
              "meanwhile %.2f s\n",
              wall.size(), host.size(), watch.elapsed(),
              steal_seconds() - steal0);

  bool saturated = false;
  for (auto& sp : live) {
    saturated |=
        w.host_half
            ? static_cast<LayeredForcePhase&>(*sp->engine)
                  .system()
                  .any_saturation()
            : static_cast<g5::core::GrapeTreeEngine&>(*sp->engine)
                  .device()
                  .system()
                  .any_saturation();
  }
  if (!w.host_half) {
    // The replay gate, on the first realization's final snapshot.
    Setup& first = *live.front();
    LayeredForcePhase replay(first.params, first.system,
                             LayeredForcePhase::Eval::All, off);
    g5::model::ParticleSet copy = first.pset;
    replay.compute(copy);
    gate.check(bitwise_equal(copy, first.pset),
               "replay differs from the engine's forces");
  }
  std::printf("grape.saturated %d\n", saturated ? 1 : 0);

  m.add("step_s", median(wall), "s");
  m.add("interactions_per_s", inter / wall_sum, "1/s");
  m.add("host_step_s", median(host), "s");
  m.add("projected_step_s", median(projected), "s");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mib", peak_rss_mib(), "MiB");
  m.add("force_err_p99", err, "frac");
}

// ---------------------------------------------------------------------
// Traced run (--trace 1).
// ---------------------------------------------------------------------

void add_layer_metrics(const std::vector<LayerTimes>& phases,
                       const LayeredForcePhase::PhaseCounts& counts,
                       double kernel_s, double kernel_interactions,
                       double kernel_modeled_s, Metrics& m) {
  const double n = static_cast<double>(counts.particles);
  const auto& walk = counts.walk;
  const double groups = static_cast<double>(walk.lists);
  const double build_s = median_of(phases, "tree.build");
  const double walk_s = median_of(phases, "tree.walk");
  const double walk_cpu_s = median_of(phases, "tree.walk_group");
  const double marshal_s = median_of(phases, "grape.set_j_particles");

  // Model predictions: the paper's 1999 host (HostCostModel) with the
  // walk on kThreads cores, and the GRAPE-5 cycle model.
  g5::core::HostCostModel host;
  host.threads = kThreads;
  const double walk_model_s =
      1e-6 *
      (host.per_list_entry_us * static_cast<double>(walk.list_entries) +
       host.per_group_us * groups) /
      host.walk_speedup();

  m.add("tree.build_s", build_s, "s");
  m.add("tree.build_ns_per_particle", 1e9 * build_s / n, "ns");
  m.add("tree.build_model_s", 1e-6 * host.per_particle_build_us * n, "s");
  m.add("tree.nodes", static_cast<double>(counts.nodes), "count");
  m.add("tree.walk_s", walk_s, "s");
  m.add("tree.walk_cpu_s", walk_cpu_s, "s");
  m.add("tree.walk_lane_util", walk_cpu_s / (walk_s * kThreads), "frac");
  m.add("tree.walk_model_s", walk_model_s, "s");
  m.add("tree.groups", groups, "count");
  m.add("tree.group_size_mean", n / groups, "count");
  m.add("tree.list_len_mean", walk.mean_list(), "count");
  m.add("tree.interactions", static_cast<double>(walk.interactions), "count");
  m.add("grape.marshal_s", marshal_s, "s");
  m.add("grape.marshal_ns_per_jword",
        1e9 * marshal_s / static_cast<double>(walk.list_entries), "ns");
  m.add("grape.kernel_s", kernel_s, "s");
  m.add("grape.kernel_ns_per_interaction", 1e9 * kernel_s / kernel_interactions,
        "ns");
  m.add("grape.modeled_s", counts.modeled_grape_s, "s");
  m.add("grape.measured_over_modeled", kernel_s / kernel_modeled_s, "ratio");
  m.add("grape.vmp_occupancy",
        static_cast<double>(counts.i_processed) /
            static_cast<double>(counts.vmp_slots),
        "frac");
}

void run_traced(const Workload& w, std::uint64_t seed, double seconds,
                const std::string& spans_path, Metrics& m, Gate& gate) {
  Tracer tracer(kThreads);
  tracer.set_on(true);
  std::unique_ptr<Setup> s = set_up(w, ic_seed(seed, 0), tracer);
  const double ic_s = layer_times(tracer, "core.setup")
                          .of("ic.make_cosmological_sphere");
  tracer.set_on(false);

  std::vector<LayerTimes> phases;        // traced force phases
  std::vector<double> traced, untraced;  // phase walls, spans on / off
  std::vector<double> force, integrate;  // engine steps, untraced
  LayeredForcePhase::PhaseCounts counts;
  double kernel_s = 0.0, kernel_inter = 0.0, kernel_modeled = 0.0;
  bool saturated = false;
  g5::util::Stopwatch watch;

  if (w.host_half) {
    // The engine is the layered host half: alternate traced and untraced
    // steps; the untraced ones give the core.* times.
    auto& phase = static_cast<LayeredForcePhase&>(*s->engine);
    timed_step(*s, gate, false);  // warm-up, not counted
    watch.restart();
    for (std::size_t k = 0; k < 4 || watch.elapsed() < seconds; ++k) {
      const bool on = k % 2 == 1;
      tracer.set_on(on);
      const StepSample st = timed_step(*s, gate, false);
      tracer.set_on(false);
      (on ? traced : untraced).push_back(st.force);
      if (on) {
        phases.push_back(layer_times(tracer, "core.host_half"));
      } else {
        force.push_back(st.force);
        integrate.push_back(st.wall - st.force);
      }
    }
    counts = phase.last();
    // The kernel runs only on the force-error sample at this N.
    const std::vector<std::uint32_t> sample =
        force_sample(s->pset.size(), w.err_samples);
    std::vector<Vec3d> acc;
    std::vector<double> pot;
    const g5::grape::HardwareAccount before = phase.system().account();
    tracer.set_on(true);
    phase.evaluate_sample(sample, acc, pot);
    tracer.set_on(false);
    const g5::grape::HardwareAccount& after = phase.system().account();
    kernel_s = layer_times(tracer, "grape.sampled_eval").of("grape.compute");
    kernel_inter = static_cast<double>(after.interactions - before.interactions);
    kernel_modeled = (after.modeled_dma_i - before.modeled_dma_i) +
                     (after.modeled_compute - before.modeled_compute) +
                     (after.modeled_dma_result - before.modeled_dma_result);
    saturated = phase.system().any_saturation();
    gate.check(kernel_inter > 0.0, "sampled evaluation ran no interactions");
  } else {
    // Engine steps for half the time, then replays of the final snapshot,
    // traced and untraced in turn, each checked bitwise against the
    // engine's forces on that snapshot.
    const auto steps = run_steps(*s, 0.5 * seconds, 2, gate, true);
    for (const auto& st : steps) {
      force.push_back(st.force);
      integrate.push_back(st.wall - st.force);
    }
    LayeredForcePhase replay(s->params, s->system, LayeredForcePhase::Eval::All,
                             tracer);
    g5::model::ParticleSet copy = s->pset;
    replay.compute(copy);  // warm-up, not counted
    watch.restart();
    for (std::size_t k = 0; k < 4 || watch.elapsed() < 0.5 * seconds; ++k) {
      const bool on = k % 2 == 1;
      tracer.set_on(on);
      const double before = replay.stats().seconds_total;
      replay.compute(copy);
      tracer.set_on(false);
      (on ? traced : untraced).push_back(replay.stats().seconds_total - before);
      if (on) phases.push_back(layer_times(tracer, "core.force_phase"));
      gate.check(bitwise_equal(copy, s->pset),
                 "replay differs from the engine's forces");
    }
    counts = replay.last();
    kernel_s = median_of(phases, "grape.compute");
    kernel_inter = static_cast<double>(counts.walk.interactions);
    kernel_modeled = counts.modeled_compute_s;
    auto& engine = static_cast<g5::core::GrapeTreeEngine&>(*s->engine);
    saturated = engine.device().system().any_saturation() ||
                replay.system().any_saturation();
  }

  print_self_times(phases);
  std::printf("ratios: tree.*_s over tree.*_model_s (base: HostCostModel, "
              "the paper's 1999 host with %u walk cores); "
              "grape.measured_over_modeled = emulator kernel seconds over "
              "modeled GRAPE-5 seconds of the same compute calls%s\n",
              kThreads,
              w.host_half ? " (the force-error sample at this N)" : "");

  // Layers run back to back in the replay; the engine overlaps them.
  double layers_s = 0.0;
  for (const auto& [name, sec] : phases.back().direct) {
    layers_s += median_of(phases, name);
  }

  m.add("ic.sphere_s", ic_s, "s");
  add_layer_metrics(phases, counts, kernel_s, kernel_inter,
                    kernel_modeled, m);
  m.add("grape.saturated", saturated ? 1.0 : 0.0, "flag");
  m.add("core.force_s", median(force), "s");
  m.add("core.integrate_s", median(integrate), "s");
  m.add("core.integrate_model_s",
        1e-6 * g5::core::HostCostModel{}.per_particle_step_us *
            static_cast<double>(s->pset.size()),
        "s");
  m.add("core.pipeline_hidden_s", layers_s - median(force), "s");
  m.add("obs.trace_overhead_frac", median(traced) / median(untraced) - 1.0,
        "frac");

  tracer.merge_lanes();
  if (!spans_path.empty() && !tracer.write_chrome_json(spans_path)) {
    throw std::runtime_error("cannot write spans to " + spans_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    g5::util::Options opt(argc, argv);
    const std::string name = opt.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    const double seconds = opt.get_double("seconds", 10.0);
    const bool trace = opt.get_int("trace", 0) != 0;
    const bool smoke = opt.get_bool("smoke", false);
    const std::string spans = opt.get_string("spans", "");
    g5::obs::set_enabled(false);

    const Workload* w = nullptr;
    for (const Workload& cand : smoke ? kSmoke : kWorkloads) {
      if (name == cand.name) w = &cand;
    }
    if (w == nullptr) {
      std::fprintf(stderr, "stack_bench: unknown --workload '%s' "
                   "(sphere-native, sphere-bitexact, paper-sphere-host)\n",
                   name.c_str());
      return 2;
    }
    std::printf("stack_bench %s%s: seed %llu, %.3g s, trace %d\n", w->name,
                smoke ? " (smoke)" : "", static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0);
    Metrics m;
    Gate gate;
    if (trace) {
      run_traced(*w, seed, seconds, spans, m, gate);
    } else {
      run_end_to_end(*w, seed, seconds, m, gate);
    }
    print_result(m, gate);
    return gate.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stack_bench: %s\n", e.what());
    return 1;
  }
}
