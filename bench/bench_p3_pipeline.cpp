// P3 — async device pipeline: walk/eval overlap on GrapeTreeEngine.
//
// The paper's host built interaction lists while GRAPE-5 evaluated the
// previous ones (the asynchronous interface of Section 4); this bench
// measures what restoring that concurrency buys the emulator. The same
// snapshot runs through GrapeTreeEngine twice — synchronous
// (pipeline_depth=0: walk, then eval, strictly alternating) and
// pipelined (depth >= 2: walks overlap the AsyncDevice submitter thread,
// with each job's (board, i-block) tiles spread over the eval lanes) — and
// we report end-to-end wall clock, the measured overlap fraction
// (g5.pipeline.overlap: how much of the cheaper phase was hidden), and
// the speedup. Forces are checked bitwise between the two runs.
//
// On a single host core the pipeline cannot help (all phases timeshare
// one core) and the speedup prints near 1.0; the acceptance target
// (>= 1.25x at N >= 64k) applies to multi-core hosts. --min-speedup
// turns the target into a hard failure for CI gating.
//
//   ./bench_p3_pipeline [--n 65536] [--theta 0.75] [--ncrit 256]
//                       [--eps 0.02] [--threads 0 (auto)] [--depth 2]
//                       [--backend bit-exact|native] [--boards 0 (paper)]
//                       [--min-speedup 0 (off)] [--json FILE]
//
// --backend selects the pipeline arithmetic (BackendKind): bit-exact is
// the bit-level datapath (the default; BENCH_p3.json's baseline), native
// evaluates the same lists in plain double. BENCH_p6.json records both.
// --boards scales the emulated cluster (0 = the paper's 2 boards); the
// eval lanes follow --threads, not B, and the forces stay
// bitwise-identical across B (docs/scaling.md; BENCH_p8.json
// records the --boards {1,2,4} sweep for both backends).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/engines.hpp"
#include "ic/plummer.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

struct RunResult {
  double wall_s = 0.0;
  double walk_cpu_s = 0.0;
  double kernel_s = 0.0;
  double overlap = 0.0;
  g5::model::ParticleSet pset;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace g5;
  util::Options opt(argc, argv);
  const auto n = static_cast<std::size_t>(opt.get_int("n", 65536));
  const double theta = opt.get_double("theta", 0.75);
  const double eps = opt.get_double("eps", 0.02);
  const auto n_crit = static_cast<std::uint32_t>(opt.get_int("ncrit", 256));
  const auto threads = static_cast<std::uint32_t>(opt.get_int("threads", 0));
  const auto depth = static_cast<std::uint32_t>(opt.get_int("depth", 2));
  const double min_speedup = opt.get_double("min-speedup", 0.0);
  const std::string json = opt.get_string("json", "");
  const auto boards = static_cast<std::uint32_t>(opt.get_int("boards", 0));
  const std::string backend_str = opt.get_string("backend", "bit-exact");
  grape::BackendKind backend = grape::BackendKind::BitExact;
  if (!grape::parse_backend(backend_str, backend)) {
    std::printf("ERROR: unknown --backend '%s' (bit-exact, native)\n",
                backend_str.c_str());
    return EXIT_FAILURE;
  }

  ic::PlummerConfig pc;
  pc.n = n;
  pc.seed = 211;
  const auto base = ic::make_plummer(pc);

  std::printf(
      "P3: async device pipeline, N=%zu, theta=%g, n_crit=%u, "
      "threads=%u (0=auto: %u), depth=%u, backend=%s, boards=%u (0=paper)\n\n",
      n, theta, n_crit, threads, util::resolve_thread_count(threads), depth,
      std::string(grape::backend_name(backend)).c_str(), boards);

  obs::set_enabled(true);
  auto run = [&](std::uint32_t pipeline_depth) {
    RunResult r;
    r.pset = base;
    core::ForceParams fp;
    fp.eps = eps;
    fp.theta = theta;
    fp.n_crit = n_crit;
    fp.threads = threads;
    fp.pipeline_depth = pipeline_depth;
    fp.backend = backend;
    fp.boards = boards;
    // Fresh engine + fresh device per run: no cross-run device state.
    auto engine = core::make_engine("grape-tree", fp);
    obs::gauge("g5.pipeline.overlap").set(0.0);
    util::Stopwatch watch;
    engine->compute(r.pset);
    r.wall_s = watch.elapsed();
    r.walk_cpu_s = engine->stats().seconds_walk;
    r.kernel_s = engine->stats().seconds_kernel;
    r.overlap = obs::gauge("g5.pipeline.overlap").value();
    return r;
  };

  const RunResult sync = run(0);
  const RunResult piped = run(depth);

  bool identical = true;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!(piped.pset.acc()[i] == sync.pset.acc()[i]) ||
        piped.pset.pot()[i] != sync.pset.pot()[i]) {
      identical = false;
      break;
    }
  }

  const double speedup = piped.wall_s > 0.0 ? sync.wall_s / piped.wall_s : 0.0;
  char speedup_str[32], overlap_str[32];
  std::snprintf(speedup_str, sizeof speedup_str, "%.2f", speedup);
  std::snprintf(overlap_str, sizeof overlap_str, "%.2f", piped.overlap);

  util::Table t({"mode", "wall s", "walk cpu-s", "device s", "overlap",
                 "speedup", "bitwise"});
  t.add_row({"sync", util::sci(sync.wall_s), util::sci(sync.walk_cpu_s),
             util::sci(sync.kernel_s), "-", "1.00", "ref"});
  t.add_row({"pipelined", util::sci(piped.wall_s), util::sci(piped.walk_cpu_s),
             util::sci(piped.kernel_s), overlap_str, speedup_str,
             identical ? "yes" : "NO"});
  t.print();
  std::printf(
      "\noverlap = fraction of the pipeline wall the producer spent walking/"
      "\nsubmitting while device jobs were in flight (g5.pipeline.overlap;"
      "\n0 = strictly serial phases). device s = emulated-datapath wall"
      "\nfrom per-job accounting.\n");

  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::printf("ERROR: cannot write %s\n", json.c_str());
      return EXIT_FAILURE;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"run\": {\"n\": %zu, \"theta\": %g, \"n_crit\": %u, "
                 "\"threads\": %u, \"depth\": %u, \"backend\": \"%s\", "
                 "\"boards\": %u},\n"
                 "  \"sync\": {\"wall_s\": %.6g, \"walk_cpu_s\": %.6g, "
                 "\"device_s\": %.6g},\n"
                 "  \"pipelined\": {\"wall_s\": %.6g, \"walk_cpu_s\": %.6g, "
                 "\"device_s\": %.6g, \"overlap\": %.4g},\n"
                 "  \"speedup\": %.4g,\n"
                 "  \"bitwise_identical\": %s\n"
                 "}\n",
                 n, theta, n_crit, util::resolve_thread_count(threads), depth,
                 std::string(grape::backend_name(backend)).c_str(),
                 boards != 0 ? boards
                             : static_cast<std::uint32_t>(
                                   grape::SystemConfig::paper_system().boards),
                 sync.wall_s, sync.walk_cpu_s, sync.kernel_s, piped.wall_s,
                 piped.walk_cpu_s, piped.kernel_s, piped.overlap, speedup,
                 identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json.c_str());
  }

  if (!identical) {
    std::printf("ERROR: pipelined forces diverged from synchronous run\n");
    return EXIT_FAILURE;
  }
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::printf("ERROR: speedup %.2f below required %.2f\n", speedup,
                min_speedup);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
