// P2 — observability overhead on the instrumented hot paths.
//
// The obs cost contract (src/obs/span.hpp): with the master switch off a
// G5_OBS_SPAN is one relaxed atomic load, so instrumentation-off runs
// must be indistinguishable from the seed; with the switch on (phase
// accumulation, no tracing) the end-to-end overhead of a force
// computation must stay under a few percent. This harness measures both
// on HostTreeEngine (modified algorithm) force phases over a Plummer
// sphere and FAILS (exit 1) when the switched-on overhead exceeds the
// budget — it is the regression gate for anyone adding spans to a hot
// loop. The disabled-span micro cost is also reported in ns.
//
// A third configuration runs with the obs::Telemetry sampler live at
// its default 1 s period (status file + flight recorder armed) — the
// acceptance gate for leaving telemetry on during paper-scale runs.
//
// The phases are short and a shared host steals CPU in bursts, so each
// configuration is timed in --reps pairs interleaved with an
// instrumentation-off phase (the order alternating from pair to pair),
// and the gate reads the median of the per-pair on/off ratios: a burst
// that hits one phase moves one ratio, not the median.
//
//   ./bench_p2_obs_overhead [--n 16384] [--reps 15] [--budget-pct 3.0]
//                           [--theta 0.75] [--ncrit 256]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engines.hpp"
#include "ic/plummer.hpp"
#include "obs/obs.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace g5;
  util::Options opt(argc, argv);
  const auto n = static_cast<std::size_t>(opt.get_int("n", 16384));
  const int reps = std::max(3, static_cast<int>(opt.get_int("reps", 15)));
  const double budget_pct = opt.get_double("budget-pct", 3.0);
  const double theta = opt.get_double("theta", 0.75);
  const auto n_crit = static_cast<std::uint32_t>(opt.get_int("ncrit", 256));

  ic::PlummerConfig pc;
  pc.n = n;
  pc.seed = 2026;
  auto pset = ic::make_plummer(pc);

  core::ForceParams fp;
  fp.theta = theta;
  fp.n_crit = n_crit;
  core::HostTreeEngine engine(fp, core::HostTreeEngine::Mode::Modified);

  // One force phase's seconds with the switch set to `on`.
  auto phase = [&](bool on) {
    obs::set_enabled(on);
    util::Stopwatch watch;
    engine.compute(pset);
    const double seconds = watch.elapsed();
    obs::set_enabled(false);
    return seconds;
  };
  // The median of a sample (upper middle for an even count).
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  };

  // Spans on vs off: interleaved pairs, alternating which runs first.
  engine.compute(pset);  // warm up pool, tree and caches
  std::vector<double> off_s, on_s, on_ratio;
  for (int r = 0; r < reps; ++r) {
    const bool on_first = r % 2 == 1;
    const double first = phase(on_first);
    const double second = phase(!on_first);
    off_s.push_back(on_first ? second : first);
    on_s.push_back(on_first ? first : second);
    on_ratio.push_back(on_s.back() / off_s.back());
  }
  const double overhead_pct = (median(on_ratio) - 1.0) * 100.0;

  // Spans on + the background sampler live at the default period,
  // exporting a status file and keeping the flight recorder armed —
  // the telemetry configuration a long run would actually use. Each
  // pair starts a sampler for its sampled phase only (its start and
  // stop fall outside the timed phase).
  const std::string status_path = "bench_p2_status.json";
  std::vector<double> sampled_s, sampled_ratio;
  for (int r = 0; r < reps; ++r) {
    const bool sampled_first = r % 2 == 1;
    double off = 0.0;
    if (!sampled_first) off = phase(false);
    {
      obs::TelemetryConfig tc;
      tc.status_path = status_path;
      obs::Telemetry sampler(tc);
      sampled_s.push_back(phase(true));
      sampler.stop();
    }
    if (sampled_first) off = phase(false);
    sampled_ratio.push_back(sampled_s.back() / off);
  }
  obs::FlightRecorder::instance().disarm();
  std::remove(status_path.c_str());
  const double sampled_pct = (median(sampled_ratio) - 1.0) * 100.0;

  // Disabled-span micro cost: the per-span price every hot path pays
  // when nothing is observing.
  constexpr int kSpans = 1 << 20;
  obs::set_enabled(false);
  util::Stopwatch micro;
  for (int i = 0; i < kSpans; ++i) {
    G5_OBS_SPAN("noop", "bench");
  }
  const double ns_per_span = micro.elapsed() / kSpans * 1e9;

  std::printf("P2: obs overhead, N=%zu, median of %d interleaved off/on "
              "pairs\n\n",
              n, reps);
  util::Table t({"configuration", "force phase (median)", "overhead"});
  char c1[32], c2[32];
  std::snprintf(c1, sizeof(c1), "%.4f s", median(off_s));
  t.add_row({"instrumentation off", c1, "(baseline)"});
  std::snprintf(c1, sizeof(c1), "%.4f s", median(on_s));
  std::snprintf(c2, sizeof(c2), "%+.2f %%", overhead_pct);
  t.add_row({"spans + phase accumulation on", c1, c2});
  std::snprintf(c1, sizeof(c1), "%.4f s", median(sampled_s));
  std::snprintf(c2, sizeof(c2), "%+.2f %%", sampled_pct);
  t.add_row({"spans on + telemetry sampler live", c1, c2});
  std::snprintf(c1, sizeof(c1), "%.1f ns", ns_per_span);
  t.add_row({"disabled G5_OBS_SPAN (micro)", c1, "-"});
  t.print();
  std::printf("\noverhead = median over pairs of (phase on / phase off) - 1\n");

  if (overhead_pct > budget_pct) {
    std::printf("\nFAIL: switched-on overhead %.2f %% exceeds the %.1f %% "
                "budget\n",
                overhead_pct, budget_pct);
    return 1;
  }
  if (sampled_pct > budget_pct) {
    std::printf("\nFAIL: sampler-live overhead %.2f %% exceeds the %.1f %% "
                "budget\n",
                sampled_pct, budget_pct);
    return 1;
  }
  std::printf("\nOK: within the %.1f %% budget\n", budget_pct);
  return 0;
}
