// Backend-equivalence suite for the batched multi-backend force kernel.
//
//  * BitExact batched vs scalar: Pipeline::interact_batch must be
//    bitwise-identical to repeated interact() calls for every batch
//    shape (width 1, odd widths, the SIMD width, ragged tails) — the
//    batching is a pure restructuring of the same datapath.
//  * Native vs host reference: the Native backend computes the same
//    interactions in plain double on quantized coordinates, so it must
//    track the host kernel to the position-quantization floor.
//  * Probe invariance: identical accelerations in, identical g5.err.*
//    out — the batched board path cannot move the probe's numbers.
//  * Zero-distance semantics: the i == j cut and the divergent
//    r^2 == 0 corner behave identically across the lns, exact and
//    native paths (the interact_exact bugfix).
//  * SIMD Native kernel vs the portable scalar one: bitwise-identical
//    raw registers for 1 to 9 i-slots per call, across ragged tails,
//    large and rail-sized counts, the divergent corner and registers
//    that start on or near the saturation rail (skipped on hosts
//    without AVX-512 F/DQ/VL), plus the kernel's fallback counts.
//  * Native accumulator quanta: powers of two just above 2^-6 of the
//    bit-exact ones, which stay as derived.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <span>
#include <vector>

#include "core/engines.hpp"
#include "grape/driver.hpp"
#include "grape/host_reference.hpp"
#include "grape/pipeline.hpp"
#include "ic/plummer.hpp"
#include "math/rng.hpp"
#include "obs/probe.hpp"

namespace {

using namespace g5;
using grape::BackendKind;
using grape::IState;
using grape::JWord;
using grape::Pipeline;
using grape::PipelineNumerics;
using grape::PipelineScaling;
using grape::RawForce;
using grape::Vec3d;

PipelineScaling test_scaling(double eps = 0.01) {
  PipelineScaling s;
  s.range_lo = -10.0;
  s.range_hi = 10.0;
  s.eps = eps;
  s.force_quantum = 1e-9;
  s.potential_quantum = 1e-10;
  return s;
}

/// A j-set exercising the interesting lanes: generic geometry, a
/// coincident particle (the i == j cut), near and far neighbours.
std::vector<JWord> make_jset(const Pipeline& pipe, const Vec3d& xi,
                             std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<JWord> js;
  js.reserve(n);
  js.push_back(pipe.encode_j(xi, 0.7));  // coincident: must be cut
  js.push_back(pipe.encode_j(xi + Vec3d{1e-4, 0.0, 0.0}, 1.2));
  while (js.size() < n) {
    js.push_back(pipe.encode_j(4.0 * rng.in_unit_ball(),
                               rng.uniform(0.1, 1.5)));
  }
  return js;
}

bool bitwise_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_state(const Pipeline& pipe, const IState& a, const IState& b) {
  const Vec3d fa = pipe.read_force(a);
  const Vec3d fb = pipe.read_force(b);
  return bitwise_equal(fa.x, fb.x) && bitwise_equal(fa.y, fb.y) &&
         bitwise_equal(fa.z, fb.z) &&
         bitwise_equal(pipe.read_potential(a), pipe.read_potential(b)) &&
         pipe.saturated(a) == pipe.saturated(b);
}

TEST(Backend, BatchedBitwiseIdenticalAcrossWidths) {
  Pipeline pipe{PipelineNumerics{}};
  pipe.configure(test_scaling());
  const Vec3d xi{0.3, -0.2, 0.1};
  const std::size_t w = Pipeline::batch_width();
  const auto js = make_jset(pipe, xi, 4 * w + 5, 101);

  // Scalar reference: one interact() per j, in stream order.
  IState ref = pipe.encode_i(xi);
  for (const JWord& j : js) pipe.interact(ref, j);

  // Whole-stream batch (the board path: blocks of batch_width + a ragged
  // tail inside interact_batch).
  {
    IState st = pipe.encode_i(xi);
    pipe.interact_batch(st, js.data(), js.size());
    EXPECT_TRUE(same_state(pipe, ref, st)) << "whole stream";
  }

  // Segmented batches: width 1, an odd width, exactly the SIMD width, and
  // a ragged split — chunk boundaries must not change a single bit.
  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, w, w + 5}) {
    IState st = pipe.encode_i(xi);
    for (std::size_t base = 0; base < js.size(); base += width) {
      const std::size_t n = std::min(width, js.size() - base);
      pipe.interact_batch(st, js.data() + base, n);
    }
    EXPECT_TRUE(same_state(pipe, ref, st)) << "segment width " << width;
  }
}

TEST(Backend, BatchedBitwiseIdenticalUnsoftened) {
  // eps = 0 exercises the r^2 path without the softening floor.
  Pipeline pipe{PipelineNumerics{}};
  pipe.configure(test_scaling(0.0));
  const Vec3d xi{-1.0, 2.0, 0.5};
  const auto js = make_jset(pipe, xi, 37, 202);
  IState ref = pipe.encode_i(xi);
  for (const JWord& j : js) pipe.interact(ref, j);
  IState st = pipe.encode_i(xi);
  pipe.interact_batch(st, js.data(), js.size());
  EXPECT_TRUE(same_state(pipe, ref, st));
}

TEST(Backend, NativeMatchesHostReference) {
  PipelineNumerics num;
  num.backend = BackendKind::Native;
  Pipeline pipe{num};
  pipe.configure(test_scaling());

  math::Rng rng(7);
  const std::size_t nj = 512;
  std::vector<Vec3d> jpos(nj);
  std::vector<double> jmass(nj);
  for (std::size_t j = 0; j < nj; ++j) {
    jpos[j] = 4.0 * rng.in_unit_ball();
    jmass[j] = rng.uniform(0.1, 1.5);
  }
  const Vec3d xi{0.25, -0.4, 0.8};
  IState st = pipe.encode_i(xi);
  std::vector<JWord> js(nj);
  for (std::size_t j = 0; j < nj; ++j) {
    js[j] = pipe.encode_j(jpos[j], jmass[j]);
  }
  pipe.interact_batch(st, js.data(), js.size());

  Vec3d ref_acc[1];
  double ref_pot[1];
  grape::host_forces_on_targets({&xi, 1}, jpos, jmass, 0.01, ref_acc,
                                ref_pot);
  // Only the 32-bit coordinate quantization separates the two: ~5e-9
  // relative positions; 1e-6 leaves margin for close pairs.
  EXPECT_LT((pipe.read_force(st) - ref_acc[0]).norm() / ref_acc[0].norm(),
            1e-6);
  EXPECT_NEAR(pipe.read_potential(st), ref_pot[0],
              1e-6 * std::fabs(ref_pot[0]));
  EXPECT_FALSE(pipe.saturated(st));

  // Scalar native calls accumulate the same sums.
  IState sc = pipe.encode_i(xi);
  for (const JWord& j : js) pipe.interact(sc, j);
  EXPECT_LT((pipe.read_force(sc) - pipe.read_force(st)).norm(),
            1e-12 * pipe.read_force(st).norm());
}

TEST(Backend, ZeroDistanceSemanticsIdenticalAcrossPaths) {
  // Coincident pair: cut entirely, on every backend.
  for (int variant = 0; variant < 3; ++variant) {
    PipelineNumerics num;
    if (variant == 1) num.exact_arithmetic = true;
    if (variant == 2) num.backend = BackendKind::Native;
    Pipeline pipe{num};
    pipe.configure(test_scaling(0.0));
    const Vec3d x{1.0, 2.0, 3.0};
    IState st = pipe.encode_i(x);
    pipe.interact(st, pipe.encode_j(x, 2.0));
    EXPECT_EQ(pipe.read_force(st), (Vec3d{})) << "variant " << variant;
    EXPECT_DOUBLE_EQ(pipe.read_potential(st), 0.0) << "variant " << variant;
    EXPECT_FALSE(pipe.saturated(st)) << "variant " << variant;
  }

  // Divergent corner: distinct fixed-point coordinates whose double
  // separation-squared underflows to zero with eps == 0. Every path must
  // saturate (infinite potential well, force toward the source) rather
  // than silently drop the pair.
  for (int variant = 0; variant < 3; ++variant) {
    PipelineNumerics num;
    if (variant == 1) num.exact_arithmetic = true;
    if (variant == 2) num.backend = BackendKind::Native;
    Pipeline pipe{num};
    PipelineScaling s;
    s.range_lo = -5e-155;
    s.range_hi = 5e-155;
    s.eps = 0.0;
    s.force_quantum = 1e-18;
    s.potential_quantum = 1e-18;
    pipe.configure(s);
    const double q = pipe.position_quantum();
    ASSERT_LT(q, 1e-160);
    IState st = pipe.encode_i(Vec3d{0.0, 0.0, 0.0});
    // 3 codes along +x: nonzero fixed-point difference, (3q)^2 == 0.0.
    pipe.interact(st, pipe.encode_j(Vec3d{3.0 * q, 0.0, 0.0}, 1.0));
    EXPECT_TRUE(pipe.saturated(st)) << "variant " << variant;
    EXPECT_GT(pipe.read_force(st).x, 0.0) << "variant " << variant;
    EXPECT_LT(pipe.read_potential(st), 0.0) << "variant " << variant;
  }
}

TEST(Backend, EngineBackendPlumbing) {
  core::ForceParams fp;
  fp.backend = BackendKind::Native;
  const auto tree_engine = core::make_engine("grape-tree", fp);
  const auto* gt = dynamic_cast<core::GrapeTreeEngine*>(tree_engine.get());
  ASSERT_NE(gt, nullptr);
  EXPECT_EQ(gt->device().system().config().numerics.backend,
            BackendKind::Native);
  fp.backend = BackendKind::BitExact;
  const auto direct_engine = core::make_engine("grape-direct", fp);
  const auto* gd =
      dynamic_cast<core::GrapeDirectEngine*>(direct_engine.get());
  ASSERT_NE(gd, nullptr);
  EXPECT_EQ(gd->device().system().config().numerics.backend,
            BackendKind::BitExact);

  BackendKind parsed = BackendKind::BitExact;
  EXPECT_TRUE(grape::parse_backend("native", parsed));
  EXPECT_EQ(parsed, BackendKind::Native);
  EXPECT_TRUE(grape::parse_backend("bit-exact", parsed));
  EXPECT_EQ(parsed, BackendKind::BitExact);
  EXPECT_FALSE(grape::parse_backend("fast", parsed));
  EXPECT_EQ(grape::backend_name(BackendKind::Native), "native");
  EXPECT_EQ(grape::backend_name(BackendKind::BitExact), "bit-exact");
}

TEST(Backend, ProbeInvariantScalarVsBatchedBoardPath) {
  // End-to-end pin for the probe numbers: run a snapshot through the
  // (batched) device path, replay the identical evaluation with scalar
  // interact() calls, and require (a) bitwise-identical accelerations
  // and (b) bitwise-identical ForceErrorProbe results — g5.err.* cannot
  // move under the batching.
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 256, .seed = 4242});
  auto replay = pset;

  grape::SystemConfig cfg = grape::SystemConfig::paper_system();
  cfg.boards = 1;  // single board: the replay below is the full reduction
  auto device = std::make_shared<grape::Grape5Device>(cfg);
  core::ForceParams fp;
  fp.eps = 0.01;
  auto engine = core::make_engine("grape-direct", fp, device);
  engine->compute(pset);

  // Scalar replay of the same evaluation: same window, same j order,
  // per-j interact() against the whole set.
  Pipeline pipe{cfg.numerics};
  pipe.configure(device->system().scaling());
  std::vector<JWord> js(replay.size());
  for (std::size_t j = 0; j < replay.size(); ++j) {
    js[j] = pipe.encode_j(replay.pos()[j], replay.mass()[j]);
  }
  for (std::size_t i = 0; i < replay.size(); ++i) {
    IState st = pipe.encode_i(replay.pos()[i]);
    for (const JWord& j : js) pipe.interact(st, j);
    replay.acc()[i] = pipe.read_force(st);
    replay.pot()[i] = pipe.read_potential(st);
  }
  for (std::size_t i = 0; i < pset.size(); ++i) {
    ASSERT_TRUE(bitwise_equal(pset.acc()[i].x, replay.acc()[i].x) &&
                bitwise_equal(pset.acc()[i].y, replay.acc()[i].y) &&
                bitwise_equal(pset.acc()[i].z, replay.acc()[i].z) &&
                bitwise_equal(pset.pot()[i], replay.pot()[i]))
        << "particle " << i;
  }

  obs::ProbeConfig pc;
  pc.samples = 32;
  pc.eps = fp.eps;
  obs::ForceErrorProbe probe_device(pc);
  obs::ForceErrorProbe probe_replay(pc);
  const obs::ProbeResult a = probe_device.measure(pset);
  const obs::ProbeResult b = probe_replay.measure(replay);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_TRUE(bitwise_equal(a.total_p50, b.total_p50));
  EXPECT_TRUE(bitwise_equal(a.total_p99, b.total_p99));
  EXPECT_TRUE(bitwise_equal(a.tree_p50, b.tree_p50));
  EXPECT_TRUE(bitwise_equal(a.tree_p99, b.tree_p99));
  EXPECT_TRUE(bitwise_equal(a.codec_p50, b.codec_p50));
  EXPECT_TRUE(bitwise_equal(a.codec_p99, b.codec_p99));
  EXPECT_TRUE(bitwise_equal(a.total_max, b.total_max));
  EXPECT_TRUE(bitwise_equal(a.tree_max, b.tree_max));
  EXPECT_TRUE(bitwise_equal(a.codec_max, b.codec_max));
}

TEST(Backend, NativeProbeReportsVanishingCodecError) {
  // The probe replicates the engine's backend: with Native the codec leg
  // runs the same double arithmetic as its host reference, so the codec
  // error collapses to the coordinate-quantization floor.
  auto pset = ic::make_plummer(ic::PlummerConfig{.n = 512, .seed = 99});
  core::ForceParams fp;
  fp.eps = 0.01;
  fp.backend = BackendKind::Native;
  auto engine = core::make_engine("grape-tree", fp);
  engine->compute(pset);

  obs::ProbeConfig pc;
  pc.samples = 32;
  pc.eps = fp.eps;
  pc.theta = fp.theta;
  pc.backend = fp.backend;
  obs::ForceErrorProbe probe(pc);
  const obs::ProbeResult r = probe.measure(pset);
  ASSERT_GT(r.samples, 0u);
  EXPECT_LT(r.codec_p50, 1e-6);   // ~0: only coordinate quantization left
  EXPECT_GT(r.tree_p50, 1e-5);    // tree truncation error is untouched
  EXPECT_LT(r.tree_p50, 0.01);
}

// ---- SIMD Native kernel vs the portable scalar kernel ----

constexpr const char* kNoVectorKernel =
    "no AVX-512 F/DQ/VL Native kernel here";

Pipeline native_pipeline(const PipelineScaling& scaling) {
  PipelineNumerics num;
  num.backend = BackendKind::Native;
  Pipeline pipe{num};
  pipe.configure(scaling);
  return pipe;
}

bool same_raw(const RawForce& a, const RawForce& b) {
  return a.acc[0] == b.acc[0] && a.acc[1] == b.acc[1] &&
         a.acc[2] == b.acc[2] && a.pot == b.pot && a.saturated == b.saturated;
}

/// `ni` start slots for the multi-slot checks. Slot 0 is `first`, the
/// case's own start state; every other slot copies its registers at a
/// distinct position: slot 1 sits on the stream's first j (its i == j
/// cut fires), slot 2 starts with its registers on the rail, and the
/// rest sit a few codes off a j further down the stream.
std::vector<IState> make_slots(const IState& first, const JWord* js,
                               std::size_t count, std::size_t ni) {
  std::vector<IState> slots(ni, first);
  const auto shift = [](IState& st, std::size_t c, std::int64_t by) {
    st.x[c] = math::Fixed20::from_code(st.x[c].code() + by);
  };
  for (std::size_t k = 1; k < ni; ++k) {
    IState& st = slots[k];
    if (k == 1 && count > 0) {
      for (std::size_t c = 0; c < 3; ++c) st.x[c] = js[0].x[c];
    } else if (k == 2) {
      shift(st, 1, 1);
      for (auto& a : st.acc) a.add_counts(math::kAccumulatorRail);
      st.pot.add_counts(-math::kAccumulatorRail);
    } else if (count > 0) {
      for (std::size_t c = 0; c < 3; ++c) {
        st.x[c] = js[(k * 7919) % count].x[c];
      }
      shift(st, 0, static_cast<std::int64_t>(k));
    } else {
      shift(st, 2, static_cast<std::int64_t>(k));
    }
  }
  return slots;
}

/// Stream `count` j's through interact_batch (the SIMD dispatch) over
/// ni = 1..9 slots from make_slots — one vector pass carries 8, so ni 9
/// adds a second, one-slot pass — and each slot through
/// interact_batch_scalar; every slot's raw registers must agree bit for
/// bit. Returns the scalar readout of slot 0 (the same for every ni).
RawForce expect_simd_matches_scalar(const Pipeline& pipe, const IState& start,
                                    const JWord* js, std::size_t count) {
  RawForce first{};
  for (std::size_t ni = 1; ni <= 9; ++ni) {
    std::vector<IState> simd = make_slots(start, js, count, ni);
    std::vector<IState> scalar = simd;
    pipe.interact_batch(std::span<IState>(simd), js, count);
    for (IState& st : scalar) pipe.interact_batch_scalar(st, js, count);
    for (std::size_t k = 0; k < ni; ++k) {
      const RawForce a = pipe.read_raw(simd[k]);
      const RawForce b = pipe.read_raw(scalar[k]);
      EXPECT_TRUE(same_raw(a, b))
          << "count " << count << " ni " << ni << " slot " << k << ": simd ("
          << a.acc[0] << ", " << a.acc[1] << ", " << a.acc[2] << ", "
          << a.pot << ", " << a.saturated << ") scalar (" << b.acc[0] << ", "
          << b.acc[1] << ", " << b.acc[2] << ", " << b.pot << ", "
          << b.saturated << ")";
    }
    first = pipe.read_raw(scalar[0]);
  }
  return first;
}

/// Largest |count| one interaction of `j` adds to any register of a
/// fresh slot at `xi` (the scalar kernel's view).
std::int64_t single_count(const Pipeline& pipe, const Vec3d& xi,
                          const JWord& j) {
  IState st = pipe.encode_i(xi);
  pipe.interact_batch_scalar(st, &j, 1);
  const RawForce r = pipe.read_raw(st);
  std::int64_t m = 0;
  for (const std::int64_t v : {r.acc[0], r.acc[1], r.acc[2], r.pot}) {
    m = std::max(m, v < 0 ? -v : v);
  }
  return m;
}

TEST(Backend, NativeSimdMatchesScalarAcrossTails) {
  const Pipeline pipe = native_pipeline(test_scaling());
  if (!pipe.native_simd()) GTEST_SKIP() << kNoVectorKernel;
  const Vec3d xi{0.3, -0.2, 0.1};
  // Coincident and near pairs up front, then generic geometry; counts
  // cover short streams and the 256-j fold-block seams.
  const auto js = make_jset(pipe, xi, 700, 303);
  for (std::size_t count = 0; count <= 9; ++count) {
    expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data(), count);
  }
  for (const std::size_t count : {255u, 256u, 257u, 511u, 513u, 700u}) {
    expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data(), count);
  }
  // An offset stream.
  expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data() + 3, 602);
}

TEST(Backend, NativeSimdMatchesScalarOnLargeCounts) {
  // Fine quanta push single-interaction counts past 2^51, beyond
  // FixedAccumulator's 1.5 * 2^52 rounding step, and the nearest pairs
  // past 2^62, where the SIMD kernel hands the interaction to the
  // scalar one (and counts it). The quanta are not powers of two; the
  // Native ones round up to 2^-59 and 2^-62, where x * (1/q) is x / q.
  PipelineScaling s = test_scaling();
  s.force_quantum = 0x1.8p-54;
  s.potential_quantum = 0x1.8p-57;
  const Pipeline pipe = native_pipeline(s);
  if (!pipe.native_simd()) GTEST_SKIP() << kNoVectorKernel;
  const Vec3d xi{0.25, -0.4, 0.8};
  math::Rng rng(404);
  std::vector<JWord> js;
  js.push_back(pipe.encode_j(xi, 0.9));  // coincident: cut
  for (int k = 0; k < 40; ++k) {
    // Close pairs: 2^50 .. 2^62.6 counts per interaction.
    js.push_back(pipe.encode_j(xi + 0.05 * rng.in_unit_ball(),
                               rng.uniform(0.01, 0.2)));
  }
  while (js.size() < 600) {
    js.push_back(pipe.encode_j(4.0 * rng.in_unit_ball(),
                               rng.uniform(0.1, 1.5)));
  }
  std::shuffle(js.begin(), js.end(), std::mt19937_64(7));

  std::int64_t past_51 = 0;
  std::int64_t past_62 = 0;
  for (const JWord& j : js) {
    const std::int64_t c = single_count(pipe, xi, j);
    past_51 += c >= (std::int64_t{1} << 51) ? 1 : 0;
    past_62 += c >= (std::int64_t{1} << 62) ? 1 : 0;
  }
  ASSERT_GT(past_51, 50);
  ASSERT_GT(past_62, 0);

  // The full stream may or may not saturate; either way, bit for bit.
  expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data(), js.size());
  // The past-2^62 interactions went to the scalar kernel, and said so.
  IState st = pipe.encode_i(xi);
  const grape::NativeFallbacks fallbacks =
      pipe.interact_batch(std::span<IState>(&st, 1), js.data(), js.size());
  EXPECT_GE(fallbacks.scalar_interactions,
            static_cast<std::uint64_t>(past_62));
  // Short sub-streams, at offsets that hit every lane position.
  for (std::size_t begin = 0; begin < js.size(); begin += 37) {
    const std::size_t count = std::min<std::size_t>(61, js.size() - begin);
    expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data() + begin,
                               count);
  }
}

TEST(Backend, NativeSimdMatchesScalarAtTheDivergentCorner) {
  // eps = 0 with coordinates ~1e-160 apart: r^2 underflows to zero for
  // some non-coincident pairs (divergent: infinite counts, saturation)
  // and stays finite for others, all inside one short stream.
  PipelineScaling s;
  s.range_lo = -5e-155;
  s.range_hi = 5e-155;
  s.eps = 0.0;
  s.force_quantum = 1e-18;
  s.potential_quantum = 1e-18;
  const Pipeline pipe = native_pipeline(s);
  if (!pipe.native_simd()) GTEST_SKIP() << kNoVectorKernel;
  const double q = pipe.position_quantum();
  const Vec3d xi{0.0, 0.0, 0.0};
  std::vector<JWord> js;
  for (const double offset : {3.0, 0.0, 1e6, 2e6, -5.0, 4e6, 1e7}) {
    js.push_back(pipe.encode_j(Vec3d{offset * q, 0.0, 0.0}, 1.0));
  }
  for (std::size_t count = 1; count <= js.size(); ++count) {
    expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data(), count);
  }
  const RawForce r =
      expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data(), js.size());
  EXPECT_TRUE(r.saturated);
}

TEST(Backend, NativeSimdMatchesScalarAfterALargeScalarLane) {
  // One interaction of ~8.5e18 counts (past 2^62: the scalar kernel
  // takes it) brings the x register near the rail, then +/- 2^58 lanes
  // push it over and back in stream order: the reference clamps and
  // flags, so the SIMD kernel must not fold the small lanes as one sum.
  PipelineScaling s = test_scaling(0.01);
  s.force_quantum = 0x1p6;  // Native counts in units of 2^-6 of this: 1
  s.potential_quantum = 0x1p26;
  const Pipeline pipe = native_pipeline(s);
  if (!pipe.native_simd()) GTEST_SKIP() << kNoVectorKernel;
  const Vec3d xi{0.0, 0.0, 0.0};
  std::vector<JWord> js = {pipe.encode_j(Vec3d{1.0, 0.0, 0.0}, 8.5e18)};
  for (const double side : {1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0}) {
    js.push_back(pipe.encode_j(Vec3d{side, 0.0, 0.0}, 0x1p58));
  }
  ASSERT_GT(single_count(pipe, xi, js[0]), std::int64_t{1} << 62);
  const RawForce r =
      expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data(), js.size());
  EXPECT_TRUE(r.saturated);
  // Alone, the large lane stays exact and unflagged.
  const RawForce one =
      expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data(), 1);
  EXPECT_FALSE(one.saturated);
}

TEST(Backend, NativeSimdMatchesScalarFromTheRail) {
  // Registers that start saturated, on the rail or within a fold
  // block's reach of it: near the rail the order of the adds matters,
  // and the SIMD kernel must replay the scalar order exactly.
  PipelineScaling s = test_scaling();
  s.force_quantum = 0x1p-40;
  s.potential_quantum = 0x1p-44;
  const Pipeline pipe = native_pipeline(s);
  if (!pipe.native_simd()) GTEST_SKIP() << kNoVectorKernel;
  const Vec3d xi{-0.5, 0.75, 0.2};
  const auto js = make_jset(pipe, xi, 530, 505);
  constexpr std::int64_t kRail = math::kAccumulatorRail;
  for (const std::int64_t start :
       {kRail, -kRail, kRail - (std::int64_t{1} << 40),
        -kRail + (std::int64_t{1} << 52), kRail - (std::int64_t{1} << 58)}) {
    IState st = pipe.encode_i(xi);
    for (auto& a : st.acc) a.add_counts(start);
    st.pot.add_counts(-start);
    expect_simd_matches_scalar(pipe, st, js.data(), js.size());
  }
  // Flagged by an earlier overflow, then pulled back inside the rail.
  IState st = pipe.encode_i(xi);
  for (auto& a : st.acc) {
    a.add(std::numeric_limits<double>::infinity());
    a.add_counts(-(std::int64_t{1} << 50));
  }
  st.pot.add(-std::numeric_limits<double>::infinity());
  ASSERT_TRUE(pipe.saturated(st));
  const RawForce r = expect_simd_matches_scalar(pipe, st, js.data(), js.size());
  EXPECT_TRUE(r.saturated);
}

TEST(Backend, NativeSimdCountsNoFallbackOnAGenericStream) {
  // A unit-ball j-stream on the quanta the driver derives: no count
  // nears 2^62 and no fold block nears the rail, so the vector kernel
  // carries every interaction itself.
  PipelineScaling s = test_scaling();
  s.range_lo = -2.0;
  s.range_hi = 2.0;
  grape::derive_scaling_quanta(s, 1.0 / 4096.0);
  const Pipeline pipe = native_pipeline(s);
  if (!pipe.native_simd()) GTEST_SKIP() << kNoVectorKernel;
  math::Rng rng(606);
  std::vector<JWord> js;
  std::vector<IState> slots;
  for (int k = 0; k < 4096; ++k) {
    const Vec3d x = rng.in_unit_ball();
    js.push_back(pipe.encode_j(x, 1.0 / 4096.0));
    if (k % 97 == 0) slots.push_back(pipe.encode_i(x));
  }
  const grape::NativeFallbacks fallbacks =
      pipe.interact_batch(std::span<IState>(slots), js.data(), js.size());
  EXPECT_EQ(fallbacks.scalar_interactions, 0u);
  EXPECT_EQ(fallbacks.replayed_blocks, 0u);
}

TEST(Backend, NativeSimdMatchesScalarOnFoldedLargeCounts) {
  // Counts past 2^51, where one ulp of x / q moves the count, in blocks
  // that fold: the vector kernel's own products and conversions carry
  // them (no scalar interaction, no replay) and must round bitwise
  // like the scalar x / q.
  PipelineScaling s = test_scaling();
  s.range_lo = -2.0;
  s.range_hi = 2.0;
  grape::derive_scaling_quanta(s, 0x1.8p-21);  // quanta not powers of two
  const Pipeline pipe = native_pipeline(s);
  if (!pipe.native_simd()) GTEST_SKIP() << kNoVectorKernel;
  math::Rng rng(707);
  std::vector<JWord> js;
  for (int k = 0; k < 600; ++k) {
    js.push_back(pipe.encode_j(1.9 * rng.in_unit_ball(), 0x1p-12));
  }
  const Vec3d xi{1.9, 0.0, 0.0};
  std::int64_t past_51 = 0;
  for (const JWord& j : js) {
    past_51 += single_count(pipe, xi, j) >= (std::int64_t{1} << 51) ? 1 : 0;
  }
  ASSERT_GT(past_51, 50);
  std::vector<IState> slots(9, pipe.encode_i(xi));
  for (std::size_t k = 1; k < slots.size(); ++k) {
    slots[k] = pipe.encode_i(
        xi + Vec3d{0.0, 0.01 * static_cast<double>(k), 0.0});
  }
  const grape::NativeFallbacks fallbacks =
      pipe.interact_batch(std::span<IState>(slots), js.data(), js.size());
  EXPECT_EQ(fallbacks.scalar_interactions, 0u);
  EXPECT_EQ(fallbacks.replayed_blocks, 0u);
  expect_simd_matches_scalar(pipe, pipe.encode_i(xi), js.data(), js.size());
}

TEST(Backend, NativeQuantaArePowersOfTwo) {
  // Native installs 2^-6 of each bit-exact quantum rounded up to a
  // power of two: in [q * 2^-6, q * 2^-5). Bit-exact keeps the derived
  // quanta as they are.
  for (const double mass_scale : {1.0, 0.37, 1.0 / 3.0, 0x1p-20, 5e-7}) {
    PipelineScaling s = test_scaling();
    grape::derive_scaling_quanta(s, mass_scale);
    const Pipeline native = native_pipeline(s);
    Pipeline bitexact{PipelineNumerics{}};
    bitexact.configure(s);
    EXPECT_EQ(bitexact.force_accumulator_quantum(), s.force_quantum);
    EXPECT_EQ(bitexact.potential_accumulator_quantum(), s.potential_quantum);
    for (const auto& [q, nq] :
         {std::pair{s.force_quantum, native.force_accumulator_quantum()},
          std::pair{s.potential_quantum,
                    native.potential_accumulator_quantum()}}) {
      int e = 0;
      EXPECT_EQ(std::frexp(nq, &e), 0.5) << "mass scale " << mass_scale;
      EXPECT_GE(nq, std::ldexp(q, -6)) << "mass scale " << mass_scale;
      EXPECT_LT(nq, std::ldexp(q, -5)) << "mass scale " << mass_scale;
    }
    const IState st = native.encode_i(Vec3d{0.1, 0.2, 0.3});
    EXPECT_EQ(st.acc[0].quantum(), native.force_accumulator_quantum());
    EXPECT_EQ(st.pot.quantum(), native.potential_accumulator_quantum());
  }
}

}  // namespace
