#include "grape/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace g5::grape {

using math::Fixed20;
using math::FixedAccumulator;
using math::FixedDelta;
using math::LnsValue;

namespace {

/// Widest coordinate word whose code differences (|d| < 2^position_bits)
/// the AVX2 kernel converts to double exactly (|d| < 2^51).
constexpr int kSimdMaxPositionBits = 50;

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

#if defined(__x86_64__)

// The 4-wide AVX2 Native kernel. Each lane performs the scalar kernel's
// IEEE operations in the same order (the target adds no "fma", so no
// multiply-add contracts), which makes every lane's per-interaction
// count bitwise the scalar one. The counts add exactly (integers carried
// in double, see LaneSums) and fold into the int64 registers every
// kFoldBlock j. Lanes the vector path does not carry (counts summing to
// 2^62 or more, a non-finite value, the divergent r^2 == 0 corner) run
// through the scalar kernel one interaction at a time.

/// j-particles per fold of the lane sums into the accumulators (64 per
/// lane).
constexpr std::size_t kFoldBlock = 256;

/// Bound on a lane's four |count|s, summed, that the vector path carries.
constexpr double kVectorCountLimit = 0x1p62;

/// Exact lane sums of one accumulator over a fold block, kept in
/// double. A count k = nearbyint(s) is split as hi = s rounded to a
/// multiple of 2^32 and lo = nearbyint(s - hi), so k = hi + lo. Both
/// parts and their sums over a block (64 per lane) are exact in double:
/// hi sums are multiples of 2^32 below 2^70, lo sums integers below 2^40.
struct LaneSums {
  __m256d hi;
  __m256d lo;
};

/// int64 -> double for |v| < 2^51 (AVX2 has no such conversion): place
/// v in the low mantissa bits of 1.5 * 2^52, then subtract the bias.
[[gnu::target("avx2")]] __m256d exact_to_double(__m256i v) {
  const __m256d bias = _mm256_set1_pd(FixedAccumulator::kRoundBias);
  const __m256i shifted = _mm256_add_epi64(v, _mm256_castpd_si256(bias));
  return _mm256_sub_pd(_mm256_castsi256_pd(shifted), bias);
}

/// Add nearbyint(s) to `sum` (masked-out lanes carry s = 0). Adding
/// 1.5 * 2^84 rounds s to a multiple of 2^32 (its unit in the last
/// place there), so hi is exact and lo = s - hi is exact with
/// |lo| <= 2^31; 1.5 * 2^52 then rounds lo to an integer the same way
/// (FixedAccumulator::nearest_count). hi is an even integer, so
/// rounding lo to nearest-even rounds s itself.
[[gnu::target("avx2")]] void accumulate(LaneSums& sum, __m256d s) {
  const __m256d high = _mm256_set1_pd(0x1.8p84);
  const __m256d unit = _mm256_set1_pd(FixedAccumulator::kRoundBias);
  const __m256d hi = _mm256_sub_pd(_mm256_add_pd(s, high), high);
  const __m256d lo = _mm256_sub_pd(s, hi);
  const __m256d lo_count = _mm256_sub_pd(_mm256_add_pd(lo, unit), unit);
  sum.hi = _mm256_add_pd(sum.hi, hi);
  sum.lo = _mm256_add_pd(sum.lo, lo_count);
}

[[gnu::target("avx2")]] double lane_sum(__m256d v) {
  const __m128d low = _mm256_castpd256_pd128(v);
  const __m128d s = _mm_add_pd(low, _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

/// Fold one accumulator's block sums. `peak` is the largest |count| the
/// register held before the fold (at block entry and after each scalar
/// lane); `magnitude` bounds the block's sum of |s| over the carried
/// lanes. When peak + sum |k| stays inside the rail, no partial sum of
/// the block in any order reaches the rail, so the exact total is the
/// scalar kernel's result: fold it and return true. Otherwise leave the
/// register alone and return false.
[[gnu::target("avx2")]] bool fold(FixedAccumulator& acc, const LaneSums& sum,
                                  std::int64_t peak, double magnitude) {
  // sum |k| <= sum |s| + 128 over <= 256 counts, and the double sums
  // of |s| are within 2^-44 of the exact ones; the 2^-40 and 2^20
  // margins also cover the rounding of this check itself.
  const double bound =
      static_cast<double>(peak) + magnitude * (1.0 + 0x1p-40) + 0x1p20;
  if (!(bound < static_cast<double>(math::kAccumulatorRail))) return false;
  // Both lane sums are exact (the partial sums stay representable), and
  // the bound keeps hi + lo inside int64.
  const auto hi = static_cast<std::int64_t>(lane_sum(sum.hi) * 0x1p-32);
  const auto lo = static_cast<std::int64_t>(lane_sum(sum.lo));
  acc.add_counts(hi * (std::int64_t{1} << 32) + lo);
  return true;
}

/// The two coordinate words x[0], x[1] of a j-particle.
[[gnu::target("avx2")]] __m128i load_xy(const JWord& j) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(j.x));
}

// g5lint: hot-begin(pipeline-simd) — no allocation per call or per j.
[[gnu::target("avx2")]] void interact_batch_native_avx2(
    const Pipeline& pipe, IState& st, const JWord* j, std::size_t count) {
  const double eps = pipe.scaling().eps;
  const __m256d eps2 = _mm256_set1_pd(eps * eps);
  const __m256d quantum = _mm256_set1_pd(pipe.position_quantum());
  const __m256d force_q = _mm256_set1_pd(st.acc[0].quantum());
  const __m256d pot_q = _mm256_set1_pd(st.pot.quantum());
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d limit = _mm256_set1_pd(kVectorCountLimit);
  const __m256i xi0 = _mm256_set1_epi64x(st.x[0].code());
  const __m256i xi1 = _mm256_set1_epi64x(st.x[1].code());
  const __m256i xi2 = _mm256_set1_epi64x(st.x[2].code());
  const __m256i lane_index = _mm256_set_epi64x(3, 2, 1, 0);
  FixedAccumulator* const regs[4] = {&st.acc[0], &st.acc[1], &st.acc[2],
                                     &st.pot};

  for (std::size_t block = 0; block < count; block += kFoldBlock) {
    const std::size_t end = std::min(count, block + kFoldBlock);
    // Lanes the vector path leaves to the scalar kernel, one bit per j
    // of the block; they run after the vector loop, in stream order.
    std::uint64_t scalar_lanes[kFoldBlock / 64] = {};
    LaneSums sum_x = {zero, zero};
    LaneSums sum_y = sum_x;
    LaneSums sum_z = sum_x;
    LaneSums sum_p = sum_x;
    // Per lane, the sum of the four |s| of every carried j: one bound
    // on sum |s| for each of the four accumulators.
    __m256d magnitude = zero;
    for (std::size_t base = block; base < end; base += 4) {
      // A ragged tail repeats its last j in the spare lanes; `live`
      // masks them out of the sums.
      const std::size_t n = std::min<std::size_t>(4, end - base);
      const JWord& j0 = j[base];
      const JWord& j1 = j[base + std::min<std::size_t>(1, n - 1)];
      const JWord& j2 = j[base + std::min<std::size_t>(2, n - 1)];
      const JWord& j3 = j[base + n - 1];
      const __m256i lanes = _mm256_set1_epi64x(static_cast<std::int64_t>(n));
      const __m256d live =
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(lanes, lane_index));

      // Transpose the four (x0, x1) pairs into x0 and x1 lanes.
      const __m256i r02 = _mm256_set_m128i(load_xy(j2), load_xy(j0));
      const __m256i r13 = _mm256_set_m128i(load_xy(j3), load_xy(j1));
      const __m256i cx = _mm256_unpacklo_epi64(r02, r13);
      const __m256i cy = _mm256_unpackhi_epi64(r02, r13);
      const __m256i cz = _mm256_set_epi64x(j3.x[2].code(), j2.x[2].code(),
                                           j1.x[2].code(), j0.x[2].code());
      const __m256d mass = _mm256_set_pd(j3.mass_exact, j2.mass_exact,
                                         j1.mass_exact, j0.mass_exact);

      // The scalar kernel's operations, in its order.
      const __m256i d0 = _mm256_sub_epi64(cx, xi0);
      const __m256i d1 = _mm256_sub_epi64(cy, xi1);
      const __m256i d2 = _mm256_sub_epi64(cz, xi2);
      const __m256i d_or = _mm256_or_si256(_mm256_or_si256(d0, d1), d2);
      const __m256d cut = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(d_or, _mm256_setzero_si256()));
      const __m256d dx = _mm256_mul_pd(exact_to_double(d0), quantum);
      const __m256d dy = _mm256_mul_pd(exact_to_double(d1), quantum);
      const __m256d dz = _mm256_mul_pd(exact_to_double(d2), quantum);
      const __m256d dx2 = _mm256_mul_pd(dx, dx);
      const __m256d dy2 = _mm256_mul_pd(dy, dy);
      const __m256d dz2 = _mm256_mul_pd(dz, dz);
      const __m256d r2 =
          _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(dx2, dy2), dz2), eps2);
      const __m256d r2_zero = _mm256_cmp_pd(r2, zero, _CMP_EQ_OQ);
      const __m256d dead = _mm256_or_pd(cut, r2_zero);
      const __m256d divergent = _mm256_andnot_pd(cut, r2_zero);
      const __m256d r2_eff = _mm256_blendv_pd(r2, one, dead);
      const __m256d rinv = _mm256_div_pd(one, _mm256_sqrt_pd(r2_eff));
      const __m256d wm = _mm256_mul_pd(_mm256_andnot_pd(dead, one), mass);
      const __m256d rinv3 = _mm256_mul_pd(_mm256_mul_pd(rinv, rinv), rinv);
      const __m256d mg = _mm256_mul_pd(wm, rinv3);
      const __m256d gp = _mm256_mul_pd(wm, rinv);
      const __m256d sx = _mm256_div_pd(_mm256_mul_pd(mg, dx), force_q);
      const __m256d sy = _mm256_div_pd(_mm256_mul_pd(mg, dy), force_q);
      const __m256d sz = _mm256_div_pd(_mm256_mul_pd(mg, dz), force_q);
      const __m256d sp = _mm256_div_pd(_mm256_xor_pd(gp, sign), pot_q);

      // A lane is carried when its four |count|s sum below the limit
      // (false for a NaN or an infinity) and its pair is not divergent.
      const __m256d ax = _mm256_andnot_pd(sign, sx);
      const __m256d ay = _mm256_andnot_pd(sign, sy);
      const __m256d az = _mm256_andnot_pd(sign, sz);
      const __m256d ap = _mm256_andnot_pd(sign, sp);
      const __m256d total =
          _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(ax, ay), az), ap);
      const __m256d small = _mm256_cmp_pd(total, limit, _CMP_LT_OQ);
      const __m256d keep =
          _mm256_and_pd(_mm256_andnot_pd(divergent, live), small);
      magnitude = _mm256_add_pd(magnitude, _mm256_and_pd(total, keep));
      accumulate(sum_x, _mm256_and_pd(sx, keep));
      accumulate(sum_y, _mm256_and_pd(sy, keep));
      accumulate(sum_z, _mm256_and_pd(sz, keep));
      accumulate(sum_p, _mm256_and_pd(sp, keep));

      const auto skipped = static_cast<std::uint64_t>(
          _mm256_movemask_pd(_mm256_andnot_pd(keep, live)));
      scalar_lanes[(base - block) / 64] |= skipped << ((base - block) % 64);
    }

    // The scalar lanes go first; `peak` tracks the largest |count| the
    // registers hold before the fold.
    const IState entry = st;
    std::int64_t peak[4] = {};
    const auto track_peak = [&] {
      for (std::size_t c = 0; c < 4; ++c) {
        const std::int64_t v = regs[c]->raw();
        peak[c] = std::max(peak[c], v < 0 ? -v : v);
      }
    };
    track_peak();
    for (std::size_t w = 0; w < kFoldBlock / 64; ++w) {
      for (std::uint64_t bits = scalar_lanes[w]; bits != 0; bits &= bits - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(bits));
        pipe.interact_batch_scalar(st, j + block + 64 * w + l, 1);
        track_peak();
      }
    }
    const double bound = lane_sum(magnitude);
    const bool folded = fold(st.acc[0], sum_x, peak[0], bound) &&
                        fold(st.acc[1], sum_y, peak[1], bound) &&
                        fold(st.acc[2], sum_z, peak[2], bound) &&
                        fold(st.pot, sum_p, peak[3], bound);
    if (!folded) [[unlikely]] {
      // Near the rail the order of the adds matters: replay the block
      // in stream order.
      st = entry;
      pipe.interact_batch_scalar(st, j + block, end - block);
    }
  }
}
// g5lint: hot-end

#endif  // __x86_64__

}  // namespace

void derive_scaling_quanta(PipelineScaling& s, double mass_scale) noexcept {
  const double width = s.range_hi - s.range_lo;
  const double m = mass_scale > 0.0 ? mass_scale : 1.0;
  s.force_quantum =
      m / (width * width) * std::ldexp(1.0, -kAccumulatorGuardBits);
  s.potential_quantum = m / width * std::ldexp(1.0, -kAccumulatorGuardBits);
}

Pipeline::Pipeline(const PipelineNumerics& numerics)
    : numerics_(numerics),
      lns_(numerics.lns_frac_bits),
      codec_(-1.0, 1.0, numerics.position_bits),
      native_simd_(numerics.backend == BackendKind::Native &&
                   !numerics.exact_arithmetic &&
                   numerics.position_bits <= kSimdMaxPositionBits &&
                   cpu_has_avx2()) {
  lns_.set_table_index_bits(numerics.table_index_bits);
  configure(PipelineScaling{});
}

void Pipeline::configure(const PipelineScaling& scaling) {
  if (!(scaling.range_hi > scaling.range_lo)) {
    throw std::invalid_argument("pipeline range window empty");
  }
  if (scaling.force_quantum <= 0.0 || scaling.potential_quantum <= 0.0) {
    throw std::invalid_argument("accumulator quanta must be > 0");
  }
  scaling_ = scaling;
  codec_ = math::FixedPointCodec(scaling.range_lo, scaling.range_hi,
                                 numerics_.position_bits);
  eps2_ = scaling.eps * scaling.eps;
}

JWord Pipeline::encode_j(const Vec3d& pos, double mass) const {
  JWord j;
  for (std::size_t c = 0; c < 3; ++c) j.x[c] = codec_.encode(pos[c]);
  j.mass = lns_.from_double(mass);
  j.mass_exact = mass;
  return j;
}

double Pipeline::force_accumulator_quantum() const noexcept {
  return numerics_.backend == BackendKind::Native && !numerics_.exact_arithmetic
             ? std::ldexp(scaling_.force_quantum, -kNativeAccumulatorExtraBits)
             : scaling_.force_quantum;
}

double Pipeline::potential_accumulator_quantum() const noexcept {
  return numerics_.backend == BackendKind::Native && !numerics_.exact_arithmetic
             ? std::ldexp(scaling_.potential_quantum,
                          -kNativeAccumulatorExtraBits)
             : scaling_.potential_quantum;
}

IState Pipeline::encode_i(const Vec3d& pos) const {
  IState s;
  for (std::size_t c = 0; c < 3; ++c) s.x[c] = codec_.encode(pos[c]);
  s.x_exact = pos;
  for (auto& a : s.acc) a = FixedAccumulator(force_accumulator_quantum());
  s.pot = FixedAccumulator(potential_accumulator_quantum());
  return s;
}

void Pipeline::interact(IState& i_state, const JWord& j) const {
  if (numerics_.exact_arithmetic) {
    interact_exact(i_state, j);
    return;
  }
  if (numerics_.backend == BackendKind::Native) {
    interact_batch_native(i_state, &j, 1);
    return;
  }

  // The scalar reference datapath. interact_batch_lns applies exactly
  // these operations per lane in the same accumulation order, and the
  // backend-equivalence tests pin the two bitwise against each other.
  //
  // 1. Coordinate differences: exact fixed-point subtraction (the strong
  //    FixedDelta word), then the difference enters the log-format
  //    datapath via the codec (one conversion rounding per component).
  LnsValue dx[3];
  FixedDelta d[3];
  for (int c = 0; c < 3; ++c) {
    d[c] = j.x[c] - i_state.x[c];
    dx[c] = lns_.from_double(codec_.delta_to_double(d[c]));
  }
  // Self-interaction cut: the pipeline drops pairs whose fixed-point
  // coordinates coincide (the hardware's i == j detection). The force of
  // such a pair is exactly zero anyway; cutting it also keeps the
  // softened self-potential -m/eps out of the accumulators, so the host
  // needs no (format-error-prone) correction.
  if (math::coincident(d[0], d[1], d[2])) return;

  // 2. Squares in log format (exact shifts), summed with eps^2 by the
  //    block-normalized adder, modeled as an exact add re-quantized to the
  //    log format.
  double r2 = eps2_;
  for (const auto& dc : dx) r2 += lns_.to_double(lns_.square(dc));
  const LnsValue r2_lns = lns_.from_double(r2);

  // 3. g = (r^2)^(-3/2) (table unit) and h = (r^2)^(-1/2) (potential unit).
  const LnsValue g = lns_.pow_neg_3_2(r2_lns);
  const LnsValue h = lns_.pow_neg_1_2(r2_lns);

  // 4. Products m*g and m*g*dx in log format (integer adds), then the
  //    fixed-point accumulators pick up the converted results.
  const LnsValue mg = lns_.mul(j.mass, g);
  for (int c = 0; c < 3; ++c) {
    i_state.acc[c].add(lns_.to_double(lns_.mul(mg, dx[c])));
  }
  i_state.pot.add(-lns_.to_double(lns_.mul(j.mass, h)));
}

void Pipeline::interact_batch(IState& i_state, const JWord* j,
                              std::size_t count) const {
#if defined(__x86_64__)
  if (native_simd_) {
    interact_batch_native_avx2(*this, i_state, j, count);
    return;
  }
#endif
  interact_batch_scalar(i_state, j, count);
}

void Pipeline::interact_batch_scalar(IState& i_state, const JWord* j,
                                     std::size_t count) const {
  if (count == 0) return;
  if (numerics_.exact_arithmetic) {
    for (std::size_t k = 0; k < count; ++k) interact_exact(i_state, j[k]);
    return;
  }
  if (numerics_.backend == BackendKind::Native) {
    interact_batch_native(i_state, j, count);
    return;
  }
  interact_batch_lns(i_state, j, count);
}

// g5lint: hot-begin(pipeline-batch) — the per-interaction kernels; no
// allocation, no unreserved growth (every lane buffer is a stack array).
void Pipeline::interact_batch_lns(IState& i_state, const JWord* j,
                                  std::size_t count) const {
  constexpr std::size_t W = kBatchWidth;
  const Fixed20 xi0 = i_state.x[0];
  const Fixed20 xi1 = i_state.x[1];
  const Fixed20 xi2 = i_state.x[2];
  for (std::size_t base = 0; base < count; base += W) {
    const std::size_t n = std::min(W, count - base);

    // Stage 1: exact fixed-point differences plus the i == j cut, on
    // integer lanes.
    FixedDelta d[3][W];
    bool live[W];
    for (std::size_t l = 0; l < n; ++l) {
      const JWord& jw = j[base + l];
      d[0][l] = jw.x[0] - xi0;
      d[1][l] = jw.x[1] - xi1;
      d[2][l] = jw.x[2] - xi2;
      live[l] = !math::coincident(d[0][l], d[1][l], d[2][l]);
    }

    // Stage 2: the differences enter the log format (one conversion
    // rounding per component, as in the scalar path).
    LnsValue dx[3][W];
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t l = 0; l < n; ++l) {
        dx[c][l] = lns_.from_double(codec_.delta_to_double(d[c][l]));
      }
    }

    // Stage 3: squares (exact log shifts) + the block-normalized r^2 add,
    // re-encoded. The component order matches the scalar loop.
    LnsValue r2w[W];
    for (std::size_t l = 0; l < n; ++l) {
      double r2 = eps2_;
      r2 += lns_.to_double(lns_.square(dx[0][l]));
      r2 += lns_.to_double(lns_.square(dx[1][l]));
      r2 += lns_.to_double(lns_.square(dx[2][l]));
      r2w[l] = lns_.from_double(r2);
    }

    // Stage 4: power units + the m*g / m*g*dx / m*h products — integer
    // adds on the log words across lanes.
    LnsValue fout[3][W];
    LnsValue pout[W];
    for (std::size_t l = 0; l < n; ++l) {
      const LnsValue g = lns_.pow_neg_3_2(r2w[l]);
      const LnsValue h = lns_.pow_neg_1_2(r2w[l]);
      const LnsValue mg = lns_.mul(j[base + l].mass, g);
      fout[0][l] = lns_.mul(mg, dx[0][l]);
      fout[1][l] = lns_.mul(mg, dx[1][l]);
      fout[2][l] = lns_.mul(mg, dx[2][l]);
      pout[l] = lns_.mul(j[base + l].mass, h);
    }

    // Stage 5: decode lanes (table lookups) and drain them into the
    // fixed-point accumulators in stream order — the identical add
    // sequence as the scalar path, so the sums are bitwise-identical.
    double fx[3][W];
    double fp[W];
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t l = 0; l < n; ++l) {
        fx[c][l] = lns_.to_double(fout[c][l]);
      }
    }
    for (std::size_t l = 0; l < n; ++l) fp[l] = lns_.to_double(pout[l]);
    for (std::size_t l = 0; l < n; ++l) {
      if (!live[l]) continue;
      i_state.acc[0].add(fx[0][l]);
      i_state.acc[1].add(fx[1][l]);
      i_state.acc[2].add(fx[2][l]);
      i_state.pot.add(-fp[l]);
    }
  }
}

void Pipeline::interact_batch_native(IState& i_state, const JWord* j,
                                     std::size_t count) const {
  constexpr std::size_t W = kBatchWidth;
  const Fixed20 xi0 = i_state.x[0];
  const Fixed20 xi1 = i_state.x[1];
  const Fixed20 xi2 = i_state.x[2];
  for (std::size_t base = 0; base < count; base += W) {
    const std::size_t n = std::min(W, count - base);
    double gx[W];
    double gy[W];
    double gz[W];
    double gp[W];
    bool divergent = false;
    for (std::size_t l = 0; l < n; ++l) {
      const JWord& jw = j[base + l];
      const FixedDelta d0 = jw.x[0] - xi0;
      const FixedDelta d1 = jw.x[1] - xi1;
      const FixedDelta d2 = jw.x[2] - xi2;
      const double dx = codec_.delta_to_double(d0);
      const double dy = codec_.delta_to_double(d1);
      const double dz = codec_.delta_to_double(d2);
      const double r2 = dx * dx + dy * dy + dz * dz + eps2_;
      // Masked lanes — the i == j cut and the divergent r2 == 0 corner —
      // take a benign r2 so the rsqrt lane stays finite; their weight is
      // zero. The rare divergent corner is patched below.
      const bool cut = math::coincident(d0, d1, d2);
      const bool dead = cut || r2 == 0.0;
      divergent = divergent || (!cut && r2 == 0.0);
      const double r2_eff = dead ? 1.0 : r2;
      const double rinv = 1.0 / std::sqrt(r2_eff);
      const double mg =
          (dead ? 0.0 : 1.0) * jw.mass_exact * (rinv * rinv * rinv);
      gx[l] = mg * dx;
      gy[l] = mg * dy;
      gz[l] = mg * dz;
      gp[l] = (dead ? 0.0 : 1.0) * jw.mass_exact * rinv;
    }
    if (divergent) [[unlikely]] {
      // A non-coincident pair's r^2 underflowed to zero (only reachable
      // with eps == 0): the bit-exact datapath saturates — infinite
      // potential, force along the components that survived in double.
      const double inf = std::numeric_limits<double>::infinity();
      for (std::size_t l = 0; l < n; ++l) {
        const JWord& jw = j[base + l];
        const FixedDelta d0 = jw.x[0] - xi0;
        const FixedDelta d1 = jw.x[1] - xi1;
        const FixedDelta d2 = jw.x[2] - xi2;
        if (math::coincident(d0, d1, d2)) continue;
        const double dx = codec_.delta_to_double(d0);
        const double dy = codec_.delta_to_double(d1);
        const double dz = codec_.delta_to_double(d2);
        if (dx * dx + dy * dy + dz * dz + eps2_ != 0.0) continue;
        const double ms = jw.mass_exact < 0.0 ? -1.0 : 1.0;
        gx[l] = dx != 0.0 ? ms * std::copysign(inf, dx) : 0.0;
        gy[l] = dy != 0.0 ? ms * std::copysign(inf, dy) : 0.0;
        gz[l] = dz != 0.0 ? ms * std::copysign(inf, dz) : 0.0;
        gp[l] = ms * inf;
      }
    }
    // Drain into the fixed-point accumulators per interaction, in
    // stream order. Each lane quantizes independently onto the finer
    // Native grid (kNativeAccumulatorExtraBits), so the sum does not
    // depend on where batch — or board-shard — boundaries fall.
    for (std::size_t l = 0; l < n; ++l) {
      i_state.acc[0].add(gx[l]);
      i_state.acc[1].add(gy[l]);
      i_state.acc[2].add(gz[l]);
      i_state.pot.add(-gp[l]);
    }
  }
}
// g5lint: hot-end

void Pipeline::interact_exact(IState& i_state, const JWord& j) const {
  FixedDelta d[3];
  Vec3d dx;
  for (std::size_t c = 0; c < 3; ++c) {
    d[c] = j.x[c] - i_state.x[c];
    dx[c] = codec_.delta_to_double(d[c]);
  }
  // The same i == j cut as the lns path: fixed-point coincidence.
  if (math::coincident(d[0], d[1], d[2])) return;
  const double r2 = dx.norm2() + eps2_;
  if (r2 == 0.0) {
    // Non-coincident pair whose r^2 underflowed with eps == 0: the lns
    // datapath saturates its accumulators here; mirror that rather than
    // silently dropping a divergent pair.
    const double inf = std::numeric_limits<double>::infinity();
    const double ms = j.mass_exact < 0.0 ? -1.0 : 1.0;
    for (std::size_t c = 0; c < 3; ++c) {
      if (dx[c] != 0.0) i_state.acc[c].add(ms * std::copysign(inf, dx[c]));
    }
    i_state.pot.add(-ms * inf);
    return;
  }
  const double rinv = 1.0 / std::sqrt(r2);
  const double mg = j.mass_exact * rinv * rinv * rinv;
  for (std::size_t c = 0; c < 3; ++c) i_state.acc[c].add(mg * dx[c]);
  i_state.pot.add(-j.mass_exact * rinv);
}

Vec3d Pipeline::read_force(const IState& i_state) const {
  return {i_state.acc[0].value(), i_state.acc[1].value(),
          i_state.acc[2].value()};
}

double Pipeline::read_potential(const IState& i_state) const {
  return i_state.pot.value();
}

bool Pipeline::saturated(const IState& i_state) const {
  return i_state.acc[0].saturated() || i_state.acc[1].saturated() ||
         i_state.acc[2].saturated() || i_state.pot.saturated();
}

RawForce Pipeline::read_raw(const IState& i_state) const {
  RawForce r;
  for (std::size_t c = 0; c < 3; ++c) r.acc[c] = i_state.acc[c].raw();
  r.pot = i_state.pot.raw();
  r.saturated = saturated(i_state);
  return r;
}

}  // namespace g5::grape
