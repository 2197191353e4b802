#include "grape/pipeline.hpp"

#include <algorithm>
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

/// The Native accumulator quantum for a bit-exact quantum q (> 0,
/// finite): the smallest power of two at or above
/// q * 2^-kNativeAccumulatorExtraBits.
double native_quantum(double q) {
  int e = 0;
  const double m = std::frexp(q, &e);  // q = m * 2^e, m in [0.5, 1)
  return std::ldexp(1.0,
                    (m == 0.5 ? e - 1 : e) - kNativeAccumulatorExtraBits);
}

bool cpu_has_avx512() noexcept {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0;
  }();
  return has;
#else
  return false;
#endif
}

#if defined(__x86_64__)

// The AVX-512 Native kernel. Its 8 lanes are 8 i-slots: each j's codes
// and mass are broadcast to every lane, and each lane performs the
// scalar kernel's IEEE operations in the same order (this file builds
// with -ffp-contract=off, so no multiply-add contracts). The
// accumulator quanta are powers of two, so x * (1/q) is bitwise x / q,
// and vcvtpd2qq rounds to nearest-even like FixedAccumulator::add:
// every lane's count is bitwise the scalar one. The counts add in int64
// lane sums and fold into the slot's registers every kFoldBlock j.
// (j, slot) pairs the vector path does not carry (four |count|s summing
// to 2^62 or more, a non-finite value, the divergent r^2 == 0 corner)
// run through the scalar kernel one interaction at a time.

/// j-particles per fold of the lane sums into the accumulators.
constexpr std::size_t kFoldBlock = 256;

/// Bound on a lane's four |count|s, summed, that the vector path carries.
constexpr double kVectorCountLimit = 0x1p62;

constexpr std::size_t kSlots = Pipeline::kernel_slots();

/// Fold one slot's block sums: `counts` are its int64 lane sums of the
/// four registers, `magnitude` the double sum of the four |s| of every
/// carried j (one bound on sum |s| for each register), and `peak` the
/// largest |count| each register held before the fold (at block entry
/// and after each scalar interaction). When peak + sum |k| stays inside
/// the rail, no partial sum of the block in any order reaches the rail,
/// so the exact total is the scalar kernel's result — and the lane
/// sums, which wrap mod 2^64, equal it: fold it and return true.
/// Otherwise leave the registers alone and return false.
bool fold(IState& st, const std::int64_t (&counts)[4], double magnitude,
          const std::int64_t (&peak)[4]) {
  // sum |k| <= sum |s| + 128 over <= 256 counts, and the double sums
  // of |s| are within 2^-44 of the exact ones; the 2^-40 and 2^20
  // margins also cover the rounding of this check itself.
  const double reach = magnitude * (1.0 + 0x1p-40) + 0x1p20;
  for (const std::int64_t p : peak) {
    if (!(static_cast<double>(p) + reach <
          static_cast<double>(math::kAccumulatorRail))) {
      return false;
    }
  }
  for (std::size_t c = 0; c < 3; ++c) st.acc[c].add_counts(counts[c]);
  st.pot.add_counts(counts[3]);
  return true;
}

void track_peak(const IState& st, std::int64_t (&peak)[4]) {
  const std::int64_t v[4] = {st.acc[0].raw(), st.acc[1].raw(),
                             st.acc[2].raw(), st.pot.raw()};
  for (std::size_t c = 0; c < 4; ++c) {
    peak[c] = std::max(peak[c], v[c] < 0 ? -v[c] : v[c]);
  }
}

// g5lint: hot-begin(pipeline-simd) — no allocation per call or per j.
[[gnu::target("avx512f,avx512dq,avx512vl")]] NativeFallbacks
interact_slots_avx512(const Pipeline& pipe, IState* slots, std::size_t n,
                      const JWord* j, std::size_t count) {
  NativeFallbacks fallbacks;
  // Spare lanes repeat the last slot; nothing reads their sums.
  std::int64_t xi[3][kSlots];
  for (std::size_t l = 0; l < kSlots; ++l) {
    const IState& st = slots[std::min(l, n - 1)];
    for (std::size_t c = 0; c < 3; ++c) xi[c][l] = st.x[c].code();
  }
  const __m512i xi0 = _mm512_loadu_si512(xi[0]);
  const __m512i xi1 = _mm512_loadu_si512(xi[1]);
  const __m512i xi2 = _mm512_loadu_si512(xi[2]);
  const double eps = pipe.scaling().eps;
  const __m512d eps2 = _mm512_set1_pd(eps * eps);
  const __m512d quantum = _mm512_set1_pd(pipe.position_quantum());
  const __m512d force_r =
      _mm512_set1_pd(1.0 / pipe.force_accumulator_quantum());
  // (-gp) / q is -(gp * (1/q)): negation commutes with the rounding.
  const __m512d pot_r =
      _mm512_set1_pd(-1.0 / pipe.potential_accumulator_quantum());
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d limit = _mm512_set1_pd(kVectorCountLimit);
  constexpr __mmask8 all_lanes = 0xFF;

  for (std::size_t block = 0; block < count; block += kFoldBlock) {
    const std::size_t end = std::min(count, block + kFoldBlock);
    // Slots the vector path leaves to the scalar kernel, one mask per
    // j of the block; they run after the vector loop, in stream order.
    __mmask8 scalar_slots[kFoldBlock];
    __mmask8 any_scalar = 0;
    __m512i sum[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512()};
    __m512d magnitude = zero;
    for (std::size_t k = block; k < end; ++k) {
      const JWord& jw = j[k];
      // The scalar kernel's operations, in its order.
      const __m512i d0 =
          _mm512_sub_epi64(_mm512_set1_epi64(jw.x[0].code()), xi0);
      const __m512i d1 =
          _mm512_sub_epi64(_mm512_set1_epi64(jw.x[1].code()), xi1);
      const __m512i d2 =
          _mm512_sub_epi64(_mm512_set1_epi64(jw.x[2].code()), xi2);
      const __m512i d_or = _mm512_or_si512(_mm512_or_si512(d0, d1), d2);
      const __mmask8 cut = _mm512_testn_epi64_mask(d_or, d_or);
      const __m512d dx = _mm512_mul_pd(_mm512_cvtepi64_pd(d0), quantum);
      const __m512d dy = _mm512_mul_pd(_mm512_cvtepi64_pd(d1), quantum);
      const __m512d dz = _mm512_mul_pd(_mm512_cvtepi64_pd(d2), quantum);
      const __m512d r2 = _mm512_add_pd(
          _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(dx, dx),
                                      _mm512_mul_pd(dy, dy)),
                        _mm512_mul_pd(dz, dz)),
          eps2);
      const __mmask8 r2_zero = _mm512_cmp_pd_mask(r2, zero, _CMP_EQ_OQ);
      const auto dead = static_cast<__mmask8>(cut | r2_zero);
      const auto divergent = static_cast<__mmask8>(r2_zero & ~cut);
      const __m512d r2_eff = _mm512_mask_blend_pd(dead, r2, one);
      // The all-lanes mask form: GCC 12 flags the plain form's
      // undefined pass-through operand under -Wmaybe-uninitialized.
      const __m512d rinv =
          _mm512_div_pd(one, _mm512_maskz_sqrt_pd(all_lanes, r2_eff));
      const __m512d weight =
          _mm512_maskz_mov_pd(static_cast<__mmask8>(~dead), one);
      const __m512d wm = _mm512_mul_pd(weight, _mm512_set1_pd(jw.mass_exact));
      const __m512d rinv3 = _mm512_mul_pd(_mm512_mul_pd(rinv, rinv), rinv);
      const __m512d mg = _mm512_mul_pd(wm, rinv3);
      const __m512d gp = _mm512_mul_pd(wm, rinv);
      const __m512d s[4] = {
          _mm512_mul_pd(_mm512_mul_pd(mg, dx), force_r),
          _mm512_mul_pd(_mm512_mul_pd(mg, dy), force_r),
          _mm512_mul_pd(_mm512_mul_pd(mg, dz), force_r),
          _mm512_mul_pd(gp, pot_r)};

      // A lane is carried when its four |count|s sum below the limit
      // (false for a NaN or an infinity) and its pair is not divergent.
      const __m512d total = _mm512_add_pd(
          _mm512_add_pd(
              _mm512_add_pd(_mm512_abs_pd(s[0]), _mm512_abs_pd(s[1])),
              _mm512_abs_pd(s[2])),
          _mm512_abs_pd(s[3]));
      const auto keep = static_cast<__mmask8>(
          _mm512_cmp_pd_mask(total, limit, _CMP_LT_OQ) & ~divergent);
      magnitude = _mm512_mask_add_pd(magnitude, keep, magnitude, total);
      for (std::size_t c = 0; c < 4; ++c) {
        sum[c] = _mm512_mask_add_epi64(sum[c], keep, sum[c],
                                       _mm512_cvtpd_epi64(s[c]));
      }
      const auto scalar = static_cast<__mmask8>(~keep);
      scalar_slots[k - block] = scalar;
      any_scalar = static_cast<__mmask8>(any_scalar | scalar);
    }

    std::int64_t lane[4][kSlots];
    double lane_magnitude[kSlots];
    for (std::size_t c = 0; c < 4; ++c) _mm512_storeu_si512(lane[c], sum[c]);
    _mm512_storeu_pd(lane_magnitude, magnitude);
    for (std::size_t l = 0; l < n; ++l) {
      IState& st = slots[l];
      const IState entry = st;
      // The slot's scalar interactions go first; `peak` tracks the
      // largest |count| its registers hold before the fold.
      std::int64_t peak[4] = {};
      track_peak(st, peak);
      if ((any_scalar >> l) & 1u) {
        for (std::size_t k = block; k < end; ++k) {
          if (((scalar_slots[k - block] >> l) & 1u) == 0) continue;
          pipe.interact_batch_scalar(st, j + k, 1);
          track_peak(st, peak);
          ++fallbacks.scalar_interactions;
        }
      }
      const std::int64_t counts[4] = {lane[0][l], lane[1][l], lane[2][l],
                                      lane[3][l]};
      if (!fold(st, counts, lane_magnitude[l], peak)) [[unlikely]] {
        // Near the rail the order of the adds matters: replay the block
        // in stream order.
        st = entry;
        pipe.interact_batch_scalar(st, j + block, end - block);
        ++fallbacks.replayed_blocks;
      }
    }
  }
  return fallbacks;
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
                   !numerics.exact_arithmetic && cpu_has_avx512()) {
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
  const bool native =
      numerics_.backend == BackendKind::Native && !numerics_.exact_arithmetic;
  force_acc_quantum_ = native ? native_quantum(scaling.force_quantum)
                              : scaling.force_quantum;
  potential_acc_quantum_ = native ? native_quantum(scaling.potential_quantum)
                                  : scaling.potential_quantum;
}

JWord Pipeline::encode_j(const Vec3d& pos, double mass) const {
  JWord j;
  for (std::size_t c = 0; c < 3; ++c) j.x[c] = codec_.encode(pos[c]);
  j.mass = lns_.from_double(mass);
  j.mass_exact = mass;
  return j;
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

NativeFallbacks Pipeline::interact_batch(std::span<IState> slots,
                                         const JWord* j,
                                         std::size_t count) const {
#if defined(__x86_64__)
  // The kernel multiplies by 1/q, which is x / q bitwise for the
  // power-of-two quanta encode_i installs while 1/q is finite.
  if (native_simd_ && count > 0 && std::isfinite(1.0 / force_acc_quantum_) &&
      std::isfinite(1.0 / potential_acc_quantum_)) {
    NativeFallbacks fallbacks;
    for (std::size_t base = 0; base < slots.size(); base += kernel_slots()) {
      fallbacks += interact_slots_avx512(
          *this, slots.data() + base,
          std::min(kernel_slots(), slots.size() - base), j, count);
    }
    return fallbacks;
  }
#endif
  for (IState& s : slots) interact_batch_scalar(s, j, count);
  return {};
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
