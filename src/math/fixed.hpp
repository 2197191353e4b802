// Fixed-point codecs used by the GRAPE-5 pipeline emulation.
//
// The real G5 chip receives particle positions as fixed-point words scaled
// to a coordinate range set by the host (`g5_set_range`), computes the
// coordinate differences exactly in fixed point, and accumulates forces in
// wide fixed-point registers. These helpers reproduce that arithmetic with
// explicit, testable quantization semantics.
//
// The codec speaks the strong domain types of math/domain.hpp: encode
// produces a math::Fixed20 position word, subtraction of two words yields
// a math::FixedDelta, and decode/delta_to_double are the only paths back
// to host doubles. Raw integer codes exist only inside this class.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "math/domain.hpp"

namespace g5::math {

/// Maps doubles in [lo, hi) onto a signed integer grid of `bits` bits
/// (two's complement, so the representable codes are [-2^(bits-1),
/// 2^(bits-1)-1]). Values outside the range saturate, as the hardware does.
class FixedPointCodec {
 public:
  FixedPointCodec(double lo, double hi, int bits) : bits_(bits) {
    if (!(hi > lo)) throw std::invalid_argument("fixed-point range empty");
    if (bits < 2 || bits > 62) throw std::invalid_argument("bits out of range");
    center_ = 0.5 * (lo + hi);
    // One code step. The full span maps to 2^bits codes.
    quantum_ = (hi - lo) / std::ldexp(1.0, bits);
    max_code_ = (std::int64_t{1} << (bits - 1)) - 1;
    min_code_ = -(std::int64_t{1} << (bits - 1));
  }

  /// Quantize: round-to-nearest onto the grid, saturating at the rails.
  [[nodiscard]] Fixed20 encode(double x) const noexcept {
    const double scaled = (x - center_) / quantum_;
    const double rounded = std::nearbyint(scaled);
    if (rounded >= static_cast<double>(max_code_)) {
      return Fixed20::from_code(max_code_);
    }
    if (rounded <= static_cast<double>(min_code_)) {
      return Fixed20::from_code(min_code_);
    }
    return Fixed20::from_code(static_cast<std::int64_t>(rounded));
  }

  [[nodiscard]] double decode(Fixed20 word) const noexcept {
    return center_ + static_cast<double>(word.code()) * quantum_;
  }

  /// Decode an exact fixed-point coordinate difference: the delta scales
  /// by the quantum only (the window centers cancel in the subtraction).
  [[nodiscard]] double delta_to_double(FixedDelta d) const noexcept {
    return static_cast<double>(d.code()) * quantum_;
  }

  /// Round-trip a double through the grid (the value the pipeline sees).
  [[nodiscard]] double quantize(double x) const noexcept {
    return decode(encode(x));
  }

  [[nodiscard]] double quantum() const noexcept { return quantum_; }
  [[nodiscard]] int bits() const noexcept { return bits_; }
  [[nodiscard]] double lo() const noexcept {
    return decode(Fixed20::from_code(min_code_));
  }
  [[nodiscard]] double hi() const noexcept {
    return decode(Fixed20::from_code(max_code_));
  }

 private:
  int bits_;
  double center_ = 0.0;
  double quantum_ = 1.0;
  std::int64_t max_code_ = 0;
  std::int64_t min_code_ = 0;
};

/// Saturation rail of the 64-bit accumulator registers, in counts of
/// the quantum (just below 2^63 ~ 9.22e18).
inline constexpr std::int64_t kAccumulatorRail = 9'000'000'000'000'000'000;

/// Exact integer add of two accumulator counts with the registers'
/// saturation semantics: a true sum beyond the ±kAccumulatorRail rail
/// clamps to the rail and sets `saturated` instead of wrapping.
/// `a` must already lie on or inside the rail; `b` may be any int64.
[[nodiscard]] inline std::int64_t saturating_add(
    std::int64_t a, std::int64_t b, bool& saturated) noexcept {
  std::int64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum) || sum > kAccumulatorRail ||
      sum < -kAccumulatorRail) {
    saturated = true;
    return b < 0 ? -kAccumulatorRail : kAccumulatorRail;
  }
  return sum;
}

/// Wide fixed-point accumulator: the force sum is an integer count of a
/// fixed quantum, as in the hardware's 64-bit accumulator registers.
/// add() rounds each contribution to the nearest count,
/// k = nearbyint(x / quantum), and adds k in exact int64 arithmetic, so
/// the sum of a set of contributions is the same in any order and at
/// any magnitude up to the rail. Overflow past the rail saturates and
/// is observable for diagnostics; a single contribution of 2^63 counts
/// or more (or a NaN) saturates on its own, since no register holds it.
class FixedAccumulator {
 public:
  explicit FixedAccumulator(double quantum) : quantum_(quantum) {
    if (!(quantum > 0.0)) throw std::invalid_argument("quantum must be > 0");
  }

  void add(double x) noexcept {
    const double scaled = x / quantum_;
    if (std::fabs(scaled) < kRoundExactLimit) [[likely]] {
      add_counts(nearest_count(scaled));
      return;
    }
    add_wide(scaled);
  }

  /// Add a count that is already an exact integer sum of rounded
  /// contributions (a SIMD lane sum, a partial register readout).
  void add_counts(std::int64_t counts) noexcept {
    acc_ = saturating_add(acc_, counts, saturated_);
  }

  /// nearbyint(scaled) as an integer, for |scaled| < kRoundExactLimit:
  /// adding 1.5 * 2^52 leaves a unit in the last place of 1, so the add
  /// rounds to an integer in the current (round-to-nearest-even) mode,
  /// and the integer sits in the low mantissa bits. Bitwise the same
  /// count as std::nearbyint, without the libm call.
  [[nodiscard]] static std::int64_t nearest_count(double scaled) noexcept {
    return std::bit_cast<std::int64_t>(scaled + kRoundBias) -
           std::bit_cast<std::int64_t>(kRoundBias);
  }

  /// The 1.5 * 2^52 rounding bias of nearest_count, and the magnitude
  /// below which it is exact.
  static constexpr double kRoundBias = 0x1.8p52;
  static constexpr double kRoundExactLimit = 0x1p51;

  [[nodiscard]] double value() const noexcept {
    return static_cast<double>(acc_) * quantum_;
  }
  /// The raw accumulator register: an integer count of the quantum.
  /// Partial sums from different pipelines are exact in this domain
  /// (integer addition is associative), which is what lets a multi-board
  /// reduction stay bitwise-identical to a single accumulator stream —
  /// see grape/board_set.hpp.
  [[nodiscard]] std::int64_t raw() const noexcept { return acc_; }
  [[nodiscard]] bool saturated() const noexcept { return saturated_; }
  [[nodiscard]] double quantum() const noexcept { return quantum_; }

  void reset() noexcept {
    acc_ = 0;
    saturated_ = false;
  }

 private:
  /// The rare large-count path: |scaled| >= 2^51, infinities, NaN.
  void add_wide(double scaled) noexcept {
    const double rounded = std::nearbyint(scaled);
    constexpr double kInt64Limit = 0x1p63;
    if (std::fabs(rounded) < kInt64Limit) {
      add_counts(static_cast<std::int64_t>(rounded));
      return;
    }
    saturated_ = true;
    acc_ = rounded < 0.0 ? -kAccumulatorRail : kAccumulatorRail;
  }

  double quantum_;
  std::int64_t acc_ = 0;
  bool saturated_ = false;
};

}  // namespace g5::math
