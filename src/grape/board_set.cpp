#include "grape/board_set.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/parallel.hpp"

namespace g5::grape {

namespace {

/// Span names are literals (they must outlive the span and may not
/// contain '/'); boards beyond the table share one overflow label —
/// the per-board metrics still separate them.
constexpr std::array<const char*, 8> kBoardSpanNames = {
    "board0", "board1", "board2", "board3",
    "board4", "board5", "board6", "board7"};

const char* board_span_name(std::size_t b) {
  return b < kBoardSpanNames.size() ? kBoardSpanNames[b] : "board8plus";
}

}  // namespace

BoardSet::BoardSet(const SystemConfig& config) : cfg_(config) {
  if (cfg_.boards == 0) throw std::invalid_argument("need >= 1 board");
  boards_.reserve(cfg_.boards);
  for (std::size_t b = 0; b < cfg_.boards; ++b) {
    boards_.push_back(std::make_unique<ProcessorBoard>(cfg_.board, cfg_.hib,
                                                       cfg_.numerics, b));
  }
  board_j_.assign(cfg_.boards, 0);
  scratch_.resize(cfg_.boards);
}

void BoardSet::configure(const PipelineScaling& scaling) {
  for (auto& board : boards_) board->configure(scaling);
  std::fill(board_j_.begin(), board_j_.end(), 0);
  resident_j_ = 0;
}

void BoardSet::upload(std::span<const Vec3d> pos,
                      std::span<const double> mass) {
  if (pos.size() != mass.size()) {
    throw std::invalid_argument("position/mass arity mismatch");
  }
  const std::size_t nj = pos.size();
  if (nj > capacity()) {
    throw JmemCapacityError(JmemCapacityError::kAggregate, nj, capacity());
  }

  const std::size_t share = shard_share(nj, boards_.size());
  std::size_t offset = 0;
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const std::size_t count = std::min(share, nj - offset);
    boards_[b]->set_j_count(0);
    if (count > 0) {
      boards_[b]->set_j(0, pos.data() + offset, mass.data() + offset, count);
    }
    board_j_[b] = count;
    offset += count;
  }
  resident_j_ = nj;
  publish_upload_metrics();
}

std::size_t BoardSet::run(std::span<const Vec3d> i_pos,
                          std::span<RawForce> raw, util::ThreadPool* pool) {
  const std::size_t ni = i_pos.size();
  if (raw.size() != ni) {
    throw std::invalid_argument("raw output span arity mismatch");
  }
  if (ni == 0 || resident_j_ == 0) return 0;

  // The call's HIB traffic is recorded once per board, outside the
  // parallel region: one i-upload and one result read however the call
  // is tiled below.
  active_.clear();
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    if (boards_[b]->j_count() == 0) continue;
    active_.push_back(b);
    if (scratch_[b].size() < ni) scratch_[b].resize(ni);
    boards_[b]->hib().record_i_upload(ni);
  }
  if (active_.empty()) return 0;

  // (board, i-block) tiles: each board's i-range splits into `blocks`
  // contiguous blocks, sized so the call has about kTilesPerLane tiles
  // per pool lane. Every i still streams its board's whole j-shard in
  // the same order, and tile (b, k) writes only scratch_[b] over its
  // own block, so the tiling is invisible in the result. An ni = 1 call
  // keeps one tile per board — its boards still run on separate lanes.
  constexpr std::size_t kTilesPerLane = 4;
  const std::size_t lanes = pool != nullptr ? pool->size() : 1;
  std::size_t blocks = 1;
  if (lanes > 1) {
    const std::size_t want = kTilesPerLane * lanes;
    blocks = std::min(ni, (want + active_.size() - 1) / active_.size());
  }
  const std::size_t block = (ni + blocks - 1) / blocks;
  blocks = (ni + block - 1) / block;  // no empty trailing block
  const std::size_t tiles = active_.size() * blocks;
  tile_fallbacks_.assign(tiles, NativeFallbacks{});

  const auto run_tile = [&](std::size_t t) {
    const std::size_t b = active_[t / blocks];
    const std::size_t begin = (t % blocks) * block;
    const std::size_t end = std::min(begin + block, ni);
    G5_OBS_SPAN(board_span_name(b), "grape");
    tile_fallbacks_[t] =
        boards_[b]->eval_raw(i_pos.data(), begin, end, scratch_[b].data());
  };
  if (lanes > 1 && tiles > 1) {
    // The pool propagates the caller's span path, so the per-tile spans
    // nest under the compute phase that forked them.
    pool->parallel_for(tiles, 1,
                       [&](std::size_t begin, std::size_t end,
                           unsigned /*lane*/) {
                         for (std::size_t t = begin; t < end; ++t) {
                           run_tile(t);
                         }
                       });
  } else {
    for (std::size_t t = 0; t < tiles; ++t) run_tile(t);
  }
  for (const std::size_t b : active_) boards_[b]->hib().record_result_read(ni);
  NativeFallbacks call_fallbacks;
  for (const NativeFallbacks& f : tile_fallbacks_) call_fallbacks += f;
  fallbacks_ += call_fallbacks;

  // Reduce in board order, in the integer count domain. Integer addition
  // is exact and associative, so any board partition of the j-set — and
  // the serial vs tiled evaluation above — produces identical counts;
  // the caller's single conversion to doubles is then bitwise-identical
  // to a one-board run.
  const bool observed = obs::enabled();
  if (observed) {
    ensure_board_obs();
    scalar_interactions_->add(call_fallbacks.scalar_interactions);
    replayed_blocks_->add(call_fallbacks.replayed_blocks);
  }
  std::size_t interactions = 0;
  for (const std::size_t b : active_) {
    const std::size_t board_interactions = ni * boards_[b]->j_count();
    interactions += board_interactions;
    if (observed) board_obs_[b].interactions->add(board_interactions);
    const std::vector<RawForce>& partial = scratch_[b];
    for (std::size_t i = 0; i < ni; ++i) {
      RawForce& dst = raw[i];
      const RawForce& src = partial[i];
      bool overflowed = false;
      for (std::size_t c = 0; c < 3; ++c) {
        dst.acc[c] = math::saturating_add(dst.acc[c], src.acc[c], overflowed);
      }
      dst.pot = math::saturating_add(dst.pot, src.pot, overflowed);
      dst.saturated = dst.saturated || src.saturated || overflowed;
    }
  }
  return interactions;
}

std::uint64_t BoardSet::bytes_moved() const {
  std::uint64_t total = 0;
  for (const auto& board : boards_) total += board->hib().total_bytes();
  return total;
}

void BoardSet::reset_hib() {
  for (auto& board : boards_) board->hib().reset();
}

void BoardSet::ensure_board_obs() {
  if (board_obs_.size() == boards_.size()) return;
  // Registration takes a mutex and returns forever-valid references;
  // build the per-board handles once and keep the pointers.
  board_obs_.resize(boards_.size());
  scalar_interactions_ = &obs::counter("g5.grape.native.scalar_interactions");
  replayed_blocks_ = &obs::counter("g5.grape.native.replayed_blocks");
  obs::gauge("g5.board.count").set(static_cast<double>(boards_.size()));
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const std::string prefix = "g5.board." + std::to_string(b) + ".";
    board_obs_[b].j_resident = &obs::gauge(prefix + "j_resident");
    board_obs_[b].jmem_fill = &obs::gauge(prefix + "jmem_fill");
    board_obs_[b].interactions = &obs::counter(prefix + "interactions");
  }
}

void BoardSet::publish_upload_metrics() {
  if (!obs::enabled()) return;
  ensure_board_obs();
  const double cap = static_cast<double>(board_capacity());
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const auto resident = static_cast<double>(board_j_[b]);
    board_obs_[b].j_resident->set(resident);
    board_obs_[b].jmem_fill->set(cap > 0.0 ? resident / cap : 0.0);
  }
}

}  // namespace g5::grape
