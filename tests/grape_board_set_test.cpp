// BoardSet: j-sharding across B emulated boards (docs/scaling.md).
//
// The contracts pinned here:
//   * shard_share is the single block-sharding rule, and upload()
//     distributes ragged sets exactly as it predicts;
//   * capacity overruns raise JmemCapacityError with the offending
//     board / requested / capacity fields (aggregate checks use
//     kAggregate);
//   * the integer-domain reduction makes results bitwise-identical
//     across board counts AND chunk boundaries, for both backends,
//     also once accumulator counts pass 2^53;
//   * the pooled (board, i-block) tiles reproduce the serial loop byte
//     for byte, HIB accounting included, and keep each i's chip slot;
//   * the native kernel's fallback counts sum over tiles into the
//     BoardSet and the registry;
//   * a capacity error on the AsyncDevice submitter poisons the device
//     like any other hardware fault.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "grape/async_device.hpp"
#include "grape/board_set.hpp"
#include "grape/driver.hpp"
#include "grape/system.hpp"
#include "ic/uniform.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/parallel.hpp"

namespace {

using namespace g5;
using grape::AsyncDevice;
using grape::BackendKind;
using grape::BoardSet;
using grape::ForceJob;
using grape::Grape5Device;
using grape::Grape5System;
using grape::JmemCapacityError;
using grape::RawForce;
using grape::SystemConfig;
using grape::Vec3d;

SystemConfig small_config(std::size_t boards, std::size_t jmem,
                          BackendKind backend = BackendKind::BitExact) {
  SystemConfig cfg;
  cfg.boards = boards;
  cfg.board.jmem_capacity = jmem;
  cfg.numerics.backend = backend;
  return cfg;
}

// The sharding rule itself is a compile-time function.
static_assert(grape::shard_share(10, 4) == 3);
static_assert(grape::shard_share(12, 4) == 3);
static_assert(grape::shard_share(1, 4) == 1);
static_assert(grape::shard_share(0, 4) == 0);
static_assert(grape::shard_share(7, 1) == 7);

TEST(BoardSet, RaggedUploadFollowsShardShare) {
  // nj = 10 over B = 4: shares of ceil(10/4) = 3 -> {3, 3, 3, 1}.
  const auto src = ic::make_uniform_cube(10, -1.0, 1.0, 1.0, 5);
  Grape5System sys(small_config(4, 16));
  sys.set_range(-2.0, 2.0, 0.01, 0.1);
  sys.set_j_particles(src.pos(), src.mass());

  BoardSet& set = sys.board_set();
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(set.resident_j(), 10u);
  EXPECT_EQ(set.board_j(0), 3u);
  EXPECT_EQ(set.board_j(1), 3u);
  EXPECT_EQ(set.board_j(2), 3u);
  EXPECT_EQ(set.board_j(3), 1u);
  EXPECT_EQ(set.board(3).j_count(), 1u);
}

TEST(BoardSet, UploadAtExactCapacitySucceeds) {
  const auto src = ic::make_uniform_cube(64, -1.0, 1.0, 1.0, 11);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 64.0);
  EXPECT_NO_THROW(sys.set_j_particles(src.pos(), src.mass()));
  EXPECT_EQ(sys.board_set().board_j(0), 32u);
  EXPECT_EQ(sys.board_set().board_j(1), 32u);
}

TEST(BoardSet, AggregateOverCapacityThrowsTypedError) {
  const auto src = ic::make_uniform_cube(65, -1.0, 1.0, 1.0, 11);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 65.0);
  try {
    sys.set_j_particles(src.pos(), src.mass());
    FAIL() << "expected JmemCapacityError";
  } catch (const JmemCapacityError& e) {
    EXPECT_EQ(e.board(), JmemCapacityError::kAggregate);
    EXPECT_EQ(e.requested(), 65u);
    EXPECT_EQ(e.capacity(), 64u);
  }
  // The historical contract still holds for callers catching the base.
  EXPECT_THROW(sys.set_j_particles(src.pos(), src.mass()), std::out_of_range);
}

TEST(BoardSet, SingleBoardOverCapacityReportsBoardIndex) {
  const auto src = ic::make_uniform_cube(40, -1.0, 1.0, 1.0, 13);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 40.0);
  try {
    sys.board(1).set_j(0, src.pos().data(), src.mass().data(), 40);
    FAIL() << "expected JmemCapacityError";
  } catch (const JmemCapacityError& e) {
    EXPECT_EQ(e.board(), 1u);
    EXPECT_EQ(e.requested(), 40u);
    EXPECT_EQ(e.capacity(), 32u);
  }
}

/// Forces with a given board count, on a fresh system; the per-board
/// memory (`jmem`) keeps the whole set resident. The accumulator quanta
/// follow `mass_scale` (the particle mass when 0).
void forces_with_boards(const model::ParticleSet& src, std::size_t boards,
                        BackendKind backend, std::size_t ni,
                        std::vector<Vec3d>& acc, std::vector<double>& pot,
                        double mass_scale = 0.0, std::size_t jmem = 4096) {
  Grape5System sys(small_config(boards, jmem, backend));
  sys.set_range(-2.0, 2.0, 0.02,
                mass_scale > 0.0 ? mass_scale : src.mass()[0]);
  sys.set_j_particles(src.pos(), src.mass());
  acc.assign(ni, Vec3d{});
  pot.assign(ni, 0.0);
  sys.compute(std::span<const Vec3d>(src.pos().data(), ni), acc, pot);
}

class BoardSetBackend : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BoardSetBackend, BoardCountIsBitwiseInvariant) {
  // The tentpole determinism claim: the integer-domain reduction makes
  // B = 1, 3 and 4 produce byte-identical forces (not merely close).
  // 333 over 4 boards also exercises a ragged final shard.
  const auto src = ic::make_uniform_cube(333, -1.0, 1.0, 1.0, 7);
  constexpr std::size_t kNi = 48;
  std::vector<Vec3d> acc1, accb;
  std::vector<double> pot1, potb;
  forces_with_boards(src, 1, GetParam(), kNi, acc1, pot1);
  for (const std::size_t boards : {3u, 4u}) {
    forces_with_boards(src, boards, GetParam(), kNi, accb, potb);
    for (std::size_t i = 0; i < kNi; ++i) {
      EXPECT_EQ(acc1[i].x, accb[i].x) << "B=" << boards << " i=" << i;
      EXPECT_EQ(acc1[i].y, accb[i].y) << "B=" << boards << " i=" << i;
      EXPECT_EQ(acc1[i].z, accb[i].z) << "B=" << boards << " i=" << i;
      EXPECT_EQ(pot1[i], potb[i]) << "B=" << boards << " i=" << i;
    }
  }
}

TEST_P(BoardSetBackend, ChunkedEvaluationIsBitwiseInvariant) {
  // Same j-list through one resident upload vs forced host-side
  // chunking (tiny particle memory): the driver accumulates raw counts
  // across chunks, so the chunk seams must not show either.
  const auto src = ic::make_uniform_cube(300, -1.0, 1.0, 1.0, 17);
  constexpr std::size_t kNi = 32;
  const std::span<const Vec3d> targets(src.pos().data(), kNi);

  Grape5Device resident(small_config(2, 4096, GetParam()));
  resident.set_range(-2.0, 2.0, src.mass()[0]);
  resident.set_eps(0.02);
  std::vector<Vec3d> acc_res(kNi);
  std::vector<double> pot_res(kNi);
  resident.compute_forces_chunked(targets, src.pos(), src.mass(), acc_res,
                                  pot_res);

  Grape5Device chunked(small_config(2, 32, GetParam()));  // cap 64 -> 5 chunks
  chunked.set_range(-2.0, 2.0, src.mass()[0]);
  chunked.set_eps(0.02);
  std::vector<Vec3d> acc_chk(kNi);
  std::vector<double> pot_chk(kNi);
  chunked.compute_forces_chunked(targets, src.pos(), src.mass(), acc_chk,
                                 pot_chk);

  for (std::size_t i = 0; i < kNi; ++i) {
    EXPECT_EQ(acc_res[i].x, acc_chk[i].x) << i;
    EXPECT_EQ(acc_res[i].y, acc_chk[i].y) << i;
    EXPECT_EQ(acc_res[i].z, acc_chk[i].z) << i;
    EXPECT_EQ(pot_res[i], pot_chk[i]) << i;
  }
}

TEST_P(BoardSetBackend, CountsBeyond2To53StayBitwiseInvariant) {
  // Accumulator counts past 2^53, where adding in double would round
  // and the board count would leak into the bits: native with 8,192
  // particles in a unit ball (potential counts ~2^55.6), bit-exact with
  // a mass scale 2^12 below the particle mass (~2^61.6 on its 2^6
  // coarser quantum). The integer adds keep B = 1, 2, 4 and chunked
  // uploads byte-identical.
  constexpr std::size_t kNj = 8192;
  constexpr std::size_t kNi = 96;
  const auto src = ic::make_uniform_ball(kNj, 1.0, 1.0, 29);
  const double mass_scale =
      GetParam() == BackendKind::BitExact ? std::ldexp(src.mass()[0], -12)
                                          : src.mass()[0];

  std::vector<Vec3d> acc1, accb;
  std::vector<double> pot1, potb;
  forces_with_boards(src, 1, GetParam(), kNi, acc1, pot1, mass_scale, kNj);
  // The regime the test is about: counts well past 2^53, below the rail.
  {
    Grape5System sys(small_config(1, kNj, GetParam()));
    sys.set_range(-2.0, 2.0, 0.02, mass_scale);
    sys.set_j_particles(src.pos(), src.mass());
    std::vector<grape::RawForce> raw(kNi);
    sys.compute_raw(std::span<const Vec3d>(src.pos().data(), kNi), raw);
    std::int64_t largest = 0;
    for (const auto& r : raw) {
      EXPECT_FALSE(r.saturated);
      largest = std::max(largest, r.pot < 0 ? -r.pot : r.pot);
    }
    EXPECT_GT(largest, std::int64_t{1} << 55);
  }
  for (const std::size_t boards : {2u, 4u}) {
    forces_with_boards(src, boards, GetParam(), kNi, accb, potb, mass_scale,
                       kNj);
    for (std::size_t i = 0; i < kNi; ++i) {
      EXPECT_EQ(acc1[i].x, accb[i].x) << "B=" << boards << " i=" << i;
      EXPECT_EQ(acc1[i].y, accb[i].y) << "B=" << boards << " i=" << i;
      EXPECT_EQ(acc1[i].z, accb[i].z) << "B=" << boards << " i=" << i;
      EXPECT_EQ(pot1[i], potb[i]) << "B=" << boards << " i=" << i;
    }
  }

  // Resident upload vs host-side chunking through a 2 x 1,000-word
  // particle memory (5 chunks, ragged last one).
  const std::span<const Vec3d> targets(src.pos().data(), kNi);
  for (const std::size_t jmem : {kNj, std::size_t{1000}}) {
    Grape5Device dev(small_config(2, jmem, GetParam()));
    dev.set_range(-2.0, 2.0, mass_scale);
    dev.set_eps(0.02);
    std::vector<Vec3d> acc(kNi);
    std::vector<double> pot(kNi);
    dev.compute_forces_chunked(targets, src.pos(), src.mass(), acc, pot);
    for (std::size_t i = 0; i < kNi; ++i) {
      EXPECT_EQ(acc1[i].x, acc[i].x) << "jmem=" << jmem << " i=" << i;
      EXPECT_EQ(acc1[i].y, acc[i].y) << "jmem=" << jmem << " i=" << i;
      EXPECT_EQ(acc1[i].z, acc[i].z) << "jmem=" << jmem << " i=" << i;
      EXPECT_EQ(pot1[i], pot[i]) << "jmem=" << jmem << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BoardSetBackend,
                         ::testing::Values(BackendKind::BitExact,
                                           BackendKind::Native),
                         [](const auto& info) {
                           return info.param == BackendKind::Native
                                      ? "Native"
                                      : "BitExact";
                         });

TEST(BoardSet, EvalPoolMatchesSerialBitwise) {
  // Board-parallel evaluation merges the same integer counts in the
  // same order as the serial loop — byte-identical outputs.
  const auto src = ic::make_uniform_cube(256, -1.0, 1.0, 1.0, 23);
  constexpr std::size_t kNi = 40;
  const std::span<const Vec3d> targets(src.pos().data(), kNi);

  Grape5System serial(small_config(4, 1024));
  serial.set_range(-2.0, 2.0, 0.02, src.mass()[0]);
  serial.set_j_particles(src.pos(), src.mass());
  std::vector<Vec3d> acc_s(kNi);
  std::vector<double> pot_s(kNi);
  serial.compute(targets, acc_s, pot_s);

  Grape5System parallel(small_config(4, 1024));
  util::ThreadPool pool(4);
  parallel.set_eval_pool(&pool);
  parallel.set_range(-2.0, 2.0, 0.02, src.mass()[0]);
  parallel.set_j_particles(src.pos(), src.mass());
  std::vector<Vec3d> acc_p(kNi);
  std::vector<double> pot_p(kNi);
  parallel.compute(targets, acc_p, pot_p);
  parallel.set_eval_pool(nullptr);

  for (std::size_t i = 0; i < kNi; ++i) {
    EXPECT_EQ(acc_s[i].x, acc_p[i].x) << i;
    EXPECT_EQ(acc_s[i].y, acc_p[i].y) << i;
    EXPECT_EQ(acc_s[i].z, acc_p[i].z) << i;
    EXPECT_EQ(pot_s[i], pot_p[i]) << i;
  }
}

/// One chunked force call's raw counts: the j-set uploads as two halves
/// and both accumulate into the same buffer — the compute_forces_chunked
/// path, so the second call merges into a nonzero `raw`. `pool` == nullptr
/// is the serial loop; `faulty_board` >= 0 injects chip 3's fault there.
struct ChunkedRaw {
  std::vector<RawForce> raw;
  std::size_t interactions = 0;
  std::uint64_t hib_bytes = 0;
};

ChunkedRaw chunked_raw(const model::ParticleSet& src, std::size_t boards,
                       BackendKind backend, std::size_t ni,
                       util::ThreadPool* pool, int faulty_board = -1) {
  Grape5System sys(small_config(boards, 4096, backend));
  sys.set_eval_pool(pool);
  if (faulty_board >= 0) sys.board(faulty_board).inject_chip_fault(3);
  sys.set_range(-2.0, 2.0, 0.02, src.mass()[0]);
  const std::span<const Vec3d> targets(src.pos().data(), ni);
  const std::span<const Vec3d> pos(src.pos());
  const std::span<const double> mass(src.mass());
  const std::size_t half = pos.size() / 2;
  ChunkedRaw out;
  out.raw.assign(ni, RawForce{});
  sys.set_j_particles(pos.first(half), mass.first(half));
  out.interactions += sys.compute_raw(targets, out.raw);
  sys.set_j_particles(pos.subspan(half), mass.subspan(half));
  out.interactions += sys.compute_raw(targets, out.raw);
  out.hib_bytes = sys.bytes_moved();
  sys.set_eval_pool(nullptr);
  return out;
}

bool same_raw(const RawForce& a, const RawForce& b) {
  return a.acc[0] == b.acc[0] && a.acc[1] == b.acc[1] &&
         a.acc[2] == b.acc[2] && a.pot == b.pot && a.saturated == b.saturated;
}

TEST(BoardSet, TiledEvalMatchesSerialBitwise) {
  // The pooled run forks each call over (board, i-block) tiles; every i
  // still streams its board's whole shard in order and the boards merge
  // in board order, so the counts — and the HIB traffic, recorded once
  // per board per call — must equal the serial loop's exactly, for lane
  // counts that do and do not divide the tile count, ni from one i to
  // past the 96 VMP i-slots — around the vector kernel's 8 i per pass
  // too — and the accumulate-into-nonzero second call.
  const auto src = ic::make_uniform_cube(300, -1.0, 1.0, 1.0, 41);
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const unsigned lanes : {2u, 3u, 4u, 7u}) {
    pools.push_back(std::make_unique<util::ThreadPool>(lanes));
  }
  for (const BackendKind backend :
       {BackendKind::BitExact, BackendKind::Native}) {
    for (const std::size_t boards : {1u, 2u, 3u}) {
      for (const std::size_t ni : {1u, 5u, 7u, 8u, 9u, 17u, 40u, 97u, 300u}) {
        const ChunkedRaw serial =
            chunked_raw(src, boards, backend, ni, nullptr);
        for (const auto& pool : pools) {
          SCOPED_TRACE(::testing::Message()
                       << "native=" << (backend == BackendKind::Native)
                       << " B=" << boards << " ni=" << ni
                       << " lanes=" << pool->size());
          const ChunkedRaw tiled =
              chunked_raw(src, boards, backend, ni, pool.get());
          EXPECT_EQ(serial.interactions, tiled.interactions);
          EXPECT_EQ(serial.hib_bytes, tiled.hib_bytes);
          for (std::size_t i = 0; i < ni; ++i) {
            EXPECT_TRUE(same_raw(serial.raw[i], tiled.raw[i])) << "i=" << i;
          }
        }
      }
    }
  }
}

TEST(BoardSet, ChipFaultKeepsSlotUnderTiling) {
  // A tile evaluates i in [begin, end) of the call, but each i must keep
  // its slot i % i_slots within the whole call: the faulty chip scales
  // exactly the i's it would scale serially, however the call is tiled.
  const auto src = ic::make_uniform_cube(300, -1.0, 1.0, 1.0, 43);
  constexpr std::size_t kNi = 300;
  util::ThreadPool pool(4);
  const ChunkedRaw healthy =
      chunked_raw(src, 2, BackendKind::BitExact, kNi, nullptr);
  const ChunkedRaw serial =
      chunked_raw(src, 2, BackendKind::BitExact, kNi, nullptr, 1);
  const ChunkedRaw tiled =
      chunked_raw(src, 2, BackendKind::BitExact, kNi, &pool, 1);

  Grape5System probe(small_config(2, 4096));
  const grape::ProcessorBoard& board = probe.board(1);
  const std::size_t slots = board.config().i_slots();
  std::size_t scaled = 0;
  for (std::size_t i = 0; i < kNi; ++i) {
    EXPECT_TRUE(same_raw(serial.raw[i], tiled.raw[i])) << "i=" << i;
    const bool on_faulty_chip = board.chip_of_slot(i % slots) == 3;
    EXPECT_EQ(!same_raw(healthy.raw[i], tiled.raw[i]), on_faulty_chip)
        << "i=" << i;
    if (on_faulty_chip) ++scaled;
  }
  EXPECT_GT(scaled, 0u);
}

TEST(BoardSet, NativeFallbacksReachTheRegistry) {
  // The per-tile kernel fallbacks sum into BoardSet::native_fallbacks()
  // and, with instrumentation on, into the g5.grape.native.* counters.
  // On the quanta the particle mass sets, a sphere stream needs no
  // scalar help; a mass scale 2^12 below it pushes the nearest pairs
  // past the 2^62 counts the vector kernel carries.
  const auto src = ic::make_uniform_ball(2048, 1.0, 1.0, 31);
  constexpr std::size_t kNi = 200;
  const std::span<const Vec3d> targets(src.pos().data(), kNi);
  obs::Counter& scalar = obs::counter("g5.grape.native.scalar_interactions");
  obs::Counter& replayed = obs::counter("g5.grape.native.replayed_blocks");
  util::ThreadPool pool(3);
  obs::set_enabled(true);
  for (const int shift : {0, -12}) {
    SCOPED_TRACE(::testing::Message() << "mass scale 2^" << shift);
    Grape5System sys(small_config(2, 2048, BackendKind::Native));
    sys.set_eval_pool(&pool);
    sys.set_range(-2.0, 2.0, 0.02, std::ldexp(src.mass()[0], shift));
    sys.set_j_particles(src.pos(), src.mass());
    const std::uint64_t scalar_before = scalar.value();
    const std::uint64_t replayed_before = replayed.value();
    std::vector<RawForce> raw(kNi);
    sys.compute_raw(targets, raw);
    sys.set_eval_pool(nullptr);
    const grape::NativeFallbacks& f = sys.board_set().native_fallbacks();
    EXPECT_EQ(scalar.value() - scalar_before, f.scalar_interactions);
    EXPECT_EQ(replayed.value() - replayed_before, f.replayed_blocks);
    if (!sys.board(0).pipeline().native_simd()) {
      EXPECT_EQ(f.scalar_interactions, 0u);
      EXPECT_EQ(f.replayed_blocks, 0u);
    } else if (shift == 0) {
      EXPECT_EQ(f.scalar_interactions, 0u);
      EXPECT_EQ(f.replayed_blocks, 0u);
    } else {
      EXPECT_GT(f.scalar_interactions, 0u);
    }
  }
  obs::set_enabled(false);
}

TEST(BoardSet, CapacityErrorPoisonsAsyncDevice) {
  // A require_resident job whose list exceeds the particle memory must
  // fail the job on the submitter thread and poison the AsyncDevice:
  // failed() flips, and the error rethrows (typed) on drain().
  const auto src = ic::make_uniform_cube(100, -1.0, 1.0, 1.0, 29);
  auto device = std::make_shared<Grape5Device>(small_config(2, 32));
  device->set_range(-2.0, 2.0, src.mass()[0]);
  device->set_eps(0.02);

  AsyncDevice async(device);
  constexpr std::size_t kNi = 8;
  std::vector<Vec3d> acc(kNi);
  std::vector<double> pot(kNi);
  ForceJob job;
  job.i_pos = std::span<const Vec3d>(src.pos().data(), kNi);
  job.j_pos = src.pos();    // 100 > 64 aggregate capacity
  job.j_mass = src.mass();
  job.acc = acc;
  job.pot = pot;
  job.require_resident = true;
  async.submit(job);
  EXPECT_THROW(async.drain(), JmemCapacityError);
  EXPECT_TRUE(async.failed());

  // Poisoned for good: later jobs complete without running and the
  // first error keeps rethrowing.
  ForceJob ok = job;
  ok.j_pos = std::span<const Vec3d>(src.pos().data(), 16);
  ok.j_mass = std::span<const double>(src.mass().data(), 16);
  async.submit(ok);
  EXPECT_THROW(async.drain(), JmemCapacityError);
}

TEST(BoardSet, ResidentJobWithinCapacityRuns) {
  // The same require_resident path succeeds when the list fits, and
  // matches the synchronous device bitwise.
  const auto src = ic::make_uniform_cube(60, -1.0, 1.0, 1.0, 31);
  auto device = std::make_shared<Grape5Device>(small_config(2, 32));
  device->set_range(-2.0, 2.0, src.mass()[0]);
  device->set_eps(0.02);

  constexpr std::size_t kNi = 8;
  std::vector<Vec3d> acc(kNi);
  std::vector<double> pot(kNi);
  {
    AsyncDevice async(device);
    ForceJob job;
    job.i_pos = std::span<const Vec3d>(src.pos().data(), kNi);
    job.j_pos = src.pos();
    job.j_mass = src.mass();
    job.acc = acc;
    job.pot = pot;
    job.require_resident = true;
    async.submit(job);
    async.drain();
    EXPECT_FALSE(async.failed());
    EXPECT_EQ(job.interactions, 60u * kNi);
  }

  Grape5Device reference(small_config(2, 32));
  reference.set_range(-2.0, 2.0, src.mass()[0]);
  reference.set_eps(0.02);
  reference.set_j(src.pos(), src.mass());
  std::vector<Vec3d> ref_acc(kNi);
  std::vector<double> ref_pot(kNi);
  reference.compute_forces(std::span<const Vec3d>(src.pos().data(), kNi),
                           ref_acc, ref_pot);
  for (std::size_t i = 0; i < kNi; ++i) {
    EXPECT_EQ(acc[i].x, ref_acc[i].x) << i;
    EXPECT_EQ(pot[i], ref_pot[i]) << i;
  }
}

TEST(BoardSet, ConfigureDropsResidentShards) {
  const auto src = ic::make_uniform_cube(20, -1.0, 1.0, 1.0, 37);
  Grape5System sys(small_config(2, 32));
  sys.set_range(-2.0, 2.0, 0.01, 1.0 / 20.0);
  sys.set_j_particles(src.pos(), src.mass());
  EXPECT_EQ(sys.resident_j(), 20u);
  // A new window invalidates the stored words; the set must be empty.
  sys.set_range(-4.0, 4.0, 0.01, 1.0 / 20.0);
  EXPECT_EQ(sys.resident_j(), 0u);
  EXPECT_EQ(sys.board_set().board_j(0), 0u);
}

}  // namespace
