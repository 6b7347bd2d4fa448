/**
 * @file
 * Unit tests for the disk substrate: sparse store, mechanical timing,
 * cache/readahead behaviour, write-behind, and the striping driver.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/sparse_store.h"
#include "util/units.h"

namespace nasd::disk {
namespace {

using sim::Simulator;
using sim::Task;
using sim::Tick;
using util::kKB;
using util::kMB;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

// ---------------------------------------------------------------- sparse

TEST(SparseStore, UnwrittenReadsZero)
{
    util::SparseStore store;
    std::vector<std::uint8_t> buf(100, 0xff);
    store.read(12345, buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(store.allocatedBytes(), 0u);
}

TEST(SparseStore, WriteReadRoundTrip)
{
    util::SparseStore store(4096);
    const auto data = pattern(10000);
    store.write(777, data);
    std::vector<std::uint8_t> out(10000);
    store.read(777, out);
    EXPECT_EQ(out, data);
}

TEST(SparseStore, CrossChunkBoundary)
{
    util::SparseStore store(4096);
    const auto data = pattern(100);
    store.write(4096 - 50, data); // straddles two chunks
    std::vector<std::uint8_t> out(100);
    store.read(4096 - 50, out);
    EXPECT_EQ(out, data);
    EXPECT_EQ(store.allocatedBytes(), 2 * 4096u);
}

TEST(SparseStore, TrimFreesWholeChunks)
{
    util::SparseStore store(4096);
    store.write(0, pattern(4096 * 3));
    EXPECT_EQ(store.allocatedBytes(), 3 * 4096u);
    store.trim(0, 4096);
    EXPECT_EQ(store.allocatedBytes(), 2 * 4096u);
    std::vector<std::uint8_t> out(10);
    store.read(0, out);
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST(SparseStore, PartialTrimZeroes)
{
    util::SparseStore store(4096);
    store.write(0, pattern(4096));
    store.trim(100, 50);
    std::vector<std::uint8_t> out(4096);
    store.read(0, out);
    const auto orig = pattern(4096);
    EXPECT_EQ(out[99], orig[99]);
    for (int i = 100; i < 150; ++i)
        EXPECT_EQ(out[i], 0);
    EXPECT_EQ(out[150], orig[150]);
}

TEST(SparseStore, ZeroOnAbsentChunkAllocatesNothing)
{
    util::SparseStore store(4096);
    store.trim(100, 50); // partial zero of an absent chunk
    EXPECT_EQ(store.allocatedBytes(), 0u);
    store.write(0, pattern(4096));
    store.trim(4096 + 10, 100); // chunk 1 is absent
    store.trim(2 * 4096, 3 * 4096); // whole absent chunks
    EXPECT_EQ(store.allocatedBytes(), 4096u);
    std::vector<std::uint8_t> out(3 * 4096, 0xff);
    store.read(4096, out);
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

// ----------------------------------------------------------------- disk

/** Run one task to completion and return the elapsed simulated time. */
Tick
timed(Simulator &sim, Task<void> task)
{
    const Tick start = sim.now();
    sim.spawn(std::move(task));
    sim.run();
    return sim.now() - start;
}

TEST(DiskParams, DerivedQuantities)
{
    const auto p = medallistParams();
    EXPECT_NEAR(p.mediaBytesPerSec(), 90.0 * 100 * 512, 1.0);
    EXPECT_NEAR(p.rotationPeriodNs(), 60.0 / 5400 * 1e9, 1.0);
    EXPECT_GT(p.totalBlocks() * 512ull, 2000ull * kMB);
}

TEST(DiskModel, SeekTimeCurve)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    const auto &p = disk.params();
    EXPECT_EQ(disk.seekTime(100, 100), 0u);
    EXPECT_GE(disk.seekTime(0, 1), sim::msec(p.track_to_track_ms));
    // One-third stroke lands near the advertised average.
    const Tick third = disk.seekTime(0, p.cylinders / 3);
    EXPECT_NEAR(sim::toMillis(third), p.avg_seek_ms, 0.5);
    // Full stroke respects the maximum.
    EXPECT_LE(disk.seekTime(0, p.cylinders - 1),
              sim::msec(p.max_seek_ms) + 1);
    // Monotone in distance.
    EXPECT_LT(disk.seekTime(0, 10), disk.seekTime(0, 1000));
}

TEST(DiskModel, DataRoundTrip)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    const auto data = pattern(8 * 512);
    timed(sim, disk.write(100, 8, data));
    std::vector<std::uint8_t> out(8 * 512);
    timed(sim, disk.read(100, 8, out));
    EXPECT_EQ(out, data);
}

TEST(DiskModel, ColdReadCostsMechanicalTime)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    std::vector<std::uint8_t> out(512);
    const Tick t = timed(sim, disk.read(1000000, 1, out));
    // Must include at least a seek and some rotation.
    EXPECT_GT(t, sim::msec(2));
    EXPECT_EQ(disk.stats().cache_misses.value(), 1u);
}

TEST(DiskModel, SequentialReadHitsReadahead)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    std::vector<std::uint8_t> out(16 * 512);
    (void)timed(sim, disk.read(0, 16, out)); // cold: loads + readahead
    const Tick t2 = timed(sim, disk.read(16, 16, out)); // prefetched
    EXPECT_EQ(disk.stats().cache_hits.value(), 1u);
    // A hit costs overhead + bus, but no seek: well under 5 ms.
    EXPECT_LT(t2, sim::msec(5));
}

TEST(DiskModel, RandomReadsDoNotHit)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    std::vector<std::uint8_t> out(512);
    (void)timed(sim, disk.read(0, 1, out));
    (void)timed(sim, disk.read(2000000, 1, out));
    (void)timed(sim, disk.read(500000, 1, out));
    EXPECT_EQ(disk.stats().cache_hits.value(), 0u);
    EXPECT_EQ(disk.stats().cache_misses.value(), 3u);
}

TEST(DiskModel, WriteBehindAcksFast)
{
    Simulator sim;
    auto params = medallistParams();
    DiskModel disk(sim, params);
    const auto data = pattern(64 * 1024);
    const Tick t = timed(sim, disk.write(0, 128, data));
    // Ack after overhead + bus transfer (~13 ms at 5 MB/s), long before
    // media drain completes.
    EXPECT_LT(t, sim::msec(16));
}

TEST(DiskModel, WriteThroughWaitsForMedia)
{
    Simulator sim;
    auto params = medallistParams();
    params.write_behind = false;
    DiskModel disk(sim, params);
    const auto data = pattern(64 * 1024);
    const Tick t = timed(sim, disk.write(0, 128, data));
    // Media transfer alone is ~14 ms plus bus ~13 ms plus positioning.
    EXPECT_GT(t, sim::msec(25));
}

TEST(DiskModel, SustainedWritesThrottleToMediaRate)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    // Write 8 MB in 256 KB chunks; buffer is 512 KB so the stream must
    // throttle to the drain rate.
    const auto chunk = pattern(256 * 1024);
    const Tick start = sim.now();
    for (int i = 0; i < 32; ++i)
        (void)timed(sim, disk.write(i * 512ull, 512, chunk));
    const double secs = sim::toSeconds(sim.now() - start);
    const double mbs = 8.0 / secs;
    // Drain rate is ~75% of 4.6 MB/s media: expect 3-5 MB/s apparent.
    EXPECT_GT(mbs, 2.5);
    EXPECT_LT(mbs, 5.0);
}

TEST(DiskModel, FlushDrainsBacklog)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    const auto data = pattern(256 * 1024);
    (void)timed(sim, disk.write(0, 512, data));
    const Tick t = timed(sim, disk.flush());
    EXPECT_GT(t, sim::msec(10)); // 256 KB at ~3.5 MB/s drain
}

TEST(DiskModel, WriteInvalidatesCache)
{
    Simulator sim;
    DiskModel disk(sim, medallistParams());
    std::vector<std::uint8_t> out(512);
    (void)timed(sim, disk.read(10, 1, out));
    const auto data = pattern(512, 99);
    (void)timed(sim, disk.write(10, 1, data));
    (void)timed(sim, disk.read(10, 1, out));
    EXPECT_EQ(out, data); // sees new data
}

TEST(DiskModel, BarracudaCachedSectorNearPaperNumber)
{
    Simulator sim;
    DiskModel disk(sim, barracudaParams());
    std::vector<std::uint8_t> out(512);
    (void)timed(sim, disk.read(0, 1, out)); // cold
    // Sequential cached single-sector reads: paper reports 0.30 ms.
    const Tick t = timed(sim, disk.read(1, 1, out));
    EXPECT_EQ(disk.stats().cache_hits.value(), 1u);
    EXPECT_NEAR(sim::toMillis(t), 0.30, 0.1);
}

TEST(DiskModel, BarracudaRandomSectorNearPaperNumber)
{
    Simulator sim;
    DiskModel disk(sim, barracudaParams());
    std::vector<std::uint8_t> out(512);
    // Average several random reads; paper reports 9.4 ms.
    constexpr int kReads = 8;
    double sum_ms = 0.0;
    const std::uint64_t stride = 997 * 1000;
    for (int i = 1; i <= kReads; ++i) {
        const Tick t = timed(
            sim, disk.read((i * stride) % disk.numBlocks(), 1, out));
        sum_ms += sim::toMillis(t);
    }
    EXPECT_NEAR(sum_ms / kReads, 9.4, 2.0);
}

// -------------------------------------------------------------- striping

TEST(Striping, GeometryAndCapacity)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    EXPECT_EQ(stripe.blockSize(), 512u);
    EXPECT_EQ(stripe.numBlocks(), 2 * d0.numBlocks());
    EXPECT_EQ(stripe.stripeUnitBytes(), 32 * kKB);
}

TEST(Striping, RoundTripAcrossUnits)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);

    // 200 KB spans several stripe units on both disks.
    const auto data = pattern(200 * 1024, 3);
    timed(sim, stripe.write(64, 400, data));
    std::vector<std::uint8_t> out(200 * 1024);
    timed(sim, stripe.read(64, 400, out));
    EXPECT_EQ(out, data);
}

TEST(Striping, LargeReadUsesBothDisks)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    std::vector<std::uint8_t> out(512 * 1024);
    timed(sim, stripe.read(0, 1024, out));
    EXPECT_GT(d0.stats().reads.value(), 0u);
    EXPECT_GT(d1.stats().reads.value(), 0u);
    // Coalescing: each disk should see exactly one request.
    EXPECT_EQ(d0.stats().reads.value(), 1u);
    EXPECT_EQ(d1.stats().reads.value(), 1u);
}

TEST(Striping, ParallelismBeatsSingleDisk)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    DiskModel solo(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);

    std::vector<std::uint8_t> out(512 * 1024);
    const Tick striped = timed(sim, stripe.read(0, 1024, out));
    const Tick single = timed(sim, solo.read(0, 1024, out));
    EXPECT_LT(striped, single);
    // Roughly 2x for large sequential reads.
    EXPECT_LT(striped, single * 3 / 4);
}

TEST(Striping, SmallReadTouchesOneDisk)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    std::vector<std::uint8_t> out(4 * 1024);
    timed(sim, stripe.read(0, 8, out)); // inside the first unit
    EXPECT_EQ(d0.stats().reads.value() + d1.stats().reads.value(), 1u);
}

TEST(Striping, SequentialApparentBandwidthNearPaperRawRead)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);

    // Sequential 512 KB reads, single outstanding request, as in the
    // Figure 6 raw-read measurement: paper reports ~5 MB/s.
    std::vector<std::uint8_t> out(512 * 1024);
    const Tick start = sim.now();
    for (int i = 0; i < 8; ++i)
        timed(sim, stripe.read(i * 1024ull, 1024, out));
    const double mbs =
        4.0 / sim::toSeconds(sim.now() - start); // 4 MB total
    EXPECT_GT(mbs, 3.5);
    EXPECT_LT(mbs, 7.0);
}

// ------------------------------------------------ timing-only operations

/** How a script op reaches the device: the composed read()/write(), or
 *  readTimed() + peek() and poke() + writeTimed(). */
enum class Path
{
    kComposed,
    kTimed,
};

struct ScriptOp
{
    bool write;
    std::uint64_t block;
    std::uint32_t count;
    Tick start;
};

struct OpOutcome
{
    Tick done = 0;
    util::OpAttribution attr;
    std::vector<std::uint8_t> bytes; ///< what a read saw at completion
};

/** One script op on @p dev, started at op.start, with attribution. */
Task<void>
runOp(Simulator &sim, BlockDevice &dev, ScriptOp op, Path path,
      OpOutcome &o)
{
    co_await sim.delay(op.start);
    const std::size_t bytes =
        static_cast<std::size_t>(op.count) * dev.blockSize();
    const std::uint64_t at = op.block * dev.blockSize();
    if (op.write) {
        const auto data = pattern(bytes, static_cast<std::uint8_t>(op.block));
        if (path == Path::kComposed) {
            co_await dev.write(op.block, op.count, data, &o.attr);
        } else {
            dev.poke(at, data);
            co_await dev.writeTimed(op.block, op.count, &o.attr);
        }
    } else {
        o.bytes.resize(bytes);
        if (path == Path::kComposed) {
            co_await dev.read(op.block, op.count, o.bytes, &o.attr);
        } else {
            co_await dev.readTimed(op.block, op.count, &o.attr);
            dev.peek(at, o.bytes);
        }
    }
    o.done = sim.now();
}

/** Start every op of @p ops concurrently on @p dev and run to
 *  quiescence. */
std::vector<OpOutcome>
runScript(Simulator &sim, BlockDevice &dev, const std::vector<ScriptOp> &ops,
          Path path)
{
    std::vector<OpOutcome> out(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        sim.spawn(runOp(sim, dev, ops[i], path, out[i]));
    sim.run();
    return out;
}

std::vector<std::uint64_t>
counters(const DiskModel &d)
{
    const DiskStats &s = d.stats();
    return {s.reads.value(),          s.writes.value(),
            s.cache_hits.value(),     s.cache_misses.value(),
            s.media_blocks_read.value(), s.media_blocks_written.value(),
            s.seeks.value(),          s.bus_wait_ns.value(),
            s.bus_service_ns.value(), s.mech_wait_ns.value(),
            s.mech_service_ns.value()};
}

void
expectSameOutcomes(const std::vector<OpOutcome> &a,
                   const std::vector<OpOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        EXPECT_EQ(a[i].done, b[i].done);
        EXPECT_EQ(a[i].attr.wait_ns, b[i].attr.wait_ns);
        EXPECT_EQ(a[i].attr.service_ns, b[i].attr.service_ns);
        EXPECT_EQ(a[i].bytes, b[i].bytes);
    }
}

/** Overlapping reads and writes: queueing on bus and mechanism, cache
 *  hits, readahead streaming, seeks, and write invalidation. */
std::vector<ScriptOp>
mixedScript()
{
    return {
        {true, 0, 64, 0},
        {false, 0, 64, 0},
        {false, 40000, 128, sim::usec(10)},
        {false, 64, 64, sim::msec(40)},
        {true, 100, 16, sim::msec(41)},
        {false, 96, 32, sim::msec(42)},
        {true, 2000, 1024, sim::msec(60)},
        {true, 3024, 1024, sim::msec(60)},
        {false, 2000, 300, sim::msec(300)},
    };
}

TEST(DiskModel, TimedOpsMatchComposedOps)
{
    for (const bool write_behind : {true, false}) {
        SCOPED_TRACE(write_behind ? "write-behind" : "write-through");
        auto params = medallistParams();
        params.write_behind = write_behind;
        Simulator sim_a;
        Simulator sim_b;
        DiskModel a(sim_a, params);
        DiskModel b(sim_b, params);
        const auto got_a = runScript(sim_a, a, mixedScript(),
                                     Path::kComposed);
        const auto got_b = runScript(sim_b, b, mixedScript(), Path::kTimed);
        expectSameOutcomes(got_a, got_b);
        EXPECT_EQ(sim_a.now(), sim_b.now());
        EXPECT_EQ(counters(a), counters(b));
        EXPECT_EQ(a.backingBytes(), b.backingBytes());
    }
}

TEST(Striping, TimedOpsMatchComposedOpsAcrossExtents)
{
    Simulator sim_a;
    Simulator sim_b;
    DiskModel a0(sim_a, medallistParams());
    DiskModel a1(sim_a, medallistParams());
    DiskModel b0(sim_b, medallistParams());
    DiskModel b1(sim_b, medallistParams());
    StripingDriver a(sim_a, {&a0, &a1}, 32 * kKB);
    StripingDriver b(sim_b, {&b0, &b1}, 32 * kKB);
    // 32 + 300 blocks of 64-block units: two extents, each coalescing
    // several stripe-unit pieces, so every op takes the normalised
    // fan-out path.
    const std::vector<ScriptOp> ops = {
        {true, 32, 300, 0},
        {false, 32, 300, 0},
        {false, 0, 1024, sim::msec(5)},
        {true, 500, 200, sim::msec(90)},
        {false, 448, 320, sim::msec(91)},
    };
    const auto got_a = runScript(sim_a, a, ops, Path::kComposed);
    const auto got_b = runScript(sim_b, b, ops, Path::kTimed);
    expectSameOutcomes(got_a, got_b);
    for (const auto &o : got_b)
        EXPECT_GT(o.attr.totalNs(), 0u);
    EXPECT_EQ(sim_a.now(), sim_b.now());
    EXPECT_EQ(counters(a0), counters(b0));
    EXPECT_EQ(counters(a1), counters(b1));
}

TEST(Striping, ExtentsLandCallerBytesOnTheRightMembers)
{
    Simulator sim;
    DiskModel d0(sim, medallistParams());
    DiskModel d1(sim, medallistParams());
    StripingDriver stripe(sim, {&d0, &d1}, 32 * kKB);
    constexpr std::size_t kUnit = 32 * kKB;

    // Blocks 32..96 are one piece per member: the second half of unit
    // 0 (disk 0) and the first half of unit 1 (disk 1).
    const auto one_piece = pattern(kUnit, 5);
    timed(sim, stripe.write(32, 64, one_piece));
    std::vector<std::uint8_t> half(kUnit / 2);
    d0.peek(kUnit / 2, half);
    EXPECT_TRUE(std::equal(half.begin(), half.end(), one_piece.begin()));
    d1.peek(0, half);
    EXPECT_TRUE(std::equal(half.begin(), half.end(),
                           one_piece.begin() + kUnit / 2));
    std::vector<std::uint8_t> out(kUnit);
    timed(sim, stripe.read(32, 64, out));
    EXPECT_EQ(out, one_piece);

    // Units 4..7: each member's extent coalesces two pieces that are
    // not adjacent in the caller's buffer.
    const auto multi = pattern(4 * kUnit, 9);
    timed(sim, stripe.write(4 * 64, 4 * 64, multi));
    std::vector<std::uint8_t> unit(kUnit);
    for (std::size_t u = 0; u < 4; ++u) {
        DiskModel &member = u % 2 == 0 ? d0 : d1;
        member.peek((2 + u / 2) * kUnit, unit);
        EXPECT_TRUE(std::equal(unit.begin(), unit.end(),
                               multi.begin() + u * kUnit))
            << "unit " << u;
    }
    out.resize(4 * kUnit);
    timed(sim, stripe.read(4 * 64, 4 * 64, out));
    EXPECT_EQ(out, multi);
    // The one-piece range was left alone.
    out.resize(kUnit);
    timed(sim, stripe.read(32, 64, out));
    EXPECT_EQ(out, one_piece);
}

} // namespace
} // namespace nasd::disk
