/**
 * @file
 * Unit tests for the NASD object store: allocator, object lifecycle,
 * data paths, quotas, copy-on-write versions, attributes, and
 * mount-from-device persistence.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "nasd/allocator.h"
#include "nasd/drive.h"
#include "nasd/object_store.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace nasd {
namespace {

using sim::Simulator;
using sim::Task;
using util::kKB;
using util::kMB;

// -------------------------------------------------------------- allocator

TEST(Allocator, SingleExtentWhenContiguous)
{
    ExtentAllocator alloc(1000);
    auto r = alloc.allocate(100);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().size(), 1u);
    EXPECT_EQ(r.value()[0], (Extent{0, 100}));
    EXPECT_EQ(alloc.freeUnits(), 900u);
}

TEST(Allocator, HintPlacesAllocation)
{
    ExtentAllocator alloc(1000);
    auto r = alloc.allocate(10, 500);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value()[0].start, 500u);
}

TEST(Allocator, ExhaustionFails)
{
    ExtentAllocator alloc(100);
    ASSERT_TRUE(alloc.allocate(100).ok());
    auto r = alloc.allocate(1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kNoSpace);
}

TEST(Allocator, FreeingMergesRuns)
{
    ExtentAllocator alloc(100);
    auto a = alloc.allocate(50).value();
    auto b = alloc.allocate(50).value();
    alloc.unref(a[0]);
    alloc.unref(b[0]);
    EXPECT_EQ(alloc.freeUnits(), 100u);
    // After merging, a full-size allocation succeeds as one extent.
    auto r = alloc.allocate(100);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().size(), 1u);
}

TEST(Allocator, FragmentedGather)
{
    ExtentAllocator alloc(100);
    auto a = alloc.allocate(30).value();
    auto b = alloc.allocate(30).value();
    auto c = alloc.allocate(30).value();
    (void)b;
    alloc.unref(a[0]); // free [0,30)
    alloc.unref(c[0]); // free [60,90), plus [90,100) never used
    // 50 units must span two fragments ([0,30) and part of [60,100)).
    auto r = alloc.allocate(50);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().size(), 2u);
    std::uint32_t total = 0;
    for (const auto &e : r.value())
        total += e.count;
    EXPECT_EQ(total, 50u);
}

TEST(Allocator, RefcountSharing)
{
    ExtentAllocator alloc(100);
    auto e = alloc.allocate(10).value()[0];
    alloc.ref(e);
    EXPECT_EQ(alloc.refcount(e.start), 2);
    alloc.unref(e);
    EXPECT_EQ(alloc.refcount(e.start), 1);
    EXPECT_EQ(alloc.freeUnits(), 90u); // still allocated
    alloc.unref(e);
    EXPECT_EQ(alloc.freeUnits(), 100u);
}

TEST(Allocator, SerializationRoundTrip)
{
    ExtentAllocator alloc(64);
    auto a = alloc.allocate(10).value();
    auto b = alloc.allocate(20).value();
    alloc.ref(b[0]);
    alloc.unref(a[0]);

    auto restored = ExtentAllocator::fromRefcounts(
        alloc.serializeRefcounts());
    EXPECT_EQ(restored.freeUnits(), alloc.freeUnits());
    EXPECT_EQ(restored.refcount(b[0].start), 2);
    EXPECT_FALSE(restored.isAllocated(0));
}

TEST(Allocator, SharedUnitCountTracksRefcounts)
{
    // Random allocate/ref/unref churn; after every step the O(1)
    // shared-unit count must equal a full scan for refcounts above 1,
    // and a rebuild from the serialized refcounts (what mount does)
    // must count the same.
    ExtentAllocator alloc(256);
    std::vector<Extent> held; // one entry per reference
    util::Rng rng(5);
    const auto scan = [&alloc] {
        std::uint32_t shared = 0;
        for (std::uint32_t u = 0; u < alloc.totalUnits(); ++u)
            shared += alloc.refcount(u) > 1 ? 1 : 0;
        return shared;
    };
    for (int step = 0; step < 2000; ++step) {
        const auto action = rng.below(3);
        if (action == 0 || held.empty()) {
            auto got = alloc.allocate(
                static_cast<std::uint32_t>(1 + rng.below(8)),
                static_cast<std::uint32_t>(rng.below(256)));
            if (got.ok())
                held.insert(held.end(), got.value().begin(),
                            got.value().end());
        } else if (action == 1) {
            const Extent e = held[rng.below(held.size())];
            if (alloc.refcount(e.start) < 200) {
                alloc.ref(e);
                held.push_back(e);
            }
        } else {
            const std::size_t i = rng.below(held.size());
            alloc.unref(held[i]);
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_EQ(alloc.sharedUnits(), scan()) << "step " << step;
        if (step % 100 == 0) {
            EXPECT_EQ(ExtentAllocator::fromRefcounts(
                          alloc.serializeRefcounts())
                          .sharedUnits(),
                      alloc.sharedUnits());
        }
    }
    while (!held.empty()) {
        alloc.unref(held.back());
        held.pop_back();
    }
    EXPECT_EQ(alloc.sharedUnits(), 0u);
    EXPECT_EQ(alloc.freeUnits(), alloc.totalUnits());
}

// ------------------------------------------------------------ object store

struct StoreFixture
{
    StoreFixture()
        : disk(sim, disk::medallistParams()), store(sim, disk, config())
    {
        run(store.format());
        ASSERT_OK(store.createPartition(0, 256 * kMB));
    }

    static StoreConfig
    config()
    {
        StoreConfig c;
        c.max_inodes = 512;
        c.data_cache_bytes = 4 * kMB;
        return c;
    }

    static void
    ASSERT_OK(const util::Result<void, NasdStatus> &r)
    {
        ASSERT_TRUE(r.ok()) << toString(r.error());
    }

    void
    run(Task<void> task)
    {
        sim.spawn(std::move(task));
        sim.run();
    }

    template <typename T>
    T
    runFor(Task<T> task)
    {
        std::optional<T> result;
        sim.spawn([](Task<T> t, std::optional<T> &out) -> Task<void> {
            out = co_await std::move(t);
        }(std::move(task), result));
        sim.run();
        return std::move(*result);
    }

    std::vector<std::uint8_t>
    pattern(std::size_t n, std::uint8_t seed = 1)
    {
        std::vector<std::uint8_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint8_t>(seed + i * 13);
        return v;
    }

    Simulator sim;
    disk::DiskModel disk;
    ObjectStore store;
};

class ObjectStoreTest : public ::testing::Test, public StoreFixture
{};

TEST_F(ObjectStoreTest, CreateAssignsUserIds)
{
    auto r = runFor(store.createObject(0, 0, nullptr));
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value(), kFirstUserObject);
    auto r2 = runFor(store.createObject(0, 0, nullptr));
    ASSERT_TRUE(r2.ok());
    EXPECT_NE(r.value(), r2.value());
}

TEST_F(ObjectStoreTest, CreateInMissingPartitionFails)
{
    auto r = runFor(store.createObject(7, 0, nullptr));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kNoSuchPartition);
}

TEST_F(ObjectStoreTest, WriteReadRoundTrip)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    const auto data = pattern(100 * kKB);
    ASSERT_TRUE(runFor(store.write(0, oid, 0, data, nullptr)).ok());

    std::vector<std::uint8_t> out(100 * kKB);
    auto n = runFor(store.read(0, oid, 0, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 100 * kKB);
    EXPECT_EQ(out, data);
}

TEST_F(ObjectStoreTest, ReadAtOffset)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    const auto data = pattern(64 * kKB, 7);
    ASSERT_TRUE(runFor(store.write(0, oid, 0, data, nullptr)).ok());

    std::vector<std::uint8_t> out(1000);
    auto n = runFor(store.read(0, oid, 12345, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(out[i], data[12345 + i]);
}

TEST_F(ObjectStoreTest, ReadClampsAtSize)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(runFor(store.write(0, oid, 0, pattern(100), nullptr)).ok());
    std::vector<std::uint8_t> out(1000);
    auto n = runFor(store.read(0, oid, 50, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 50u);
}

TEST_F(ObjectStoreTest, ReadPastEndReturnsZeroBytes)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    std::vector<std::uint8_t> out(10);
    auto n = runFor(store.read(0, oid, 0, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 0u);
}

TEST_F(ObjectStoreTest, SparseWriteLeavesZeroGap)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    // Write beyond a hole; the gap reads back as zeros.
    ASSERT_TRUE(
        runFor(store.write(0, oid, 64 * kKB, pattern(100), nullptr)).ok());
    std::vector<std::uint8_t> out(100);
    auto n = runFor(store.read(0, oid, 1000, out, nullptr));
    ASSERT_TRUE(n.ok());
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST_F(ObjectStoreTest, OverwriteInPlace)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(32 * kKB, 1), nullptr)).ok());
    const auto patch = pattern(5000, 99);
    ASSERT_TRUE(runFor(store.write(0, oid, 10000, patch, nullptr)).ok());

    std::vector<std::uint8_t> out(5000);
    (void)runFor(store.read(0, oid, 10000, out, nullptr));
    EXPECT_EQ(out, patch);
    // Size unchanged by the interior overwrite.
    auto attrs = runFor(store.getAttributes(0, oid, nullptr));
    EXPECT_EQ(attrs.value().size, 32 * kKB);
}

TEST_F(ObjectStoreTest, AttributesTrackWrites)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    auto before = runFor(store.getAttributes(0, oid, nullptr)).value();
    EXPECT_EQ(before.size, 0u);
    EXPECT_EQ(before.version, 1u);

    ASSERT_TRUE(runFor(store.write(0, oid, 0, pattern(10000), nullptr)).ok());
    auto after = runFor(store.getAttributes(0, oid, nullptr)).value();
    EXPECT_EQ(after.size, 10000u);
    EXPECT_GE(after.modify_time, before.modify_time);
}

TEST_F(ObjectStoreTest, SetAttrVersionBump)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    SetAttrRequest req;
    req.bump_version = true;
    auto attrs = runFor(store.setAttributes(0, oid, req, nullptr));
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs.value().version, 2u);
}

TEST_F(ObjectStoreTest, SetAttrFsSpecificRoundTrip)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    SetAttrRequest req;
    std::array<std::uint8_t, kFsSpecificBytes> blob{};
    blob[0] = 0xab;
    blob[63] = 0xcd;
    req.fs_specific = blob;
    ASSERT_TRUE(runFor(store.setAttributes(0, oid, req, nullptr)).ok());
    auto attrs = runFor(store.getAttributes(0, oid, nullptr)).value();
    EXPECT_EQ(attrs.fs_specific[0], 0xab);
    EXPECT_EQ(attrs.fs_specific[63], 0xcd);
}

TEST_F(ObjectStoreTest, TruncateFreesSpace)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(256 * kKB), nullptr)).ok());
    const auto used_before = store.partitionInfo(0).value().used_bytes;

    SetAttrRequest req;
    req.truncate_size = 8 * kKB;
    ASSERT_TRUE(runFor(store.setAttributes(0, oid, req, nullptr)).ok());
    const auto used_after = store.partitionInfo(0).value().used_bytes;
    EXPECT_LT(used_after, used_before);

    auto attrs = runFor(store.getAttributes(0, oid, nullptr)).value();
    EXPECT_EQ(attrs.size, 8 * kKB);
}

TEST_F(ObjectStoreTest, CapacityReservationAllocates)
{
    const auto free_before = store.freeUnits();
    auto r = runFor(store.createObject(0, 1 * kMB, nullptr));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(store.freeUnits(), free_before - 128); // 1 MB / 8 KB
}

TEST_F(ObjectStoreTest, QuotaEnforced)
{
    ASSERT_OK(store.createPartition(1, 64 * kKB)); // 8 units
    const ObjectId oid = runFor(store.createObject(1, 0, nullptr)).value();
    // 64 KB fits exactly.
    ASSERT_TRUE(
        runFor(store.write(1, oid, 0, pattern(64 * kKB), nullptr)).ok());
    // One more byte exceeds the quota.
    auto r = runFor(store.write(1, oid, 64 * kKB, pattern(1), nullptr));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kQuotaExceeded);
}

TEST_F(ObjectStoreTest, ResizePartitionLiftsQuota)
{
    ASSERT_OK(store.createPartition(1, 64 * kKB));
    const ObjectId oid = runFor(store.createObject(1, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(1, oid, 0, pattern(64 * kKB), nullptr)).ok());
    ASSERT_OK(store.resizePartition(1, 128 * kKB));
    EXPECT_TRUE(
        runFor(store.write(1, oid, 64 * kKB, pattern(kKB), nullptr)).ok());
}

TEST_F(ObjectStoreTest, ResizeBelowUsageFails)
{
    ASSERT_OK(store.createPartition(1, 128 * kKB));
    const ObjectId oid = runFor(store.createObject(1, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(1, oid, 0, pattern(128 * kKB), nullptr)).ok());
    auto r = store.resizePartition(1, 8 * kKB);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kQuotaExceeded);
}

TEST_F(ObjectStoreTest, RemoveReleasesSpace)
{
    const auto free_before = store.freeUnits();
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(512 * kKB), nullptr)).ok());
    EXPECT_LT(store.freeUnits(), free_before);
    ASSERT_TRUE(runFor(store.removeObject(0, oid, nullptr)).ok());
    EXPECT_EQ(store.freeUnits(), free_before);

    std::vector<std::uint8_t> out(10);
    auto r = runFor(store.read(0, oid, 0, out, nullptr));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kNoSuchObject);
}

TEST_F(ObjectStoreTest, RemovePartitionRequiresEmpty)
{
    ASSERT_OK(store.createPartition(1, kMB));
    const ObjectId oid = runFor(store.createObject(1, 0, nullptr)).value();
    auto r = store.removePartition(1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kPartitionNotEmpty);
    ASSERT_TRUE(runFor(store.removeObject(1, oid, nullptr)).ok());
    EXPECT_TRUE(store.removePartition(1).ok());
}

TEST_F(ObjectStoreTest, ListObjectsEnumeratesPartition)
{
    std::vector<ObjectId> created;
    for (int i = 0; i < 5; ++i)
        created.push_back(runFor(store.createObject(0, 0, nullptr)).value());
    auto listed = runFor(store.listObjects(0, nullptr));
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed.value(), created);
}

TEST_F(ObjectStoreTest, PartitionsIsolateNamespaces)
{
    ASSERT_OK(store.createPartition(1, kMB));
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    std::vector<std::uint8_t> out(10);
    auto r = runFor(store.read(1, oid, 0, out, nullptr));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), NasdStatus::kNoSuchObject);
}

// ------------------------------------------------------------------- COW

TEST_F(ObjectStoreTest, CloneSharesSpace)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(256 * kKB), nullptr)).ok());
    const auto free_before = store.freeUnits();
    auto clone = runFor(store.cloneVersion(0, oid, nullptr));
    ASSERT_TRUE(clone.ok());
    EXPECT_EQ(store.freeUnits(), free_before); // no data copied

    std::vector<std::uint8_t> out(256 * kKB);
    (void)runFor(store.read(0, clone.value(), 0, out, nullptr));
    EXPECT_EQ(out, pattern(256 * kKB));
}

TEST_F(ObjectStoreTest, WriteToCloneLeavesOriginalIntact)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    const auto original = pattern(64 * kKB, 1);
    ASSERT_TRUE(runFor(store.write(0, oid, 0, original, nullptr)).ok());
    const ObjectId clone =
        runFor(store.cloneVersion(0, oid, nullptr)).value();

    const auto patch = pattern(8 * kKB, 200);
    ASSERT_TRUE(runFor(store.write(0, clone, 0, patch, nullptr)).ok());

    std::vector<std::uint8_t> out(8 * kKB);
    (void)runFor(store.read(0, oid, 0, out, nullptr));
    EXPECT_EQ(out, std::vector<std::uint8_t>(original.begin(),
                                             original.begin() + 8 * kKB));
    (void)runFor(store.read(0, clone, 0, out, nullptr));
    EXPECT_EQ(out, patch);
}

TEST_F(ObjectStoreTest, WriteToOriginalLeavesCloneIntact)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    const auto original = pattern(64 * kKB, 1);
    ASSERT_TRUE(runFor(store.write(0, oid, 0, original, nullptr)).ok());
    const ObjectId clone =
        runFor(store.cloneVersion(0, oid, nullptr)).value();

    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(8 * kKB, 200), nullptr)).ok());

    std::vector<std::uint8_t> out(64 * kKB);
    (void)runFor(store.read(0, clone, 0, out, nullptr));
    EXPECT_EQ(out, original);
}

TEST_F(ObjectStoreTest, RemoveCloneKeepsOriginalData)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    const auto original = pattern(64 * kKB, 1);
    ASSERT_TRUE(runFor(store.write(0, oid, 0, original, nullptr)).ok());
    const ObjectId clone =
        runFor(store.cloneVersion(0, oid, nullptr)).value();
    ASSERT_TRUE(runFor(store.removeObject(0, clone, nullptr)).ok());

    std::vector<std::uint8_t> out(64 * kKB);
    (void)runFor(store.read(0, oid, 0, out, nullptr));
    EXPECT_EQ(out, original);
}

TEST_F(ObjectStoreTest, WriteToSharedExtentRelocatesUntilCloneRemoved)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(64 * kKB, 1), nullptr)).ok());
    const ObjectId clone =
        runFor(store.cloneVersion(0, oid, nullptr)).value();

    // The extent is shared, so a write to the clone copies it to fresh
    // units.
    auto free_before = store.freeUnits();
    ASSERT_TRUE(
        runFor(store.write(0, clone, 0, pattern(8 * kKB, 2), nullptr)).ok());
    EXPECT_LT(store.freeUnits(), free_before);

    // Re-share, then drop the clone: nothing is shared any more, and a
    // write lands in place.
    const ObjectId clone2 =
        runFor(store.cloneVersion(0, oid, nullptr)).value();
    ASSERT_TRUE(runFor(store.removeObject(0, clone2, nullptr)).ok());
    free_before = store.freeUnits();
    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(8 * kKB, 3), nullptr)).ok());
    EXPECT_EQ(store.freeUnits(), free_before);

    std::vector<std::uint8_t> out(8 * kKB);
    (void)runFor(store.read(0, oid, 0, out, nullptr));
    EXPECT_EQ(out, pattern(8 * kKB, 3));
    (void)runFor(store.read(0, clone, 0, out, nullptr));
    EXPECT_EQ(out, pattern(8 * kKB, 2));
}

// ------------------------------------------------------------- persistence

TEST_F(ObjectStoreTest, MountRebuildsState)
{
    ASSERT_OK(store.createPartition(3, 16 * kMB));
    const ObjectId oid = runFor(store.createObject(3, 0, nullptr)).value();
    const auto data = pattern(100 * kKB, 42);
    ASSERT_TRUE(runFor(store.write(3, oid, 0, data, nullptr)).ok());
    SetAttrRequest req;
    req.bump_version = true;
    ASSERT_TRUE(runFor(store.setAttributes(3, oid, req, nullptr)).ok());
    run(store.flushAll());

    // A second store instance on the same device must see everything.
    ObjectStore reborn(sim, disk, config());
    run(reborn.mount());
    auto info = reborn.partitionInfo(3);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().object_count, 1u);

    auto attrs = runFor(reborn.getAttributes(3, oid, nullptr));
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs.value().size, 100 * kKB);
    EXPECT_EQ(attrs.value().version, 2u);

    std::vector<std::uint8_t> out(100 * kKB);
    auto n = runFor(reborn.read(3, oid, 0, out, nullptr));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data);
}

TEST_F(ObjectStoreTest, MountPreservesAllocatorState)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(512 * kKB), nullptr)).ok());
    const auto free_before = store.freeUnits();
    run(store.flushAll());

    ObjectStore reborn(sim, disk, config());
    run(reborn.mount());
    EXPECT_EQ(reborn.freeUnits(), free_before);

    // New allocations in the reborn store must not collide: write to a
    // fresh object and confirm the old object's data is untouched.
    const ObjectId fresh = runFor(reborn.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(runFor(
        reborn.write(0, fresh, 0, pattern(512 * kKB, 77), nullptr)).ok());
    std::vector<std::uint8_t> out(512 * kKB);
    (void)runFor(reborn.read(0, oid, 0, out, nullptr));
    EXPECT_EQ(out, pattern(512 * kKB));
}

TEST_F(ObjectStoreTest, MountKeepsCloneSharing)
{
    // Sharing is rebuilt from the on-disk refcounts: after a remount, a
    // write to the clone must still copy, leaving the original intact.
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    const auto original = pattern(64 * kKB, 1);
    ASSERT_TRUE(runFor(store.write(0, oid, 0, original, nullptr)).ok());
    const ObjectId clone =
        runFor(store.cloneVersion(0, oid, nullptr)).value();
    run(store.flushAll());

    ObjectStore reborn(sim, disk, config());
    run(reborn.mount());
    const auto free_before = reborn.freeUnits();
    ASSERT_TRUE(runFor(
        reborn.write(0, clone, 0, pattern(8 * kKB, 200), nullptr)).ok());
    EXPECT_LT(reborn.freeUnits(), free_before);
    std::vector<std::uint8_t> out(64 * kKB);
    (void)runFor(reborn.read(0, oid, 0, out, nullptr));
    EXPECT_EQ(out, original);
}

// -------------------------------------------------------------- cost trace

TEST_F(ObjectStoreTest, TraceReportsMetaMissOnceThenWarm)
{
    StoreConfig small = config();
    small.meta_cache_inodes = 4;
    // Fresh store so the cache is empty.
    ObjectStore cold_store(sim, disk, small);
    run(cold_store.format());
    ASSERT_TRUE(cold_store.createPartition(0, 64 * kMB).ok());
    const ObjectId oid =
        runFor(cold_store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(cold_store.write(0, oid, 0, pattern(kKB), nullptr)).ok());

    // Evict by touching other inodes.
    for (int i = 0; i < 6; ++i) {
        const auto other =
            runFor(cold_store.createObject(0, 0, nullptr)).value();
        (void)runFor(cold_store.getAttributes(0, other, nullptr));
    }

    OpTrace t1;
    std::vector<std::uint8_t> out(kKB);
    (void)runFor(cold_store.read(0, oid, 0, out, &t1));
    EXPECT_TRUE(t1.meta_miss);

    OpTrace t2;
    (void)runFor(cold_store.read(0, oid, 0, out, &t2));
    EXPECT_FALSE(t2.meta_miss);
    EXPECT_GT(t2.cache_hit_bytes, 0u);
}

TEST_F(ObjectStoreTest, SecondReadHitsDriveCache)
{
    const ObjectId oid = runFor(store.createObject(0, 0, nullptr)).value();
    ASSERT_TRUE(
        runFor(store.write(0, oid, 0, pattern(64 * kKB), nullptr)).ok());

    std::vector<std::uint8_t> out(64 * kKB);
    OpTrace trace;
    (void)runFor(store.read(0, oid, 0, out, &trace));
    // Just written: everything resident.
    EXPECT_EQ(trace.device_bytes_read, 0u);
    EXPECT_EQ(trace.cache_hit_bytes, 64 * kKB);
}


// ------------------------------------------------------- host footprint

TEST(NasdStore, FormatMaterializesNoZeroChunks)
{
    // A prototype drive: two disks behind the striping driver. Format
    // zeroes the refcount and inode regions (charged as full-size
    // writes) but must not allocate host memory for those zeros; only
    // the superblock's chunk is materialised.
    const DriveConfig cfg = prototypeDriveConfig("nasd0", 0);
    Simulator sim;
    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    std::vector<disk::BlockDevice *> members;
    for (int i = 0; i < cfg.num_disks; ++i) {
        disks.push_back(
            std::make_unique<disk::DiskModel>(sim, cfg.disk_params));
        members.push_back(disks.back().get());
    }
    disk::StripingDriver striped(sim, members, cfg.stripe_unit_bytes);
    ObjectStore store(sim, striped, cfg.store);
    sim.spawn(store.format());
    sim.run();

    constexpr std::size_t chunk = 64 * kKB; // SparseStore's default granule
    std::size_t total = 0;
    for (const auto &d : disks) {
        EXPECT_LE(d->backingBytes(), chunk);
        total += d->backingBytes();
    }
    EXPECT_EQ(total, chunk); // the superblock
    // The format was still charged: every region was written.
    EXPECT_GT(disks[0]->stats().media_blocks_written.value() +
                  disks[1]->stats().media_blocks_written.value(),
              std::uint64_t{cfg.store.max_inodes});
}

} // namespace
} // namespace nasd
