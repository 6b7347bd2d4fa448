/**
 * @file
 * Tests for the application layer: transaction generation, Apriori
 * mining kernels (including a property-style sweep over dataset
 * parameters), and the Andrew workload over both filesystems.
 */
#include <gtest/gtest.h>

#include <optional>

#include "apps/andrew.h"
#include "apps/andrew_targets.h"
#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "cost/cost_model.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace nasd::apps {
namespace {

using util::kKB;
using util::kMB;

// ------------------------------------------------------------ transactions

TEST(Transactions, RecordRoundTrip)
{
    TransactionRecord r;
    r.txn_id = 0x123456789abcdefull;
    r.store_id = 77;
    r.item_count = 3;
    r.items[0] = 10;
    r.items[1] = 20;
    r.items[2] = 30;
    std::vector<std::uint8_t> buf(TransactionRecord::kBytes);
    encodeRecord(r, buf);
    const auto back = decodeRecord(buf);
    EXPECT_EQ(back.txn_id, r.txn_id);
    EXPECT_EQ(back.store_id, r.store_id);
    EXPECT_EQ(back.item_count, r.item_count);
    EXPECT_EQ(back.items[2], 30u);
}

/** 64-bit FNV-1a over @p bytes. */
std::uint64_t
fnv1a(std::span<const std::uint8_t> bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Transactions, ChunkBytesArePinned)
{
    // Digests of the dataset as first generated (byte-at-a-time
    // encoder, binary-search Zipf draw). A codec or sampler change that
    // moves a single byte of the benchmarks' dataset fails here.
    DatasetParams other;
    other.seed = 7;
    other.catalog_items = 500;
    const TransactionGenerator base(DatasetParams{});
    const TransactionGenerator alt(other);
    EXPECT_EQ(fnv1a(base.chunk(0)), 0xebed99f215ddc1c8ull);
    EXPECT_EQ(fnv1a(base.chunk(149)), 0xf4c371f1a889c05aull);
    EXPECT_EQ(fnv1a(alt.chunk(0)), 0xb7c5cdfec5805724ull);
    EXPECT_EQ(fnv1a(alt.chunk(149)), 0x9bfe44ca9d501c46ull);
}

TEST(Transactions, ChunksAreDeterministic)
{
    TransactionGenerator gen(DatasetParams{});
    EXPECT_EQ(gen.chunk(5), gen.chunk(5));
    EXPECT_NE(gen.chunk(5), gen.chunk(6));
}

TEST(Transactions, ChunkIsExactlyTwoMegabytes)
{
    TransactionGenerator gen(DatasetParams{});
    EXPECT_EQ(gen.chunk(0).size(), kChunkBytes);
}

TEST(Transactions, RecordsDoNotStraddleChunks)
{
    // Every record slot in a chunk decodes cleanly (the last record
    // ends exactly at the chunk boundary).
    TransactionGenerator gen(DatasetParams{});
    const auto chunk = gen.chunk(0);
    const auto last = decodeRecord(std::span<const std::uint8_t>(
        chunk.data() + (kRecordsPerChunk - 1) * TransactionRecord::kBytes,
        TransactionRecord::kBytes));
    EXPECT_GT(last.item_count, 0u);
    EXPECT_EQ(last.txn_id, kRecordsPerChunk - 1);
}

// ----------------------------------------------------------------- mining

TEST(Mining, CountsSingleItems)
{
    DatasetParams params;
    params.catalog_items = 50;
    TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);
    const auto counts = countOneItemsets(chunk, params.catalog_items);
    std::uint64_t total = 0;
    for (const auto c : counts)
        total += c;
    EXPECT_GT(total, kRecordsPerChunk * 2); // >= min_items per record
}

TEST(Mining, PlantedPairIsFrequent)
{
    DatasetParams params;
    params.planted_pair_rate = 0.5;
    TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);
    const auto counts = countOneItemsets(chunk, params.catalog_items);
    // Items 1 and 2 appear in at least half the records.
    EXPECT_GT(counts[1], kRecordsPerChunk / 3);
    EXPECT_GT(counts[2], kRecordsPerChunk / 3);
}

TEST(Mining, CorruptItemCountIsClamped)
{
    // A count byte of 0xFF reads as kMaxItems: every item slot counts,
    // and nothing past the slots is read.
    TransactionGenerator gen(DatasetParams{});
    auto corrupt = gen.chunk(0);
    auto clamped = corrupt;
    const std::size_t record = 5 * TransactionRecord::kBytes;
    corrupt[record + TransactionRecord::kItemCountOffset] = 0xFF;
    clamped[record + TransactionRecord::kItemCountOffset] =
        TransactionRecord::kMaxItems;

    EXPECT_EQ(decodeRecord(std::span<const std::uint8_t>(corrupt).subspan(
                               record))
                  .item_count,
              TransactionRecord::kMaxItems);
    EXPECT_EQ(countOneItemsets(corrupt, 1000),
              countOneItemsets(clamped, 1000));
    const std::vector<ItemSet> candidates = {{0}, {1, 2}, {0, 1, 2}};
    EXPECT_EQ(countCandidates(corrupt, candidates),
              countCandidates(clamped, candidates));
}

TEST(Mining, MergePartialCounts)
{
    ItemCounts a{1, 2, 3};
    ItemCounts b{10, 20, 30};
    mergeCounts(a, b);
    EXPECT_EQ(a, (ItemCounts{11, 22, 33}));
}

TEST(Mining, MergedPartialsEqualSequentialScan)
{
    DatasetParams params;
    params.catalog_items = 100;
    TransactionGenerator gen(params);
    // Whole scan of 4 chunks vs per-chunk partials merged.
    std::vector<std::uint8_t> whole;
    ItemCounts merged(params.catalog_items, 0);
    for (std::uint64_t i = 0; i < 4; ++i) {
        const auto chunk = gen.chunk(i);
        whole.insert(whole.end(), chunk.begin(), chunk.end());
        mergeCounts(merged, countOneItemsets(chunk, params.catalog_items));
    }
    EXPECT_EQ(countOneItemsets(whole, params.catalog_items), merged);
}

TEST(Mining, FrequentItemsRespectSupport)
{
    ItemCounts counts{100, 5, 50, 200};
    const auto frequent = frequentItems(counts, 50);
    EXPECT_EQ(frequent, (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(Mining, CandidateGenerationJoinsAndPrunes)
{
    // Frequent 2-itemsets {1,2},{1,3},{2,3},{2,4}: join gives {1,2,3}
    // (all subsets frequent) and {2,3,4} (subset {3,4} missing: prune).
    std::vector<ItemSet> frequent2 = {{1, 2}, {1, 3}, {2, 3}, {2, 4}};
    const auto candidates = generateCandidates(frequent2);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], (ItemSet{1, 2, 3}));
}

TEST(Mining, PairCountingFindsPlantedRule)
{
    DatasetParams params;
    params.planted_pair_rate = 0.5;
    TransactionGenerator gen(params);
    const auto chunk = gen.chunk(0);

    const std::vector<ItemSet> candidates = {{1, 2}, {997, 998}};
    const auto counts = countCandidates(chunk, candidates);
    EXPECT_GT(counts[0], kRecordsPerChunk / 3); // planted pair
    EXPECT_LT(counts[1], counts[0] / 10);       // random rare pair
}

TEST(Mining, FullAprioriPassesConverge)
{
    DatasetParams params;
    params.catalog_items = 60;
    params.planted_pair_rate = 0.6;
    TransactionGenerator gen(params);
    const auto data = gen.chunk(0);

    const std::uint64_t min_support = kRecordsPerChunk / 4;
    const auto counts1 = countOneItemsets(data, params.catalog_items);
    const auto frequent1 = frequentItems(counts1, min_support);
    ASSERT_GE(frequent1.size(), 2u);

    std::vector<ItemSet> level;
    for (const auto item : frequent1)
        level.push_back({item});
    // Pass 2.
    auto candidates = generateCandidates(level);
    auto counts = countCandidates(data, candidates);
    const auto frequent2 = frequentSets(candidates, counts, min_support);
    // The planted pair must survive.
    EXPECT_NE(std::find(frequent2.begin(), frequent2.end(), ItemSet{1, 2}),
              frequent2.end());
}

/** Property sweep: partial/merged counting equals whole-buffer
 *  counting across dataset shapes. */
class MiningSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>>
{};

TEST_P(MiningSweep, MergeEquivalence)
{
    DatasetParams params;
    params.catalog_items = std::get<0>(GetParam());
    params.zipf_theta = std::get<1>(GetParam());
    TransactionGenerator gen(params);

    std::vector<std::uint8_t> whole;
    ItemCounts merged(params.catalog_items, 0);
    for (std::uint64_t i = 0; i < 2; ++i) {
        const auto chunk = gen.chunk(i);
        whole.insert(whole.end(), chunk.begin(), chunk.end());
        mergeCounts(merged, countOneItemsets(chunk, params.catalog_items));
    }
    EXPECT_EQ(countOneItemsets(whole, params.catalog_items), merged);
}

INSTANTIATE_TEST_SUITE_P(
    DatasetShapes, MiningSweep,
    ::testing::Combine(::testing::Values(16u, 100u, 1000u),
                       ::testing::Values(0.0, 0.8, 1.2)));

// ----------------------------------------------------------------- Andrew

TEST(Andrew, RunsOnBaselineNfs)
{
    sim::Simulator sim;
    net::Network net(sim);
    auto &server_node = net.addNode("server", net::alphaStation500(),
                                    net::oc3Link(), net::dceRpcCosts());
    auto &client_node = net.addNode("client", net::alphaStation255(),
                                    net::oc3Link(), net::dceRpcCosts());
    disk::DiskModel disk(sim, disk::cheetahParams());
    fs::FfsFileSystem ffs(sim, disk, &server_node.cpu());
    sim.spawn(ffs.format());
    sim.run();
    fs::NfsServer server(sim, server_node);
    const auto volume = server.addVolume(ffs);
    fs::NfsClient client(net, client_node, server);
    NfsAndrewTarget target(client, volume);

    AndrewParams params;
    params.dirs = 2;
    params.files_per_dir = 4;
    std::optional<AndrewReport> report;
    sim.spawn([](sim::Simulator &s, AndrewTarget &t, AndrewParams p,
                 std::optional<AndrewReport> &out) -> sim::Task<void> {
        out = co_await runAndrew(s, t, p);
    }(sim, target, params, report));
    sim.run();

    ASSERT_TRUE(report.has_value());
    EXPECT_GT(report->make_dir, 0u);
    EXPECT_GT(report->copy, 0u);
    EXPECT_GT(report->read_all, 0u);
    EXPECT_GT(report->total(), 0u);
}

TEST(Andrew, RunsOnNasdNfs)
{
    sim::Simulator sim;
    net::Network net(sim);
    auto &fm_node = net.addNode("fm", net::alphaStation500(),
                                net::oc3Link(), net::dceRpcCosts());
    auto &client_node = net.addNode("client", net::alphaStation255(),
                                    net::oc3Link(), net::dceRpcCosts());
    std::vector<std::unique_ptr<NasdDrive>> drives;
    std::vector<NasdDrive *> raw;
    for (int i = 0; i < 2; ++i) {
        drives.push_back(std::make_unique<NasdDrive>(
            sim, net, prototypeDriveConfig("nasd" + std::to_string(i),
                                           i + 1)));
        raw.push_back(drives.back().get());
    }
    fs::NasdNfsFileManager fm(sim, net, fm_node, raw, 0);
    sim.spawn(fm.initialize(512 * kMB));
    sim.run();
    fs::NasdNfsClient client(net, client_node, fm, raw);
    NasdNfsAndrewTarget target(client, fm.rootHandle());

    AndrewParams params;
    params.dirs = 2;
    params.files_per_dir = 4;
    std::optional<AndrewReport> report;
    sim.spawn([](sim::Simulator &s, AndrewTarget &t, AndrewParams p,
                 std::optional<AndrewReport> &out) -> sim::Task<void> {
        out = co_await runAndrew(s, t, p);
    }(sim, target, params, report));
    sim.run();

    ASSERT_TRUE(report.has_value());
    EXPECT_GT(report->total(), 0u);
}

} // namespace
} // namespace nasd::apps

// ------------------------------------------------------------- cost model

namespace nasd::cost {
namespace {

TEST(CostModel, HighEndSingleDiskOverheadNearPaper)
{
    ServerCostModel model(highEndServer());
    const auto b = model.analyze(1);
    // Paper: "overhead that starts at 1,300% for one server-attached
    // disk".
    EXPECT_NEAR(b.overhead_percent, 1342, 60);
}

TEST(CostModel, HighEndFourteenDisksNearPaper)
{
    ServerCostModel model(highEndServer());
    const auto b = model.analyze(14);
    // Paper: saturates at 14 disks, 2 NICs, 4 disk interfaces, 115%.
    EXPECT_EQ(b.nics, 2 + (b.nics - 2)); // at least 2
    EXPECT_NEAR(b.overhead_percent, 115, 10);
    EXPECT_EQ(model.maxDisksByMemory(), 14);
}

TEST(CostModel, LowCostSingleDiskNearPaper)
{
    ServerCostModel model(lowCostServer());
    const auto b = model.analyze(1);
    // Paper: "One disk suffers a 380% cost overhead".
    EXPECT_NEAR(b.overhead_percent, 383, 20);
}

TEST(CostModel, LowCostSixDisksNearPaper)
{
    ServerCostModel model(lowCostServer());
    const auto b = model.analyze(6);
    // Paper: "a six disk system still suffers an 80% cost overhead".
    EXPECT_NEAR(b.overhead_percent, 80, 10);
    EXPECT_EQ(model.maxDisksByMemory(), 6);
}

TEST(CostModel, OverheadShrinksWithScaleButStaysHigh)
{
    ServerCostModel model(lowCostServer());
    EXPECT_GT(model.analyze(2).overhead_percent,
              model.analyze(6).overhead_percent);
    EXPECT_GT(model.analyze(6).overhead_percent, 50);
}

TEST(CostModel, NasdPremiumFarBelowServerOverhead)
{
    // Paper: a 10% NASD premium means >= 10x reduction in server
    // overhead cost.
    ServerCostModel model(lowCostServer());
    const double nasd = ServerCostModel::nasdOverheadPercent(0.10);
    EXPECT_DOUBLE_EQ(nasd, 10.0);
    EXPECT_GT(model.analyze(6).overhead_percent / nasd, 8.0);
}

TEST(CostModel, TotalSystemSavingsOverFiftyPercent)
{
    // Paper: total storage system cost reduction of over 50%... the
    // text says the increase is "at least 80% over the cost of simply
    // buying the storage"; at small scale the traditional system costs
    // well over 1.5x the NASD system.
    ServerCostModel model(lowCostServer());
    EXPECT_GT(model.systemCostRatio(1), 2.0);
    EXPECT_GT(model.systemCostRatio(6), 1.5);
}

TEST(CostModel, MemorySaturationFlagged)
{
    ServerCostModel model(highEndServer());
    EXPECT_FALSE(model.analyze(14).memory_saturated);
    EXPECT_TRUE(model.analyze(15).memory_saturated);
}

} // namespace
} // namespace nasd::cost
