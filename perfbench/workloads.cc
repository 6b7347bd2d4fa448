#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>

#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "net/presets.h"
#include "pfs/pfs.h"
#include "sim/sync.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/units.h"

namespace perfbench {

using util::kKB;
using util::kMB;

namespace {

/** Per-client op stream: depends only on (seed, workload, client). */
util::Rng
clientRng(std::uint64_t seed, std::uint64_t salt, std::size_t client)
{
    return util::Rng(mix64(seed ^ mix64(salt + client)));
}

/**
 * The cheap fill pattern: the 8-byte word at logical byte offset `o`
 * is (o * K) ^ key, so a misdirected read shows as a mismatch.
 */
void
fillPattern(std::span<std::uint8_t> out, std::uint64_t offset,
            std::uint64_t key)
{
    for (std::size_t i = 0; i + 8 <= out.size(); i += 8) {
        const std::uint64_t w = ((offset + i) * 0x9e3779b97f4a7c15ull) ^ key;
        std::memcpy(out.data() + i, &w, 8);
    }
}

bool
matchesPattern(std::span<const std::uint8_t> in, std::uint64_t offset,
               std::uint64_t key)
{
    bool ok = true;
    for (std::size_t i = 0; i + 8 <= in.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, in.data() + i, 8);
        ok &= w == (((offset + i) * 0x9e3779b97f4a7c15ull) ^ key);
    }
    return ok;
}

template <typename T>
T
runFor(sim::Simulator &sim, sim::Task<T> task)
{
    std::optional<T> result;
    sim.spawn([](sim::Task<T> t, std::optional<T> &out) -> sim::Task<void> {
        out = co_await std::move(t);
    }(std::move(task), result));
    sim.run();
    return std::move(*result);
}

void
runToCompletion(sim::Simulator &sim, sim::Task<void> task)
{
    sim.spawn(std::move(task));
    sim.run();
}

} // namespace

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
Tally::noteOffset(std::uint64_t client, std::uint64_t offset)
{
    offset_digest = mix64(offset_digest ^ mix64(client * 0x100000001b3ull +
                                                offset));
}

Cluster::~Cluster() = default;

void
Cluster::buildDrives(int n, std::uint64_t data_cache_bytes,
                     SetupCosts &costs)
{
    // The first cluster of a process sets the peak, so the peak's
    // growth is what the drives and their format cost.
    const double rss_before = peakRssMb();
    for (int i = 0; i < n; ++i) {
        DriveConfig cfg =
            prototypeDriveConfig("nasd" + std::to_string(i), i + 1);
        if (data_cache_bytes != 0)
            cfg.store.data_cache_bytes = data_cache_bytes;
        drives_.push_back(
            std::make_unique<NasdDrive>(sim_, net_, std::move(cfg)));
        raw_.push_back(drives_.back().get());
    }
    auto &mgr_node = net_.addNode("mgr", net::alphaStation500(),
                                  net::oc3Link(), net::dceRpcCosts());
    storage_ = std::make_unique<cheops::CheopsManager>(sim_, net_, mgr_node,
                                                       raw_, 0);
    const double t0 = hostNow();
    runToCompletion(sim_, storage_->initialize(1024 * kMB));
    costs.init_host_s = hostNow() - t0;
    costs.rss_per_drive_mb = (peakRssMb() - rss_before) / n;
}

net::NetNode &
Cluster::addHost(const std::string &name, bool server)
{
    return net_.addNode(name,
                        server ? net::alphaStation500()
                               : net::alphaStation255(),
                        net::oc3Link(), net::dceRpcCosts());
}

void
Cluster::flushDrives()
{
    for (auto *d : raw_)
        runToCompletion(sim_, d->store().flushAll());
}

namespace {

// ------------------------------------------------------------------ mine

/**
 * Figure 9's NASD point, built exactly as bench/fig9_mining.cc builds
 * it: eight drives, a 300 MB TransactionGenerator file striped by PFS
 * at 512 KB, eight mining clients taking 2 MB chunks round-robin, each
 * chunk fetched as four parallel 512 KB reads and counted for real.
 *
 * Round 0 is the full first pass (the window Figure 9 measures). Later
 * rounds scan one sixth of the file each, cycling through the parts,
 * so the host-timed rounds are short and many.
 */
class MineCluster final : public Cluster
{
  public:
    static constexpr std::uint32_t kCatalogItems = 500;
    static constexpr std::uint64_t kReadBytes = 512 * kKB;

    MineCluster(const Params &p, SetupCosts &costs)
        : dataset_bytes_(p.small ? 32 * kMB : 300 * kMB),
          parts_(p.small ? 2 : 6), small_(p.small)
    {
        buildDrives(kDrives, 0, costs);
        manager_ = std::make_unique<pfs::PfsManager>(*storage_);
        auto &loader_node = addHost("loader", false);
        loader_ = std::make_unique<pfs::PfsClient>(net_, loader_node,
                                                   *manager_, raw_);
        handle_ = runFor(sim_, loader_->open("sales", true, true)).value();
        apps::DatasetParams dp;
        dp.catalog_items = kCatalogItems;
        dp.seed = p.seed;
        const apps::TransactionGenerator gen(dp);
        reference_.assign(parts_ + 1, apps::ItemCounts(kCatalogItems, 0));
        for (std::uint64_t c = 0; c < chunks(); ++c) {
            const double t0 = hostNow();
            const auto data = gen.chunk(c);
            const double t1 = hostNow();
            const auto counts = apps::countOneItemsets(data, kCatalogItems);
            apps::mergeCounts(reference_[0], counts);
            apps::mergeCounts(reference_[1 + c / partChunks()], counts);
            costs.gen_host_s += t1 - t0;
            costs.excluded_host_s += hostNow() - t1;
            auto w = runFor(sim_, loader_->write(handle_,
                                                 c * apps::kChunkBytes, data));
            NASD_ASSERT(w.ok(), "mine: dataset load failed");
        }
        // Push write-behind data to media before the timed scan.
        flushDrives();
        // One chunk buffer per miner for the cluster's life, as fig9 has
        // one per pass; rounds here are a sixth of a pass.
        chunk_bufs_.assign(kDrives,
                           std::vector<std::uint8_t>(apps::kChunkBytes));
        for (int i = 0; i < kDrives; ++i) {
            auto &node = addHost("client" + std::to_string(i), false);
            clients_.push_back(
                std::make_unique<pfs::PfsClient>(net_, node, *manager_, raw_));
            auto h = runFor(sim_, clients_.back()->open("sales", false, false));
            NASD_ASSERT(h.ok(), "mine: client open failed");
        }
    }

    std::size_t windowRounds() const override { return 1; }
    std::size_t firstTimedRound() const override { return 1; }
    std::size_t roundCycle() const override { return parts_; }

    std::uint64_t
    dataDigest() const override
    {
        std::uint64_t h = 0;
        for (std::uint64_t n : reference_[0])
            h = mix64(h ^ n);
        return h;
    }
    bool reproducesFig9() const override { return !small_; }

    void
    startRound(Tally &tally) override
    {
        // Reference slot 0 is the whole file, slot 1 + p part p.
        slot_ = rounds_++ == 0 ? 0 : 1 + (rounds_ - 2) % parts_;
        const std::uint64_t first =
            slot_ == 0 ? 0 : (slot_ - 1) * partChunks();
        const std::uint64_t end =
            slot_ == 0 ? chunks() : first + partChunks();
        partials_.assign(kDrives, apps::ItemCounts(kCatalogItems, 0));
        for (int i = 0; i < kDrives; ++i) {
            sim_.spawn(miner(static_cast<std::uint32_t>(i), first + i, end,
                             &partials_[i], &tally));
        }
    }

    void
    finishRound(Tally &tally) override
    {
        apps::ItemCounts merged(kCatalogItems, 0);
        for (const auto &partial : partials_)
            apps::mergeCounts(merged, partial);
        if (merged != reference_[slot_])
            ++tally.mismatches;
    }

  private:
    static constexpr int kDrives = 8;

    std::uint64_t chunks() const { return dataset_bytes_ / apps::kChunkBytes; }
    std::uint64_t partChunks() const { return chunks() / parts_; }

    sim::Task<void>
    timedRead(std::uint32_t client, std::uint64_t offset,
              std::span<std::uint8_t> out, Tally *tally)
    {
        tally->noteOffset(client, offset);
        const sim::Tick t0 = sim_.now();
        auto r = co_await clients_[client]->read(handle_, offset, out);
        ++tally->attempted;
        if (!r.ok() || r.value() != out.size()) {
            ++tally->failed;
            co_return;
        }
        tally->bytes += out.size();
        tally->addOp(
            OpRecord{OpClass::kRead, client,
                     static_cast<std::uint32_t>(out.size()), t0,
                     sim_.now() - t0});
    }

    /** fig9's mineChunks over chunks [first, end) with stride 8, each
     *  read and the counting kernel timed. */
    sim::Task<void>
    miner(std::uint32_t client, std::uint64_t first, std::uint64_t end,
          apps::ItemCounts *result, Tally *tally)
    {
        std::vector<std::uint8_t> &chunk = chunk_bufs_[client];
        auto &cpu = clients_[client]->node().cpu();
        for (std::uint64_t c = first; c < end; c += kDrives) {
            std::vector<sim::Task<void>> producers;
            for (std::uint64_t off = 0; off < apps::kChunkBytes;
                 off += kReadBytes) {
                producers.push_back(timedRead(
                    client, c * apps::kChunkBytes + off,
                    std::span<std::uint8_t>(chunk.data() + off, kReadBytes),
                    tally));
            }
            co_await sim::parallelAll(sim_, std::move(producers));
            co_await cpu.executeAt(
                static_cast<std::uint64_t>(apps::kCountingCyclesPerByte *
                                           apps::kChunkBytes),
                1.0);
            const double t0 = hostNow();
            apps::mergeCounts(*result,
                              apps::countOneItemsets(chunk, kCatalogItems));
            tally->kernel_host_s += hostNow() - t0;
        }
    }

    std::uint64_t dataset_bytes_;
    std::uint64_t parts_;
    bool small_;
    std::uint64_t rounds_ = 0, slot_ = 0;
    std::unique_ptr<pfs::PfsManager> manager_;
    std::unique_ptr<pfs::PfsClient> loader_;
    std::vector<std::unique_ptr<pfs::PfsClient>> clients_;
    pfs::PfsHandle handle_;
    std::vector<apps::ItemCounts> reference_;
    std::vector<apps::ItemCounts> partials_;
    std::vector<std::vector<std::uint8_t>> chunk_bufs_;
};

// ------------------------------------------------------------------ wide

/**
 * 64 drives with 512 KB data caches, one 64 KB-unit non-redundant
 * object holding 2 MB per drive, and 32 Cheops clients issuing
 * uniform-random 64 KB reads, one outstanding each.
 */
class WideCluster final : public Cluster
{
  public:
    static constexpr std::uint64_t kUnit = 64 * kKB;

    WideCluster(const Params &p, SetupCosts &costs)
        : drives_n_(p.small ? 16 : 64), clients_n_(p.small ? 8 : 32),
          ops_per_client_(p.small ? 32 : 64),
          window_(p.small ? 4 : 24), key_(mix64(p.seed ^ 0x77696465ull)),
          seed_(p.seed)
    {
        const std::uint64_t per_drive = 2 * kMB;
        const std::uint64_t cache = 512 * kKB;
        buildDrives(static_cast<int>(drives_n_), cache, costs);
        // Validity guard: the working set must stay >= 4x the
        // aggregate drive data cache, or this turns into a cache test.
        size_ = per_drive * drives_n_;
        NASD_ASSERT(size_ >= 4 * cache * drives_n_,
                    "wide: working set under 4x aggregate drive cache");
        auto &loader_node = addHost("loader", false);
        loader_ = std::make_unique<cheops::CheopsClient>(net_, loader_node,
                                                         *storage_, raw_);
        id_ = runFor(sim_, loader_->create(kUnit, 0, size_)).value();
        const std::uint64_t step = kUnit * drives_n_;
        std::vector<std::uint8_t> buf(step);
        for (std::uint64_t off = 0; off < size_; off += step) {
            const double t0 = hostNow();
            fillPattern(buf, off, key_);
            costs.gen_host_s += hostNow() - t0;
            auto w = runFor(sim_, loader_->write(id_, off, buf));
            NASD_ASSERT(w.ok(), "wide: load failed");
        }
        flushDrives();
        for (std::size_t i = 0; i < clients_n_; ++i) {
            auto &node = addHost("client" + std::to_string(i), false);
            clients_.push_back(std::make_unique<cheops::CheopsClient>(
                net_, node, *storage_, raw_));
            rngs_.push_back(clientRng(seed_, 0x77696465ull, i));
            auto o = runFor(sim_, clients_.back()->open(id_, false));
            NASD_ASSERT(o.ok(), "wide: client open failed");
        }
    }

    std::size_t windowRounds() const override { return window_; }
    std::uint64_t dataDigest() const override { return key_; }

    void
    startRound(Tally &tally) override
    {
        for (std::size_t i = 0; i < clients_n_; ++i)
            sim_.spawn(reader(static_cast<std::uint32_t>(i), &tally));
    }

  private:
    sim::Task<void>
    reader(std::uint32_t c, Tally *tally)
    {
        std::vector<std::uint8_t> buf(kUnit);
        const std::uint64_t units = size_ / kUnit;
        for (std::uint64_t k = 0; k < ops_per_client_; ++k) {
            const std::uint64_t off = rngs_[c].below(units) * kUnit;
            tally->noteOffset(c, off);
            const sim::Tick t0 = sim_.now();
            auto r = co_await clients_[c]->read(id_, off, buf);
            const sim::Tick lat = sim_.now() - t0;
            ++tally->attempted;
            if (!r.ok() || r.value().bytes != kUnit) {
                ++tally->failed;
                continue;
            }
            const double h0 = hostNow();
            if (!matchesPattern(buf, off, key_))
                ++tally->mismatches;
            tally->kernel_host_s += hostNow() - h0;
            tally->bytes += kUnit;
            tally->addOp(OpRecord{OpClass::kRead, c, kUnit, t0, lat});
        }
    }

    std::size_t drives_n_, clients_n_;
    std::uint64_t ops_per_client_;
    std::size_t window_;
    std::uint64_t key_, seed_;
    std::uint64_t size_ = 0;
    std::unique_ptr<cheops::CheopsClient> loader_;
    std::vector<std::unique_ptr<cheops::CheopsClient>> clients_;
    std::vector<util::Rng> rngs_;
    cheops::LogicalObjectId id_ = 0;
};

// ---------------------------------------------------------------- update

/**
 * Eight drives under RAID-5 parity (7 data + 1 parity, 64 KB unit,
 * 32 MB of object per drive, 2 MB data caches) and eight Cheops
 * clients issuing 16 KB ops, 70% writes, one outstanding each. Client
 * c owns the stripe rows r with r % 8 == c, so no two clients race on
 * a row and a host byte-map models every completed write exactly.
 */
class UpdateCluster final : public Cluster
{
  public:
    static constexpr std::uint64_t kUnit = 64 * kKB;
    static constexpr std::uint64_t kOpBytes = 16 * kKB;
    static constexpr std::uint32_t kWidth = 7;
    static constexpr std::uint64_t kRow = kUnit * kWidth;
    static constexpr std::size_t kClients = 8;

    UpdateCluster(const Params &p, SetupCosts &costs)
        : ops_per_client_(p.small ? 32 : 128),
          window_(p.small ? 4 : 16),
          key_(mix64(p.seed ^ 0x757064617465ull)), seed_(p.seed)
    {
        const std::uint64_t per_drive = (p.small ? 4 : 32) * kMB;
        buildDrives(kWidth + 1, 2 * kMB, costs);
        rows_ = per_drive / kUnit;
        size_ = rows_ * kRow;
        auto &loader_node = addHost("loader", false);
        loader_ = std::make_unique<cheops::CheopsClient>(net_, loader_node,
                                                         *storage_, raw_);
        id_ = runFor(sim_, loader_->create(kUnit, kWidth, size_,
                                           cheops::Redundancy::kParity))
                  .value();
        model_.resize(size_);
        const double t0 = hostNow();
        fillPattern(model_, 0, key_);
        costs.gen_host_s += hostNow() - t0;
        // Full-stripe writes: parity is the XOR of new data, no reads.
        const std::uint64_t step = 8 * kRow;
        for (std::uint64_t off = 0; off < size_; off += step) {
            const std::uint64_t len = std::min(step, size_ - off);
            auto w = runFor(sim_, loader_->write(
                                      id_, off,
                                      std::span<const std::uint8_t>(
                                          model_.data() + off, len)));
            NASD_ASSERT(w.ok(), "update: load failed");
        }
        flushDrives();
        for (std::size_t i = 0; i < kClients; ++i) {
            auto &node = addHost("client" + std::to_string(i), false);
            clients_.push_back(std::make_unique<cheops::CheopsClient>(
                net_, node, *storage_, raw_));
            rngs_.push_back(clientRng(seed_, 0x757064617465ull, i));
            auto o = runFor(sim_, clients_.back()->open(id_, true));
            NASD_ASSERT(o.ok(), "update: client open failed");
        }
    }

    std::size_t windowRounds() const override { return window_; }
    std::uint64_t dataDigest() const override { return key_; }

    void
    startRound(Tally &tally) override
    {
        for (std::size_t i = 0; i < kClients; ++i)
            sim_.spawn(updater(static_cast<std::uint32_t>(i), &tally));
    }

    /** After a final flush, read the whole object back through a
     *  fresh client and compare it with the host model. */
    void
    finalCheck(Tally &tally) override
    {
        flushDrives();
        auto &node = addHost("checker", false);
        cheops::CheopsClient checker(net_, node, *storage_, raw_);
        std::vector<std::uint8_t> buf(8 * kRow);
        for (std::uint64_t off = 0; off < size_; off += buf.size()) {
            const std::uint64_t len = std::min<std::uint64_t>(buf.size(),
                                                              size_ - off);
            std::span<std::uint8_t> out(buf.data(), len);
            auto r = runFor(sim_, checker.read(id_, off, out));
            if (!r.ok() || r.value().bytes != len ||
                std::memcmp(out.data(), model_.data() + off, len) != 0)
                ++tally.mismatches;
        }
    }

  private:
    sim::Task<void>
    updater(std::uint32_t c, Tally *tally)
    {
        std::vector<std::uint8_t> buf(kOpBytes);
        auto &rng = rngs_[c];
        const std::uint64_t my_rows = rows_ / kClients;
        for (std::uint64_t k = 0; k < ops_per_client_; ++k) {
            const std::uint64_t row = c + kClients * rng.below(my_rows);
            const std::uint64_t off =
                row * kRow + rng.below(kRow / kOpBytes) * kOpBytes;
            const bool write = rng.below(10) < 7;
            tally->noteOffset(c, off * 2 + (write ? 1 : 0));
            if (write) {
                const double h0 = hostNow();
                fillPattern(buf, off, rng.next());
                tally->kernel_host_s += hostNow() - h0;
            }
            const sim::Tick t0 = sim_.now();
            bool ok;
            if (write) {
                auto w = co_await clients_[c]->write(id_, off, buf);
                ok = w.ok();
            } else {
                auto r = co_await clients_[c]->read(id_, off, buf);
                ok = r.ok() && r.value().bytes == kOpBytes;
            }
            const sim::Tick lat = sim_.now() - t0;
            ++tally->attempted;
            if (!ok) {
                ++tally->failed;
                continue;
            }
            const double h0 = hostNow();
            std::uint8_t *model = model_.data() + off;
            if (write)
                std::memcpy(model, buf.data(), kOpBytes);
            else if (std::memcmp(model, buf.data(), kOpBytes) != 0)
                ++tally->mismatches;
            tally->kernel_host_s += hostNow() - h0;
            tally->bytes += kOpBytes;
            tally->addOp(
                OpRecord{write ? OpClass::kWrite : OpClass::kRead, c,
                         kOpBytes, t0, lat});
        }
    }

    std::uint64_t ops_per_client_;
    std::size_t window_;
    std::uint64_t key_, seed_;
    std::uint64_t rows_ = 0, size_ = 0;
    std::unique_ptr<cheops::CheopsClient> loader_;
    std::vector<std::unique_ptr<cheops::CheopsClient>> clients_;
    std::vector<util::Rng> rngs_;
    std::vector<std::uint8_t> model_;
    cheops::LogicalObjectId id_ = 0;
};

} // namespace

std::unique_ptr<Cluster>
makeCluster(const std::string &workload, const Params &params,
            SetupCosts &costs)
{
    if (workload == "mine")
        return std::make_unique<MineCluster>(params, costs);
    if (workload == "wide")
        return std::make_unique<WideCluster>(params, costs);
    if (workload == "update")
        return std::make_unique<UpdateCluster>(params, costs);
    return nullptr;
}

} // namespace perfbench
