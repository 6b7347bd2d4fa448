/**
 * @file
 * Wall-clock microbenchmarks (google-benchmark) for the real
 * computational kernels of the library — the pieces that execute
 * actual work rather than simulated time: SHA-256/HMAC, capability
 * mint/verify, the byte codec, the extent allocator, the
 * frequent-sets counting kernel, and the host cost of one object-store
 * read miss (the simulator's own data path).
 *
 * These measure THIS implementation on THIS host; they are not part of
 * the paper reproduction, but they justify design choices (e.g. that
 * software HMAC per request is trivial for the file manager while
 * per-byte data MACs are not — the same asymmetry the paper's
 * hardware argument rests on).
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/frequent_sets.h"
#include "apps/transactions.h"
#include "bench/bench_util.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "nasd/allocator.h"
#include "nasd/capability.h"
#include "nasd/object_store.h"
#include "sim/simulator.h"
#include "util/codec.h"
#include "util/rng.h"

using namespace nasd;

namespace {

crypto::Key
testKey()
{
    crypto::Key key{};
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i * 7 + 1);
    return key;
}

void
BM_Sha256(benchmark::State &state)
{
    std::vector<std::uint8_t> data(state.range(0), 0xab);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void
BM_HmacSha256(benchmark::State &state)
{
    const auto key = testKey();
    std::vector<std::uint8_t> data(state.range(0), 0xcd);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::HmacSha256::mac(key, data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096)->Arg(65536);

void
BM_CapabilityMint(benchmark::State &state)
{
    CapabilityIssuer issuer(testKey(), 1);
    CapabilityPublic pub;
    pub.partition = 3;
    pub.object_id = 0x1234;
    pub.rights = kRightRead | kRightWrite;
    for (auto _ : state) {
        benchmark::DoNotOptimize(issuer.mint(pub));
    }
}
BENCHMARK(BM_CapabilityMint);

void
BM_RequestDigest(benchmark::State &state)
{
    CapabilityIssuer issuer(testKey(), 1);
    CapabilityPublic pub;
    pub.object_id = 7;
    pub.rights = kRightRead;
    CredentialFactory cred(issuer.mint(pub));
    RequestParams params{OpCode::kReadData, 0, 7, 0, 8192};
    for (auto _ : state) {
        benchmark::DoNotOptimize(cred.forRequest(params));
    }
}
BENCHMARK(BM_RequestDigest);

void
BM_KeyHierarchyDerivation(benchmark::State &state)
{
    crypto::KeyChain chain(testKey());
    std::uint32_t epoch = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain.workingKey(
            1, 3, crypto::WorkingKeyKind::kBlack, epoch++));
    }
}
BENCHMARK(BM_KeyHierarchyDerivation);

void
BM_CodecEncodeDecode(benchmark::State &state)
{
    for (auto _ : state) {
        std::vector<std::uint8_t> buf;
        util::Encoder enc(buf);
        for (int i = 0; i < 16; ++i)
            enc.put<std::uint64_t>(0x0123456789abcdefULL + i);
        util::Decoder dec(buf);
        std::uint64_t sum = 0;
        for (int i = 0; i < 16; ++i)
            sum += dec.get<std::uint64_t>();
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_CodecEncodeDecode);

void
BM_AllocatorChurn(benchmark::State &state)
{
    for (auto _ : state) {
        ExtentAllocator alloc(4096);
        std::vector<std::vector<Extent>> held;
        util::Rng rng(7);
        for (int i = 0; i < 64; ++i) {
            auto got = alloc.allocate(
                static_cast<std::uint32_t>(1 + rng.below(32)),
                static_cast<std::uint32_t>(rng.below(4096)));
            if (got.ok())
                held.push_back(got.value());
            if (held.size() > 16) {
                for (const auto &e : held.front())
                    alloc.unref(e);
                held.erase(held.begin());
            }
        }
        benchmark::DoNotOptimize(alloc.freeUnits());
    }
}
BENCHMARK(BM_AllocatorChurn);

void
BM_TransactionGeneration(benchmark::State &state)
{
    apps::TransactionGenerator gen(apps::DatasetParams{});
    std::uint64_t index = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.chunk(index++));
    }
    state.SetBytesProcessed(state.iterations() * apps::kChunkBytes);
}
BENCHMARK(BM_TransactionGeneration);

void
BM_FrequentSetsCounting(benchmark::State &state)
{
    apps::TransactionGenerator gen(apps::DatasetParams{});
    const auto chunk = gen.chunk(0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(apps::countOneItemsets(chunk, 1000));
    }
    state.SetBytesProcessed(state.iterations() * apps::kChunkBytes);
}
BENCHMARK(BM_FrequentSetsCounting);

void
BM_StoreRead512KMiss(benchmark::State &state)
{
    // A prototype drive's data path: two Medallists behind the 32 KB
    // striping driver. A one-unit data cache makes every 512 KB read a
    // store miss (device time charged, bytes copied out of the disks'
    // backing stores).
    constexpr std::uint64_t kRead = 512 * 1024;
    constexpr std::uint64_t kObject = 8 * kRead;
    sim::Simulator sim;
    disk::DiskModel d0(sim, disk::medallistParams());
    disk::DiskModel d1(sim, disk::medallistParams());
    disk::StripingDriver striped(sim, {&d0, &d1}, 32 * 1024);
    StoreConfig config;
    config.data_cache_bytes = 0;
    ObjectStore store(sim, striped, config);
    sim.spawn(store.format());
    sim.run();
    (void)store.createPartition(0, 2 * kObject);
    const ObjectId oid =
        bench::runFor(sim, store.createObject(0, kObject)).value();
    std::vector<std::uint8_t> buf(kRead, 0x5a);
    for (std::uint64_t off = 0; off < kObject; off += kRead)
        (void)bench::runFor(sim, store.write(0, oid, off, buf));

    std::uint64_t offset = 0;
    for (auto _ : state) {
        auto got = bench::runFor(sim, store.read(0, oid, offset, buf));
        benchmark::DoNotOptimize(got);
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
        offset = (offset + kRead) % kObject;
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRead));
}
BENCHMARK(BM_StoreRead512KMiss);

} // namespace

BENCHMARK_MAIN();
