/**
 * @file
 * Wall-clock microbenchmarks (google-benchmark) for the real
 * computational kernels of the library — the pieces that execute
 * actual work rather than simulated time: SHA-256/HMAC, capability
 * mint, one request's digest and drive-side check, the byte codec, the
 * extent allocator, the frequent-sets counting kernel, the Cheops
 * parity XOR, and the host cost of one 512 KB read miss at the object
 * store and through the NASD client (the simulator's own data path).
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
#include "cheops/cheops.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "disk/disk_model.h"
#include "disk/params.h"
#include "disk/striping.h"
#include "nasd/allocator.h"
#include "nasd/capability.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "nasd/object_store.h"
#include "net/network.h"
#include "net/presets.h"
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
BM_RequestVerify(benchmark::State &state)
{
    // The host crypto of one NASD request: the client's request digest,
    // then the drive's checks in NasdDrive::verify, which re-derives
    // the capability's private portion from its public one under the
    // memoized working key and recomputes the request digest.
    const crypto::Key master = testKey();
    CapabilityIssuer issuer(master, 1);
    const crypto::KeyChain drive_chain(master);
    CapabilityPublic pub;
    pub.object_id = 7;
    pub.rights = kRightRead;
    CredentialFactory cred(issuer.mint(pub));
    RequestParams params{OpCode::kReadData, 0, 7, 0, 8192};
    for (auto _ : state) {
        const RequestCredential sent = cred.forRequest(params);
        const crypto::Digest private_key = capabilityMac(
            drive_chain.workingMac(1, sent.pub.partition, sent.pub.key_kind,
                                   sent.pub.key_epoch),
            sent.pub);
        const bool accepted = crypto::constantTimeEqual(
            requestMac(crypto::HmacKey(private_key), params, sent.nonce),
            sent.request_digest);
        benchmark::DoNotOptimize(accepted);
    }
}
BENCHMARK(BM_RequestVerify);

void
BM_KeyHierarchyDerivation(benchmark::State &state)
{
    // A fresh chain per iteration: workingKey memoizes, and this
    // measures the three-level derivation behind a memo miss.
    for (auto _ : state) {
        crypto::KeyChain chain(testKey());
        benchmark::DoNotOptimize(chain.workingKey(
            1, 3, crypto::WorkingKeyKind::kBlack, 0));
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

void
BM_ClientRead512KMiss(benchmark::State &state)
{
    // The same miss seen from a client: NasdClient -> RPC -> prototype
    // drive -> object store, landing in a caller-owned span. Adds the
    // capability checks, RPC timing and event traffic of a real read.
    constexpr std::uint64_t kRead = 512 * 1024;
    constexpr std::uint64_t kObject = 8 * kRead;
    sim::Simulator sim;
    net::Network net(sim);
    DriveConfig config = prototypeDriveConfig("nasd0", 1);
    config.store.data_cache_bytes = 0;
    NasdDrive drive(sim, net, config);
    sim.spawn(drive.format());
    sim.run();
    (void)drive.store().createPartition(0, 2 * kObject);
    net::NetNode &node = net.addNode("client", net::alphaStation255(),
                                     net::oc3Link(), net::dceRpcCosts());
    NasdClient client(net, node, drive);
    CapabilityIssuer issuer(config.master_key, config.drive_id);

    CapabilityPublic create_pub;
    create_pub.object_id = kPartitionControlObject;
    create_pub.rights = kRightCreate;
    CredentialFactory create_cred(issuer.mint(create_pub));
    const ObjectId oid =
        bench::runFor(sim, client.create(create_cred, kObject)).value();
    CapabilityPublic pub;
    pub.object_id = oid;
    pub.rights = kRightRead | kRightWrite;
    CredentialFactory cred(issuer.mint(pub));
    std::vector<std::uint8_t> buf(kRead, 0x5a);
    for (std::uint64_t off = 0; off < kObject; off += kRead)
        (void)bench::runFor(sim, client.write(cred, off, buf));

    std::uint64_t offset = 0;
    for (auto _ : state) {
        auto got = bench::runFor(
            sim, client.read(cred, offset, std::span<std::uint8_t>(buf)));
        benchmark::DoNotOptimize(got);
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
        offset = (offset + kRead) % kObject;
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRead));
}
BENCHMARK(BM_ClientRead512KMiss);

void
BM_ParityXor64K(benchmark::State &state)
{
    // One 64 KB stripe unit folded into a parity buffer.
    constexpr std::size_t kUnit = 64 * 1024;
    std::vector<std::uint8_t> parity(kUnit, 0x0f);
    std::vector<std::uint8_t> unit(kUnit);
    util::Rng rng(11);
    for (auto &b : unit)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (auto _ : state) {
        cheops::xorInto(parity, unit);
        benchmark::DoNotOptimize(parity.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(kUnit));
}
BENCHMARK(BM_ParityXor64K);

} // namespace

BENCHMARK_MAIN();
