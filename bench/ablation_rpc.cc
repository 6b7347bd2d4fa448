/**
 * @file
 * Ablation: the cost of workstation-class communications.
 *
 * Section 4.4 concludes "NASD control is not necessarily too expensive
 * but workstation-class implementations of communications certainly
 * are": 70-97% of every request's instructions were DCE RPC / UDP/IP.
 * This bench swaps the heavyweight stack for a lean SAN protocol on
 * both ends and measures what the same prototype drive could deliver.
 */
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "nasd/client.h"
#include "nasd/drive.h"
#include "net/presets.h"
#include "sim/simulator.h"
#include "util/units.h"

using namespace nasd;
using util::kKB;
using util::kMB;

namespace {

struct Point
{
    double warm_read_mbs;
    double small_op_ms;
};

Point
measure(const net::RpcCosts &costs)
{
    sim::Simulator sim;
    net::Network net(sim);
    auto cfg = prototypeDriveConfig("nasd0", 1);
    cfg.rpc = costs;
    NasdDrive drive(sim, net, std::move(cfg));
    CapabilityIssuer issuer(drive.config().master_key, 1);
    auto &client_node = net.addNode("client", net::alphaStation255(),
                                    net::oc3Link(), costs);
    NasdClient client(net, client_node, drive);
    bench::runTask(sim, drive.format());
    auto part = drive.store().createPartition(0, 256 * kMB);
    (void)part;

    CapabilityPublic pc;
    pc.partition = 0;
    pc.object_id = kPartitionControlObject;
    pc.rights = kRightCreate;
    CredentialFactory pcred(issuer.mint(pc));
    const ObjectId oid = bench::runFor(sim, client.create(pcred, 0)).value();
    CapabilityPublic po;
    po.partition = 0;
    po.object_id = oid;
    po.rights = kRightRead | kRightWrite | kRightGetAttr;
    CredentialFactory cred(issuer.mint(po));

    const std::vector<std::uint8_t> data(2 * kMB, 7);
    auto w = bench::runFor(sim, client.write(cred, 0, data));
    (void)w;
    std::vector<std::uint8_t> buf(512 * kKB); // every read lands here
    for (std::uint64_t off = 0; off < 2 * kMB; off += 512 * kKB)
        (void)bench::runFor(sim, client.read(cred, off, buf));

    Point p;
    sim::Tick start = sim.now();
    std::uint64_t moved = 0;
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t off = 0; off < 2 * kMB; off += 512 * kKB) {
            auto r = bench::runFor(sim, client.read(cred, off, buf));
            moved += r.ok() ? r.value() : 0;
        }
    }
    p.warm_read_mbs = util::bytesPerSecToMBs(
        static_cast<double>(moved) / sim::toSeconds(sim.now() - start));

    // Small-op latency: warm getattr.
    (void)bench::runFor(sim, client.getAttr(cred));
    start = sim.now();
    for (int i = 0; i < 8; ++i)
        (void)bench::runFor(sim, client.getAttr(cred));
    p.small_op_ms = sim::toMillis(sim.now() - start) / 8.0;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner(
        "ablation_rpc — DCE-weight vs lean SAN communications",
        "Section 4.4 (communications dominate request cost)");

    const bench::BenchOptions opts = bench::parseOptions("ablation_rpc", argc, argv);

    const auto dce = measure(net::dceRpcCosts());
    const auto lean = measure(net::leanRpcCosts());

    std::printf("\nOne prototype drive, one client, warm cache:\n\n");
    std::printf("  %-26s %18s %16s\n", "protocol stack",
                "512KB reads MB/s", "getattr ms");
    std::printf("  %-26s %18.1f %16.3f\n", "DCE RPC / UDP/IP",
                dce.warm_read_mbs, dce.small_op_ms);
    std::printf("  %-26s %18.1f %16.3f\n", "lean SAN protocol",
                lean.warm_read_mbs, lean.small_op_ms);
    std::printf("  %-26s %17.1fx %15.1fx\n", "improvement",
                lean.warm_read_mbs / dce.warm_read_mbs,
                dce.small_op_ms / lean.small_op_ms);
    std::printf("\nPaper anchor: the drive-side object service is cheap; "
                "a commodity NASD would ship a\nlean protocol stack "
                "rather than workstation DCE RPC, recovering most of the "
                "70-97%%\nof instructions spent on communications.\n");
    bench::writeBenchJson(opts, "ablation_rpc",
                          "Section 4.4 (communications dominate request cost)");

    return 0;
}
