/**
 * @file
 * Ablation: what request integrity costs (Section 4.1's argument).
 *
 * The paper disabled its security protocols because software crypto at
 * disk rates was infeasible, and argued that a few tens of thousands
 * of gates of digest hardware make it affordable. This bench measures
 * warm 512 KB reads under the three security levels the drive
 * supports: none (the paper's measured configuration), software keyed
 * digests, and hardware digest support.
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

double
measure(SecurityLevel level)
{
    sim::Simulator sim;
    net::Network net(sim);
    auto cfg = prototypeDriveConfig("nasd0", 1);
    cfg.security = level;
    NasdDrive drive(sim, net, std::move(cfg));
    CapabilityIssuer issuer(drive.config().master_key, 1);
    auto &client_node = net.addNode("client", net::alphaStation255(),
                                    net::oc3Link(), net::dceRpcCosts());
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
    po.rights = kRightRead | kRightWrite;
    CredentialFactory cred(issuer.mint(po));

    const std::vector<std::uint8_t> data(2 * kMB, 7);
    auto w = bench::runFor(sim, client.write(cred, 0, data));
    (void)w;
    std::vector<std::uint8_t> buf(512 * kKB); // every read lands here
    // Warm pass.
    for (std::uint64_t off = 0; off < 2 * kMB; off += 512 * kKB)
        (void)bench::runFor(sim, client.read(cred, off, buf));

    const sim::Tick start = sim.now();
    std::uint64_t moved = 0;
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t off = 0; off < 2 * kMB; off += 512 * kKB) {
            auto r = bench::runFor(sim, client.read(cred, off, buf));
            moved += r.ok() ? r.value() : 0;
        }
    }
    return util::bytesPerSecToMBs(static_cast<double>(moved) /
                                  sim::toSeconds(sim.now() - start));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("ablation_security — cost of request integrity",
                  "Section 4.1 (cryptographic integrity; Figure 5)");

    const bench::BenchOptions opts = bench::parseOptions("ablation_security", argc, argv);

    const double none = measure(SecurityLevel::kNone);
    const double sw = measure(SecurityLevel::kIntegritySw);
    const double hw = measure(SecurityLevel::kIntegrityHw);

    std::printf("\nWarm 512KB reads from one prototype drive:\n\n");
    std::printf("  %-34s %12s %10s\n", "security level", "MB/s",
                "vs none");
    std::printf("  %-34s %12.1f %9.0f%%\n",
                "none (paper's measured config)", none, 100.0);
    std::printf("  %-34s %12.1f %9.0f%%\n", "integrity, software digests",
                sw, 100.0 * sw / none);
    std::printf("  %-34s %12.1f %9.0f%%\n", "integrity, digest hardware",
                hw, 100.0 * hw / none);
    std::printf("\nPaper anchor: software crypto at disk rates is not "
                "viable on a drive controller, but\nDES-class digest "
                "hardware (tens of kilogates) runs faster than the media "
                "rate,\nmaking integrity nearly free.\n");
    bench::writeBenchJson(opts, "ablation_security",
                          "Section 4.1 (cryptographic integrity; Figure 5)");

    return 0;
}
