/**
 * @file
 * The three simulated clusters the benchmark drives: `mine` (the
 * Figure 9 NASD PFS point), `wide` (64 drives, random 64 KB Cheops
 * reads) and `update` (RAID-5 read-modify-write through Cheops).
 *
 * Each cluster is built only through the public APIs (NasdDrive,
 * CheopsManager/CheopsClient, PfsManager/PfsClient,
 * apps::TransactionGenerator) inside its own MetricsScope, so two
 * clusters built from the same seed start from identical state and
 * registry paths. A round is a fixed amount of closed-loop client work
 * run to completion on the single simulator thread.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cheops/cheops.h"
#include "net/network.h"
#include "nasd/drive.h"
#include "sim/simulator.h"
#include "util/metrics.h"

namespace perfbench {

using namespace nasd;

enum class OpClass : std::uint8_t { kRead = 0, kWrite = 1 };

/** One client operation as the benchmark timed it (simulated clock). */
struct OpRecord
{
    OpClass cls = OpClass::kRead;
    std::uint32_t client = 0;
    std::uint32_t bytes = 0;
    sim::Tick begin = 0;
    sim::Tick latency = 0;
};

/** What the clients of one or more rounds did. */
struct Tally
{
    std::vector<OpRecord> ops;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;     ///< ops that returned an error or short
    std::uint64_t mismatches = 0; ///< ops whose bytes failed the check
    std::uint64_t bytes = 0;      ///< client bytes moved by good ops
    double kernel_host_s = 0;     ///< host time in per-op data kernels
    std::uint64_t offset_digest = 0xcbf29ce484222325ull;
    /// Cleared once the window's ops are recorded, so the record does
    /// not grow with the number of rounds a run gets through.
    bool keep_ops = true;

    void noteOffset(std::uint64_t client, std::uint64_t offset);
    void addOp(const OpRecord &op)
    {
        if (keep_ops)
            ops.push_back(op);
    }
};

/** Host-clock costs of building one cluster. */
struct SetupCosts
{
    double gen_host_s = 0;       ///< generating the loaded data
    double init_host_s = 0;      ///< CheopsManager::initialize
    double excluded_host_s = 0;  ///< reference-model work, not set-up
    double rss_per_drive_mb = 0; ///< RSS growth of drives + format
};

/** Sizes; `small` shrinks every workload for the self-test. */
struct Params
{
    std::uint64_t seed = 1;
    bool small = false;
};

/**
 * A simulated cluster plus its closed-loop clients. The registry
 * scope is the first member so every instrument outlives the objects
 * that registered it.
 */
class Cluster
{
  public:
    virtual ~Cluster();

    sim::Simulator &sim() { return sim_; }
    util::MetricsRegistry &registry() { return scope_.registry(); }
    std::size_t driveCount() const { return raw_.size(); }

    /** Rounds whose simulated results define the sim metrics. */
    virtual std::size_t windowRounds() const = 0;
    /** Rounds before this one are not host-timed (a different shape). */
    virtual std::size_t firstTimedRound() const { return 0; }
    /** Later rounds repeat their work with this period. */
    virtual std::size_t roundCycle() const { return 1; }
    /**
     * Spawn one round of client work; the caller runs the simulator
     * until the queue drains, then calls finishRound().
     */
    virtual void startRound(Tally &tally) = 0;
    virtual void finishRound(Tally &tally) { (void)tally; }
    /** Checks that need the whole run (e.g. a final read-back). */
    virtual void finalCheck(Tally &tally) { (void)tally; }
    /** Digest of the generated data the cluster was loaded with. */
    virtual std::uint64_t dataDigest() const = 0;
    /** mine only: the first pass must reproduce this MB/s. */
    virtual bool reproducesFig9() const { return false; }

  protected:
    Cluster() = default;
    /** Build @p n drives, the Cheops manager node and manager. */
    void buildDrives(int n, std::uint64_t data_cache_bytes,
                     SetupCosts &costs);
    net::NetNode &addHost(const std::string &name, bool server);
    void flushDrives();

    util::MetricsScope scope_;
    sim::Simulator sim_;
    net::Network net_{sim_};
    std::vector<std::unique_ptr<NasdDrive>> drives_;
    std::vector<NasdDrive *> raw_;
    std::unique_ptr<cheops::CheopsManager> storage_;
};

/** Build the named workload's cluster; nullptr for an unknown name. */
std::unique_ptr<Cluster> makeCluster(const std::string &workload,
                                     const Params &params,
                                     SetupCosts &costs);

/** SplitMix64 finalizer, for digests and seed derivation. */
std::uint64_t mix64(std::uint64_t x);

/** Host monotonic clock, in seconds. */
double hostNow();

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
