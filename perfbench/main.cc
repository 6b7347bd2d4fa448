/**
 * @file
 * perfbench: one named workload per process, measured on two clocks.
 *
 *   perfbench --workload mine|wide|update --seed N --seconds S
 *             --trace 0|1 [--small] [--expect-mbps X]
 *
 * --trace 0 builds the cluster several times (set-up time is the
 * median) and runs rounds of closed-loop client work on each build for
 * its share of S seconds. Host times are reported at a reference host
 * speed, measured by a fixed probe run next to the timed work (see
 * HostProbe).
 * --trace 1 builds two identical clusters, runs the same rounds on
 * each with util::Tracer off and on, checks that every simulated
 * result and registry counter agrees, and derives the per-layer
 * numbers from the traced spans and the counters.
 *
 * Simulated metrics come from the first windowRounds() rounds only, so
 * they repeat exactly for a seed whatever S is. The last line of
 * stdout is one JSON object; perfbench/run.py selects the metrics that
 * BENCHMARK.json names.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "util/trace.h"
#include "util/units.h"

using namespace perfbench;

namespace {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** Nearest-rank percentile of simulated latencies, in ms. */
double
percentileMs(std::vector<sim::Tick> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return static_cast<double>(v[rank - 1]) / 1e6;
}

/**
 * Host-speed probe: 2^18 random read-modify-writes over a 16 MB table
 * owned by the benchmark, the same addresses every time. On a shared
 * VM every host time can rise by ~1.7x for tens of seconds when other
 * tenants load the cores, caches and memory. The probe slows down with
 * the program, so a host time divided by the probe time measured next
 * to it, times kRefSeconds, is that time at a fixed reference speed.
 * The probe never touches the program's state, and it walks its table
 * once untimed before the timed walk, so what the program left in the
 * caches does not move it either: a change to the program moves only
 * the timed work.
 */
class HostProbe
{
  public:
    /// The probe's time at the reference speed: about what it takes on
    /// the 4-vCPU Xeon VM the benchmark was tuned on (0.9-1.9 ms there).
    static constexpr double kRefSeconds = 0.0015;

    HostProbe() : table_(std::size_t{1} << 21, 1) {}

    /** Host seconds of one probe. */
    double
    run()
    {
        walk();
        const double t0 = hostNow();
        walk();
        return hostNow() - t0;
    }

    /** Mean host seconds of @p n probes in a row. */
    double
    run(int n)
    {
        double s = 0;
        for (int i = 0; i < n; ++i)
            s += run();
        return s / n;
    }

  private:
    void
    walk()
    {
        const std::size_t mask = table_.size() - 1;
        std::uint64_t x = 1;
        for (std::size_t i = 0; i < (std::size_t{1} << 18); ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            table_[(x >> 20) & mask] += x;
        }
    }

    std::vector<std::uint64_t> table_;
};

/** @p host_s of work at the reference speed, given the probe's time. */
double
atRefSpeed(double host_s, double probe_s)
{
    return probe_s > 0 ? host_s * HostProbe::kRefSeconds / probe_s : 0;
}

struct Args
{
    std::string workload;
    Params params;
    double seconds = 10;
    bool trace = false;
    double expect_mbps = 0;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const bool has = i + 1 < argc;
        if (k == "--workload" && has)
            a.workload = argv[++i];
        else if (k == "--seed" && has)
            a.params.seed = std::stoull(argv[++i]);
        else if (k == "--seconds" && has)
            a.seconds = std::stod(argv[++i]);
        else if (k == "--trace" && has)
            a.trace = std::string(argv[++i]) == "1";
        else if (k == "--expect-mbps" && has)
            a.expect_mbps = std::stod(argv[++i]);
        else if (k == "--small")
            a.params.small = true;
        else
            return false;
    }
    return !a.workload.empty();
}

/** The measured phase of one cluster. */
struct Measured
{
    Tally tally;
    std::size_t rounds = 0;
    /// Host times of the timed rounds (firstTimedRound() on), and of
    /// the host probe run after each of them.
    std::vector<double> round_wall_s, round_kernel_s, round_probe_s;
    /// Per timed round: 'w' in the window, else 't' traced / 'u' not.
    std::string phase;
    Snapshot before, window, end;
    std::size_t window_ops = 0;   ///< tally.ops entries in the window
    std::uint64_t window_bytes = 0;
    double window_sim_s = 0;
    double host_s = 0; ///< whole measured phase, probes left out
    std::size_t window_spans = 0; ///< tracer spans recorded by then
};

/**
 * Run rounds until the window is done and @p seconds of host time have
 * passed, or exactly @p fixed_rounds rounds when that is nonzero. Each
 * timed round is followed by one run of @p probe.
 * A non-null @p tracer is installed for the window and then for every
 * other roundCycle() rounds, so traced and untraced rounds cover the
 * same work and interleave in time.
 */
Measured
measure(Cluster &c, double seconds, std::size_t fixed_rounds,
        util::Tracer *tracer, HostProbe &probe)
{
    Measured m;
    m.before = Snapshot::take(c.registry(), c.sim());
    double sim_s = 0; // busy simulated time of the rounds so far
    const double t_start = hostNow();
    for (std::size_t r = 0;; ++r) {
        const bool more =
            fixed_rounds != 0
                ? r < fixed_rounds
                : r < c.windowRounds() || r <= c.firstTimedRound() ||
                      hostNow() - t_start < seconds;
        if (!more)
            break;
        const bool traced =
            tracer != nullptr &&
            (r < c.windowRounds() ||
             (r - c.windowRounds()) / c.roundCycle() % 2 == 0);
        util::setTracer(traced ? tracer : nullptr);
        const double k0 = m.tally.kernel_host_s;
        const double t0 = hostNow();
        const sim::Tick r0 = c.sim().now();
        c.startRound(m.tally);
        c.sim().run();
        sim_s += sim::toSeconds(c.sim().lastEventTime() - r0);
        c.finishRound(m.tally);
        if (r >= c.firstTimedRound()) {
            m.round_wall_s.push_back(hostNow() - t0);
            m.round_kernel_s.push_back(m.tally.kernel_host_s - k0);
            m.round_probe_s.push_back(probe.run());
            m.phase.push_back(r < c.windowRounds() ? 'w'
                              : traced             ? 't'
                                                   : 'u');
        }
        ++m.rounds;
        if (r + 1 == c.windowRounds()) {
            m.window = Snapshot::take(c.registry(), c.sim());
            m.window_ops = m.tally.ops.size();
            m.tally.keep_ops = false;
            m.window_bytes = m.tally.bytes;
            m.window_sim_s = sim_s;
            m.window_spans = tracer != nullptr ? tracer->spanCount() : 0;
        }
    }
    util::setTracer(nullptr);
    m.end = Snapshot::take(c.registry(), c.sim());
    m.host_s = hostNow() - t_start - sum(m.round_probe_s);
    return m;
}

/** Simulated end-to-end results of the window (exact per seed). */
std::map<std::string, double>
simMetrics(const Measured &m, const Cluster &c)
{
    std::vector<sim::Tick> reads, writes;
    for (std::size_t i = 0; i < m.window_ops; ++i) {
        const OpRecord &op = m.tally.ops[i];
        (op.cls == OpClass::kRead ? reads : writes).push_back(op.latency);
    }
    std::map<std::string, double> s;
    s["sim_mbps"] = util::bytesPerSecToMBs(
        static_cast<double>(m.window_bytes) / m.window_sim_s);
    s["sim_read_p50_ms"] = percentileMs(reads, 50);
    s["sim_read_p99_ms"] = percentileMs(reads, 99);
    s["sim_write_p50_ms"] = percentileMs(writes, 50);
    s["sim_write_p99_ms"] = percentileMs(writes, 99);
    s["paper_err_pct"] =
        c.reproducesFig9() ? std::fabs(s["sim_mbps"] - 45.0) / 45.0 * 100.0
                           : 0.0;
    return s;
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s)
        out += (ch == '"' || ch == '\\') ? std::string("\\") + ch
                                         : std::string(1, ch);
    return out;
}

/** FNV-1a over the text of every simulated result and counter. */
std::string
hex64(std::uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
simDigest(const std::map<std::string, double> &sim_metrics,
          const Snapshot &window, const Snapshot &before)
{
    std::ostringstream os;
    for (const auto &[k, v] : sim_metrics)
        os << k << '=' << fmt(v) << ';';
    for (const auto &[k, v] : window.counters)
        os << k << '=' << v - before.counter(k) << ';';
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : os.str())
        h = (h ^ ch) * 0x100000001b3ull;
    return hex64(h);
}

struct Output
{
    std::vector<std::string> errors;
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::uint64_t attempted = 0, failed = 0;
    std::string sim_digest, input_digest;

    void put(const std::string &k, double v, const char *unit)
    {
        metrics[k] = {v, unit};
    }

    void
    print() const
    {
        std::ostringstream os;
        os << "{\"correct\": " << (errors.empty() ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"errors\": [";
        for (std::size_t i = 0; i < errors.size(); ++i)
            os << (i ? ", " : "") << '"' << jsonEscape(errors[i]) << '"';
        os << "], \"sim_digest\": \"" << sim_digest
           << "\", \"input_digest\": \"" << input_digest
           << "\", \"metrics\": {";
        bool first = true;
        for (const auto &[k, vu] : metrics) {
            os << (first ? "" : ", ") << '"' << k << "\": {\"value\": "
               << fmt(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
            first = false;
        }
        os << "}}";
        std::printf("%s\n", os.str().c_str());
        std::fflush(stdout);
    }
};

/**
 * Correctness of a cluster's client ops (@p tally, after the cluster's
 * final check) and, when @p sims is given, of its window against
 * Figure 9. Appends to @p out.errors.
 */
void
checkCorrect(Cluster &c, const Tally &tally,
             const std::map<std::string, double> *sims, const Args &a,
             Output &out, const char *tag)
{
    Tally final_tally;
    c.finalCheck(final_tally);
    const std::uint64_t mismatches =
        tally.mismatches + final_tally.mismatches;
    if (mismatches != 0)
        out.errors.push_back(std::string(tag) + ": " +
                             std::to_string(mismatches) +
                             " outputs differ from the reference model");
    if (tally.failed != 0)
        out.errors.push_back(std::string(tag) + ": " +
                             std::to_string(tally.failed) +
                             " client ops failed");
    if (sims != nullptr && c.reproducesFig9()) {
        const double got = sims->at("sim_mbps");
        if (!(a.expect_mbps > 0) ||
            std::fabs(got - a.expect_mbps) > 1e-9 * a.expect_mbps)
            out.errors.push_back(
                std::string(tag) + ": first-pass sim_mbps " + fmt(got) +
                " != fig9/nasd/8_disks_mbps " + fmt(a.expect_mbps));
    }
}

/**
 * wall_s: the mean timed round at the reference speed, from the mean
 * round and the mean probe run after the rounds. Every round counts in
 * full, so host work that only some rounds do (mine's six parts,
 * update's write-behind) is not dropped.
 */
double
meanRoundAtRefSpeed(const std::vector<double> &round_wall_s,
                    const std::vector<double> &round_probe_s, Output &out)
{
    if (round_wall_s.empty()) {
        out.errors.push_back("no round was host-timed");
        return 0;
    }
    const auto n = static_cast<double>(round_wall_s.size());
    return atRefSpeed(sum(round_wall_s) / n, sum(round_probe_s) / n);
}

/**
 * Host-clock splits of a measured phase, per mean round and at the
 * host's own speed: the kernels plus Simulator::run make up the round.
 */
void
putHostSplits(const Measured &m, Output &out)
{
    const double rounds =
        static_cast<double>(std::max<std::size_t>(m.round_wall_s.size(), 1));
    const double round = sum(m.round_wall_s) / rounds;
    const double kernel = sum(m.round_kernel_s) / rounds;
    out.put("host.round_raw_s", round, "s");
    out.put("host.probe_ms", sum(m.round_probe_s) / rounds * 1e3, "ms");
    out.put("apps.count_host_s", kernel, "s");
    out.put("sim.run_host_s", round - kernel, "s");
    out.put("sim.events_per_host_s",
            static_cast<double>(m.end.events - m.before.events) / m.host_s,
            "1/s");
}

/** Simulated work of the window: events executed, busy sim seconds. */
void
putWindowWork(const Measured &m, Output &out)
{
    out.put("sim.events",
            static_cast<double>(m.window.events - m.before.events),
            "count");
    out.put("sim.sim_s", m.window_sim_s, "sim_s");
}

void
putSimMetrics(const std::map<std::string, double> &sims, Output &out)
{
    for (const auto &[k, v] : sims) {
        const bool pct = k == "paper_err_pct";
        const bool mbps = k == "sim_mbps";
        out.put(k, v, pct ? "%" : mbps ? "sim_MB/s" : "sim_ms");
    }
}

/** A built cluster and its set-up time. */
struct Built
{
    std::unique_ptr<Cluster> cluster;
    SetupCosts costs;
    double raw_s = 0; ///< host seconds of the set-up
    double ref_s = 0; ///< the same at the reference speed
};

/**
 * Build the workload's cluster between two blocks of host probes, so
 * its set-up time can be given at the reference speed.
 */
Built
build(const Args &a, HostProbe &probe)
{
    constexpr int kProbes = 8; // each side
    Built b;
    const double before = probe.run(kProbes);
    const double t0 = hostNow();
    b.cluster = makeCluster(a.workload, a.params, b.costs);
    b.raw_s = hostNow() - t0 - b.costs.excluded_host_s;
    const double after = probe.run(kProbes);
    b.ref_s = atRefSpeed(b.raw_s, (before + after) / 2);
    return b;
}

int
runUntraced(const Args &a, Output &out)
{
    // The cluster is built several times and each build is measured
    // for its share of --seconds, so set-up time is a median and the
    // round times are spread over the whole run, past interference that
    // lasts longer than one cluster's turn. mine's 300 MB generation
    // makes each of its set-ups ~10x dearer than the others'.
    const int setups = a.workload == "mine" ? 3 : 5;
    HostProbe probe;
    std::vector<double> setup_s, round_wall_s, round_probe_s;
    std::map<std::string, double> sims;
    for (int k = 0; k < setups; ++k) {
        Built b = build(a, probe);
        Cluster *cluster = b.cluster.get();
        setup_s.push_back(b.ref_s);
        Measured m =
            measure(*cluster, a.seconds / setups, 0, nullptr, probe);
        const auto sims_k = simMetrics(m, *cluster);
        checkCorrect(*cluster, m.tally, &sims_k, a, out, "untraced");
        round_wall_s.insert(round_wall_s.end(), m.round_wall_s.begin(),
                            m.round_wall_s.end());
        round_probe_s.insert(round_probe_s.end(), m.round_probe_s.begin(),
                             m.round_probe_s.end());
        out.attempted += m.tally.attempted;
        out.failed += m.tally.failed;
        if (k == 0) {
            sims = sims_k;
            out.sim_digest = simDigest(sims, m.window, m.before);
            out.input_digest = hex64(
                mix64(m.tally.offset_digest ^ cluster->dataDigest()));
        } else if (simDigest(sims_k, m.window, m.before) != out.sim_digest) {
            out.errors.push_back("a rebuilt cluster gave different "
                                 "simulated results");
        }
    }
    out.put("setup_s", median(setup_s), "s");
    out.put("wall_s", meanRoundAtRefSpeed(round_wall_s, round_probe_s, out),
            "s");
    out.put("peak_rss_mb", peakRssMb(), "MB");
    out.put("fail_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(std::max<std::uint64_t>(out.attempted,
                                                            1)),
            "ratio");
    putSimMetrics(sims, out);
    return 0;
}

int
runTraced(const Args &a, Output &out)
{
    // Untraced twin: defines the rounds, the host splits and the
    // simulated results the traced twin must reproduce exactly.
    HostProbe probe;
    Built built_a = build(a, probe);
    const SetupCosts &costs_a = built_a.costs;
    auto &a_cluster = built_a.cluster;
    Measured ma = measure(*a_cluster, a.seconds / 2, 0, nullptr, probe);
    const auto sims_a = simMetrics(ma, *a_cluster);
    checkCorrect(*a_cluster, ma.tally, &sims_a, a, out, "untraced");
    const std::uint64_t input_data_digest = a_cluster->dataDigest();
    a_cluster.reset();

    // Traced twin: the same rounds, traced through the window and then
    // in alternating blocks (see measure). Tracing overhead compares its
    // traced and untraced rounds after the window, which share its heap
    // state and the same stretch of host time.
    SetupCosts costs_b;
    auto b_cluster = makeCluster(a.workload, a.params, costs_b);
    util::Tracer tracer;
    Measured mb = measure(*b_cluster, 0, ma.rounds, &tracer, probe);
    const auto sims_b = simMetrics(mb, *b_cluster);
    checkCorrect(*b_cluster, mb.tally, &sims_b, a, out, "traced");

    if (sims_a != sims_b)
        out.errors.push_back("traced simulated metrics differ from untraced");
    if (!(ma.window == mb.window) || !(ma.end == mb.end))
        out.errors.push_back("traced registry counters differ from untraced");

    LayerReport layers =
        analyzeLayers(tracer, mb.window_spans, mb.tally, mb.window_ops,
                      mb.before, mb.window, mb.window_sim_s);
    for (const auto &e : layers.errors)
        out.errors.push_back("trace: " + e);
    if (layers.reconcile_err_pct > 1.0)
        out.errors.push_back("trace: per-layer shares miss the measured "
                             "latency by " +
                             fmt(layers.reconcile_err_pct) + "%");
    for (const auto &[k, vu] : layers.metrics)
        out.metrics[k] = vu;

    putSimMetrics(sims_a, out);
    putHostSplits(ma, out);
    putWindowWork(ma, out);
    out.put("fail_frac",
            static_cast<double>(ma.tally.failed) /
                static_cast<double>(std::max<std::uint64_t>(
                    ma.tally.attempted, 1)),
            "ratio");
    out.put("host.setup_raw_s", built_a.raw_s, "s");
    out.put("apps.gen_host_s", costs_a.gen_host_s, "s");
    out.put("cheops.init_host_s", costs_a.init_host_s, "s");
    out.put("nasd.rss_per_drive_mb", costs_a.rss_per_drive_mb, "MB");
    std::vector<double> on, off;
    for (std::size_t i = 0; i < mb.phase.size(); ++i)
        if (mb.phase[i] != 'w')
            (mb.phase[i] == 't' ? on : off).push_back(mb.round_wall_s[i]);
    out.put("trace.overhead_pct",
            on.empty() || off.empty()
                ? 0.0
                : (median(on) / median(off) - 1.0) * 100.0,
            "%");
    out.attempted = ma.tally.attempted + mb.tally.attempted;
    out.failed = ma.tally.failed + mb.tally.failed;
    out.sim_digest = simDigest(sims_a, ma.window, ma.before);
    out.input_digest =
        hex64(mix64(ma.tally.offset_digest ^ input_data_digest));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload mine|wide|update "
                     "--seed N --seconds S --trace 0|1 [--small] "
                     "[--expect-mbps X]\n");
        return 2;
    }
    if (a.workload != "mine" && a.workload != "wide" &&
        a.workload != "update") {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    Output out;
    const int rc = a.trace ? runTraced(a, out) : runUntraced(a, out);
    out.print();
    return rc;
}
