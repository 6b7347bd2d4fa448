/**
 * @file
 * Per-layer accounting for perfbench: registry snapshots taken around
 * the measured window, and the split of each traced client op across
 * the pfs -> cheops -> nasd -> drive spans the program already emits.
 */
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "util/trace.h"

namespace perfbench {

/** Every counter and latency (count, sum) of a registry at one time. */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> latencies;
    sim::Tick now = 0;
    std::uint64_t events = 0; ///< process-wide; excluded from ==

    static Snapshot take(util::MetricsRegistry &reg, sim::Simulator &sim);
    std::uint64_t counter(const std::string &path) const;
    bool operator==(const Snapshot &o) const
    {
        return counters == o.counters && latencies == o.latencies &&
               now == o.now;
    }
};

/** Metric name -> (value, unit). */
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

struct LayerReport
{
    MetricMap metrics;
    std::vector<std::string> errors;
    double reconcile_err_pct = 0;
};

/**
 * Per-layer metrics of the window [before, window]: counter deltas
 * from the registry, and span self times from the first
 * @p window_spans spans of @p tracer, reconciled against the first
 * @p window_ops client ops the benchmark timed itself.
 * @p window_sim_s is the window's busy simulated time.
 */
LayerReport analyzeLayers(const util::Tracer &tracer,
                          std::size_t window_spans, const Tally &tally,
                          std::size_t window_ops, const Snapshot &before,
                          const Snapshot &window, double window_sim_s);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H_
