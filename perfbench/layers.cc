#include "perfbench/layers.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <tuple>
#include <unordered_map>

#include "util/attribution.h"

namespace perfbench {

Snapshot
Snapshot::take(util::MetricsRegistry &reg, sim::Simulator &sim)
{
    Snapshot s;
    reg.forEachCounter([&s](const std::string &p, const util::Counter &c) {
        s.counters[p] = c.value();
    });
    reg.forEachLatency(
        [&s](const std::string &p, const util::LogHistogram &h) {
            s.latencies[p] = {h.count(), h.sum()};
        });
    s.now = sim.now();
    s.events = sim::Simulator::totalEventsExecuted();
    return s;
}

std::uint64_t
Snapshot::counter(const std::string &path) const
{
    auto it = counters.find(path);
    return it == counters.end() ? 0 : it->second;
}

namespace {

using PathPred = std::function<bool(const std::string &)>;

bool
startsWith(const std::string &s, const std::string &p)
{
    return s.compare(0, p.size(), p) == 0;
}

bool
endsWith(const std::string &s, const std::string &p)
{
    return s.size() >= p.size() &&
           s.compare(s.size() - p.size(), p.size(), p) == 0;
}

/** Drive instruments live under "nasd<N>/". */
bool
isDrivePath(const std::string &p)
{
    return startsWith(p, "nasd") && p.size() > 4 &&
           std::isdigit(static_cast<unsigned char>(p[4]));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Counter deltas over the window. */
class Deltas
{
  public:
    Deltas(const Snapshot &b, const Snapshot &w) : b_(b), w_(w) {}

    double
    sum(const PathPred &pred) const
    {
        double total = 0;
        for (const auto &[path, v] : w_.counters)
            if (pred(path))
                total += static_cast<double>(v - b_.counter(path));
        return total;
    }

    /** Sum of counters whose path ends with @p leaf. */
    double
    leaf(const std::string &leaf, const PathPred &scope = nullptr) const
    {
        return sum([&](const std::string &p) {
            return endsWith(p, leaf) && (!scope || scope(p));
        });
    }

    /** Per-path deltas for paths matching @p pred. */
    std::vector<double>
    each(const PathPred &pred) const
    {
        std::vector<double> out;
        for (const auto &[path, v] : w_.counters)
            if (pred(path))
                out.push_back(static_cast<double>(v - b_.counter(path)));
        return out;
    }

    /** Window (count, sum) over latency instruments ending in @p leaf. */
    std::pair<double, double>
    latency(const std::string &leaf) const
    {
        double n = 0, s = 0;
        for (const auto &[path, cs] : w_.latencies) {
            if (!isDrivePath(path) || !endsWith(path, leaf))
                continue;
            auto it = b_.latencies.find(path);
            const auto base = it == b_.latencies.end()
                                  ? std::pair<std::uint64_t, std::uint64_t>{}
                                  : it->second;
            n += static_cast<double>(cs.first - base.first);
            s += static_cast<double>(cs.second - base.second);
        }
        return {n, s};
    }

  private:
    const Snapshot &b_;
    const Snapshot &w_;
};

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/** Length of the union of @p v clipped to [lo, hi]. */
std::uint64_t
unionLength(std::vector<Interval> v, std::uint64_t lo, std::uint64_t hi)
{
    std::sort(v.begin(), v.end());
    std::uint64_t total = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : v) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (a >= b)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        if (open)
            total += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    if (open)
        total += cur_hi - cur_lo;
    return total;
}

/** Name of a trace level whose spans come from different layers. */
const char *const kMixedLayer = "mixed";

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('/'));
}

/** Span-derived half of the report. */
struct SpanAnalysis
{
    const util::Tracer &tracer;
    std::size_t n;
    std::vector<bool> closed;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;

    SpanAnalysis(const util::Tracer &t, std::size_t window)
        : tracer(t), n(window), closed(window)
    {
        const auto &spans = tracer.spans();
        for (std::size_t i = 0; i < n; ++i) {
            closed[i] = spans[i].end_ns > spans[i].begin_ns;
            if (spans[i].parent_span != 0)
                children[spans[i].parent_span].push_back(i);
        }
    }

    const util::Tracer::Span &at(std::size_t i) const
    {
        return tracer.spans()[i];
    }

    const std::vector<std::size_t> &
    kids(std::size_t i) const
    {
        static const std::vector<std::size_t> none;
        auto it = children.find(at(i).ctx.span_id);
        return it == children.end() ? none : it->second;
    }

    /**
     * Split root @p r by depth: level k's share is the time covered by
     * level-k spans but not by level k+1, so the shares of all levels
     * sum to the root's duration. A level is named by the layer of its
     * spans, or kMixedLayer when they belong to more than one. A
     * negative share means a child span outlived its parent.
     */
    std::vector<std::pair<std::string, double>>
    levelShares(std::size_t r) const
    {
        std::vector<std::pair<std::string, double>> share;
        const std::uint64_t lo = at(r).begin_ns, hi = at(r).end_ns;
        std::vector<std::size_t> level{r};
        std::uint64_t covered = hi - lo;
        while (!level.empty()) {
            std::vector<std::size_t> next;
            std::vector<Interval> iv;
            for (std::size_t s : level)
                for (std::size_t k : kids(s))
                    if (closed[k]) {
                        next.push_back(k);
                        iv.emplace_back(at(k).begin_ns, at(k).end_ns);
                    }
            const std::uint64_t below = unionLength(iv, lo, hi);
            std::string layer = layerOf(at(level.front()).name);
            for (std::size_t s : level)
                if (layerOf(at(s).name) != layer)
                    layer = kMixedLayer;
            share.emplace_back(layer, static_cast<double>(covered) -
                                          static_cast<double>(below));
            covered = below;
            level = std::move(next);
        }
        return share;
    }
};

bool
isClientRoot(const std::string &name)
{
    return name == "pfs/read" || name == "cheops/read" ||
           name == "cheops/write";
}

} // namespace

LayerReport
analyzeLayers(const util::Tracer &tracer, std::size_t window_spans,
              const Tally &tally, std::size_t window_ops,
              const Snapshot &before, const Snapshot &window,
              double window_sim_s)
{
    LayerReport rep;
    auto put = [&rep](const std::string &k, double v, const char *unit) {
        rep.metrics[k] = {v, unit};
    };
    const Deltas d(before, window);

    // ---- client side, as the benchmark timed it
    double ops = 0, read_bytes = 0, write_bytes = 0;
    for (std::size_t i = 0; i < window_ops; ++i) {
        const OpRecord &op = tally.ops[i];
        ops += 1;
        (op.cls == OpClass::kRead ? read_bytes : write_bytes) += op.bytes;
    }

    // ---- net: every node's port counters; drives are "nasd<N>"
    const PathPred drive = isDrivePath;
    const PathPred host = [](const std::string &p) {
        return !isDrivePath(p);
    };
    put("net.bytes_sent", d.leaf("/net/bytes_sent"), "bytes");
    put("net.rpc_instr",
        d.leaf("/net/send_instr") + d.leaf("/net/recv_instr"), "count");
    put("net.client.tx_wait_ms",
        ratio(d.leaf("/net/tx_wait_ns", host), ops) / 1e6, "sim_ms");
    put("net.client.rx_wait_ms",
        ratio(d.leaf("/net/rx_wait_ns", host), ops) / 1e6, "sim_ms");
    put("net.drive.tx_wait_ms",
        ratio(d.leaf("/net/tx_wait_ns", drive), ops) / 1e6, "sim_ms");
    put("net.drive.rx_wait_ms",
        ratio(d.leaf("/net/rx_wait_ns", drive), ops) / 1e6, "sim_ms");
    put("net.tx_service_ms", ratio(d.leaf("/net/tx_service_ns"), ops) / 1e6,
        "sim_ms");
    put("nasd.rpc_timeouts", d.leaf("/net/rpc_timeouts"), "count");

    // ---- drive: per-op attribution counters, mean per drive op
    for (const char *op : {"read", "write"}) {
        const std::string base = std::string("/ops/") + op;
        const double count = d.leaf(base + "/count", drive);
        const std::string m = std::string("drive.") + op + ".";
        for (std::size_t c = 0; c < util::kResourceClassCount; ++c) {
            const std::string cls = util::resourceClassName(
                static_cast<util::ResourceClass>(c));
            for (const char *kind : {"wait", "service"}) {
                const double ns = d.leaf(
                    base + "/attr/" + cls + "_" + kind + "_ns", drive);
                put(m + cls + "_" + kind + "_ms", ratio(ns, count) / 1e6,
                    "sim_ms");
            }
        }
        put(m + "other_ms",
            ratio(d.leaf(base + "/attr/other_ns", drive), count) / 1e6,
            "sim_ms");
    }
    std::vector<double> util_per_drive;
    for (double busy : d.each([](const std::string &p) {
             return isDrivePath(p) && endsWith(p, "/cpu/service_ns");
         }))
        util_per_drive.push_back(ratio(busy, window_sim_s * 1e9));
    double util_sum = 0, util_max = 0;
    for (double u : util_per_drive) {
        util_sum += u;
        util_max = std::max(util_max, u);
    }
    put("drive.cpu_util_mean",
        ratio(util_sum, static_cast<double>(util_per_drive.size())),
        "ratio");
    put("drive.cpu_util_max", util_max, "ratio");

    // ---- object store and disks
    const auto store = [](const std::string &p) {
        return startsWith(p, "store");
    };
    const auto disk = [](const std::string &p) {
        return startsWith(p, "disk");
    };
    const double hit = d.leaf("/cache_hit_bytes", store);
    const double miss = d.leaf("/cache_miss_bytes", store);
    put("store.cache_hit_ratio", ratio(hit, hit + miss), "ratio");
    put("store.meta_misses", d.leaf("/meta_misses", store), "count");
    // Disk sectors are 512 bytes in every DiskParams preset.
    put("store.dev_read_per_user_byte",
        ratio(512.0 * d.leaf("/media_blocks_read", disk), read_bytes),
        "ratio");
    put("store.dev_write_per_user_byte",
        ratio(512.0 * d.leaf("/media_blocks_written", disk), write_bytes),
        "ratio");
    const double disk_ops = d.leaf("/reads", disk) + d.leaf("/writes", disk);
    put("disk.reads", d.leaf("/reads", disk), "count");
    put("disk.writes", d.leaf("/writes", disk), "count");
    put("disk.seeks", d.leaf("/seeks", disk), "count");
    const double dhit = d.leaf("/cache_hits", disk);
    put("disk.cache_hit_ratio",
        ratio(dhit, dhit + d.leaf("/cache_misses", disk)), "ratio");
    for (const char *res : {"mech", "bus"})
        for (const char *kind : {"wait", "service"})
            put(std::string("disk.") + res + "_" + kind + "_ms",
                ratio(d.leaf(std::string("/") + res + "_" + kind + "_ns",
                             disk),
                      disk_ops) /
                    1e6,
                "sim_ms");

    // ---- spans: closed spans by name, and nasd spans under each write
    const SpanAnalysis sa(tracer, window_spans);
    std::map<std::string, double> closed_n;
    std::map<std::string, double> under_write;
    std::size_t unclosed = 0;
    for (std::size_t i = 0; i < window_spans; ++i) {
        if (!sa.closed[i]) {
            ++unclosed;
            continue;
        }
        closed_n[sa.at(i).name] += 1;
        if (sa.at(i).name == "cheops/write")
            for (std::size_t k : sa.kids(i))
                under_write[sa.at(k).name] += 1;
    }
    put("trace.spans", static_cast<double>(window_spans), "count");
    put("trace.unclosed_spans", static_cast<double>(unclosed), "count");
    put("pfs.read.n", closed_n["pfs/read"], "count");
    put("cheops.read.n", closed_n["cheops/read"], "count");
    put("cheops.write.n", closed_n["cheops/write"], "count");
    put("cheops.write.drive_reads_per_op",
        ratio(under_write["nasd/read"], closed_n["cheops/write"]), "ratio");
    put("cheops.write.drive_writes_per_op",
        ratio(under_write["nasd/write"], closed_n["cheops/write"]),
        "ratio");

    // ---- layer self times, reconciled: each client op's root span is
    // split by depth (levelShares), and <layer>.<class>.self_ms is the
    // layer's mean share per client op of that class. Ops are matched
    // to the benchmark's own sim.now() stamps by (client lane, start
    // tick, class); a group holding an unclosed root is counted and
    // left out.
    using Key = std::tuple<std::string, sim::Tick, int>;
    struct Group
    {
        std::map<std::string, double> share_ns;
        bool unclosed = false;
    };
    std::map<Key, Group> spans_by_key;
    std::size_t bad_levels = 0;
    for (std::size_t i = 0; i < window_spans; ++i) {
        const auto &s = sa.at(i);
        if (s.parent_span != 0 || !isClientRoot(s.name))
            continue;
        const int cls = endsWith(s.name, "/write") ? 1 : 0;
        auto &slot = spans_by_key[Key{tracer.laneName(s.tid),
                                      static_cast<sim::Tick>(s.begin_ns),
                                      cls}];
        if (!sa.closed[i]) {
            slot.unclosed = true;
            continue;
        }
        for (const auto &[layer, ns] : sa.levelShares(i)) {
            if (ns < 0 || layer == kMixedLayer)
                bad_levels += 1;
            slot.share_ns[layer] += ns;
        }
    }
    if (bad_levels > 0)
        rep.errors.push_back(std::to_string(bad_levels) +
                             " trace levels are negative (a span outlived "
                             "its parent) or mix layers");
    struct Stamped
    {
        double ns = 0, n = 0;
    };
    std::map<Key, Stamped> bench_by_key;
    for (std::size_t i = 0; i < window_ops; ++i) {
        const OpRecord &op = tally.ops[i];
        auto &b = bench_by_key[Key{"client" + std::to_string(op.client),
                                   op.begin,
                                   op.cls == OpClass::kWrite ? 1 : 0}];
        b.ns += static_cast<double>(op.latency);
        b.n += 1;
    }
    // Per class: layer -> summed share; stamped latency; op count.
    std::map<std::string, double> share_ns[2];
    double bench_ns[2] = {0, 0}, ops_n[2] = {0, 0}, excluded = 0;
    for (const auto &[key, b] : bench_by_key) {
        auto it = spans_by_key.find(key);
        if (it == spans_by_key.end()) {
            rep.errors.push_back("a timed client op has no trace span");
            break;
        }
        if (it->second.unclosed) {
            excluded += b.n;
            continue;
        }
        const int cls = std::get<2>(key);
        for (const auto &[layer, ns] : it->second.share_ns)
            share_ns[cls][layer] += ns;
        bench_ns[cls] += b.ns;
        ops_n[cls] += b.n;
    }
    if (bench_by_key.size() != spans_by_key.size())
        rep.errors.push_back("trace roots and timed client ops differ: " +
                             std::to_string(spans_by_key.size()) + " vs " +
                             std::to_string(bench_by_key.size()));
    if (ops_n[0] + ops_n[1] == 0)
        rep.errors.push_back("no timed client op could be reconciled");
    put("trace.excluded_ops", excluded, "count");

    // The reported self times, times the op count, must sum to the
    // stamped latency of their class.
    double err = 0;
    for (int cls = 0; cls < 2; ++cls) {
        const std::string op = cls == 1 ? "write" : "read";
        for (const char *layer : {"pfs", "cheops", "nasd", "drive"})
            share_ns[cls][layer] += 0; // report absent layers as 0
        double reported_ns = 0;
        for (const auto &[layer, ns] : share_ns[cls]) {
            const std::string name = layer + "." + op + ".self_ms";
            put(name, ratio(ns, ops_n[cls]) / 1e6, "sim_ms");
            reported_ns += rep.metrics[name].first * 1e6 * ops_n[cls];
        }
        err = std::max(err, ratio(std::fabs(reported_ns - bench_ns[cls]),
                                  bench_ns[cls]));
    }

    // ---- reconciliation 2: drive spans against the drive registry —
    // span duration == latency histogram, and the span's wait/service
    // annotations plus the other_ns counter == span duration.
    for (const char *op : {"read", "write"}) {
        const std::string name = std::string("drive/") + op;
        double dur = 0, annotated = 0, n = 0;
        for (std::size_t i = 0; i < window_spans; ++i) {
            const auto &s = sa.at(i);
            if (s.name != name || !sa.closed[i])
                continue;
            n += 1;
            dur += static_cast<double>(s.end_ns - s.begin_ns);
            for (const auto &[key, v] : s.args)
                if (endsWith(key, "_wait_ns") || endsWith(key, "_service_ns"))
                    annotated += static_cast<double>(v);
        }
        const auto [count, lat_sum] =
            d.latency(std::string("/ops/") + op + "/latency_ns");
        if (count != n)
            rep.errors.push_back(name + ": " + std::to_string(n) +
                                 " spans vs " + std::to_string(count) +
                                 " registry ops");
        if (n == 0)
            continue;
        const double other =
            d.leaf(std::string("/ops/") + op + "/attr/other_ns", drive);
        err = std::max(err, ratio(std::fabs(dur - lat_sum), dur));
        err = std::max(err, ratio(std::fabs(annotated + other - dur), dur));
    }
    rep.reconcile_err_pct = err * 100.0;
    put("trace.reconcile_err_pct", rep.reconcile_err_pct, "%");
    return rep;
}

} // namespace perfbench
