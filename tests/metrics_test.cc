/**
 * @file
 * Tests for the hierarchical metrics registry and the causal tracer:
 * create-on-first-use lookup, kind-collision panics, unique instance
 * prefixes, the JSON snapshot round-trip, MetricsScope stacking, and
 * Chrome trace_event span emission.
 */
#include <gtest/gtest.h>

#include <string>

#include "util/metrics.h"
#include "util/trace.h"

namespace nasd::util {
namespace {

TEST(MetricsRegistry, CreateOnFirstUseIsPointerStable)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("drive0/ops/read/count");
    c.add(3);
    EXPECT_EQ(&reg.counter("drive0/ops/read/count"), &c);
    EXPECT_EQ(reg.counter("drive0/ops/read/count").value(), 3u);
    EXPECT_EQ(reg.size(), 1u);

    Gauge &g = reg.gauge("fig6/read/raw/1MB_mbps");
    g.set(42.5);
    EXPECT_EQ(&reg.gauge("fig6/read/raw/1MB_mbps"), &g);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, ContainsSeesAllKinds)
{
    MetricsRegistry reg;
    reg.counter("a/count");
    reg.gauge("a/gauge");
    reg.latency("a/latency_ns");
    EXPECT_TRUE(reg.contains("a/count"));
    EXPECT_TRUE(reg.contains("a/gauge"));
    EXPECT_TRUE(reg.contains("a/latency_ns"));
    EXPECT_FALSE(reg.contains("a/missing"));
}

TEST(MetricsRegistryDeathTest, KindCollisionPanics)
{
    MetricsRegistry reg;
    reg.counter("drive0/ops_served");
    EXPECT_DEATH(reg.gauge("drive0/ops_served"),
                 "registered as counter, requested as gauge");
    EXPECT_DEATH(reg.latency("drive0/ops_served"),
                 "registered as counter, requested as latency");
}

TEST(MetricsRegistry, LatencySectionRoundTripsExactly)
{
    // Latency instruments serialize their full bucket state, so a
    // reload is byte-identical to the original dump.
    MetricsRegistry reg;
    LogHistogram &h = reg.latency("nasd0/ops/read/latency_ns");
    h.record(1000);
    h.record(2500);
    h.record(7'000'000);
    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"latencies\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);

    MetricsRegistry loaded;
    loaded.importJson(json);
    EXPECT_EQ(loaded.latency("nasd0/ops/read/latency_ns").count(), 3u);
    EXPECT_EQ(loaded.latency("nasd0/ops/read/latency_ns").max(),
              7'000'000u);
    EXPECT_EQ(loaded.toJson(), json);
}

TEST(MetricsRegistry, UniquePrefixDeduplicatesInstances)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.uniquePrefix("drive"), "drive");
    EXPECT_EQ(reg.uniquePrefix("drive"), "drive#2");
    EXPECT_EQ(reg.uniquePrefix("drive"), "drive#3");
    // Independent stems do not interfere.
    EXPECT_EQ(reg.uniquePrefix("client"), "client");
}

TEST(MetricsRegistry, JsonRoundTripRestoresCountersAndGauges)
{
    MetricsRegistry reg;
    reg.counter("drive0/ops/read/count").add(17);
    reg.counter("net0/bytes_sent").add(1 << 20);
    reg.gauge("fig9/nasd/8_disks_mbps").set(42.5);

    MetricsRegistry loaded;
    loaded.importJson(reg.toJson());
    EXPECT_EQ(loaded.counter("drive0/ops/read/count").value(), 17u);
    EXPECT_EQ(loaded.counter("net0/bytes_sent").value(), 1u << 20);
    EXPECT_DOUBLE_EQ(loaded.gauge("fig9/nasd/8_disks_mbps").value(), 42.5);
    // The reload of a counter/gauge-only registry is value-identical.
    EXPECT_EQ(loaded.toJson(), reg.toJson());
}

TEST(MetricsRegistry, ImportSkipsUnknownSections)
{
    // Dumps written before the registry had a single latency store
    // carry a "histograms" section; it loads as if absent.
    MetricsRegistry src;
    src.counter("drive0/ops/read/count").add(17);
    src.gauge("fig9/nasd/8_disks_mbps").set(42.5);
    LogHistogram &h = src.latency("nasd0/ops/read/latency_ns");
    h.record(1000);
    h.record(7'000'000);
    const std::string json = src.toJson();
    std::string legacy = json;
    legacy.insert(legacy.find("\"latencies\""),
                  "\"histograms\": {\"x\": {\"count\": 1, \"mean\": 2, "
                  "\"p99\": 3}},\n  ");

    MetricsRegistry loaded;
    loaded.importJson(legacy);
    EXPECT_EQ(loaded.size(), 3u);
    EXPECT_FALSE(loaded.contains("x"));
    EXPECT_EQ(loaded.counter("drive0/ops/read/count").value(), 17u);
    EXPECT_DOUBLE_EQ(loaded.gauge("fig9/nasd/8_disks_mbps").value(), 42.5);
    EXPECT_EQ(loaded.latency("nasd0/ops/read/latency_ns").count(), 2u);
    EXPECT_EQ(loaded.latency("nasd0/ops/read/latency_ns").max(),
              7'000'000u);
    const std::string reexport = loaded.toJson();
    EXPECT_EQ(reexport.find("\"histograms\""), std::string::npos);
    EXPECT_EQ(reexport, json);
}

TEST(MetricsRegistryDeathTest, ImportRejectsMalformedJson)
{
    MetricsRegistry reg;
    EXPECT_DEATH(reg.importJson("{\"counters\": [1, 2]}"), "importJson");
}

TEST(MetricsRegistryDeathTest, ImportRejectsKindCollision)
{
    // A re-import may not silently retype an existing instrument: a
    // path registered as a counter panics when the imported document
    // provides it as a gauge, and vice versa.
    MetricsRegistry reg;
    reg.counter("drive0/ops_served").add(3);
    EXPECT_DEATH(
        reg.importJson("{\"counters\": {}, "
                       "\"gauges\": {\"drive0/ops_served\": 1.5}}"),
        "importJson: 'drive0/ops_served' already registered as counter");
    reg.gauge("fig9/mbps").set(2.0);
    EXPECT_DEATH(
        reg.importJson("{\"counters\": {\"fig9/mbps\": 7}, "
                       "\"gauges\": {}}"),
        "importJson: 'fig9/mbps' already registered as gauge");
}

TEST(MetricsScope, InstallsFreshRegistryAndRestores)
{
    MetricsRegistry &outer = metrics();
    Counter &outer_counter = outer.counter("scope_test/outer");
    {
        MetricsScope scope;
        EXPECT_EQ(&metrics(), &scope.registry());
        EXPECT_NE(&metrics(), &outer);
        // The fresh registry starts empty: same path, new instrument.
        EXPECT_FALSE(metrics().contains("scope_test/outer"));
        metrics().counter("scope_test/outer").add(5);
        // uniquePrefix restarts per scope, so repeated rig construction
        // gets the same names each run.
        EXPECT_EQ(metrics().uniquePrefix("drive"), "drive");
    }
    EXPECT_EQ(&metrics(), &outer);
    EXPECT_EQ(outer_counter.value(), 0u);
}

TEST(MetricsScope, ScopesNest)
{
    MetricsScope a;
    MetricsRegistry *first = &metrics();
    {
        MetricsScope b;
        EXPECT_NE(&metrics(), first);
    }
    EXPECT_EQ(&metrics(), first);
}

TEST(Tracer, RootAndChildSharesTraceId)
{
    Tracer t;
    const TraceContext root = t.newRoot();
    EXPECT_TRUE(root.valid());
    const TraceContext child = t.childOf(root);
    EXPECT_EQ(child.trace_id, root.trace_id);
    EXPECT_NE(child.span_id, root.span_id);

    const TraceContext other = t.newRoot();
    EXPECT_NE(other.trace_id, root.trace_id);
}

TEST(Tracer, SpansSerializeWithCausality)
{
    Tracer t;
    const TraceContext root = t.newRoot();
    const std::size_t parent =
        t.beginSpan("pfs/read", "client0", 100, root);
    const TraceContext child = t.childOf(root);
    const std::size_t fanout =
        t.beginSpan("nasd/read", "nasd3", 150, child, root.span_id);
    t.endSpan(fanout, 300);
    t.endSpan(parent, 400);
    EXPECT_EQ(t.spanCount(), 2u);

    const std::string json = t.toJson();
    // Chrome trace_event complete events with lane thread names.
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("client0"), std::string::npos);
    EXPECT_NE(json.find("nasd3"), std::string::npos);
    EXPECT_NE(json.find("pfs/read"), std::string::npos);
    EXPECT_NE(json.find("parent_span_id"), std::string::npos);
}

TEST(Tracer, GlobalInstallAndScopedSpan)
{
    EXPECT_EQ(tracer(), nullptr); // tracing defaults to off

    // Disabled: ScopedSpan is a no-op and contexts stay invalid.
    {
        ScopedSpan span("noop", "lane", 0, TraceContext{});
        span.endAt(10);
    }

    Tracer t;
    setTracer(&t);
    EXPECT_EQ(tracer(), &t);
    {
        const TraceContext root = t.newRoot();
        ScopedSpan span("op", "lane0", 5000, root);
        span.endAt(25000);
        span.endAt(90000); // idempotent: the second end is ignored
    }
    setTracer(nullptr);
    EXPECT_EQ(tracer(), nullptr);

    ASSERT_EQ(t.spanCount(), 1u);
    // Timestamps are nanoseconds in, microseconds out (trace_event).
    const std::string json = t.toJson();
    EXPECT_NE(json.find("\"dur\": 20"), std::string::npos);
}

} // namespace
} // namespace nasd::util
