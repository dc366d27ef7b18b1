/**
 * @file
 * Tests for the consolidated SessionReport: golden-JSON pin of the
 * Fig 9 latency breakdown (Resnet-50, 32 accelerators, baseline),
 * bit-identical throughput with metrics on vs off, bottleneck
 * attribution on the paper presets, exporter well-formedness, and the
 * canonical goodput/efficiency formulas.
 */

#include <gtest/gtest.h>

#include "sim/trace.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {
namespace {

SessionReport
runReport(ServerConfig cfg)
{
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.runReport(4, 8);
}

// Pinned by tests/test_checkpoint.cc for the metrics-off path; the
// instrumentation must not move it when enabled either.
constexpr double kBaseline32Throughput = 30412.537359822836;

TEST(SessionReport, MetricsDoNotPerturbThroughput)
{
    const SessionReport off = runReport(
        ServerConfig::baseline().withAccelerators(32));
    const SessionReport on = runReport(
        ServerConfig::baseline().withAccelerators(32).withMetrics());
    EXPECT_DOUBLE_EQ(off.throughput(), kBaseline32Throughput);
    EXPECT_DOUBLE_EQ(on.throughput(), kBaseline32Throughput);
    EXPECT_DOUBLE_EQ(on.stepTime(), off.stepTime());
    EXPECT_DOUBLE_EQ(on.prepLatency(), off.prepLatency());
    EXPECT_FALSE(off.hasMetrics);
    EXPECT_TRUE(on.hasMetrics);

    // The canonical goodput and efficiency formulas on this run.
    EXPECT_DOUBLE_EQ(off.goodput(2.0 * off.throughput()), 0.5);
    EXPECT_DOUBLE_EQ(off.goodput(0.0), 0.0);
    EXPECT_DOUBLE_EQ(off.efficiency(), 1.0); // no checkpoints
}

TEST(SessionReport, GoldenFig9BreakdownResnet50At32)
{
    const SessionReport r = runReport(
        ServerConfig::baseline().withAccelerators(32).withMetrics());
    ASSERT_EQ(r.model, "Resnet-50");
    ASSERT_EQ(r.preset, "Baseline");

    // The Fig 9 decomposition, pinned at the JSON exporter's fixed
    // precision so any drift in the breakdown (or the exporter) fails.
    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"latency_breakdown_pct\": "
                        "{\"transfer\": 11.6275, "
                        "\"formatting\": 56.4630, "
                        "\"augmentation\": 28.7516, "
                        "\"compute\": 3.1542, "
                        "\"sync\": 0.0037, "
                        "\"prep_total\": 96.8421}"),
              std::string::npos)
        << json;

    const SessionReport::LatencyBreakdown lat = r.latency();
    EXPECT_NEAR(lat.prepShare(), 0.968421, 1e-6);
    EXPECT_DOUBLE_EQ(lat.total(),
                     lat.transfer + lat.formatting + lat.augmentation +
                         lat.compute + lat.sync);
}

TEST(SessionReport, BaselineBottleneckIsHostCpu)
{
    const SessionReport r = runReport(
        ServerConfig::baseline().withAccelerators(32).withMetrics());
    const std::vector<Bottleneck> ranked = r.bottlenecks();
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked[0].kind, "cpu");
    EXPECT_EQ(ranked[0].resource, "host.cpu");
    EXPECT_GT(ranked[0].utilization, 0.99);
    EXPECT_GT(ranked[0].saturatedFraction, 0.9);
    // The baseline's CPU burns in formatting (Fig 11a).
    EXPECT_EQ(ranked[0].dominantCategory, "formatting");
}

TEST(SessionReport, TrainBoxBottleneckIsTheAccelerator)
{
    const SessionReport r = runReport(
        ServerConfig::trainBox().withAccelerators(32).withMetrics());
    const std::vector<Bottleneck> ranked = r.bottlenecks();
    ASSERT_FALSE(ranked.empty());
    // TrainBox reaches the target: compute itself is the bottleneck.
    EXPECT_EQ(ranked[0].kind, "accelerator");
    EXPECT_GT(ranked[0].utilization, 0.99);
    EXPECT_NEAR(r.targetFraction(), 1.0, 1e-3);

    // Host axes are nearly idle (the point of the design).
    for (const Bottleneck &b : ranked) {
        if (b.kind == "cpu") {
            EXPECT_LT(b.utilization, 0.2);
        }
    }
}

TEST(SessionReport, MetricsOffFallsBackToHostAxes)
{
    const SessionReport r =
        runReport(ServerConfig::baseline().withAccelerators(32));
    EXPECT_FALSE(r.hasMetrics);
    EXPECT_TRUE(r.resources.empty());
    const std::vector<Bottleneck> ranked = r.bottlenecks();
    ASSERT_EQ(ranked.size(), 3u);
    // Axes are normalized demand/capacity: the baseline's 48 CPU cores
    // run flat out, so the CPU leads the fallback ranking too.
    EXPECT_EQ(ranked[0].kind, "cpu");
    EXPECT_GT(ranked[0].utilization, 0.99);
    EXPECT_EQ(ranked[0].dominantCategory, "formatting");
}

TEST(SessionReport, UtilizationCoversEveryDeviceClass)
{
    const SessionReport r = runReport(
        ServerConfig::trainBox().withAccelerators(32).withMetrics());
    ASSERT_FALSE(r.resources.empty());

    auto has_kind = [&r](const std::string &kind) {
        for (const ResourceUsage &u : r.resources)
            if (u.kind == kind)
                return true;
        return false;
    };
    EXPECT_TRUE(has_kind("cpu"));
    EXPECT_TRUE(has_kind("dram"));
    EXPECT_TRUE(has_kind("root_complex"));
    EXPECT_TRUE(has_kind("ssd_read"));
    EXPECT_TRUE(has_kind("prep_engine"));
    EXPECT_TRUE(has_kind("pcie_link"));
    EXPECT_TRUE(has_kind("accelerator"));

    for (const ResourceUsage &u : r.resources) {
        EXPECT_GE(u.utilization, 0.0) << u.name;
        EXPECT_LE(u.utilization, 1.0 + 1e-9) << u.name;
        EXPECT_GE(u.peak, u.utilization - 1e-9) << u.name;
    }
}

TEST(SessionReport, ClassifyResourceNames)
{
    EXPECT_EQ(classifyResource("host.cpu"), "cpu");
    EXPECT_EQ(classifyResource("host.dram"), "dram");
    EXPECT_EQ(classifyResource("pcie.rc"), "root_complex");
    EXPECT_EQ(classifyResource("tbox0.ssd1.flash"), "ssd_read");
    EXPECT_EQ(classifyResource("tbox0.ssd1.write"), "ssd_write");
    EXPECT_EQ(classifyResource("tbox0.fpga0.engine"), "prep_engine");
    EXPECT_EQ(classifyResource("pool.fpga3.engine"), "pool_engine");
    EXPECT_EQ(classifyResource("tbox0.fpga0.eth"), "ethernet");
    EXPECT_EQ(classifyResource("accbox0.down"), "pcie_link");
    EXPECT_EQ(classifyResource("tbox0.fpga0.up"), "pcie_link");
    EXPECT_EQ(classifyResource("something.else"), "other");
}

TEST(SessionReport, ExportersAreWellFormed)
{
    const SessionReport r = runReport(
        ServerConfig::baseline().withAccelerators(32).withMetrics());

    const std::string json = r.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"bottlenecks\""), std::string::npos);
    EXPECT_NE(json.find("\"utilization\""), std::string::npos);
    EXPECT_NE(json.find("\"has_metrics\": true"), std::string::npos);

    const std::string csv = r.toCsv();
    EXPECT_EQ(csv.rfind("section,key,value\n", 0), 0u);
    EXPECT_NE(csv.find("config,preset,Baseline"), std::string::npos);
    EXPECT_NE(csv.find("latency_breakdown_pct,prep_total,96.8421"),
              std::string::npos);

    TraceWriter trace;
    r.emitCounters(trace);
    EXPECT_GT(trace.numEvents(), 0u);
}

TEST(SessionReport, FluentConfigMatchesFieldAssignment)
{
    ServerConfig fields;
    fields.preset = ArchPreset::BaselineAccP2p;
    fields.model = workload::ModelId::Vgg19;
    fields.numAccelerators = 64;
    fields.batchSize = 128;
    fields.prefetchDepth = 3;
    fields.metricsEnabled = true;

    const ServerConfig fluent = ServerConfig::p2p()
                                    .withModel("VGG-19")
                                    .withAccelerators(64)
                                    .withBatchSize(128)
                                    .withPrefetchDepth(3)
                                    .withMetrics();
    EXPECT_EQ(fluent.preset, fields.preset);
    EXPECT_EQ(fluent.model, fields.model);
    EXPECT_EQ(fluent.numAccelerators, fields.numAccelerators);
    EXPECT_EQ(fluent.batchSize, fields.batchSize);
    EXPECT_EQ(fluent.prefetchDepth, fields.prefetchDepth);
    EXPECT_EQ(fluent.metricsEnabled, fields.metricsEnabled);
    EXPECT_TRUE(fluent.validate().empty());
}

} // namespace
} // namespace tb
