/**
 * @file
 * Tests for the Chrome-trace writer and its training-session hookup.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/trace.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {
namespace {

TEST(Trace, EmitsValidShapedJson)
{
    TraceWriter trace;
    trace.complete("track_a", "span1", 0.001, 0.002);
    trace.complete("track_b", "span2", 0.004, 0.001, "cat");
    trace.instant("track_a", "marker", 0.005);
    EXPECT_EQ(trace.numEvents(), 3u);

    const std::string json = trace.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"span1\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Track names present as thread_name metadata.
    EXPECT_NE(json.find("\"track_a\""), std::string::npos);
    // 1 ms -> 1000 us.
    EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);

    // Balanced braces/brackets (cheap well-formedness check).
    int braces = 0, brackets = 0;
    for (char c : json) {
        braces += c == '{';
        braces -= c == '}';
        brackets += c == '[';
        brackets -= c == ']';
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(Trace, EscapesAndClears)
{
    TraceWriter trace;
    trace.complete("t", "with\"quote", 0.0, 1.0);
    // Control bytes are escaped, not dropped; a long name stays whole.
    trace.instant("t", "tab\there\x01", 0.0);
    const std::string long_name(300, 'n');
    trace.instant("t", long_name, 0.0);
    const std::string json = trace.toJson();
    EXPECT_NE(json.find("with\\\"quote"), std::string::npos);
    EXPECT_NE(json.find("\"tab\\there\\u0001\""), std::string::npos);
    EXPECT_NE(json.find("\"" + long_name + "\",\"cat\":\"sim\""),
              std::string::npos);
    trace.clear();
    EXPECT_EQ(trace.numEvents(), 0u);
    EXPECT_EQ(trace.toJson(), "{\"traceEvents\":[]}");
}

TEST(Trace, CounterEventsCarryValues)
{
    TraceWriter trace;
    trace.counter("checkpoint", "durable_step", 0.002, 7.0);
    const std::string json = trace.toJson();
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"durable_step\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":7"), std::string::npos);
}

TEST(Trace, WritesFile)
{
    TraceWriter trace;
    trace.complete("t", "s", 0.0, 1.0);
    const std::string path = "/tmp/tb_trace_test.json";
    ASSERT_TRUE(trace.writeFile(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[16] = {0};
    ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
    std::fclose(f);
    EXPECT_EQ(buf[0], '{');
    std::remove(path.c_str());
}

TEST(Trace, SessionRecordsPrepComputeAndSync)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::TfSr; // has an offload chain
    cfg.numAccelerators = 16;
    auto server = buildServer(cfg);

    TraceWriter trace;
    TrainingSession session(*server);
    session.setTrace(&trace);
    session.run(2, 4);

    EXPECT_GT(trace.numEvents(), 20u);
    const std::string json = trace.toJson();
    EXPECT_NE(json.find("\"formatting\""), std::string::npos);
    EXPECT_NE(json.find("\"compute\""), std::string::npos);
    EXPECT_NE(json.find("\"ring_allreduce\""), std::string::npos);
    EXPECT_NE(json.find("\"ssd_read\""), std::string::npos);
    // Offload chains get their own tracks.
    EXPECT_NE(json.find(".offload"), std::string::npos);
}

// A session started on a clock already at t0 (a fleet job) draws its
// fault windows where they happen on that clock, not t0 too early.
TEST(Trace, FaultSpansUseTheSessionClock)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 32;
    cfg.faults.enabled = true;
    cfg.faults.ssdDegrade = {2.0, 0.2, 0.2};
    cfg.faults.ethDegrade = {2.0, 0.2, 0.5};
    auto server = buildServer(cfg);

    const Time t0 = 86400.0;
    EventQueue &eq = server->core().events();
    eq.schedule(t0, [] {});
    eq.step();

    TraceWriter trace;
    TrainingSession session(*server);
    session.setTrace(&trace);
    session.run(2, 4);

    const std::string json = trace.toJson();
    const std::string needle = "\"cat\":\"fault\",\"ts\":";
    std::size_t spans = 0;
    for (auto pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
        const double ts = std::strtod(json.c_str() + pos + needle.size(),
                                      nullptr);
        EXPECT_GE(ts, t0 * 1e6);
        ++spans;
    }
    EXPECT_GT(spans, 0u);
}

TEST(Trace, SessionWithoutTraceStillWorks)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::Baseline;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 8;
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    EXPECT_GT(session.run(2, 4).throughput, 0.0);
}

} // namespace
} // namespace tb
