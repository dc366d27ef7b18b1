/**
 * @file
 * Tests for server assembly and the train initializer (§V-A).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "trainbox/server_builder.hh"

namespace tb {
namespace {

ServerConfig
baseConfig(ArchPreset preset, workload::ModelId model, std::size_t n)
{
    ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = model;
    cfg.numAccelerators = n;
    return cfg;
}

TEST(Builder, BaselineDeviceCounts)
{
    auto server = buildServer(baseConfig(ArchPreset::Baseline,
                                         workload::ModelId::Resnet50, 256));
    EXPECT_EQ(server->accs.size(), 256u);
    EXPECT_TRUE(server->preps.empty());
    EXPECT_EQ(server->ssds.size(), 64u); // same array as TrainBox
    EXPECT_EQ(server->groups.size(), 32u);
    EXPECT_FALSE(server->pool);
    for (const auto &g : server->groups)
        EXPECT_EQ(g.numAccelerators, 8u);
}

TEST(Builder, AccPresetAddsOneEnginePerFourAccelerators)
{
    for (ArchPreset p : {ArchPreset::BaselineAccFpga,
                         ArchPreset::BaselineAccGpu,
                         ArchPreset::BaselineAccP2p}) {
        auto server = buildServer(
            baseConfig(p, workload::ModelId::Resnet50, 64));
        EXPECT_EQ(server->preps.size(), 16u) << presetName(p);
    }
}

TEST(Builder, GpuPresetUsesGpuEngineRate)
{
    auto fpga = buildServer(baseConfig(ArchPreset::BaselineAccFpga,
                                       workload::ModelId::Resnet50, 64));
    auto gpu = buildServer(baseConfig(ArchPreset::BaselineAccGpu,
                                      workload::ModelId::Resnet50, 64));
    EXPECT_DOUBLE_EQ(fpga->preps[0]->engine()->capacity(), 45000.0);
    EXPECT_DOUBLE_EQ(gpu->preps[0]->engine()->capacity(), 11000.0);
    EXPECT_EQ(gpu->preps[0]->kind(), PrepEngineKind::Gpu);
}

TEST(Builder, TrainBoxStructure)
{
    auto server = buildServer(baseConfig(ArchPreset::TrainBox,
                                         workload::ModelId::Resnet50, 256));
    EXPECT_EQ(server->accs.size(), 256u);
    EXPECT_EQ(server->preps.size(), 64u); // 2 FPGAs per box
    EXPECT_EQ(server->ssds.size(), 64u);  // 2 SSDs per box
    EXPECT_EQ(server->groups.size(), 32u);
    // Clustered FPGAs carry prep-pool Ethernet ports.
    for (const auto &p : server->preps)
        EXPECT_NE(p->ethernetPort(), nullptr);
}

TEST(Builder, TrainBoxRoutesAreLocal)
{
    auto server = buildServer(baseConfig(ArchPreset::TrainBox,
                                         workload::ModelId::Resnet50, 32));
    // No local prep stage may touch the root complex.
    FluidResource *rc = server->topo->rcResource();
    for (const auto &g : server->groups)
        for (const auto &st : g.stages)
            for (const auto &d : st.demandsPerSample)
                EXPECT_NE(d.resource, rc)
                    << g.name << "/" << st.name;
}

TEST(Builder, CentralizedRoutesCrossTheRootComplex)
{
    auto server = buildServer(baseConfig(ArchPreset::BaselineAccP2p,
                                         workload::ModelId::Resnet50, 32));
    FluidResource *rc = server->topo->rcResource();
    bool touches_rc = false;
    for (const auto &g : server->groups)
        for (const auto &st : g.stages)
            for (const auto &d : st.demandsPerSample)
                touches_rc |= d.resource == rc;
    EXPECT_TRUE(touches_rc);
}

TEST(Builder, Gen4DoublesFabricBandwidth)
{
    auto gen3 = buildServer(baseConfig(ArchPreset::BaselineAccP2p,
                                       workload::ModelId::Resnet50, 32));
    auto gen4 = buildServer(baseConfig(ArchPreset::BaselineAccP2pGen4,
                                       workload::ModelId::Resnet50, 32));
    EXPECT_DOUBLE_EQ(gen4->topo->rcResource()->capacity(),
                     2.0 * gen3->topo->rcResource()->capacity());
}

TEST(Builder, SmallScaleSingleGroup)
{
    for (ArchPreset p : {ArchPreset::Baseline, ArchPreset::TrainBox,
                         ArchPreset::BaselineAccFpga}) {
        auto server =
            buildServer(baseConfig(p, workload::ModelId::InceptionV4, 1));
        EXPECT_EQ(server->groups.size(), 1u) << presetName(p);
        EXPECT_EQ(server->accs.size(), 1u);
        EXPECT_GE(server->groups[0].stages.size(), 3u);
    }
}

TEST(Builder, StagesHaveDemands)
{
    for (ArchPreset p : allPresets()) {
        auto server =
            buildServer(baseConfig(p, workload::ModelId::TfSr, 16));
        for (const auto &g : server->groups) {
            EXPECT_FALSE(g.stages.empty());
            for (const auto &st : g.stages) {
                EXPECT_FALSE(st.demandsPerSample.empty() &&
                             st.rateCap == 0.0)
                    << presetName(p) << " stage " << st.name;
                EXPECT_FALSE(st.category.empty());
            }
        }
    }
}

/** Exact bit pattern of @p v as 16 hex digits. */
std::string
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(b));
    return buf;
}

void
dumpTemplate(std::ostringstream &os, const StageTemplate &st)
{
    os << "  " << st.name << " cat=" << st.category
       << " cap=" << bitsOf(st.rateCap) << " fair=" << bitsOf(st.fairWeight)
       << " hops=" << st.corruptionHops
       << " verifies=" << st.verifiesIntegrity << "\n";
    // Sorted by resource name: the order of first insertion moves no
    // output, the merged weights do.
    std::vector<std::pair<std::string, std::string>> ds;
    for (const auto &d : st.demandsPerSample)
        ds.emplace_back(d.resource->name(), bitsOf(d.weight));
    std::sort(ds.begin(), ds.end());
    for (const auto &[name, weight] : ds)
        os << "    " << name << " " << weight << "\n";
}

/** Every stage template list of every group, as text. */
std::string
dumpTemplates(const Server &server)
{
    std::ostringstream os;
    const auto list = [&os](const char *what,
                            const std::vector<StageTemplate> &stages) {
        os << " " << what << " " << stages.size() << "\n";
        for (const auto &st : stages)
            dumpTemplate(os, st);
    };
    for (const auto &g : server.groups) {
        os << g.name << "\n";
        list("stages", g.stages);
        list("offloadStages", g.offloadStages);
        list("degradedStages", g.degradedStages);
        list("degradedOffloadStages", g.degradedOffloadStages);
        list("hostPathStages", g.hostPathStages);
        list("checkpointWrite", {g.checkpointWrite});
        list("ingestWrite", {g.ingestWrite});
    }
    return os.str();
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

ServerConfig
pinConfig(ArchPreset preset, std::size_t accs, bool integrity)
{
    // TF-SR needs the prep-pool, so TrainBox builds its offload chains.
    ServerConfig cfg = baseConfig(preset, workload::ModelId::TfSr, accs);
    cfg.faults.enabled = integrity;
    cfg.faults.integrityChecks = integrity;
    cfg.ingest.enabled = true;
    return cfg;
}

// Digests of dumpTemplates() recorded before the stage builders were
// shared between presets. A template change moves a digest; one that is
// meant must re-record the constant and say why in CHANGES.md.
TEST(Builder, StageTemplatesMatchParent)
{
    static const struct
    {
        ArchPreset preset;
        std::size_t accs;
        bool integrity;
        std::uint64_t digest;
    } kPins[] = {
        {ArchPreset::Baseline, 16, false, 0x7f265760aa9910adull},
        {ArchPreset::Baseline, 16, true, 0x5a8c49b3af961c73ull},
        {ArchPreset::Baseline, 64, false, 0x91ab0162d77fcde5ull},
        {ArchPreset::Baseline, 64, true, 0x61dabe824adf6c15ull},
        {ArchPreset::BaselineAccFpga, 16, false, 0x44c11578791ebb01ull},
        {ArchPreset::BaselineAccFpga, 16, true, 0x6661a596ae747f13ull},
        {ArchPreset::BaselineAccFpga, 64, false, 0xbc9d217169b61e5bull},
        {ArchPreset::BaselineAccFpga, 64, true, 0x35d2855dde94e2fdull},
        {ArchPreset::BaselineAccGpu, 16, false, 0x44c11578791ebb01ull},
        {ArchPreset::BaselineAccGpu, 16, true, 0x6661a596ae747f13ull},
        {ArchPreset::BaselineAccGpu, 64, false, 0xbc9d217169b61e5bull},
        {ArchPreset::BaselineAccGpu, 64, true, 0x35d2855dde94e2fdull},
        {ArchPreset::BaselineAccP2p, 16, false, 0xbf1d63c50204324bull},
        {ArchPreset::BaselineAccP2p, 16, true, 0x36b590882151edc9ull},
        {ArchPreset::BaselineAccP2p, 64, false, 0xf51e462655dfa1c7ull},
        {ArchPreset::BaselineAccP2p, 64, true, 0xc8f698470b72a563ull},
        {ArchPreset::BaselineAccP2pGen4, 16, false, 0xbf1d63c50204324bull},
        {ArchPreset::BaselineAccP2pGen4, 16, true, 0x36b590882151edc9ull},
        {ArchPreset::BaselineAccP2pGen4, 64, false, 0xf51e462655dfa1c7ull},
        {ArchPreset::BaselineAccP2pGen4, 64, true, 0xc8f698470b72a563ull},
        {ArchPreset::TrainBoxNoPool, 16, false, 0xb0a6dc54afa46f1dull},
        {ArchPreset::TrainBoxNoPool, 16, true, 0x0726b917d16dc4acull},
        {ArchPreset::TrainBoxNoPool, 64, false, 0xf30ce7106127c265ull},
        {ArchPreset::TrainBoxNoPool, 64, true, 0x9fce49fa0197495dull},
        {ArchPreset::TrainBox, 16, false, 0x9bf18c9d27d957aeull},
        {ArchPreset::TrainBox, 16, true, 0xfbbdbf0c873dddf6ull},
        {ArchPreset::TrainBox, 64, false, 0x95ad4ad25e07f98dull},
        {ArchPreset::TrainBox, 64, true, 0xefe6e9b095d1053dull},
    };
    for (const auto &pin : kPins) {
        auto server = buildServer(
            pinConfig(pin.preset, pin.accs, pin.integrity));
        const std::string text = dumpTemplates(*server);
        char got[19];
        std::snprintf(got, sizeof got, "0x%016llx",
                      static_cast<unsigned long long>(fnv1a(text)));
        EXPECT_EQ(fnv1a(text), pin.digest)
            << presetName(pin.preset) << " accs=" << pin.accs
            << " integrity=" << pin.integrity << " digest " << got << "\n"
            << text;
    }
}

TEST(Builder, TemplateDigestSeesEveryField)
{
    auto server = buildServer(
        pinConfig(ArchPreset::BaselineAccFpga, 16, true));
    const std::uint64_t base = fnv1a(dumpTemplates(*server));
    StageTemplate &st = server->groups[0].stages[0];
    ASSERT_GE(st.demandsPerSample.size(), 2u);

    FlowDemand &d = st.demandsPerSample[0];
    const double w = d.weight;
    d.weight = std::nextafter(w, 2.0 * w);
    EXPECT_NE(fnv1a(dumpTemplates(*server)), base) << "1-ulp weight";
    d.weight = w;

    const FlowDemand dropped = st.demandsPerSample.back();
    st.demandsPerSample.pop_back();
    EXPECT_NE(fnv1a(dumpTemplates(*server)), base) << "dropped demand";
    st.demandsPerSample.push_back(dropped);

    st.corruptionHops ^= 1u;
    EXPECT_NE(fnv1a(dumpTemplates(*server)), base) << "flipped hop bit";
    st.corruptionHops ^= 1u;
    EXPECT_EQ(fnv1a(dumpTemplates(*server)), base);
}

TEST(Initializer, InceptionNeedsNoPool)
{
    const PrepPlan plan = planPreparation(
        baseConfig(ArchPreset::TrainBox, workload::ModelId::InceptionV4,
                   256));
    EXPECT_DOUBLE_EQ(plan.offloadFraction, 0.0);
    EXPECT_EQ(plan.poolFpgas, 0u);
    EXPECT_GT(plan.perBoxLocalCapacity, plan.perBoxDemand);
}

TEST(Initializer, TfSrNeeds54PercentExtraCapacity)
{
    // Fig 21: TF-SR reaches the target with ~54% more FPGA resources.
    const PrepPlan plan = planPreparation(
        baseConfig(ArchPreset::TrainBox, workload::ModelId::TfSr, 256));
    EXPECT_GT(plan.offloadFraction, 0.0);
    EXPECT_NEAR(plan.poolOvercapacityRatio, 0.54, 0.03);
    EXPECT_GT(plan.poolFpgas, 0u);
    EXPECT_TRUE(plan.ethernetFeasible);
}

TEST(Initializer, PoolSizedForPortLimits)
{
    // Image offload is port-limited (35.6k samples/s per 100G port vs
    // 45k engine rate), so the pool must be sized by the port rate.
    const PrepPlan plan = planPreparation(
        baseConfig(ArchPreset::TrainBox, workload::ModelId::RnnS, 256));
    ASSERT_GT(plan.poolFpgas, 0u);
    const double port_rate =
        PrepAccelerator::defaultEthernetBw /
        (workload::prepDemand(workload::InputType::Image).ssdBytes +
         workload::prepDemand(workload::InputType::Image).preparedBytes);
    EXPECT_GE(static_cast<double>(plan.poolFpgas) * port_rate,
              plan.poolCapacityNeeded * 0.999);
}

TEST(Initializer, PoolMatchesBuilder)
{
    const ServerConfig cfg =
        baseConfig(ArchPreset::TrainBox, workload::ModelId::TfSr, 256);
    const PrepPlan plan = planPreparation(cfg);
    auto server = buildServer(cfg);
    ASSERT_TRUE(server->pool);
    EXPECT_EQ(server->pool->size(), plan.poolFpgas);
    for (const auto &g : server->groups) {
        EXPECT_DOUBLE_EQ(g.offloadFraction, plan.offloadFraction);
        EXPECT_FALSE(g.offloadStages.empty());
    }
}

TEST(Initializer, NoPoolPresetHasNoOffload)
{
    auto server = buildServer(
        baseConfig(ArchPreset::TrainBoxNoPool, workload::ModelId::TfSr,
                   256));
    EXPECT_FALSE(server->pool);
    for (const auto &g : server->groups)
        EXPECT_DOUBLE_EQ(g.offloadFraction, 0.0);
}

TEST(Initializer, ExplicitPoolSizeOverride)
{
    ServerConfig cfg =
        baseConfig(ArchPreset::TrainBox, workload::ModelId::TfSr, 256);
    cfg.prepPoolFpgas = 100;
    auto server = buildServer(cfg);
    ASSERT_TRUE(server->pool);
    EXPECT_EQ(server->pool->size(), 100u);
}

TEST(ServerConfig, PresetPredicates)
{
    EXPECT_FALSE(presetUsesPrepAccelerators(ArchPreset::Baseline));
    EXPECT_TRUE(presetUsesPrepAccelerators(ArchPreset::TrainBox));
    EXPECT_FALSE(presetUsesP2p(ArchPreset::BaselineAccFpga));
    EXPECT_TRUE(presetUsesP2p(ArchPreset::BaselineAccP2p));
    EXPECT_TRUE(presetUsesClustering(ArchPreset::TrainBoxNoPool));
    EXPECT_FALSE(presetUsesClustering(ArchPreset::BaselineAccP2pGen4));
    EXPECT_EQ(allPresets().size(), 7u);
}

TEST(ServerConfig, EffectiveBatchSize)
{
    ServerConfig cfg;
    cfg.model = workload::ModelId::Resnet50;
    EXPECT_EQ(cfg.effectiveBatchSize(), 8192u);
    cfg.batchSize = 128;
    EXPECT_EQ(cfg.effectiveBatchSize(), 128u);
}

TEST(ServerDeath, ZeroAcceleratorsIsFatal)
{
    ServerConfig cfg;
    cfg.numAccelerators = 0;
    EXPECT_DEATH(buildServer(cfg), "at least one");
}

} // namespace
} // namespace tb
