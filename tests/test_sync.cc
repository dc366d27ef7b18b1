/**
 * @file
 * Tests for ring/tree all-reduce (functional) and the sync latency model.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sync/ring_allreduce.hh"
#include "sync/sync_model.hh"
#include "workload/model_zoo.hh"

namespace tb {
namespace {

std::vector<std::vector<float>>
randomBuffers(std::size_t n, std::size_t len, Rng &rng)
{
    std::vector<std::vector<float>> buffers(n);
    for (auto &b : buffers) {
        b.resize(len);
        for (auto &v : b)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return buffers;
}

std::vector<float>
directSum(const std::vector<std::vector<float>> &buffers)
{
    std::vector<float> sum(buffers[0].size(), 0.0f);
    for (const auto &b : buffers)
        for (std::size_t i = 0; i < b.size(); ++i)
            sum[i] += b[i];
    return sum;
}

class AllReduceShape
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(AllReduceShape, RingMatchesDirectSum)
{
    const auto [n, len] = GetParam();
    Rng rng(n * 1000 + len);
    auto buffers = randomBuffers(n, len, rng);
    const std::vector<float> expected = directSum(buffers);

    const sync::AllReduceStats stats = sync::ringAllReduce(buffers);
    for (std::size_t d = 0; d < n; ++d)
        for (std::size_t i = 0; i < len; ++i)
            ASSERT_NEAR(buffers[d][i], expected[i], 1e-4)
                << "device " << d << " element " << i;
    if (n > 1) {
        EXPECT_EQ(stats.steps, 2 * (n - 1));
    }
}

TEST_P(AllReduceShape, TreeMatchesDirectSum)
{
    const auto [n, len] = GetParam();
    Rng rng(n * 2000 + len);
    auto buffers = randomBuffers(n, len, rng);
    const std::vector<float> expected = directSum(buffers);
    sync::treeAllReduce(buffers);
    for (std::size_t d = 0; d < n; ++d)
        for (std::size_t i = 0; i < len; ++i)
            ASSERT_NEAR(buffers[d][i], expected[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllReduceShape,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 16},
                      std::pair<std::size_t, std::size_t>{2, 64},
                      std::pair<std::size_t, std::size_t>{3, 17},
                      std::pair<std::size_t, std::size_t>{4, 64},
                      std::pair<std::size_t, std::size_t>{7, 53},
                      std::pair<std::size_t, std::size_t>{8, 256},
                      std::pair<std::size_t, std::size_t>{16, 100},
                      std::pair<std::size_t, std::size_t>{5, 3}));

TEST(RingAllReduce, CommunicationVolumeIsTwoNMinusOneOverN)
{
    // The key property behind Fig 2b: each device sends 2(n-1)/n of the
    // buffer regardless of n.
    Rng rng(5);
    for (std::size_t n : {2u, 4u, 8u, 16u}) {
        const std::size_t len = 640;
        auto buffers = randomBuffers(n, len, rng);
        const sync::AllReduceStats stats = sync::ringAllReduce(buffers);
        const double expected =
            2.0 * static_cast<double>(n - 1) / static_cast<double>(n) *
            static_cast<double>(len);
        EXPECT_NEAR(static_cast<double>(stats.elementsSentPerDevice),
                    expected, 1.0)
            << "n=" << n;
    }
}

TEST(SyncModel, ZeroForOneDeviceOrNoData)
{
    sync::SyncConfig cfg;
    EXPECT_DOUBLE_EQ(sync::syncLatency(cfg, 1, 1e6), 0.0);
    EXPECT_DOUBLE_EQ(sync::syncLatency(cfg, 16, 0.0), 0.0);
}

TEST(SyncModel, RingSaturatesNearTwo)
{
    sync::SyncConfig cfg;
    const Bytes model = 97.5e6; // Resnet-50
    const double norm256 = sync::normalizedSyncLatency(cfg, 256, model);
    EXPECT_GT(norm256, 1.8);
    EXPECT_LT(norm256, 2.6); // Fig 2b: flat around 2x
}

TEST(SyncModel, RingMonotonicInN)
{
    sync::SyncConfig cfg;
    double prev = 0.0;
    for (std::size_t n : {2u, 4u, 8u, 32u, 128u, 256u}) {
        const double lat = sync::syncLatency(cfg, n, 100e6);
        EXPECT_GT(lat, prev);
        prev = lat;
    }
}

TEST(SyncModel, ParameterServerScalesLinearly)
{
    sync::SyncConfig cfg;
    cfg.algorithm = sync::Algorithm::ParameterServer;
    const double l64 = sync::syncLatency(cfg, 64, 100e6);
    const double l128 = sync::syncLatency(cfg, 128, 100e6);
    EXPECT_NEAR(l128 / l64, 2.0, 0.01);
}

TEST(SyncModel, TreeScalesLogarithmically)
{
    sync::SyncConfig cfg;
    cfg.algorithm = sync::Algorithm::Tree;
    const double l16 = sync::syncLatency(cfg, 16, 100e6);
    const double l256 = sync::syncLatency(cfg, 256, 100e6);
    // log2(256)/log2(16) = 2.
    EXPECT_NEAR(l256 / l16, 2.0, 0.05);
}

TEST(SyncModel, RingBeatsAlternativesAtScale)
{
    sync::SyncConfig ring;
    sync::SyncConfig tree;
    tree.algorithm = sync::Algorithm::Tree;
    sync::SyncConfig ps;
    ps.algorithm = sync::Algorithm::ParameterServer;
    const Bytes model = 100e6;
    EXPECT_LT(sync::syncLatency(ring, 256, model),
              sync::syncLatency(tree, 256, model));
    EXPECT_LT(sync::syncLatency(tree, 256, model),
              sync::syncLatency(ps, 256, model));
}

TEST(SyncModel, SmallerChunksReduceLatencyAtScale)
{
    sync::SyncConfig small;
    small.chunkBytes = 1024.0;
    sync::SyncConfig large;
    large.chunkBytes = 1 << 20;
    EXPECT_LT(sync::syncLatency(small, 256, 100e6),
              sync::syncLatency(large, 256, 100e6));
}

TEST(SyncModel, BandwidthScalesInversely)
{
    sync::SyncConfig fast;
    fast.linkBandwidth = 300e9;
    fast.hopLatency = 0.0;
    fast.chunkBytes = 0.0;
    sync::SyncConfig slow = fast;
    slow.linkBandwidth = 150e9;
    EXPECT_NEAR(sync::syncLatency(slow, 8, 100e6) /
                    sync::syncLatency(fast, 8, 100e6),
                2.0, 1e-9);
}

} // namespace
} // namespace tb
