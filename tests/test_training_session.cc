/**
 * @file
 * Integration tests for the training session: the paper's headline
 * behaviours must hold in simulation.
 */

#include <gtest/gtest.h>

#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {
namespace {

double
runThroughput(ArchPreset preset, workload::ModelId model, std::size_t n,
              std::size_t warmup = 6, std::size_t measure = 12)
{
    ServerConfig cfg;
    cfg.preset = preset;
    cfg.model = model;
    cfg.numAccelerators = n;
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure).throughput;
}

TEST(Session, BaselineIsCpuBound)
{
    // 48 cores / 1.572 ms per sample = ~30.5k samples/s regardless of
    // accelerator count once saturated.
    const double thpt =
        runThroughput(ArchPreset::Baseline, workload::ModelId::Resnet50,
                      256);
    EXPECT_NEAR(thpt, 48.0 / 1.572e-3, 0.05 * (48.0 / 1.572e-3));
}

TEST(Session, BaselineAudioIsCpuBound)
{
    const double thpt = runThroughput(ArchPreset::Baseline,
                                      workload::ModelId::TfSr, 256);
    EXPECT_NEAR(thpt, 48.0 / 5.45e-3, 0.05 * (48.0 / 5.45e-3));
}

TEST(Session, SmallBaselineDeliversTarget)
{
    // One accelerator's demand is far below prep capacity.
    const double thpt = runThroughput(ArchPreset::Baseline,
                                      workload::ModelId::InceptionV4, 1);
    EXPECT_NEAR(thpt, 1669.0, 60.0);
}

TEST(Session, TrainBoxReachesTargetForInception)
{
    sync::SyncConfig sync_cfg;
    const double target = workload::targetThroughput(
        workload::model(workload::ModelId::InceptionV4), 256, sync_cfg);
    const double thpt = runThroughput(ArchPreset::TrainBox,
                                      workload::ModelId::InceptionV4, 256);
    EXPECT_NEAR(thpt, target, 0.02 * target);
}

TEST(Session, TrainBoxReachesTargetForAudioWithPool)
{
    sync::SyncConfig sync_cfg;
    const double target = workload::targetThroughput(
        workload::model(workload::ModelId::TfSr), 256, sync_cfg);
    const double thpt = runThroughput(ArchPreset::TrainBox,
                                      workload::ModelId::TfSr, 256);
    EXPECT_NEAR(thpt, target, 0.03 * target);
}

TEST(Session, PoolIsRequiredForAudioAtScale)
{
    // Fig 21b: without the prep-pool TF-SR is capped by in-box FPGAs at
    // 10.4k samples/s per box (vs a ~16k demand).
    const double with_pool = runThroughput(
        ArchPreset::TrainBox, workload::ModelId::TfSr, 256);
    const double without = runThroughput(
        ArchPreset::TrainBoxNoPool, workload::ModelId::TfSr, 256);
    EXPECT_LT(without, 0.72 * with_pool);
    EXPECT_GT(without, 0.55 * with_pool);
}

TEST(Session, P2pAloneDoesNotHelp)
{
    // Fig 19: B+Acc+P2P ~ B+Acc (the RC is still crossed twice).
    const double acc = runThroughput(ArchPreset::BaselineAccFpga,
                                     workload::ModelId::Resnet50, 256);
    const double p2p = runThroughput(ArchPreset::BaselineAccP2p,
                                     workload::ModelId::Resnet50, 256);
    EXPECT_NEAR(p2p / acc, 1.0, 0.1);
}

TEST(Session, Gen4DoublesPcieBoundThroughput)
{
    const double p2p = runThroughput(ArchPreset::BaselineAccP2p,
                                     workload::ModelId::Resnet50, 256);
    const double gen4 = runThroughput(ArchPreset::BaselineAccP2pGen4,
                                      workload::ModelId::Resnet50, 256);
    EXPECT_NEAR(gen4 / p2p, 2.0, 0.15);
}

TEST(Session, ClusteringBeatsGen4)
{
    // Fig 19: "TrainBox without Gen4 shows even higher improvement" —
    // the bottleneck is the datapath, not the link speed.
    const double gen4 = runThroughput(ArchPreset::BaselineAccP2pGen4,
                                      workload::ModelId::Resnet50, 256);
    const double trainbox = runThroughput(
        ArchPreset::TrainBox, workload::ModelId::Resnet50, 256);
    EXPECT_GT(trainbox, 2.0 * gen4);
}

TEST(Session, GpuPrepLosesToFpgaPrep)
{
    const double gpu = runThroughput(ArchPreset::BaselineAccGpu,
                                     workload::ModelId::InceptionV4, 64);
    const double fpga = runThroughput(ArchPreset::BaselineAccFpga,
                                      workload::ModelId::InceptionV4, 64);
    EXPECT_LT(gpu, fpga);
}

TEST(Session, TrainBoxScalesLinearly)
{
    double prev = 0.0;
    for (std::size_t n : {8u, 32u, 128u}) {
        const double thpt = runThroughput(
            ArchPreset::TrainBox, workload::ModelId::InceptionV4, n, 4, 8);
        EXPECT_GT(thpt, prev * 3.5); // ~4x per step
        prev = thpt;
    }
}

TEST(Session, ResultFieldsConsistent)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::Baseline;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 16;
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    const SessionResult res = session.run(4, 8);

    EXPECT_EQ(res.stepsMeasured, 8u);
    EXPECT_GT(res.throughput, 0.0);
    EXPECT_GT(res.stepTime, 0.0);
    EXPECT_NEAR(res.throughput,
                16.0 * 8192.0 / res.stepTime, 1.0);
    EXPECT_DOUBLE_EQ(res.computeTime, server->computeTime());
    EXPECT_DOUBLE_EQ(res.syncTime, server->syncTime());
    EXPECT_GT(res.prepLatency, 0.0);

    // Baseline prep must report the CPU stage times.
    EXPECT_TRUE(res.prepStageTime.count("formatting"));
    EXPECT_TRUE(res.prepStageTime.count("augmentation"));
    EXPECT_TRUE(res.prepStageTime.count("ssd_read"));
    EXPECT_TRUE(res.prepStageTime.count("data_load"));

    // Accounting sanity: can't use more CPU than exists.
    const double cpu =
        SessionReport::sumCategories(res.cpuCoresByCategory);
    EXPECT_LE(cpu, 48.0 * 1.0001);
    EXPECT_GT(cpu, 0.0);
    EXPECT_GT(SessionReport::sumCategories(res.memBwByCategory), 0.0);
    EXPECT_GT(SessionReport::sumCategories(res.rcBwByCategory), 0.0);
}

TEST(Session, TrainBoxFreesHostResources)
{
    auto run = [](ArchPreset p) {
        ServerConfig cfg;
        cfg.preset = p;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 64;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        return session.run(4, 8);
    };
    const SessionResult base = run(ArchPreset::Baseline);
    const SessionResult tbox = run(ArchPreset::TrainBox);
    // Per unit of throughput, TrainBox uses orders of magnitude less of
    // every host resource (Fig 22).
    const auto sum = SessionReport::sumCategories;
    EXPECT_LT(sum(tbox.cpuCoresByCategory) / tbox.throughput,
              0.02 * sum(base.cpuCoresByCategory) / base.throughput);
    EXPECT_LT(sum(tbox.memBwByCategory),
              0.01 * sum(base.memBwByCategory));
    EXPECT_LT(sum(tbox.rcBwByCategory), 0.01 * sum(base.rcBwByCategory));
}

TEST(Session, P2pFreesHostMemory)
{
    auto run = [](ArchPreset p) {
        ServerConfig cfg;
        cfg.preset = p;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 64;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        return session.run(4, 8);
    };
    const SessionResult acc = run(ArchPreset::BaselineAccFpga);
    const SessionResult p2p = run(ArchPreset::BaselineAccP2p);
    EXPECT_LT(SessionReport::sumCategories(p2p.memBwByCategory),
              0.01 * SessionReport::sumCategories(acc.memBwByCategory));
}

TEST(Session, ChunkingDoesNotChangeSteadyThroughput)
{
    // Ablation: sub-batch pipelining granularity must not change the
    // capacity-bound result.
    double results[2];
    int i = 0;
    for (std::size_t chunks : {1u, 4u}) {
        ServerConfig cfg;
        cfg.preset = ArchPreset::TrainBox;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 32;
        cfg.prepChunks = chunks;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        results[i++] = session.run(4, 8).throughput;
    }
    EXPECT_NEAR(results[0], results[1], 0.02 * results[0]);
}

TEST(Session, BatchSizeSweepFavorsTrainBox)
{
    // Fig 20: at 256 accelerators TrainBox wins at small and large
    // batches, and the gap widens with batch size.
    auto run = [](ArchPreset p, std::size_t batch) {
        ServerConfig cfg;
        cfg.preset = p;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 256;
        cfg.batchSize = batch;
        auto server = buildServer(cfg);
        TrainingSession session(*server);
        return session.run(4, 8).throughput;
    };
    const double gap_small = run(ArchPreset::TrainBox, 128) /
                             run(ArchPreset::Baseline, 128);
    const double gap_large = run(ArchPreset::TrainBox, 8192) /
                             run(ArchPreset::Baseline, 8192);
    EXPECT_GT(gap_small, 1.5);
    EXPECT_GT(gap_large, gap_small);
}

// A result must not depend on where on the clock a session runs. Past
// 2^24 s (about 194 days) one ulp of the clock exceeds the solver's 1 ns
// completion tolerance; a completion test in bytes then let a flow whose
// remaining time was below half an ulp reschedule itself at `now`
// forever. The session starts on a clock already at t0, as a fleet
// admits a job there. The budget is far above the 91 events the run
// takes at any t0, so a livelock fails the test instead of hanging it.
TEST(SessionClock, LateStartCompletesWithinEventBudget)
{
    auto runAt = [](Time t0) {
        constexpr std::uint64_t kBudget = 2000;
        ServerConfig cfg;
        cfg.preset = ArchPreset::TrainBox;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = 32;
        auto server = buildServer(cfg);
        EventQueue &eq = server->core().events();
        eq.schedule(t0, [] {});
        eq.run(t0);
        TrainingSession session(*server);
        session.start(2, 8);
        const std::uint64_t first = eq.numExecuted();
        while (!session.done() && eq.numExecuted() - first < kBudget &&
               eq.step()) {
        }
        EXPECT_TRUE(session.done()) << "t0 = " << t0;
        EXPECT_LT(eq.numExecuted() - first, kBudget) << "t0 = " << t0;
        return session.done() ? session.collect().throughput : 0.0;
    };
    const double thr0 = runAt(0.0);

    // Measured relative throughput drift against t0 = 0: 7.3e-12 at
    // 1 day, 2.3e-9 at 1 year, 1.6e-8 at 10 years. It tracks one ulp of
    // the double clock at t0, not the solver. The bound is 3x the
    // largest measurement.
    constexpr double kRelTol = 5e-8;
    for (Time t0 : {86400.0, 365.0 * 86400.0, 3650.0 * 86400.0})
        EXPECT_NEAR(runAt(t0), thr0, kRelTol * thr0) << "t0 = " << t0;
}

// Every flow an event starts or cancels, and every capacity it changes,
// commits in one solve when the event ends (docs/PERFORMANCE.md, "One
// solve per event"). start() runs outside any event and batches its
// launches, hence the one extra solve.
TEST(SessionSolves, AtMostOneSolvePerEvent)
{
    for (ArchPreset preset : allPresets()) {
        for (std::size_t accs : {16, 256}) {
            ServerConfig cfg;
            cfg.preset = preset;
            cfg.model = workload::ModelId::Resnet50;
            cfg.numAccelerators = accs;
            auto server = buildServer(cfg);
            TrainingSession session(*server);
            session.run(4, 8);
            EXPECT_LE(server->core().fluid().solverStats().solves,
                      server->core().events().numExecuted() + 1)
                << presetName(preset) << " at " << accs;
        }
    }
}

/** A 32-accelerator TrainBox job, as the fleet benches run one. */
ServerConfig
trainBox32()
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = 32;
    return cfg;
}

/** fleet_sweep's streaming-ingest feed; its arrivals never end. */
void
addIngest(ServerConfig &cfg)
{
    cfg.ingest.enabled = true;
    cfg.ingest.seed = 47;
    cfg.ingest.steady = {12000.0, 256.0, 2};
    cfg.ingest.bufferCapacity = 8192.0;
    cfg.ingest.highWatermark = 6144.0;
    cfg.ingest.lowWatermark = 2048.0;
    cfg.ingest.policyChain = {IngestPolicy::Shed, IngestPolicy::Echo};
}

// kill() releases everything the session had on the shared core, also
// in a session with faults and elasticity off: the dead job leaves no
// event and no flow behind, and no callback of it runs afterwards. An
// ingest job also has an arrival chain, which re-arms itself forever,
// and at times a shard write in flight.
TEST(SessionKill, CancelsFaultFreeChains)
{
    ServerConfig ingest = trainBox32();
    addIngest(ingest);
    for (const ServerConfig &cfg : {trainBox32(), ingest}) {
        SCOPED_TRACE(cfg.ingest.enabled ? "ingest" : "fault-free");
        SimulationCore core;
        auto server = buildServer(cfg, &core, "job0.");
        TraceWriter trace;
        TrainingSession session(*server);
        session.setTrace(&trace);
        session.start(4, 8);
        while (session.stepsSynced() < 2 && core.events().step()) {
        }
        ASSERT_EQ(session.stepsSynced(), 2u);
        ASSERT_GT(core.fluid().numActive(), 0u);

        session.kill();
        EXPECT_EQ(core.fluid().numActive(), 0u);
        ASSERT_TRUE(core.events().empty());
        // Each session callback traces a span (prep stage, compute,
        // sync, ingest write).
        const std::size_t traced = trace.numEvents();
        while (core.events().step()) {
        }
        EXPECT_EQ(trace.numEvents(), traced);
    }
}

// A session that finishes releases what it still had in flight: prep
// chains, the fault, elastic and ingest arrival chains, shard writes
// and checkpoint drains.
TEST(SessionRelease, FinishedSessionLeavesNothingBehind)
{
    ServerConfig cfg = trainBox32();
    cfg.faults.enabled = true;
    cfg.faults.ssdReadFailureProb = 0.01;
    cfg.faults.prepCrash.ratePerSec = 0.2;
    cfg.faults.prepCrash.duration = 0.5;
    cfg.elasticity.enabled = true;
    cfg.elasticity.groupDrain.ratePerSec = 0.1;
    cfg.elasticity.groupDrain.absence = 1.0;
    cfg.elasticity.prepPreempt.ratePerSec = 0.1;
    cfg.elasticity.prepPreempt.absence = 1.0;
    addIngest(cfg);
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.mode = CheckpointMode::Async;
    cfg.checkpoint.interval = 2.0;
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    const SessionResult res = session.run(4, 8);
    EXPECT_GT(res.faults.faultsInjected, 0u);
    EXPECT_GT(res.elasticity.events, 0u);
    EXPECT_GT(res.ingest.arrivalEvents, 0u);
    EXPECT_GT(res.checkpoint.committed, 0u);
    EXPECT_TRUE(server->core().events().empty());
    EXPECT_EQ(server->core().fluid().numActive(), 0u);
}

// Two jobs on one core: the victim is killed, or destroyed with its
// server, right after one of its own events, mid-run. The survivor
// must finish with the throughput of its run alone, to the bit. The
// fluid completion event serves both jobs; were it the victim's, the
// release would take it and the survivor would stall.
TEST(SessionKill, SurvivorMatchesItsRunAlone)
{
    const ServerConfig cfg = trainBox32();
    ServerConfig victimCfg = trainBox32();
    victimCfg.model = workload::ModelId::TfSr;
    addIngest(victimCfg);

    auto alone = buildServer(cfg);
    const double thrAlone = TrainingSession(*alone).run(4, 8).throughput;

    for (bool destroy : {false, true}) {
        SCOPED_TRACE(destroy ? "destroyed" : "killed");
        SimulationCore core;
        auto server = buildServer(cfg, &core, "a.");
        auto victimServer = buildServer(victimCfg, &core, "b.");
        TrainingSession survivor(*server);
        auto victim = std::make_unique<TrainingSession>(*victimServer);
        survivor.start(4, 8);
        victim->start(4, 8);
        while (victim->stepsSynced() < 2 && core.events().step()) {
        }
        ASSERT_EQ(victim->stepsSynced(), 2u);
        ASSERT_FALSE(survivor.done());
        if (!destroy)
            victim->kill();
        victim.reset();
        victimServer.reset();

        while (!survivor.done() && core.events().step()) {
        }
        ASSERT_TRUE(survivor.done());
        EXPECT_EQ(survivor.collect().throughput, thrAlone);
        EXPECT_TRUE(core.events().empty());
        EXPECT_EQ(core.fluid().numActive(), 0u);
    }
}

} // namespace
} // namespace tb
