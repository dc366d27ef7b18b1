/**
 * @file
 * Fleet fault-tolerance sweep (src/trainbox/fleet.hh,
 * docs/ROBUSTNESS.md "Fleet fault tolerance").
 *
 * Full mode sweeps host-outage MTBF × retry budget on a six-job
 * co-resident trace, reporting completion/abandonment counts, restarts,
 * steps and wall time lost, re-placement latency, and host down time —
 * the fleet-level availability/goodput tradeoff: a deeper retry budget
 * converts abandonments into restarts and buys completions at the cost
 * of replayed work, while checkpointing shrinks the replay itself.
 *
 * --smoke runs the CI assertion mode instead: the disabled path is
 * bit-identical to a fault-free fleet, a scripted host death returns
 * its integer pool grant for immediate re-lending (and the victim
 * retries to completion), seeded chaos runs hold every conservation
 * ledger and replay deterministically, and a job started one year
 * into the clock completes within an event budget. Exits non-zero on
 * any violation.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "trainbox/fleet.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace {

using namespace tb;

/** One 16-accelerator (2-box) TrainBox job, vision or audio. */
FleetJobSpec
makeJob(std::size_t idx, bool disturbed)
{
    FleetJobSpec job;
    const bool audio = idx % 2 == 1;
    job.name = (audio ? "audio" : "vision") + std::to_string(idx);
    job.arrival = 0.05 * static_cast<double>(idx);
    job.config.preset = ArchPreset::TrainBox;
    job.config.model = audio ? workload::ModelId::TfSr
                             : workload::ModelId::Resnet50;
    job.config.numAccelerators = 16;
    job.config.prepPoolFpgas = 4;
    job.warmupSteps = 2;
    job.measureSteps = 4;
    if (disturbed) {
        job.config.faults.enabled = true;
        job.config.faults.seed = 17 + idx;
        job.config.faults.ssdReadFailureProb = 0.01;
        job.config.faults.prepCrash.ratePerSec = 0.03;
        job.config.faults.prepCrash.duration = 0.8;
        job.config.faults.corruption.ssdBitFlipProb = 0.004;
        job.config.faults.integrityChecks = true;
        job.config.elasticity.enabled = true;
        job.config.elasticity.seed = 31 + idx;
        job.config.elasticity.groupDrain.ratePerSec = 0.05;
        job.config.elasticity.groupDrain.absence = 0.8;
        job.config.ingest.enabled = true;
        job.config.ingest.seed = 47 + idx;
        job.config.ingest.steady = {12000.0, 256.0, 2};
        job.config.ingest.bufferCapacity = 8192.0;
        job.config.ingest.highWatermark = 6144.0;
        job.config.ingest.lowWatermark = 2048.0;
        job.config.ingest.policyChain = {IngestPolicy::Shed,
                                         IngestPolicy::Echo};
    }
    return job;
}

/** Bare-session wall time: the yardstick for MTBF and horizon knobs. */
Time
bareWall()
{
    FleetJobSpec ref = makeJob(0, /*disturbed=*/false);
    auto server = buildServer(ref.config);
    TrainingSession session(*server);
    return session.run(ref.warmupSteps, ref.measureSteps).wallTime;
}

/**
 * @p jobs two-box jobs on @p hostCount two-box hosts with seeded
 * host-outage/box-loss faults scaled to the bare wall time @p w.
 */
FleetConfig
makeFaultFleet(std::size_t jobs, std::size_t hostCount, Time w,
               double mtbfScale, std::size_t maxRetries,
               std::uint64_t seed, bool disturbed)
{
    FleetConfig fleet;
    for (std::size_t h = 0; h < hostCount; ++h)
        fleet.hosts.push_back({"host" + std::to_string(h), 2});
    fleet.policy = PlacementPolicy::Packed;
    fleet.sharedPoolFpgas =
        static_cast<int>(3 * std::max<std::size_t>(jobs, 2));
    for (std::size_t j = 0; j < jobs; ++j)
        fleet.jobs.push_back(makeJob(j, disturbed));
    fleet.horizon = 10.0 * w;
    fleet.faults.enabled = true;
    fleet.faults.seed = seed;
    fleet.faults.hostOutage = {mtbfScale * w, 0.1 * w};
    fleet.faults.boxLoss = {2.0 * mtbfScale * w, 0.1 * w};
    fleet.faults.maxRetries = maxRetries;
    fleet.faults.retryBackoffBase = 0.02 * w;
    return fleet;
}

// --- full sweep ----------------------------------------------------------

int
sweep(bool csv)
{
    const Time w = bareWall();
    const double mtbfScales[] = {1.0, 2.0, 4.0};
    const std::size_t retryBudgets[] = {0, 2, 4};

    if (csv)
        std::printf("mtbf_x,max_retries,completed,abandoned,at_horizon,"
                    "restarts,steps_lost,work_lost_s,avg_replace_s,"
                    "host_down_s,fleet_faults\n");
    else
        std::printf("%6s %7s %9s %9s %10s %8s %10s %11s %13s %11s %12s\n",
                    "mtbf_x", "retries", "completed", "abandoned",
                    "at_horizon", "restarts", "steps_lost",
                    "work_lost_s", "avg_replace_s", "host_down_s",
                    "fleet_faults");

    for (double scale : mtbfScales) {
        for (std::size_t retries : retryBudgets) {
            const FleetReport r = runFleet(makeFaultFleet(
                6, 3, w, scale, retries, /*seed=*/0x5eed + retries,
                /*disturbed=*/false));
            const std::size_t atHorizon =
                r.jobsRunningAtHorizon + r.jobsQueuedAtHorizon;
            if (csv)
                std::printf(
                    "%.1f,%zu,%zu,%zu,%zu,%zu,%zu,%.4f,%.4f,%.4f,%zu\n",
                    scale, retries, r.jobsCompleted, r.jobsAbandoned,
                    atHorizon, r.restartsTotal, r.stepsLostTotal,
                    r.workLostTime, r.avgReplacementLatency,
                    r.hostDownTime, r.fleetFaultsInjected);
            else
                std::printf("%6.1f %7zu %9zu %9zu %10zu %8zu %10zu "
                            "%11.3f %13.3f %11.3f %12zu\n",
                            scale, retries, r.jobsCompleted,
                            r.jobsAbandoned, atHorizon, r.restartsTotal,
                            r.stepsLostTotal, r.workLostTime,
                            r.avgReplacementLatency, r.hostDownTime,
                            r.fleetFaultsInjected);
        }
    }
    return 0;
}

// --- CI smoke assertions -------------------------------------------------

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

int
smoke()
{
    // 1. Fault tolerance enabled with every class off schedules zero
    // events: the report is bit-identical to the disabled path.
    {
        FleetConfig enabled;
        enabled.hosts.push_back({"host0", 2});
        enabled.jobs.push_back(makeJob(0, /*disturbed=*/false));
        enabled.faults.enabled = true;
        FleetConfig disabled = enabled;
        disabled.faults.enabled = false;
        const FleetReport a = runFleet(enabled);
        const FleetReport b = runFleet(disabled);
        check(a.jobsCompleted == 1, "empty-fault fleet completes");
        check(a.toJson() == b.toJson(),
              "empty fault config is bit-identical to disabled");
        check(a.eventsExecuted == b.eventsExecuted,
              "empty fault config adds zero events");
    }

    // 2. A scripted host death at admission time kills the victim,
    // returns its 4-FPGA grant for immediate re-lending (the job
    // arriving during the outage gets the full grant from a 6-FPGA
    // pool), and the victim retries to completion with the residue.
    {
        FleetConfig fleet;
        fleet.hosts.push_back({"host0", 4});
        fleet.sharedPoolFpgas = 6;
        fleet.faults.enabled = true;
        fleet.faults.maxRetries = 3;
        fleet.faults.retryBackoffBase = 0.05;
        fleet.faults.schedule.push_back({FleetFaultKind::HostOutage,
                                         /*host=*/0, /*start=*/0.0,
                                         /*duration=*/0.03});
        FleetJobSpec victim = makeJob(0, /*disturbed=*/false);
        victim.arrival = 0.0;
        FleetJobSpec lucky = makeJob(1, /*disturbed=*/false);
        lucky.arrival = 0.01;
        fleet.jobs.push_back(victim);
        fleet.jobs.push_back(lucky);

        const FleetReport r = runFleet(fleet);
        check(r.jobsCompleted == 2, "killed fleet recovers fully");
        check(r.restartsTotal == 1, "exactly one restart");
        check(r.jobs[0].state == FleetJobState::Completed &&
                  r.jobs[0].restarts == 1,
              "victim retried to completion");
        check(r.jobs[1].poolFpgasGranted == 4 &&
                  !r.jobs[1].poolConstrained,
              "freed grant re-lent whole to the queued job");
        check(r.jobs[0].poolFpgasGranted == 2 &&
                  r.jobs[0].poolConstrained,
              "victim's retry granted the 2-FPGA residue");
        check(r.fleetFaultsInjected == 1, "one fleet fault injected");
        check(r.hostDownTime > 0.0, "outage accrued host down time");
    }

    // 3. Seeded chaos (fleet faults over disturbed jobs): the fleet
    // job ledger holds for every seed — the per-session, pool-grant,
    // and sample ledgers are panic-checked inside the simulator, so
    // completing each run is itself an assertion — and a same-seed
    // replay is byte-identical.
    {
        const Time w = bareWall();
        std::string first;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const FleetReport r = runFleet(makeFaultFleet(
                2, 2, w, /*mtbfScale=*/1.5, /*maxRetries=*/2, seed,
                /*disturbed=*/true));
            check(r.jobsCompleted + r.jobsAbandoned +
                          r.jobsRunningAtHorizon + r.jobsQueuedAtHorizon ==
                      r.jobsTotal,
                  "fleet job conservation ledger");
            if (seed == 1)
                first = r.toJson();
        }
        const FleetReport again = runFleet(makeFaultFleet(
            2, 2, w, 1.5, 2, /*seed=*/1, /*disturbed=*/true));
        check(again.toJson() == first, "same-seed chaos replay");
    }

    // 4. The clock: a job started one year into the clock (past 2^24 s,
    // where one ulp of the clock exceeds 1 ns) completes within an
    // event budget, in as many events as at t0 = 0. The budget turns a
    // completion livelock into a failure instead of a hang.
    {
        auto eventsAt = [](Time t0) -> std::uint64_t {
            const FleetJobSpec job = makeJob(0, /*disturbed=*/false);
            auto server = buildServer(job.config);
            EventQueue &eq = server->core().events();
            eq.schedule(t0, [] {});
            eq.run(t0);
            TrainingSession session(*server);
            session.start(job.warmupSteps, job.measureSteps);
            const std::uint64_t first = eq.numExecuted();
            while (!session.done() && eq.numExecuted() - first < 5000 &&
                   eq.step()) {
            }
            return session.done() ? eq.numExecuted() - first : 0;
        };
        const std::uint64_t late = eventsAt(365.0 * 86400.0);
        check(late > 0, "job started at 1 year completes within the budget");
        check(late == eventsAt(0.0),
              "job started at 1 year takes the events it takes at t0 = 0");
    }

    std::printf(failures == 0
                    ? "fleet fault smoke: all checks passed\n"
                    : "fleet fault smoke: %d FAILURES\n",
                failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            return smoke();
    return sweep(bench::wantCsv(argc, argv));
}
