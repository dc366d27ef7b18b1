/**
 * @file
 * Simulator hot-path benchmark: solver events/sec and wall time.
 *
 * Scenarios, each run under every solver configuration (GlobalResolve —
 * the seed's coupled whole-network loop, the baseline — FullResolve and
 * Incremental):
 *
 *  - fig19_at_256: the paper's TrainBox preset at 256 accelerators — a
 *    real end-to-end session, the largest single-server configuration in
 *    the repo. All modes must produce bit-identical session throughput
 *    (the solver is an optimization, not a model change); the bench
 *    asserts this.
 *
 *  - fleet_10k: a synthetic fleet of disjoint *heterogeneous* jobs
 *    (~10k concurrent flows over 2500 jobs) with continuous churn —
 *    every completion launches a replacement flow. This is the ROADMAP
 *    item-1 shape: the sharing graph decomposes into thousands of small
 *    components with distinct bottleneck steps, which is exactly where
 *    the coupled global loop degrades (O(components) rounds of
 *    O(network) work per event) and the incremental solver wins (it
 *    touches ~one component per event).
 *
 *  - eq_churn: EventQueue schedule/cancel/step microbenchmark — the
 *    lazy-tombstone cancel path under load.
 *
 * Output: a table on stdout plus BENCH_sim_perf.json (see --out). The
 * JSON is the repo's perf trajectory artifact: CI re-runs this bench in
 * --smoke mode and compares *normalized* metrics (each mode's
 * events/sec over the global-resolve baseline, measured on the same
 * host in the same run) against the committed baseline, failing on a
 * >20% regression. Absolute events/sec is recorded for trend reading
 * but never gated — it varies with the host.
 *
 * Flags:
 *   --smoke            small sizes for CI (64 accs, 1k-flow fleet)
 *   --out <path>       JSON output path (default BENCH_sim_perf.json)
 *   --baseline <path>  compare speedups against a committed JSON
 *   --min-speedup <x>  fail unless fleet incremental speedup >= x
 *                      (default 5, the ISSUE acceptance floor)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "fluid/fluid.hh"
#include "sim/event_queue.hh"
#include "trainbox/fleet.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace {

using namespace tb;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct CaseResult
{
    std::string name;
    std::string mode;
    double wallS = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double speedupVsGlobal = 0.0; ///< 0 on the baseline row itself
    double metric = 0.0;          ///< scenario metric (throughput, ...)
};

const char *
modeName(FluidNetwork::SolverMode mode)
{
    switch (mode) {
    case FluidNetwork::SolverMode::GlobalResolve:
        return "global_resolve";
    case FluidNetwork::SolverMode::FullResolve:
        return "full_resolve";
    case FluidNetwork::SolverMode::Incremental:
        return "incremental";
    }
    return "?";
}

// --- fig19_at_256 --------------------------------------------------------

CaseResult
runSession(const char *caseName, std::size_t accs,
           FluidNetwork::SolverMode mode, std::size_t warmup,
           std::size_t measure, std::size_t reps)
{
    CaseResult r;
    r.name = caseName;
    r.mode = modeName(mode);
    for (std::size_t rep = 0; rep < reps; ++rep) {
        ServerConfig cfg;
        cfg.preset = ArchPreset::TrainBox;
        cfg.model = workload::ModelId::Resnet50;
        cfg.numAccelerators = accs;

        auto server = buildServer(cfg);
        server->core().fluid().setSolverMode(mode);

        TrainingSession session(*server);
        const auto t0 = Clock::now();
        const SessionReport report = session.runReport(warmup, measure);
        r.wallS += secondsSince(t0);
        r.events += server->core().events().numExecuted();
        r.metric = report.throughput(); // deterministic across reps
    }
    r.eventsPerSec =
        r.wallS > 0.0 ? static_cast<double>(r.events) / r.wallS : 0.0;
    return r;
}

// --- fleet_10k -----------------------------------------------------------

CaseResult
runFleet(const char *caseName, std::size_t jobs,
         std::uint64_t targetEvents, FluidNetwork::SolverMode mode)
{
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(mode);

    // Per-job private resources with heterogeneous capacities: the
    // sharing graph is `jobs` disjoint components whose bottleneck
    // steps all differ, so the coupled global loop pays one freezing
    // round per job (the fleet-scale shape from ROADMAP item 1).
    struct Job
    {
        FluidResource *link;
        FluidResource *pool;
    };
    Rng rng(0x7fee7);
    std::vector<Job> jobRes;
    std::vector<std::size_t> jobFlows;
    jobRes.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
        jobRes.push_back({
            net.addResource("job" + std::to_string(j) + ".link",
                            rng.uniform(60.0, 140.0)),
            net.addResource("job" + std::to_string(j) + ".pool",
                            rng.uniform(50.0, 110.0)),
        });
        jobFlows.push_back(
            static_cast<std::size_t>(rng.uniformInt(2, 6)));
    }

    // Churn: every completion launches a replacement flow in its job,
    // so component membership changes on every event. Relaunching is
    // unconditional — the run simply stops stepping at the event budget.
    std::function<void(std::size_t)> launch = [&](std::size_t j) {
        FlowSpec spec;
        spec.category = "fleet";
        spec.size = rng.uniform(5.0, 15.0);
        if (rng.uniform() < 0.3)
            spec.rateCap = rng.uniform(3.0, 10.0); // extra filling round
        spec.demands = {{jobRes[j].link, 1.0}, {jobRes[j].pool, 0.8}};
        spec.onComplete = [&launch, j](Time) { launch(j); };
        net.startFlow(std::move(spec));
    };

    {
        FluidNetwork::FlowBatch batch(net);
        for (std::size_t j = 0; j < jobs; ++j)
            for (std::size_t k = 0; k < jobFlows[j]; ++k)
                launch(j);
    }

    // Measure steady-state churn only (setup + initial solve excluded).
    const std::uint64_t startEvents = eq.numExecuted();
    const auto t0 = Clock::now();
    while (eq.numExecuted() < startEvents + targetEvents && eq.step()) {
    }
    const double wall = secondsSince(t0);
    const std::uint64_t events = eq.numExecuted() - startEvents;

    CaseResult r;
    r.name = caseName;
    r.mode = modeName(mode);
    r.wallS = wall;
    r.events = events;
    r.eventsPerSec =
        wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
    r.metric = static_cast<double>(net.numActive());
    return r;
}

// --- fleet_sessions ------------------------------------------------------

/**
 * End-to-end multi-job fleet on one shared core (trainbox/fleet.hh):
 * @p jobs co-resident mixed vision + audio TrainBox sessions, each a
 * full training run with its own prefixed fluid server — the realistic
 * fleet-scale solver shape (many mid-size disjoint components, all
 * live at once), where fleet_10k above is the synthetic raw-flow
 * stress. Metric is the fleet's aggregate throughput, which must be
 * bit-identical across solver modes.
 */
CaseResult
runFleetSessions(const char *caseName, std::size_t jobs,
                 FluidNetwork::SolverMode mode, std::size_t warmup, std::size_t measure)
{
    FleetConfig cfg;
    for (std::size_t j = 0; j < jobs; ++j) {
        cfg.hosts.push_back({"host" + std::to_string(j), 2});
        FleetJobSpec job;
        const bool audio = j % 2 == 1;
        job.name =
            (audio ? "audio" : "vision") + std::to_string(j);
        job.arrival = 0.01 * static_cast<double>(j);
        job.config.preset = ArchPreset::TrainBox;
        job.config.model = audio ? workload::ModelId::TfSr
                                 : workload::ModelId::Resnet50;
        job.config.numAccelerators = 16;
        job.config.prepPoolFpgas = 4;
        job.warmupSteps = warmup;
        job.measureSteps = measure;
        cfg.jobs.push_back(job);
    }
    cfg.overrideSolverMode = true;
    cfg.solverMode = mode;

    const auto t0 = Clock::now();
    const FleetReport report = runFleet(std::move(cfg));
    const double wall = secondsSince(t0);

    CaseResult r;
    r.name = caseName;
    r.mode = modeName(mode);
    r.wallS = wall;
    r.events = report.eventsExecuted;
    r.eventsPerSec =
        wall > 0.0 ? static_cast<double>(r.events) / wall : 0.0;
    r.metric = report.aggregateThroughput;
    return r;
}

// --- eq_churn ------------------------------------------------------------

CaseResult
runEqChurn(std::uint64_t ops)
{
    EventQueue eq;
    Rng rng(0xec0);
    std::vector<EventId> live;
    std::uint64_t fired = 0;

    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const double r = rng.uniform();
        if (r < 0.5 || live.empty()) {
            live.push_back(eq.schedule(eq.now() + rng.uniform(0.0, 10.0),
                                       [&fired] { ++fired; }));
        } else if (r < 0.8) {
            // cancel a random pending event (the old O(n) hot spot)
            const std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(live.size()) -
                                      1));
            eq.cancel(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        } else {
            eq.step();
        }
    }
    const double wall = secondsSince(t0);

    CaseResult r;
    r.name = "eq_churn";
    r.mode = "tombstone";
    r.wallS = wall;
    r.events = ops;
    r.eventsPerSec = wall > 0.0 ? static_cast<double>(ops) / wall : 0.0;
    r.metric = static_cast<double>(fired);
    return r;
}

// --- JSON emit / baseline compare ----------------------------------------

void
writeJson(const std::string &path, const std::vector<CaseResult> &results,
          bool smoke)
{
    std::ofstream out(path);
    out << "{\n";
    out << "  \"bench\": \"sim_perf\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"cases\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseResult &r = results[i];
        char line[512];
        // One case per line: the baseline comparator below is line-based.
        std::snprintf(line, sizeof(line),
                      "    {\"name\": \"%s\", \"mode\": \"%s\", "
                      "\"wall_s\": %.6f, \"events\": %llu, "
                      "\"events_per_sec\": %.1f, "
                      "\"speedup_vs_global\": %.3f, \"metric\": %.6f}%s",
                      r.name.c_str(), r.mode.c_str(), r.wallS,
                      static_cast<unsigned long long>(r.events),
                      r.eventsPerSec, r.speedupVsGlobal, r.metric,
                      i + 1 < results.size() ? "," : "");
        out << line << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

/** Extract `"key": <number>` from a one-case JSON line (-1 if absent). */
double
extractNumber(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return -1.0;
    return std::atof(line.c_str() + pos + needle.size());
}

/**
 * Compare this run's speedup ratios against a committed baseline JSON.
 * Returns false (regression) when any case+mode present in both files
 * lost more than 20% of its speedup-over-global — a normalized
 * events/sec regression check that is robust to absolute host speed.
 */
bool
compareBaseline(const std::string &path,
                const std::vector<CaseResult> &results)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "sim_perf: cannot read baseline %s\n",
                     path.c_str());
        return false;
    }
    bool ok = true;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"name\"") == std::string::npos)
            continue;
        const double baseSpeedup =
            extractNumber(line, "speedup_vs_global");
        if (baseSpeedup <= 0.0)
            continue; // baseline-mode rows carry no ratio
        for (const CaseResult &r : results) {
            if (r.speedupVsGlobal <= 0.0)
                continue;
            if (line.find("\"name\": \"" + r.name + "\"") ==
                    std::string::npos ||
                line.find("\"mode\": \"" + r.mode + "\"") ==
                    std::string::npos)
                continue;
            if (r.speedupVsGlobal < 0.8 * baseSpeedup) {
                std::fprintf(stderr,
                             "sim_perf: REGRESSION %s/%s speedup %.2fx < "
                             "80%% of baseline %.2fx\n",
                             r.name.c_str(), r.mode.c_str(),
                             r.speedupVsGlobal, baseSpeedup);
                ok = false;
            }
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_sim_perf.json";
    std::string baselinePath;
    double minSpeedup = 5.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 &&
                   i + 1 < argc) {
            baselinePath = argv[++i];
        } else if (std::strcmp(argv[i], "--min-speedup") == 0 &&
                   i + 1 < argc) {
            minSpeedup = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr, "sim_perf: unknown arg %s\n", argv[i]);
            return 1;
        }
    }

    using Mode = FluidNetwork::SolverMode;

    // fig19-at-256: a real session at the repo's largest single-server
    // scale. Smoke shrinks to 64 accelerators for CI.
    const std::size_t accs = smoke ? 64 : 256;
    const std::size_t warmup = smoke ? 1 : 2;
    const std::size_t measure = smoke ? 2 : 4;
    const std::size_t reps = smoke ? 2 : 5;
    const char *sessName = smoke ? "fig19_at_64" : "fig19_at_256";

    std::vector<CaseResult> results;
    for (Mode mode :
         {Mode::GlobalResolve, Mode::FullResolve, Mode::Incremental})
        results.push_back(
            runSession(sessName, accs, mode, warmup, measure, reps));
    for (std::size_t i = 1; i < results.size(); ++i)
        results[i].speedupVsGlobal =
            results[0].eventsPerSec > 0.0
                ? results[i].eventsPerSec / results[0].eventsPerSec
                : 0.0;

    // Bit-identity guardrail: every mode must reproduce the same session
    // throughput, to the last bit. (The session's components are
    // symmetric, so even the coupled global loop matches exactly.)
    for (std::size_t i = 1; i < results.size(); ++i) {
        if (results[i].metric != results[0].metric) {
            std::fprintf(stderr,
                         "sim_perf: BIT-IDENTITY VIOLATION: %s throughput "
                         "%.17g != global_resolve %.17g\n",
                         results[i].mode.c_str(), results[i].metric,
                         results[0].metric);
            return 1;
        }
    }

    // fleet_10k: disjoint heterogeneous-job churn. The global baseline
    // re-solves the whole network on every event, so it gets a smaller
    // event budget; the comparison is events/sec, which normalizes.
    const std::size_t jobs = smoke ? 250 : 2500;
    const char *fleetName = smoke ? "fleet_1k" : "fleet_10k";
    // The coupled loop costs seconds per event at 10k flows — a tiny
    // budget keeps the baseline measurable without dominating the run.
    const std::uint64_t globalEvents = smoke ? 60 : 15;
    const std::uint64_t fullEvents = smoke ? 600 : 2000;
    const std::uint64_t incEvents = smoke ? 4000 : 20000;

    const CaseResult fleetGlobal =
        runFleet(fleetName, jobs, globalEvents, Mode::GlobalResolve);
    results.push_back(fleetGlobal);
    auto addFleet = [&](std::uint64_t budget, Mode mode) {
        CaseResult r = runFleet(fleetName, jobs, budget, mode);
        r.speedupVsGlobal = fleetGlobal.eventsPerSec > 0.0
                                ? r.eventsPerSec /
                                      fleetGlobal.eventsPerSec
                                : 0.0;
        results.push_back(r);
        return r;
    };
    addFleet(fullEvents, Mode::FullResolve);
    const CaseResult fleetInc = addFleet(incEvents, Mode::Incremental);

    // fleet_sessions: the real multi-job fleet (trainbox/fleet.hh) end
    // to end — co-resident full sessions on one shared core, run to
    // completion under each mode. Aggregate throughput must be
    // bit-identical across modes (same guardrail as fig19).
    const std::size_t fleetJobs = smoke ? 4 : 12;
    const char *fsName = smoke ? "fleet_sessions_4" : "fleet_sessions_12";
    const std::size_t fsWarmup = smoke ? 1 : 2;
    const std::size_t fsMeasure = smoke ? 2 : 4;
    const CaseResult fsGlobal = runFleetSessions(
        fsName, fleetJobs, Mode::GlobalResolve, fsWarmup, fsMeasure);
    results.push_back(fsGlobal);
    auto addFleetSessions = [&](Mode mode) {
        CaseResult r = runFleetSessions(fsName, fleetJobs, mode, fsWarmup,
                                        fsMeasure);
        r.speedupVsGlobal =
            fsGlobal.eventsPerSec > 0.0
                ? r.eventsPerSec / fsGlobal.eventsPerSec
                : 0.0;
        results.push_back(r);
    };
    addFleetSessions(Mode::FullResolve);
    addFleetSessions(Mode::Incremental);
    for (std::size_t i = results.size() - 2; i < results.size(); ++i) {
        if (results[i].metric != fsGlobal.metric) {
            std::fprintf(stderr,
                         "sim_perf: BIT-IDENTITY VIOLATION: %s/%s "
                         "aggregate throughput %.17g != global_resolve "
                         "%.17g\n",
                         results[i].name.c_str(), results[i].mode.c_str(),
                         results[i].metric, fsGlobal.metric);
            return 1;
        }
    }

    results.push_back(runEqChurn(smoke ? 200000 : 2000000));

    std::printf("%-14s %-20s %10s %10s %14s %10s\n", "case", "mode",
                "wall_s", "events", "events/sec", "speedup");
    for (const CaseResult &r : results) {
        char speedup[32] = "-";
        if (r.speedupVsGlobal > 0.0)
            std::snprintf(speedup, sizeof(speedup), "%.2fx",
                          r.speedupVsGlobal);
        std::printf("%-14s %-20s %10.3f %10llu %14.1f %10s\n",
                    r.name.c_str(), r.mode.c_str(), r.wallS,
                    static_cast<unsigned long long>(r.events),
                    r.eventsPerSec, speedup);
    }

    writeJson(outPath, results, smoke);
    std::printf("\nwrote %s\n", outPath.c_str());

    if (fleetInc.speedupVsGlobal < minSpeedup) {
        std::fprintf(stderr,
                     "sim_perf: fleet incremental speedup %.2fx below "
                     "required %.2fx\n",
                     fleetInc.speedupVsGlobal, minSpeedup);
        return 2;
    }
    if (!baselinePath.empty() && !compareBaseline(baselinePath, results))
        return 3;
    return 0;
}
