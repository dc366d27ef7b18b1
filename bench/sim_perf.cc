/**
 * @file
 * Simulator hot-path benchmark: wall time and solver work per event.
 *
 * Scenarios, each run under both solver modes (FullResolve, the in-tree
 * oracle that re-solves every component, and Incremental) with equal
 * event budgets:
 *
 *  - fig19_at_256: the paper's TrainBox preset at 256 accelerators — a
 *    real end-to-end session, the largest single-server configuration in
 *    the repo. Both modes must produce bit-identical session throughput
 *    (the solver is an optimization, not a model change); the bench
 *    asserts this.
 *
 *  - fleet_10k: a synthetic fleet of disjoint *heterogeneous* jobs
 *    (~10k concurrent flows over 2500 jobs) with continuous churn —
 *    every completion launches a replacement flow. The sharing graph
 *    decomposes into thousands of small components, and the incremental
 *    solver touches about one of them per event.
 *
 *  - fleet_sessions_12: co-resident full sessions on one shared core.
 *
 *  - eq_churn: EventQueue schedule/cancel/step microbenchmark — the
 *    lazy-tombstone cancel path under load.
 *
 * Output: a table on stdout plus BENCH_sim_perf.json (see --out). Each
 * row holds the wall time, the events run, µs/event and the solver's
 * work counters (solves, components solved, flows solved, flows
 * re-anchored, completion-heap operations), plus the scenario metric.
 *
 * The CI gate (--baseline) compares against a committed JSON: every
 * case and mode must match it exactly on events and the work counters,
 * and within 4 ulps (EXPECT_DOUBLE_EQ's rule) on the metric. Those do
 * not depend on the host, and a repeated solve or an O(network) scan
 * coming back changes them. Wall time is gated only by a generous
 * absolute bound per case (kMaxCaseSeconds); µs/event is recorded for
 * trend reading.
 *
 * Flags:
 *   --smoke            small sizes for CI (64 accs, 1k-flow fleet)
 *   --out <path>       JSON output path (default BENCH_sim_perf.json)
 *   --baseline <path>  gate against a committed JSON (exit 3 on a miss)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
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
    FluidNetwork::SolverStats work; ///< solver work over the case
    double metric = 0.0;            ///< scenario metric (throughput, ...)

    double
    usPerEvent() const
    {
        return events > 0 ? 1e6 * wallS / static_cast<double>(events)
                          : 0.0;
    }

    void
    addWork(const FluidNetwork::SolverStats &before,
            const FluidNetwork::SolverStats &after)
    {
        work.solves += after.solves - before.solves;
        work.componentsSolved +=
            after.componentsSolved - before.componentsSolved;
        work.flowsSolved += after.flowsSolved - before.flowsSolved;
        work.flowsReanchored +=
            after.flowsReanchored - before.flowsReanchored;
        work.heapOps += after.heapOps - before.heapOps;
    }
};

const char *
modeName(FluidNetwork::SolverMode mode)
{
    switch (mode) {
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
        r.addWork({}, server->core().fluid().solverStats());
        r.metric = report.throughput(); // deterministic across reps
    }
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
    // steps all differ.
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
    const FluidNetwork::SolverStats before = net.solverStats();
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
    r.addWork(before, net.solverStats());
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
    FleetSimulation fleet(std::move(cfg));
    const FleetReport report = fleet.run();
    const double wall = secondsSince(t0);

    CaseResult r;
    r.name = caseName;
    r.mode = modeName(mode);
    r.wallS = wall;
    r.events = report.eventsExecuted;
    r.addWork({}, fleet.core().fluid().solverStats());
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
    r.metric = static_cast<double>(fired);
    return r;
}

// --- JSON emit / baseline gate -------------------------------------------

/**
 * Wall-time bound per case under --baseline. It catches gross slowdowns
 * only; the counters catch repeated work. On a 4-core x86-64 host the
 * slowest smoke case takes up to 0.26 s plain, 1.6 s under ASan+UBSan
 * and 3.9 s under TSan, and the slowest full-size case 3.5 s plain.
 */
constexpr double kMaxCaseSeconds = 30.0;

/** The gated fields of a row, in JSON key order. */
std::vector<std::pair<const char *, double>>
gatedFields(const CaseResult &r)
{
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"events", n(r.events)},
        {"solves", n(r.work.solves)},
        {"components_solved", n(r.work.componentsSolved)},
        {"flows_solved", n(r.work.flowsSolved)},
        {"flows_reanchored", n(r.work.flowsReanchored)},
        {"heap_ops", n(r.work.heapOps)},
        {"metric", r.metric},
    };
}

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
        // One case per line: the baseline gate below is line-based.
        char buf[128];
        std::snprintf(buf, sizeof(buf), "\"wall_s\": %.6f, "
                      "\"us_per_event\": %.3f", r.wallS, r.usPerEvent());
        out << "    {\"name\": \"" << r.name << "\", \"mode\": \""
            << r.mode << "\", " << buf;
        // %.17g round-trips a double, so the gate reads back the value.
        for (const auto &[key, value] : gatedFields(r)) {
            std::snprintf(buf, sizeof(buf), ", \"%s\": %.17g", key, value);
            out << buf;
        }
        out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

/** Extract `"key": <number>` from a one-case JSON line (NaN if absent). */
double
extractNumber(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return std::nan("");
    return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/** Extract `"key": "<string>"` from a one-case JSON line. */
std::string
extractString(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": \"";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return "";
    const auto begin = pos + needle.size();
    return line.substr(begin, line.find('"', begin) - begin);
}

/**
 * True if @p a and @p b are at most 4 ulps apart, the tolerance of the
 * tests' EXPECT_DOUBLE_EQ goldens: another compiler or libm may round
 * the metric differently in its last bits.
 */
bool
within4Ulps(double a, double b)
{
    for (int i = 0; i < 4 && a != b; ++i)
        a = std::nextafter(a, b);
    return a == b;
}

/**
 * Gate this run against a committed baseline JSON: the two must hold
 * the same case/mode rows, every counter must match exactly and the
 * metric within 4 ulps, and no case may take longer than
 * kMaxCaseSeconds. Returns false on any miss, after reporting every one.
 */
bool
gateAgainstBaseline(const std::string &path,
                    const std::vector<CaseResult> &results)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "sim_perf: cannot read baseline %s\n",
                     path.c_str());
        return false;
    }
    std::map<std::string, std::string> baseline; // "case/mode" -> line
    std::string line;
    while (std::getline(in, line))
        if (line.find("\"name\"") != std::string::npos)
            baseline[extractString(line, "name") + "/" +
                     extractString(line, "mode")] = line;

    bool ok = true;
    for (const CaseResult &r : results) {
        const std::string key = r.name + "/" + r.mode;
        if (r.wallS > kMaxCaseSeconds) {
            std::fprintf(stderr,
                         "sim_perf: SLOW %s took %.3f s > %.3f s\n",
                         key.c_str(), r.wallS, kMaxCaseSeconds);
            ok = false;
        }
        const auto it = baseline.find(key);
        if (it == baseline.end()) {
            std::fprintf(stderr, "sim_perf: %s missing from baseline\n",
                         key.c_str());
            ok = false;
            continue;
        }
        for (const auto &[field, value] : gatedFields(r)) {
            const double want = extractNumber(it->second, field);
            const bool match = std::strcmp(field, "metric") == 0
                                   ? within4Ulps(value, want)
                                   : value == want;
            if (!match) {
                std::fprintf(stderr,
                             "sim_perf: MISMATCH %s %s %.17g != baseline "
                             "%.17g\n",
                             key.c_str(), field, value, want);
                ok = false;
            }
        }
        baseline.erase(it);
    }
    for (const auto &[key, unused] : baseline) {
        std::fprintf(stderr, "sim_perf: baseline row %s not run\n",
                     key.c_str());
        ok = false;
    }
    return ok;
}

/**
 * Bit-identity guardrail: the modes of one case must reproduce its
 * first row's metric to the last bit.
 */
bool
modesAgree(const std::vector<CaseResult> &rows)
{
    for (const CaseResult &r : rows) {
        if (r.metric != rows.front().metric) {
            std::fprintf(stderr,
                         "sim_perf: BIT-IDENTITY VIOLATION: %s/%s metric "
                         "%.17g != %s %.17g\n",
                         r.name.c_str(), r.mode.c_str(), r.metric,
                         rows.front().mode.c_str(), rows.front().metric);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_sim_perf.json";
    std::string baselinePath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 &&
                   i + 1 < argc) {
            baselinePath = argv[++i];
        } else {
            std::fprintf(stderr, "sim_perf: unknown arg %s\n", argv[i]);
            return 1;
        }
    }

    using Mode = FluidNetwork::SolverMode;
    const Mode modes[] = {Mode::FullResolve, Mode::Incremental};
    std::vector<CaseResult> results;

    // fig19-at-256: a real session at the repo's largest single-server
    // scale. Smoke shrinks to 64 accelerators for CI.
    const std::size_t accs = smoke ? 64 : 256;
    const std::size_t warmup = smoke ? 1 : 2;
    const std::size_t measure = smoke ? 2 : 4;
    const std::size_t reps = smoke ? 2 : 5;
    const char *sessName = smoke ? "fig19_at_64" : "fig19_at_256";
    std::vector<CaseResult> sessions;
    for (Mode mode : modes)
        sessions.push_back(
            runSession(sessName, accs, mode, warmup, measure, reps));
    if (!modesAgree(sessions))
        return 1;
    results.insert(results.end(), sessions.begin(), sessions.end());

    // fleet_10k: disjoint heterogeneous-job churn, the same event
    // budget for both modes.
    const std::size_t jobs = smoke ? 250 : 2500;
    const char *fleetName = smoke ? "fleet_1k" : "fleet_10k";
    const std::uint64_t fleetEvents = 2000;
    for (Mode mode : modes)
        results.push_back(runFleet(fleetName, jobs, fleetEvents, mode));

    // fleet_sessions: the real multi-job fleet (trainbox/fleet.hh) end
    // to end — co-resident full sessions on one shared core, run to
    // completion under each mode. Aggregate throughput must be
    // bit-identical across modes (same guardrail as fig19).
    const std::size_t fleetJobs = smoke ? 4 : 12;
    const char *fsName = smoke ? "fleet_sessions_4" : "fleet_sessions_12";
    const std::size_t fsWarmup = smoke ? 1 : 2;
    const std::size_t fsMeasure = smoke ? 2 : 4;
    std::vector<CaseResult> fleetSessions;
    for (Mode mode : modes)
        fleetSessions.push_back(runFleetSessions(fsName, fleetJobs, mode,
                                                 fsWarmup, fsMeasure));
    if (!modesAgree(fleetSessions))
        return 1;
    results.insert(results.end(), fleetSessions.begin(),
                   fleetSessions.end());

    results.push_back(runEqChurn(smoke ? 200000 : 2000000));

    std::printf("%-17s %-13s %9s %9s %9s %8s %10s %11s %10s\n", "case",
                "mode", "wall_s", "events", "us/event", "solves",
                "components", "flows", "reanchored");
    for (const CaseResult &r : results) {
        std::printf("%-17s %-13s %9.3f %9llu %9.3f %8llu %10llu %11llu "
                    "%10llu\n",
                    r.name.c_str(), r.mode.c_str(), r.wallS,
                    static_cast<unsigned long long>(r.events),
                    r.usPerEvent(),
                    static_cast<unsigned long long>(r.work.solves),
                    static_cast<unsigned long long>(
                        r.work.componentsSolved),
                    static_cast<unsigned long long>(r.work.flowsSolved),
                    static_cast<unsigned long long>(
                        r.work.flowsReanchored));
    }

    writeJson(outPath, results, smoke);
    std::printf("\nwrote %s\n", outPath.c_str());

    if (!baselinePath.empty() &&
        !gateAgainstBaseline(baselinePath, results))
        return 3;
    return 0;
}
