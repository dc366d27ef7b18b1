/**
 * @file
 * The simulator workloads: server_sweep, server_stream and fleet_mixed.
 *
 * server_sweep and server_stream drive single-server sessions the way
 * the figure benches and tb_report do (build -> start -> step loop ->
 * collect -> SessionReport -> JSON), one session at a time, in an order
 * set by the workload seed. fleet_mixed runs one FleetSimulation per
 * operation. Every simulated throughput (and the fleet makespan) goes
 * to run.py, which compares it with the stored references.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "trainbox/fleet.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"
#include "workload/model_zoo.hh"

namespace perfbench {
namespace {

using tb::ArchPreset;
using tb::ServerConfig;
using tb::workload::ModelId;

/** Work counters summed over the traced sessions. */
struct LoopCounters
{
    double loopS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t solves = 0;
    std::uint64_t components = 0;
    std::uint64_t flowsSolved = 0;
    double queueSum = 0.0; ///< pending events, summed per step
    double liveSum = 0.0;  ///< live flows, summed per step
    std::uint64_t samples = 0;

    void
    addSolver(const tb::FluidNetwork &net)
    {
        const auto &st = net.solverStats();
        solves += st.solves;
        components += st.componentsSolved;
        flowsSolved += st.flowsSolved;
    }
};

struct SessionCase
{
    std::string key; ///< model/preset/accelerators
    ServerConfig cfg;
};

constexpr std::size_t kWarmup = 4;
constexpr std::size_t kMeasure = 8;

std::string
caseKey(const ServerConfig &cfg)
{
    return tb::workload::model(cfg.model).name + "/" +
           tb::presetName(cfg.preset) + "/" +
           std::to_string(cfg.numAccelerators);
}

/** A serialized report must at least be one JSON object. */
bool
isJsonObject(const std::string &s)
{
    const auto b = s.find_first_not_of(" \n");
    const auto e = s.find_last_not_of(" \n");
    return b != std::string::npos && s[b] == '{' && s[e] == '}';
}

/**
 * One session, timed phase by phase; the throughput goes to @p log.
 * With @p ctr the step loop also samples the pending-event count and
 * live flows before every step. With @p stepMs it records the host time
 * of every training step: from the previous step's sync (the first:
 * from the start of the loop) to this one's.
 */
void
runSession(const SessionCase &sc, Spans *spans, LoopCounters *ctr,
           OutputLog &log, Result &res,
           std::vector<double> *stepMs = nullptr)
{
    const std::uint64_t op = res.newOp();
    Spans::Scope whole(spans, "op.session", op);
    std::unique_ptr<tb::Server> server;
    {
        Spans::Scope s(spans, "trainbox.buildServer", op);
        server = tb::buildServer(sc.cfg);
    }

    tb::TrainingSession session(*server);
    {
        Spans::Scope s(spans, "trainbox.start", op);
        session.start(kWarmup, kMeasure);
    }

    tb::EventQueue &eq = server->core().events();
    tb::FluidNetwork &net = server->core().fluid();
    {
        Spans::Scope s(spans, "sim.loop", op);
        const auto loop0 = Clock::now();
        if (ctr) {
            while (!session.done()) {
                ctr->queueSum += static_cast<double>(eq.size());
                ctr->liveSum += static_cast<double>(net.numActive());
                ++ctr->samples;
                if (!eq.step())
                    break;
            }
            ctr->loopS += secondsSince(loop0);
            ctr->events += eq.numExecuted();
            ctr->addSolver(net);
        } else if (stepMs) {
            std::size_t synced = session.stepsSynced();
            auto mark = loop0;
            while (!session.done() && eq.step()) {
                if (session.stepsSynced() == synced)
                    continue;
                synced = session.stepsSynced();
                const auto now = Clock::now();
                stepMs->push_back(
                    1e3 * std::chrono::duration<double>(now - mark).count());
                mark = now;
            }
        } else {
            while (!session.done() && eq.step()) {
            }
        }
    }
    if (!session.done()) {
        res.fail(op, sc.key + ": event queue drained before the last step");
        log.record(sc.key, std::nan(""), op);
        return;
    }

    tb::SessionResult result;
    {
        Spans::Scope s(spans, "trainbox.collect", op);
        result = session.collect();
    }
    std::string json;
    {
        tb::SessionReport report;
        {
            Spans::Scope s(spans, "trainbox.report.build", op);
            report = tb::SessionReport::build(*server, result);
        }
        Spans::Scope s(spans, "trainbox.report.toJson", op);
        json = report.toJson();
    }
    if (!isJsonObject(json))
        res.fail(op, sc.key + ": malformed report JSON");
    log.record(sc.key, result.throughput, op);
}

/**
 * Set-up samples of the session workloads: every case's buildServer,
 * summed. A pass can take most of the window, so the sessions' own
 * builds would give too few samples; instead kSetups samples are spread
 * evenly through the window, each taken between two sessions once it
 * is due, so they see the host the sessions see. Their time is left
 * out of the window.
 */
class SetupSampler
{
  public:
    SetupSampler(const std::vector<SessionCase> &cases, double seconds,
                 Result &res)
        : cases_(cases), interval_(seconds / kSetups), res_(res)
    {
    }

    /** Take the next sample if it is due. */
    void
    poll()
    {
        if (taken_ < kSetups && secondsSince(t0_) >= taken_ * interval_)
            sample();
    }

    /** Take the samples still missing; remove set-up time from @p w. */
    void
    finish(Window &w)
    {
        w.wallS -= wallS_;
        w.cpuS -= cpuS_;
        while (taken_ < kSetups)
            sample();
    }

  private:
    static constexpr int kSetups = 9;

    void
    sample()
    {
        const auto t0 = Clock::now();
        const double cpu0 = threadCpuSeconds();
        double sum = 0.0;
        for (const SessionCase &sc : cases_) {
            const auto b0 = Clock::now();
            const std::unique_ptr<tb::Server> server =
                tb::buildServer(sc.cfg);
            sum += secondsSince(b0);
        }
        res_.setupS.push_back(sum);
        ++taken_;
        wallS_ += secondsSince(t0);
        cpuS_ += threadCpuSeconds() - cpu0;
    }

    const std::vector<SessionCase> &cases_;
    const double interval_;
    Result &res_;
    const Clock::time_point t0_ = Clock::now();
    int taken_ = 0;
    double wallS_ = 0.0, cpuS_ = 0.0;
};

/**
 * One pass of the closed loop: every case once, in an order drawn from
 * the workload seed. Latency samples are per session, or per training
 * step with @p perStep.
 */
std::uint64_t
runPass(const std::vector<SessionCase> &cases, bool perStep,
        SplitMix &order, SetupSampler &setup, OutputLog &log, Result &res)
{
    for (std::size_t i : order.permutation(cases.size())) {
        setup.poll();
        if (perStep) {
            runSession(cases[i], nullptr, nullptr, log, res, &res.opMs);
            continue;
        }
        const auto t0 = Clock::now();
        runSession(cases[i], nullptr, nullptr, log, res);
        res.opMs.push_back(1e3 * secondsSince(t0));
    }
    return cases.size();
}

/** Per-layer metrics shared by the simulator workloads. */
void
loopLayers(Result &res, const LoopCounters &c, std::size_t passes)
{
    const double ev = static_cast<double>(std::max<std::uint64_t>(
        c.events, 1));
    const double per_pass = static_cast<double>(std::max<std::size_t>(
        passes, 1));
    res.layers["sim.loop_s"] = c.loopS / per_pass;
    res.layers["sim.events"] = static_cast<double>(c.events) / per_pass;
    res.layers["sim.us_per_event"] = 1e6 * c.loopS / ev;
    const double samples = static_cast<double>(std::max<std::uint64_t>(
        c.samples, 1));
    res.layers["sim.queue_len_mean"] = c.queueSum / samples;
    res.layers["fluid.solves_per_event"] = c.solves / ev;
    res.layers["fluid.components_per_event"] = c.components / ev;
    res.layers["fluid.flows_solved_per_event"] = c.flowsSolved / ev;
    const double live = c.liveSum / samples;
    res.layers["fluid.flows_live_mean"] = live;
    res.layers["fluid.resolve_frac"] =
        live > 0.0 ? (c.flowsSolved / ev) / live : 0.0;
}

/** Per-layer metrics from the session spans. */
void
sessionSpanLayers(Result &res, const Spans &spans)
{
    res.layers["trainbox.build_ms"] = spans.meanMs("trainbox.buildServer");
    res.layers["trainbox.start_ms"] = spans.meanMs("trainbox.start");
    res.layers["trainbox.collect_ms"] = spans.meanMs("trainbox.collect");
    res.layers["trainbox.report_build_ms"] =
        spans.meanMs("trainbox.report.build");
    res.layers["trainbox.report_json_ms"] =
        spans.meanMs("trainbox.report.toJson");
}

/**
 * The session workloads. With @p perStep latency is sampled per
 * training step: server_stream runs only 21 sessions a pass, too few
 * for steady percentiles, but 252 steps.
 */
Result
runSessions(const Options &opt, const std::vector<SessionCase> &cases,
            bool perStep)
{
    Result res;
    res.opUnit = perStep ? "training step, host time between step syncs"
                         : "session";
    OutputLog log(res);
    SplitMix order(opt.seed);

    if (!opt.trace) {
        SetupSampler setup(cases, opt.seconds, res);
        std::size_t passes = 0;
        res.window = measureLoop(opt.seconds, [&] {
            ++passes;
            return runPass(cases, perStep, order, setup, log, res);
        });
        setup.finish(res.window);
        res.info["passes"] = static_cast<double>(passes);
        return res;
    }

    Spans spans;
    LoopCounters ctr;
    std::vector<std::size_t> perm;
    const Paired p = pairedLoop(
        opt.seconds, cases.size(),
        [&](std::size_t k) {
            if (k == 0)
                perm = order.permutation(cases.size());
            runSession(cases[perm[k]], nullptr, nullptr, log, res);
            return 1;
        },
        [&](std::size_t k) {
            runSession(cases[perm[k]], &spans, &ctr, log, res);
            return 1;
        });
    res.window = p.plain + p.traced;
    loopLayers(res, ctr, p.rounds);
    sessionSpanLayers(res, spans);
    res.layers["trace.overhead_pct"] = overheadPct(p.plain, p.traced);
    if (!opt.tracePath.empty())
        spans.writeChromeTrace(opt.tracePath);
    return res;
}

const std::vector<ArchPreset> kAllPresets = {
    ArchPreset::Baseline,           ArchPreset::BaselineAccFpga,
    ArchPreset::BaselineAccGpu,     ArchPreset::BaselineAccP2p,
    ArchPreset::BaselineAccP2pGen4, ArchPreset::TrainBoxNoPool,
    ArchPreset::TrainBox,
};

std::vector<ModelId>
allModels()
{
    std::vector<ModelId> out;
    for (const auto &m : tb::workload::modelZoo())
        out.push_back(m.id);
    return out;
}

/**
 * The streaming configuration: tb_report's canned ingest and elastic
 * schedules, async checkpoints, and seeded read failures, stragglers
 * and corruption with integrity checks. The disturbance seeds are the
 * library defaults, fixed, so every output has a stored reference.
 */
ServerConfig
streamConfig(ArchPreset preset, ModelId model)
{
    ServerConfig cfg = ServerConfig::forPreset(preset)
                           .withModel(model)
                           .withAccelerators(256);

    tb::ElasticityConfig e;
    e.enabled = true;
    e.groupDrain.ratePerSec = 0.02;
    e.groupDrain.absence = 8.0;
    e.groupPreempt.ratePerSec = 0.01;
    e.groupPreempt.absence = 12.0;
    e.prepDrain.ratePerSec = 0.02;
    e.prepDrain.absence = 6.0;
    e.prepPreempt.ratePerSec = 0.01;
    e.prepPreempt.absence = 10.0;
    e.sloTargetSamplesPerSec = 0.9 * tb::workload::targetThroughput(
        tb::workload::model(cfg.model), cfg.numAccelerators, cfg.sync);
    cfg.withElasticity(e);

    tb::IngestConfig in;
    in.enabled = true;
    const double boxes = static_cast<double>(
        (cfg.numAccelerators + cfg.box.accPerBox - 1) / cfg.box.accPerBox);
    in.steady = {15000.0 * boxes, 256.0, 2};
    in.diurnal = {8000.0 * boxes, 128.0, 1};
    in.burst = {10000.0 * boxes, 512.0, 0};
    in.diurnalAmplitude = 0.8;
    in.bufferCapacity = 16384.0;
    in.highWatermark = 12288.0;
    in.lowWatermark = 4096.0;
    in.stalenessSlo = 0.1;
    cfg.withIngest(in);

    tb::CheckpointConfig ck;
    ck.enabled = true;
    ck.mode = tb::CheckpointMode::Async;
    ck.interval = 0.5;
    cfg.withCheckpoint(ck);

    tb::FaultConfig f;
    f.enabled = true;
    f.ssdReadFailureProb = 1e-3;
    f.stragglerProb = 1e-2;
    f.corruption.ssdBitFlipProb = 1e-4;
    f.corruption.pcieErrorProb = 5e-5;
    f.corruption.fpgaUpsetProb = 1e-4;
    f.corruption.hostDramFlipProb = 5e-5;
    f.integrityChecks = true;
    cfg.withFaults(f);
    return cfg;
}

} // namespace

Result
runServerSweep(const Options &opt)
{
    std::vector<ModelId> models = allModels();
    std::vector<ArchPreset> presets = kAllPresets;
    std::vector<std::size_t> scales = {16, 32, 64, 128, 256};
    if (opt.tiny) {
        models = {ModelId::Resnet50, ModelId::TfSr};
        presets = {ArchPreset::Baseline, ArchPreset::TrainBox};
        scales = {16, 256};
    }
    std::vector<SessionCase> cases;
    for (ModelId m : models)
        for (ArchPreset p : presets)
            for (std::size_t n : scales) {
                ServerConfig cfg = ServerConfig::forPreset(p)
                                       .withModel(m)
                                       .withAccelerators(n);
                cases.push_back({caseKey(cfg), cfg});
            }
    return runSessions(opt, cases, false);
}

Result
runServerStream(const Options &opt)
{
    std::vector<ModelId> models = allModels();
    std::vector<ArchPreset> presets = {ArchPreset::Baseline,
                                       ArchPreset::BaselineAccP2p,
                                       ArchPreset::TrainBox};
    if (opt.tiny) {
        models = {ModelId::Resnet50};
        presets = {ArchPreset::Baseline, ArchPreset::TrainBox};
    }
    std::vector<SessionCase> cases;
    for (ModelId m : models)
        for (ArchPreset p : presets) {
            ServerConfig cfg = streamConfig(p, m);
            const std::string problem = cfg.validate();
            if (!problem.empty()) {
                std::fprintf(stderr, "perfbench: invalid stream config: %s\n",
                             problem.c_str());
                std::exit(5);
            }
            cases.push_back({caseKey(cfg), cfg});
        }
    return runSessions(opt, cases, true);
}

namespace {

/**
 * The fleet trace. Its content is fixed, so every job's throughput and
 * the makespan have stored references; the workload seed sets the order
 * of the job list. Arrival times are distinct, so the order never breaks
 * a tie and the simulated outputs do not depend on it.
 */
tb::FleetConfig
fleetConfig(std::uint64_t seed, bool tiny)
{
    const std::size_t num_jobs = tiny ? 24 : 512;
    const std::size_t num_hosts = tiny ? 6 : 96;
    const tb::Time window = tiny ? 3.0 : 30.0;

    tb::FleetConfig fleet;
    for (std::size_t h = 0; h < num_hosts; ++h)
        fleet.hosts.push_back({"h" + std::to_string(h), 4});
    fleet.policy = tb::PlacementPolicy::PrepPoolAware;
    fleet.sharedPoolFpgas = static_cast<int>(num_hosts);

    const ModelId models[] = {ModelId::Resnet50, ModelId::InceptionV4,
                              ModelId::RnnS, ModelId::TfSr, ModelId::TfAa};
    const std::size_t sizes[] = {8, 16, 32};
    SplitMix trace(0x666c656574ull); // fixed: the trace never varies
    for (std::size_t j = 0; j < num_jobs; ++j) {
        tb::FleetJobSpec spec;
        char name[16];
        std::snprintf(name, sizeof name, "j%03zu", j);
        spec.name = name;
        spec.arrival = window * (static_cast<double>(j) + 0.5 +
                                 0.4 * (trace.uniform() - 0.5)) /
                       static_cast<double>(num_jobs);
        spec.config = ServerConfig::trainBox()
                          .withModel(models[trace.next() % 5])
                          .withAccelerators(sizes[trace.next() % 3]);
        spec.warmupSteps = kWarmup;
        spec.measureSteps = kMeasure;
        fleet.jobs.push_back(spec);
    }
    SplitMix order(seed);
    order.shuffle(fleet.jobs);
    return fleet;
}

/**
 * No-op events on a fixed grid of simulated time. FleetSimulation::run()
 * owns its step loop, so the fleet workload observes the run through
 * its own events instead: each records the host time (for per-job
 * latency) and, when traced, the pending-event count and live flows.
 * They touch no simulation state and are subtracted from the event
 * count.
 */
struct GridSampler
{
    GridSampler(tb::SimulationCore &core, tb::Time step, LoopCounters *c)
        : eq(&core.events()), net(&core.fluid()), dt(step), ctr(c)
    {
        arm(0.0);
    }

    // The armed events hold this sampler's address.
    GridSampler(const GridSampler &) = delete;
    GridSampler &operator=(const GridSampler &) = delete;

    tb::EventQueue *eq;
    tb::FluidNetwork *net;
    tb::Time dt;
    LoopCounters *ctr;
    Clock::time_point origin = Clock::now();
    std::uint64_t ticks = 0; ///< sampler events executed
    std::vector<tb::Time> simT;
    std::vector<double> hostS;

    void
    arm(tb::Time at)
    {
        eq->schedule(at, [this] { tick(); });
    }

    void
    tick()
    {
        ++ticks;
        simT.push_back(eq->now());
        hostS.push_back(secondsSince(origin));
        if (eq->empty())
            return; // only the sampler was left
        if (ctr) {
            ctr->queueSum += static_cast<double>(eq->size());
            ctr->liveSum += static_cast<double>(net->numActive());
            ++ctr->samples;
        }
        arm(eq->now() + dt);
    }

    /** Host seconds at simulated time @p t, interpolated on the grid. */
    double
    hostAt(tb::Time t) const
    {
        const auto it = std::lower_bound(simT.begin(), simT.end(), t);
        if (it == simT.begin())
            return hostS.front();
        if (it == simT.end())
            return hostS.back();
        const std::size_t i = it - simT.begin();
        const double f = (t - simT[i - 1]) / (simT[i] - simT[i - 1]);
        return hostS[i - 1] + f * (hostS[i] - hostS[i - 1]);
    }
};

} // namespace

Result
runFleetMixed(const Options &opt)
{
    Result res;
    res.opUnit = "fleet job, host time from its arrival to completion";
    OutputLog log(res);
    const tb::FleetConfig cfg = fleetConfig(opt.seed, opt.tiny);

    // Set-up is the constructor, timed several times before the loop,
    // one CPU rotation apart so the samples fall on every vCPU.
    for (int k = 0; k < 15; ++k) {
        std::this_thread::sleep_for(kCpuRotatePeriod);
        const auto t0 = Clock::now();
        const tb::FleetSimulation fleet(cfg);
        res.setupS.push_back(secondsSince(t0));
    }

    // One fleet run per pass. Each job is an operation; the run's own
    // outputs (makespan, report JSON) are checked as one more item.
    const auto pass = [&](Spans *spans, LoopCounters *ctr) {
        const std::uint64_t run_op = res.newOp();
        std::unique_ptr<tb::FleetSimulation> fleet;
        {
            Spans::Scope s(spans, "fleet.construct", run_op);
            fleet = std::make_unique<tb::FleetSimulation>(cfg);
        }
        GridSampler sampler(fleet->core(), 0.01, ctr);
        tb::FleetReport report;
        {
            Spans::Scope s(spans, "fleet.run", run_op);
            const auto r0 = Clock::now();
            report = fleet->run();
            if (ctr) {
                ctr->loopS += secondsSince(r0);
                ctr->events +=
                    fleet->core().events().numExecuted() - sampler.ticks;
                ctr->addSolver(fleet->core().fluid());
            }
        }
        std::string json;
        {
            Spans::Scope s(spans, "fleet.report.toJson", run_op);
            json = report.toJson();
        }

        std::uint64_t done = 0;
        for (const tb::FleetJobResult &j : report.jobs) {
            const std::uint64_t op = res.newOp();
            if (!j.completed) {
                res.fail(op, j.job + ": did not complete");
                continue;
            }
            res.opMs.push_back(1e3 * (sampler.hostAt(j.finished) -
                                      sampler.hostAt(j.arrival)));
            log.record("job/" + j.job, j.report.throughput(), op);
            ++done;
        }
        log.record("fleet/makespan", report.makespan, run_op);
        if (!isJsonObject(json))
            res.fail(run_op, "fleet: malformed report JSON");
        res.info["jobs"] = static_cast<double>(report.jobsTotal);
        res.info["jobs_queued"] = static_cast<double>(report.jobsQueued);
        res.info["grid_ticks"] = static_cast<double>(sampler.ticks);
        return done;
    };

    if (!opt.trace) {
        res.window = measureLoop(opt.seconds,
                                 [&] { return pass(nullptr, nullptr); });
        return res;
    }

    Spans spans;
    LoopCounters ctr;
    const Paired p = pairedLoop(
        opt.seconds, 1, [&](std::size_t) { return pass(nullptr, nullptr); },
        [&](std::size_t) { return pass(&spans, &ctr); });
    res.window = p.plain + p.traced;
    loopLayers(res, ctr, p.rounds);
    res.layers["fleet.setup_ms"] = spans.meanMs("fleet.construct");
    res.layers["fleet.report_json_ms"] = spans.meanMs("fleet.report.toJson");
    res.layers["trace.overhead_pct"] = overheadPct(p.plain, p.traced);
    if (!opt.tracePath.empty())
        spans.writeChromeTrace(opt.tracePath);
    return res;
}

namespace {

/**
 * The session probe: one Resnet-50 / TrainBox / 64-accelerator session,
 * checked against server_sweep's reference.
 */
Result
probeSessionLayers()
{
    Result res;
    OutputLog log(res, "server_sweep");
    const ServerConfig cfg =
        ServerConfig::trainBox().withModel(ModelId::Resnet50)
            .withAccelerators(64);
    Spans spans;
    LoopCounters ctr;
    runSession({caseKey(cfg), cfg}, &spans, &ctr, log, res);
    loopLayers(res, ctr, 1);
    sessionSpanLayers(res, spans);
    return res;
}

/**
 * The fleet probe: the 24-job tiny fleet, checked against the tiny
 * fleet_mixed references.
 */
Result
probeFleetLayers()
{
    Result res;
    OutputLog log(res, "fleet_mixed_tiny");
    const tb::FleetConfig cfg = fleetConfig(1, /*tiny=*/true);
    const std::uint64_t run_op = res.newOp();
    Spans spans;
    std::unique_ptr<tb::FleetSimulation> fleet;
    {
        Spans::Scope s(&spans, "fleet.construct", run_op);
        fleet = std::make_unique<tb::FleetSimulation>(cfg);
    }
    const tb::FleetReport report = fleet->run();
    {
        Spans::Scope s(&spans, "fleet.report.toJson", run_op);
        if (!isJsonObject(report.toJson()))
            res.fail(run_op, "fleet probe: malformed report JSON");
    }
    for (const tb::FleetJobResult &j : report.jobs) {
        const std::uint64_t op = res.newOp();
        if (j.completed)
            log.record("job/" + j.job, j.report.throughput(), op);
        else
            res.fail(op, "fleet probe: " + j.job + " did not complete");
    }
    log.record("fleet/makespan", report.makespan, run_op);
    res.layers["fleet.setup_ms"] = spans.meanMs("fleet.construct");
    res.layers["fleet.report_json_ms"] = spans.meanMs("fleet.report.toJson");
    return res;
}

} // namespace

void
probeMissingLayers(const Options &opt, Result &res)
{
    // The probe's operation ids follow the workload's.
    const auto merge = [&](const Result &probe) {
        const std::uint64_t base = res.attempted;
        res.attempted += probe.attempted;
        for (const auto &[name, value] : probe.layers)
            res.layers.emplace(name, value);
        for (std::uint64_t op : probe.failedOps)
            res.failedOps.insert(base + op);
        for (const std::string &why : probe.failures)
            if (res.failures.size() < 20)
                res.failures.push_back("probe: " + why);
        for (Output o : probe.outputs) {
            o.op += base;
            res.outputs.push_back(std::move(o));
        }
    };
    if (!res.layers.count("trainbox.build_ms"))
        merge(probeSessionLayers());
    if (!res.layers.count("fleet.setup_ms"))
        merge(probeFleetLayers());
    if (!res.layers.count("prep.image_core_ms"))
        merge(probePrepLayers(opt.seed));
}

} // namespace perfbench
