#include "trainbox/report.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/field_writer.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/table.hh"
#include "sim/trace.hh"

namespace tb {

namespace {

/** Prep stages that move data (vs transform it) — the Fig 9 buckets. */
bool
isTransferStage(const std::string &name)
{
    static const char *const kTransfer[] = {
        "ssd_read",  "data_load", "others",    "copy_to_prep",
        "copy_from_prep", "pool_send", "pool_recv",
    };
    for (const char *t : kTransfer)
        if (name == t)
            return true;
    return false;
}

} // namespace

double
categoryShare(const std::map<std::string, double> &by_category,
              const std::string &category, double total)
{
    if (total <= 0.0)
        return 0.0;
    auto it = by_category.find(category);
    return it == by_category.end() ? 0.0 : it->second / total;
}

std::string
classifyResource(const std::string &name)
{
    auto ends_with = [&name](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (name == "host.cpu")
        return "cpu";
    if (name == "host.dram")
        return "dram";
    if (name == "pcie.rc")
        return "root_complex";
    if (ends_with(".flash"))
        return "ssd_read";
    if (ends_with(".write"))
        return "ssd_write";
    if (ends_with(".engine"))
        return name.rfind("pool.", 0) == 0 ? "pool_engine"
                                           : "prep_engine";
    if (ends_with(".eth") || ends_with(".fabric"))
        return "ethernet";
    if (ends_with(".up") || ends_with(".down"))
        return "pcie_link";
    return "other";
}

double
SessionReport::computeGoodput(double throughput, double reference)
{
    // Clamped: a degraded run can never report more than the reference,
    // and measurement noise must not push the fraction past 1.
    return reference > 0.0 ? clamp(throughput / reference, 0.0, 1.0)
                           : 0.0;
}

double
SessionReport::computeEfficiency(const CheckpointStats &ckpt,
                                 Time wall_time)
{
    if (wall_time <= 0.0)
        return 0.0;
    const Time overhead =
        ckpt.pauseTime + ckpt.lostWorkTime + ckpt.restartTime;
    return clamp(1.0 - overhead / wall_time, 0.0, 1.0);
}

double
SessionReport::sumCategories(const std::map<std::string, double> &by)
{
    double total = 0.0;
    for (const auto &[cat, v] : by)
        total += v;
    return total;
}

// @p res may be a *partial* result frozen by TrainingSession::kill()
// (fleet host faults / horizon freezes): stepsMeasured can be 0 and the
// measurement window degenerate. Every derived metric below and in the
// accessors guards its divisor (wallTime, windowElapsed, stepTime), so
// partial reports flow through build() and the exporters unchanged.
SessionReport
SessionReport::build(const Server &server, const SessionResult &res)
{
    SessionReport r;
    r.preset = presetName(server.cfg.preset);
    r.model = server.model.name;
    r.numAccelerators = server.cfg.numAccelerators;
    r.batchSize = server.batchSize();
    r.targetThroughput = workload::targetThroughput(
        server.model, server.cfg.numAccelerators, server.cfg.sync);
    r.result = res;
    r.hostCpuCapacity_ = server.cfg.host.cpuCores;
    r.hostMemCapacity_ = server.cfg.host.memBandwidth;
    r.hostRcCapacity_ = server.cfg.host.rcBandwidth;

    const MetricsRegistry &m = server.core().metrics();
    if (!m.enabled())
        return r;
    r.hasMetrics = true;

    // On a shared core the registry holds every co-resident server's
    // instruments; this server's are the ones under its resource prefix
    // ("" standalone — then the filter passes everything, as before).
    // Classification and display use the *unprefixed* name, so a report
    // for "job0." reads identically to a standalone one.
    const std::string kPrefix = "util." + server.resourcePrefix();
    const std::size_t prefix_len = kPrefix.size();
    for (const auto &entry : m.histograms()) {
        if (entry.name.rfind(kPrefix, 0) != 0)
            continue;
        const std::string res_name = entry.name.substr(prefix_len);
        ResourceUsage u;
        u.name = res_name;
        u.kind = classifyResource(res_name);
        u.utilization = entry.metric->timeAverage();
        u.peak = entry.metric->peak();
        u.saturatedFraction = entry.metric->saturatedFraction();
        if (const FluidResource *fr = server.core().fluid().findResource(
                server.resourcePrefix() + res_name)) {
            for (const auto &[cat, units] : fr->servedByCategory()) {
                if (units > u.dominantShare * fr->totalServed()) {
                    u.dominantCategory = cat;
                    u.dominantShare = fr->totalServed() > 0.0
                        ? units / fr->totalServed() : 0.0;
                }
            }
        }
        r.resources.push_back(std::move(u));
    }

    // The NN accelerators are events, not fluid flows; synthesize their
    // utilization from the session's busy counter.
    const MetricCounter *busy =
        m.findCounter(server.resourcePrefix() + "session.compute_busy");
    const Time elapsed = r.windowElapsed();
    if (busy && elapsed > 0.0 && !server.groups.empty()) {
        ResourceUsage u;
        u.name = "acc.compute";
        u.kind = "accelerator";
        u.utilization = clamp(
            busy->value() /
                (static_cast<double>(server.groups.size()) * elapsed),
            0.0, 1.0);
        u.peak = u.utilization > 0.0 ? 1.0 : 0.0;
        // A group computing back-to-back is a saturated accelerator.
        u.saturatedFraction =
            u.utilization >= TimeWeightedHistogram::kDefaultSaturation
                ? 1.0 : 0.0;
        u.dominantCategory = "compute";
        u.dominantShare = 1.0;
        r.resources.push_back(std::move(u));
    }
    return r;
}

Time
SessionReport::windowElapsed() const
{
    return result.stepTime * static_cast<double>(result.stepsMeasured);
}

double
SessionReport::targetFraction() const
{
    return targetThroughput > 0.0
        ? result.throughput / targetThroughput : 0.0;
}

double
SessionReport::goodput(double reference_throughput) const
{
    return computeGoodput(result.throughput, reference_throughput);
}

double
SessionReport::efficiency() const
{
    return computeEfficiency(result.checkpoint, result.wallTime);
}

void
SessionReport::attachPrepQuarantine(
    std::size_t items_processed,
    const std::map<std::string, std::size_t> &by_reason)
{
    prepItemsProcessed = items_processed;
    prepQuarantineByReason = by_reason;
}

std::size_t
SessionReport::prepItemsQuarantined() const
{
    std::size_t total = 0;
    for (const auto &[reason, n] : prepQuarantineByReason)
        total += n;
    return total;
}

double
SessionReport::availability() const
{
    if (result.wallTime <= 0.0)
        return 0.0;
    return clamp(1.0 - result.faults.degradedTime / result.wallTime,
                 0.0, 1.0);
}

double
SessionReport::capacityAvailability() const
{
    if (result.wallTime <= 0.0)
        return 0.0;
    return clamp(1.0 - result.elasticity.degradedCapacityTime /
                           result.wallTime,
                 0.0, 1.0);
}

double
SessionReport::sloAttainment() const
{
    const double target = result.elasticity.sloTargetSamplesPerSec;
    if (target <= 0.0)
        return 1.0;
    return clamp(result.throughput / target, 0.0, 1.0);
}

double
SessionReport::ingestAdmitRate() const
{
    const SessionResult::IngestStats &in = result.ingest;
    if (in.samplesArrived <= 0.0)
        return 1.0;
    return clamp(in.samplesAdmitted / in.samplesArrived, 0.0, 1.0);
}

double
SessionReport::ingestShedRate() const
{
    const SessionResult::IngestStats &in = result.ingest;
    if (in.samplesArrived <= 0.0)
        return 0.0;
    return clamp(in.samplesShed / in.samplesArrived, 0.0, 1.0);
}

Time
SessionReport::avgIngestStaleness() const
{
    const SessionResult::IngestStats &in = result.ingest;
    if (in.samplesAdmitted <= 0.0)
        return 0.0;
    return in.stalenessSum / in.samplesAdmitted;
}

double
SessionReport::freshnessSloAttainment() const
{
    const SessionResult::IngestStats &in = result.ingest;
    if (in.stalenessSloSec <= 0.0 || in.samplesAdmitted <= 0.0)
        return 1.0;
    return clamp(in.samplesWithinSlo / in.samplesAdmitted, 0.0, 1.0);
}

double
SessionReport::echoEffectiveFactor() const
{
    const SessionResult::IngestStats &in = result.ingest;
    const double fresh = result.elasticity.samplesConsumed;
    const double total = fresh + in.samplesEchoed;
    if (total <= 0.0 || in.samplesEchoed <= 0.0)
        return 1.0;
    return clamp((fresh + in.echoEfficiency * in.samplesEchoed) / total,
                 0.0, 1.0);
}

double
SessionReport::LatencyBreakdown::share(Time part) const
{
    const Time t = total();
    return t > 0.0 ? part / t : 0.0;
}

SessionReport::LatencyBreakdown
SessionReport::latency() const
{
    LatencyBreakdown b;
    for (const auto &[name, t] : result.prepStageTime) {
        if (name == "formatting")
            b.formatting += t;
        else if (name == "augmentation")
            b.augmentation += t;
        else if (isTransferStage(name))
            b.transfer += t;
        // ckpt_write and other non-prep stages are not batch latency
    }
    b.compute = result.computeTime;
    b.sync = result.syncTime;
    return b;
}

Time
SessionReport::stageTime(const std::string &stage) const
{
    auto it = result.prepStageTime.find(stage);
    return it == result.prepStageTime.end() ? 0.0 : it->second;
}

double
SessionReport::hostCpuCores() const
{
    return sumCategories(result.cpuCoresByCategory);
}

double
SessionReport::hostMemBw() const
{
    return sumCategories(result.memBwByCategory);
}

double
SessionReport::hostRcBw() const
{
    return sumCategories(result.rcBwByCategory);
}

double
SessionReport::cpuShare(const std::string &category) const
{
    return categoryShare(result.cpuCoresByCategory, category,
                         hostCpuCores());
}

double
SessionReport::memShare(const std::string &category) const
{
    return categoryShare(result.memBwByCategory, category, hostMemBw());
}

double
SessionReport::rcShare(const std::string &category) const
{
    return categoryShare(result.rcBwByCategory, category, hostRcBw());
}

std::vector<Bottleneck>
SessionReport::bottlenecks() const
{
    std::vector<Bottleneck> ranked;
    if (hasMetrics) {
        // Per device class, the bottleneck is its most-utilized member
        // (one saturated link stalls the pipeline regardless of its
        // siblings' slack).
        std::map<std::string, const ResourceUsage *> best;
        for (const ResourceUsage &u : resources) {
            auto [it, fresh] = best.emplace(u.kind, &u);
            if (!fresh && u.utilization > it->second->utilization)
                it->second = &u;
        }
        for (const auto &[kind, u] : best) {
            if (u->utilization <= 0.0)
                continue;
            ranked.push_back({kind, u->name, u->utilization,
                              u->saturatedFraction,
                              u->dominantCategory});
        }
    } else {
        // Metrics-free fallback: the three host axes from the fluid
        // accounting, normalized as demand / configured capacity so the
        // axes are comparable. Device-level attribution needs
        // cfg.metricsEnabled.
        const struct
        {
            const char *kind;
            const char *resource;
            double used;
            double capacity;
            const std::map<std::string, double> &by;
        } axes[] = {
            {"cpu", "host.cpu", hostCpuCores(), hostCpuCapacity_,
             result.cpuCoresByCategory},
            {"dram", "host.dram", hostMemBw(), hostMemCapacity_,
             result.memBwByCategory},
            {"root_complex", "pcie.rc", hostRcBw(), hostRcCapacity_,
             result.rcBwByCategory},
        };
        for (const auto &axis : axes) {
            Bottleneck b;
            b.kind = axis.kind;
            b.resource = axis.resource;
            b.utilization = axis.capacity > 0.0
                ? axis.used / axis.capacity : axis.used;
            for (const auto &[cat, v] : axis.by)
                if (b.dominantCategory.empty() ||
                    v > axis.by.at(b.dominantCategory))
                    b.dominantCategory = cat;
            ranked.push_back(std::move(b));
        }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Bottleneck &a, const Bottleneck &b) {
                  if (a.utilization != b.utilization)
                      return a.utilization > b.utilization;
                  if (a.saturatedFraction != b.saturatedFraction)
                      return a.saturatedFraction > b.saturatedFraction;
                  return a.kind < b.kind;
              });
    return ranked;
}

void
SessionReport::writeFields(FieldWriter &w) const
{
    constexpr FieldWriter::Layout kInline = FieldWriter::Layout::Inline;
    constexpr NumberFormat kPct = NumberFormat::Percent;
    const LatencyBreakdown lat = latency();

    w.beginObject("config", kInline)
        .field("preset", preset).field("model", model)
        .field("accelerators", numAccelerators)
        .field("batch_size", batchSize).end();
    w.beginObject("throughput", kInline)
        .field("samples_per_sec", result.throughput)
        .field("target_samples_per_sec", targetThroughput)
        .field("target_fraction", targetFraction())
        .field("step_time_sec", result.stepTime)
        .field("compute_time_sec", result.computeTime)
        .field("sync_time_sec", result.syncTime)
        .field("prep_latency_sec", result.prepLatency)
        .field("steps_measured", result.stepsMeasured).end();
    w.beginObject("latency_breakdown_pct", kInline)
        .field("transfer", lat.share(lat.transfer), kPct)
        .field("formatting", lat.share(lat.formatting), kPct)
        .field("augmentation", lat.share(lat.augmentation), kPct)
        .field("compute", lat.share(lat.compute), kPct)
        .field("sync", lat.share(lat.sync), kPct)
        .field("prep_total", lat.prepShare(), kPct).end();
    w.map("prep_stage_time_sec", result.prepStageTime);

    w.beginObject("host_demand", FieldWriter::Layout::Lines);
    w.beginObject("cpu_cores", kInline).field("total", hostCpuCores())
        .map("by_category", result.cpuCoresByCategory).end();
    w.beginObject("mem_bw", kInline).field("total", hostMemBw())
        .map("by_category", result.memBwByCategory).end();
    w.beginObject("rc_bw", kInline).field("total", hostRcBw())
        .map("by_category", result.rcBwByCategory).end();
    w.end();

    w.beginObject("robustness", kInline).field("efficiency", efficiency())
        .field("availability", availability())
        .field("faults_injected", result.faults.faultsInjected)
        .field("checkpoints_committed", result.checkpoint.committed)
        .field("steps_lost", result.checkpoint.stepsLost).end();

    const SessionResult::ElasticityStats &el = result.elasticity;
    w.beginObject("elasticity", kInline)
        .field("events", el.events).field("drains", el.drains)
        .field("preemptions", el.preemptions).field("joins", el.joins)
        .field("chains_rebalanced", el.chainsRebalanced)
        .field("samples_lost_to_preemption", el.samplesLostToPreemption)
        .field("samples_saved_by_drain", el.samplesSavedByDrain)
        .field("samples_dropped_at_drain", el.samplesDroppedAtDrain)
        .field("degraded_capacity_time_sec", el.degradedCapacityTime)
        .field("zero_capacity_time_sec", el.zeroCapacityTime)
        .field("rebalance_time_sec", el.rebalanceTime)
        .field("avg_active_fraction", el.avgActiveFraction)
        .field("capacity_availability", capacityAvailability())
        .field("slo_target_samples_per_sec", el.sloTargetSamplesPerSec)
        .field("slo_attainment", sloAttainment())
        .beginObject("ledger", kInline).field("prepared", el.samplesPrepared)
        .field("consumed", el.samplesConsumed)
        .field("cached_at_end", el.samplesCachedAtEnd)
        .field("discarded", el.samplesDiscarded).end().end();

    const SessionResult::IngestStats &in = result.ingest;
    w.beginObject("ingest", kInline).field("arrival_events", in.arrivalEvents)
        .field("overload_trips", in.overloadTrips)
        .field("stalls", in.stalls).field("write_flows", in.writeFlows)
        .field("write_retries", in.writeRetries)
        .field("write_failures", in.writeFailures)
        .field("admit_rate", ingestAdmitRate())
        .field("shed_rate", ingestShedRate())
        .field("overload_time_sec", in.overloadTime)
        .field("stall_time_sec", in.stallTime)
        .field("peak_buffer_level", in.peakBufferLevel)
        .field("samples_echoed", in.samplesEchoed)
        .field("echo_effective_factor", echoEffectiveFactor())
        .field("avg_staleness_sec", avgIngestStaleness())
        .field("max_staleness_sec", in.stalenessMax)
        .field("staleness_slo_sec", in.stalenessSloSec)
        .field("freshness_slo_attainment", freshnessSloAttainment())
        .beginObject("ledger", kInline).field("arrived", in.samplesArrived)
        .field("admitted", in.samplesAdmitted).field("shed", in.samplesShed)
        .field("throttled", in.samplesThrottled)
        .field("shed_policy", in.samplesShedPolicy)
        .field("overflow_dropped", in.samplesOverflowDropped)
        .field("abandoned_writes", in.samplesAbandonedWrites)
        .field("in_flight_at_end", in.samplesInFlightAtEnd).end().end();

    const SessionResult::IntegrityStats &integ = result.integrity;
    w.beginObject("integrity", kInline).field("injected", integ.injected)
        .field("detected", integ.detected).field("escaped", integ.escaped)
        .field("escape_rate", integ.escapeRate())
        .field("pcie_replays", integ.pcieReplays)
        .field("recoveries", integ.recoveries)
        .field("chunks_quarantined", integ.chunksQuarantined)
        .beginObject("by_kind", kInline);
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k)
        w.field(corruptionKindName(static_cast<CorruptionKind>(k)),
                integ.injectedByKind[k]);
    w.end().end();

    w.beginObject("prep_quarantine", kInline)
        .field("items_processed", prepItemsProcessed)
        .field("quarantined", prepItemsQuarantined())
        .map("by_reason", prepQuarantineByReason).end();

    w.field("has_metrics", hasMetrics);
    w.beginList("utilization", FieldWriter::Layout::Lines);
    for (const ResourceUsage &u : resources)
        w.beginObject(u.name, kInline)
            .field("resource", u.name).field("kind", u.kind)
            .field("utilization", u.utilization).field("peak", u.peak)
            .field("saturated_fraction", u.saturatedFraction)
            .field("dominant_category", u.dominantCategory).end();
    w.end();

    w.beginList("bottlenecks", FieldWriter::Layout::Lines);
    std::size_t rank = 0;
    for (const Bottleneck &b : bottlenecks()) {
        const std::string id = std::to_string(++rank);
        w.beginObject(id, kInline).field("rank", rank).field("kind", b.kind)
            .field("resource", b.resource).field("utilization", b.utilization)
            .field("saturated_fraction", b.saturatedFraction)
            .field("dominant_category", b.dominantCategory).end();
    }
    w.end();
}

std::string
SessionReport::toJson() const
{
    FieldWriter w;
    writeFields(w);
    return w.finish();
}

std::string
SessionReport::toCsv() const
{
    FieldWriter w("session");
    writeFields(w);
    return w.finish();
}

void
SessionReport::emitCounters(TraceWriter &trace) const
{
    const Time end = result.wallTime;
    const Time start = std::max(0.0, end - windowElapsed());
    for (const ResourceUsage &u : resources) {
        trace.counter("util." + u.kind, u.name, start,
                      100.0 * u.utilization);
        trace.counter("util." + u.kind, u.name, end,
                      100.0 * u.utilization);
    }
    std::size_t rank = 1;
    for (const Bottleneck &b : bottlenecks()) {
        if (rank > 3)
            break;
        trace.instant("report",
                      "bottleneck#" + std::to_string(rank++) + " " +
                          b.kind + " (" + b.resource + ")",
                      end, "report");
    }
}

void
SessionReport::print(std::FILE *out) const
{
    const LatencyBreakdown lat = latency();
    std::fprintf(out, "=== SessionReport: %s | %s | %zu accelerators "
                      "(batch %zu) ===\n",
                 preset.c_str(), model.c_str(), numAccelerators,
                 batchSize);
    std::fprintf(out,
                 "throughput  %.1f samples/s (%.1f%% of target %.1f)\n",
                 result.throughput, 100.0 * targetFraction(),
                 targetThroughput);
    std::fprintf(out,
                 "step time   %.3f ms (compute %.3f ms, sync %.3f ms), "
                 "prep latency %.3f ms\n",
                 result.stepTime * 1e3, result.computeTime * 1e3,
                 result.syncTime * 1e3, result.prepLatency * 1e3);
    std::fprintf(out,
                 "latency     transfer %.1f%% | formatting %.1f%% | "
                 "augmentation %.1f%% | compute %.1f%% | sync %.1f%% "
                 "(prep total %.1f%%)\n",
                 100.0 * lat.share(lat.transfer),
                 100.0 * lat.share(lat.formatting),
                 100.0 * lat.share(lat.augmentation),
                 100.0 * lat.share(lat.compute),
                 100.0 * lat.share(lat.sync), 100.0 * lat.prepShare());
    std::fprintf(out,
                 "host demand cpu %.1f cores | dram %.2f GB/s | "
                 "rc %.2f GB/s\n",
                 hostCpuCores(), hostMemBw() / 1e9, hostRcBw() / 1e9);
    if (result.faults.faultsInjected > 0 ||
        result.checkpoint.committed > 0)
        std::fprintf(out,
                     "robustness  efficiency %.4f | availability %.4f | "
                     "faults %zu | checkpoints %zu\n",
                     efficiency(), availability(),
                     result.faults.faultsInjected,
                     result.checkpoint.committed);
    if (result.elasticity.events > 0)
        std::fprintf(out,
                     "elasticity  events %zu (drains %zu, preemptions "
                     "%zu, joins %zu) | capacity availability %.4f | "
                     "avg active %.2f%% | slo attainment %.4f\n"
                     "            samples lost %.0f, saved by drain "
                     "%.0f, dropped at drain %.0f | rebalance %.2f s | "
                     "zero-capacity %.2f s\n",
                     result.elasticity.events, result.elasticity.drains,
                     result.elasticity.preemptions,
                     result.elasticity.joins, capacityAvailability(),
                     100.0 * result.elasticity.avgActiveFraction,
                     sloAttainment(),
                     result.elasticity.samplesLostToPreemption,
                     result.elasticity.samplesSavedByDrain,
                     result.elasticity.samplesDroppedAtDrain,
                     result.elasticity.rebalanceTime,
                     result.elasticity.zeroCapacityTime);
    if (result.ingest.arrivalEvents > 0)
        std::fprintf(out,
                     "ingest      arrived %.0f | admitted %.0f (rate "
                     "%.4f) | shed %.0f | echoed %.0f | overload trips "
                     "%zu (%.2f s) | stalls %zu (%.2f s)\n"
                     "            avg staleness %.3f s (max %.3f s) | "
                     "freshness SLO attainment %.4f | echo factor %.4f\n",
                     result.ingest.samplesArrived,
                     result.ingest.samplesAdmitted, ingestAdmitRate(),
                     result.ingest.samplesShed,
                     result.ingest.samplesEchoed,
                     result.ingest.overloadTrips,
                     result.ingest.overloadTime, result.ingest.stalls,
                     result.ingest.stallTime, avgIngestStaleness(),
                     result.ingest.stalenessMax,
                     freshnessSloAttainment(), echoEffectiveFactor());
    if (result.integrity.injected > 0)
        std::fprintf(out,
                     "integrity   injected %zu | detected %zu | escaped "
                     "%zu (rate %.2e) | replays %zu | recoveries %zu | "
                     "quarantined %zu\n",
                     result.integrity.injected, result.integrity.detected,
                     result.integrity.escaped,
                     result.integrity.escapeRate(),
                     result.integrity.pcieReplays,
                     result.integrity.recoveries,
                     result.integrity.chunksQuarantined);
    if (prepItemsProcessed > 0) {
        std::fprintf(out, "prep items  %zu processed | %zu quarantined",
                     prepItemsProcessed, prepItemsQuarantined());
        for (const auto &[reason, n] : prepQuarantineByReason)
            std::fprintf(out, " | %s %zu", reason.c_str(), n);
        std::fprintf(out, "\n");
    }

    const std::vector<Bottleneck> ranked = bottlenecks();
    if (ranked.empty())
        return;
    if (!hasMetrics) {
        std::fprintf(out, "\nbottleneck attribution (host axes; run "
                          "with metrics for device-level ranking):\n");
        Table t({"rank", "axis", "demand / capacity %",
                 "dominant category"});
        std::size_t rank = 1;
        for (const Bottleneck &b : ranked)
            t.row()
                .add(rank++)
                .add(b.kind + " (" + b.resource + ")")
                .add(100.0 * b.utilization, 1)
                .add(b.dominantCategory.empty() ? "-"
                                                : b.dominantCategory);
        t.print(out);
        return;
    }
    std::fprintf(out, "\nbottleneck attribution:\n");
    Table t({"rank", "class", "resource", "util %", "saturated %",
             "dominant category"});
    std::size_t rank = 1;
    for (const Bottleneck &b : ranked)
        t.row()
            .add(rank++)
            .add(b.kind)
            .add(b.resource)
            .add(100.0 * b.utilization, 1)
            .add(100.0 * b.saturatedFraction, 1)
            .add(b.dominantCategory.empty() ? "-" : b.dominantCategory);
    t.print(out);
}

} // namespace tb
