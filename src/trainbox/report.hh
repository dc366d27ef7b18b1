/**
 * @file
 * SessionReport: the consolidated result surface of a training run.
 *
 * A report bundles everything a run produces — the raw SessionResult,
 * a config echo, the per-stage latency breakdown of the paper's Fig 9,
 * the per-category host-resource decomposition of Figs 10/11/22, the
 * per-device utilization histories recorded by the metrics layer, and
 * a ranked bottleneck attribution — behind one documented API with
 * JSON / CSV / Chrome-trace exporters. It replaces the ad-hoc
 * accounting every bench used to hand-roll.
 *
 * Utilization and bottleneck data require the run's ServerConfig to
 * have metricsEnabled set; without metrics the report still carries
 * the latency and host-demand decompositions (hasMetrics == false and
 * the attribution falls back to host-axis demand shares).
 *
 * See docs/OBSERVABILITY.md for the metrics model and export schemas.
 */

#ifndef TRAINBOX_TRAINBOX_REPORT_HH
#define TRAINBOX_TRAINBOX_REPORT_HH

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {

class FieldWriter;
class TraceWriter;

/** Utilization summary of one simulated resource over the window. */
struct ResourceUsage
{
    /** Fluid resource name ("host.cpu", "box0.ssd1.flash", ...). */
    std::string name;

    /** Device class ("cpu", "dram", "root_complex", "ssd_read", ...). */
    std::string kind;

    /** Time-averaged utilization in [0, 1] over the window. */
    double utilization = 0.0;

    /** Peak instantaneous utilization. */
    double peak = 0.0;

    /** Fraction of the window spent at >= 99.9% of capacity. */
    double saturatedFraction = 0.0;

    /** Largest accounting category on this resource ("" when idle). */
    std::string dominantCategory;

    /** That category's share of the resource's served units. */
    double dominantShare = 0.0;
};

/** One entry of the ranked bottleneck attribution. */
struct Bottleneck
{
    /** Device class this entry aggregates. */
    std::string kind;

    /** The class's most-utilized member resource. */
    std::string resource;

    double utilization = 0.0;
    double saturatedFraction = 0.0;

    /** Dominant accounting category on that resource (Fig 11 view). */
    std::string dominantCategory;
};

/**
 * The consolidated, structured report of one training-session run.
 * Build via TrainingSession::runReport() or SessionReport::build().
 */
class SessionReport
{
  public:
    /** Assemble the report for @p res measured on @p server. */
    static SessionReport build(const Server &server,
                               const SessionResult &res);

    // --- identity -----------------------------------------------------
    std::string preset;       ///< presetName() of the architecture
    std::string model;        ///< Table I model name
    std::size_t numAccelerators = 0;
    std::size_t batchSize = 0;

    /** Ideal (prep-unconstrained) throughput at this scale. */
    double targetThroughput = 0.0;

    /** The raw measurements (kept whole for compatibility). */
    SessionResult result;

    /** Per-resource utilization; empty unless hasMetrics. */
    std::vector<ResourceUsage> resources;

    /** True when the run recorded metrics (cfg.metricsEnabled). */
    bool hasMetrics = false;

    // --- headline accessors -------------------------------------------
    double throughput() const { return result.throughput; }
    Time stepTime() const { return result.stepTime; }
    Time computeTime() const { return result.computeTime; }
    Time syncTime() const { return result.syncTime; }
    Time prepLatency() const { return result.prepLatency; }
    Time wallTime() const { return result.wallTime; }
    std::size_t stepsMeasured() const { return result.stepsMeasured; }

    /** Fraction of the ideal target throughput achieved. */
    double targetFraction() const;

    // --- consolidated robustness accessors -----------------------------
    const SessionResult::FaultStats &faults() const
    {
        return result.faults;
    }
    const SessionResult::IntegrityStats &integrity() const
    {
        return result.integrity;
    }
    const CheckpointStats &checkpoint() const { return result.checkpoint; }
    const SessionResult::ElasticityStats &elasticity() const
    {
        return result.elasticity;
    }
    const SessionResult::IngestStats &ingest() const
    {
        return result.ingest;
    }

    // --- functional prep-executor quarantine ---------------------------
    /**
     * Quarantine outcome of a real PrepExecutor run attached to this
     * report (the simulator knows nothing about it; tools like
     * tb_report attach it explicitly). @p byReason maps quarantine
     * reason classes ("checksum_mismatch", "decode_error", ...) to item
     * counts — prep::quarantineByReason() builds it from the executor's
     * quarantined() list.
     */
    void attachPrepQuarantine(
        std::size_t itemsProcessed,
        const std::map<std::string, std::size_t> &byReason);

    /** Items the attached executor run processed (0 = none attached). */
    std::size_t prepItemsProcessed = 0;

    /** Quarantined-item count per reason class of the attached run. */
    std::map<std::string, std::size_t> prepQuarantineByReason;

    /** Total quarantined items of the attached run. */
    std::size_t prepItemsQuarantined() const;

    /** Throughput relative to a fault-free reference run, in [0, 1]. */
    double goodput(double referenceThroughput) const;

    /** Useful-time fraction under checkpoint/crash overheads. */
    double efficiency() const;

    /** Fraction of wall time with no fault window open. */
    double availability() const;

    /** Fraction of wall time at full group membership, in [0, 1]. */
    double capacityAvailability() const;

    /**
     * Achieved / target samples-per-sec under the configured SLO floor
     * (elasticity.sloTargetSamplesPerSec), capped at 1. 1.0 when no
     * target is set.
     */
    double sloAttainment() const;

    // --- streaming-ingest accessors (all clamped to [0, 1]) -------------
    /** Admitted / arrived; 1.0 when nothing arrived. */
    double ingestAdmitRate() const;

    /** Shed / arrived; 0.0 when nothing arrived. */
    double ingestShedRate() const;

    /** Mean arrival-to-shard latency of admitted samples (0 if none). */
    Time avgIngestStaleness() const;

    /**
     * Fraction of admitted samples landing within the staleness SLO
     * (ingest.stalenessSlo). 1.0 when no SLO is set or nothing was
     * admitted.
     */
    double freshnessSloAttainment() const;

    /**
     * Statistical-efficiency factor of the samples fed to training:
     * (fresh + echoEfficiency * echoed) / (fresh + echoed). 1.0 when
     * the echo policy never engaged (or nothing was consumed).
     */
    double echoEffectiveFactor() const;

    // --- Fig 9: per-batch latency breakdown ----------------------------
    struct LatencyBreakdown
    {
        Time transfer = 0.0;     ///< ssd_read + data_load + others
        Time formatting = 0.0;
        Time augmentation = 0.0;
        Time compute = 0.0;
        Time sync = 0.0;

        Time prepTotal() const
        {
            return transfer + formatting + augmentation;
        }
        Time total() const { return prepTotal() + compute + sync; }

        /** Share of @p part in the total (0 when degenerate). */
        double share(Time part) const;

        /** Preparation share of total batch latency (Fig 9's metric). */
        double prepShare() const { return share(prepTotal()); }
    };
    LatencyBreakdown latency() const;

    /** One prep stage's average wall time (0 when absent). */
    Time stageTime(const std::string &stage) const;

    // --- Figs 10/11/22: host-resource decomposition ---------------------
    double hostCpuCores() const;
    double hostMemBw() const;
    double hostRcBw() const;

    /** Category share of one host axis (e.g. cpuShare("formatting")). */
    double cpuShare(const std::string &category) const;
    double memShare(const std::string &category) const;
    double rcShare(const std::string &category) const;

    // --- bottleneck attribution ----------------------------------------
    /**
     * Device classes ranked most-bottlenecked first: by time-averaged
     * utilization, then saturated fraction, of each class's
     * most-utilized member. With metrics this covers every simulated
     * resource plus
     * the accelerators; without metrics it degrades to the three host
     * axes (demand / capacity) so the ranking is always available.
     */
    std::vector<Bottleneck> bottlenecks() const;

    // --- exporters ------------------------------------------------------
    /** The one field list, in JSON order (schema in OBSERVABILITY.md). */
    void writeFields(FieldWriter &w) const;

    /** writeFields() as JSON, and as "section,key,value" CSV rows. */
    std::string toJson() const;
    std::string toCsv() const;

    /**
     * Emit utilization counter tracks and the bottleneck ranking into a
     * Chrome trace. Counters are window-averaged values sampled at the
     * window edges (a stepped band per resource in Perfetto).
     */
    void emitCounters(TraceWriter &trace) const;

    /** Human-readable summary (the tb_report default output). */
    void print(std::FILE *out = stdout) const;

    // --- canonical formulas ---------------------------------------------
    static double computeGoodput(double throughput, double reference);
    static double computeEfficiency(const CheckpointStats &ckpt,
                                    Time wallTime);
    static double sumCategories(const std::map<std::string, double> &by);

  private:
    Time windowElapsed() const;

    // Configured host capacities (captured at build time) normalize the
    // metrics-free bottleneck fallback: demand / capacity per axis.
    double hostCpuCapacity_ = 0.0;
    double hostMemCapacity_ = 0.0;
    double hostRcCapacity_ = 0.0;
};

/**
 * Share of @p category in @p byCategory given the axis @p total
 * (0 when total is degenerate). The Fig 11/22 share helper.
 */
double categoryShare(const std::map<std::string, double> &byCategory,
                     const std::string &category, double total);

/** Device class of a fluid resource name ("cpu", "pcie_link", ...). */
std::string classifyResource(const std::string &name);

} // namespace tb

#endif // TRAINBOX_TRAINBOX_REPORT_HH
