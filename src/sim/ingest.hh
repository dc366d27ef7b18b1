/**
 * @file
 * Deterministic streaming-ingest arrival scheduling.
 *
 * The paper's servers train from a dataset fully resident on SSD. The
 * millions-of-users mode replaces that with continuous sample arrival:
 * user traffic lands in a bounded host-DRAM ingest buffer, is prepped,
 * and is appended to the SSD dataset shards *while training reads
 * them* — the shard writes contend with prep reads through the same
 * NvmeSsd write→read interference the checkpoint path models.
 *
 * This header is the arrival side: an IngestConfig describes a traffic
 * trace as three seeded classes (steady base load, a diurnally
 * modulated swing, and low-priority bursts) plus an optional explicit
 * schedule, and IngestScheduler turns it into a *reproducible* stream
 * of arrival events through the arrival stream every injector shares
 * (sim/arrivals.hh): every decision is drawn from seed-derived tb::Rng
 * streams, so two runs with the same config see the same traffic
 * timeline.
 *
 * The overload *policy* — watermarks, admission control, the
 * throttle→shed→echo→stall chain, the conservation ledger — lives in
 * TrainingSession; see docs/ROBUSTNESS.md, "Streaming ingest &
 * overload".
 */

#ifndef TRAINBOX_SIM_INGEST_HH
#define TRAINBOX_SIM_INGEST_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "sim/arrivals.hh"

namespace tb {

/** Which traffic class an arrival event belongs to. */
enum class IngestTrafficKind
{
    Steady,  ///< constant-mean base load
    Diurnal, ///< sinusoidally modulated swing (time-of-day traffic)
    Burst,   ///< low-priority bursts (bulk uploads, backfills)
};

/**
 * Overload policies, applied in the configured chain order as the
 * buffer climbs past the high watermark (docs/ROBUSTNESS.md).
 */
enum class IngestPolicy
{
    Throttle, ///< admit only throttleFactor of each arriving batch
    Shed,     ///< drop arrivals at or below the priority cutoff
    Echo,     ///< training reuses prepped batches (fewer fresh reads)
    Stall,    ///< training stops consuming until the buffer drains
};

/** Display name ("throttle"/"shed"/"echo"/"stall"). */
const char *ingestPolicyName(IngestPolicy policy);

/** One scheduled arrival: a batch of samples at an instant. */
struct IngestArrival
{
    IngestTrafficKind kind = IngestTrafficKind::Steady;

    /** Samples delivered by this event. */
    double samples = 0.0;

    /** Shed order: lower is dropped first (IngestConfig priorities). */
    int priority = 0;

    Time at = 0.0;
};

/** One randomized traffic class: mean rate and batch granularity. */
struct IngestClassConfig
{
    /** Mean samples per simulated second (0 = class disabled). */
    double ratePerSec = 0.0;

    /**
     * Samples per arrival event. The event rate is
     * ratePerSec / samplesPerEvent with exponential inter-arrivals, so
     * the class delivers its mean rate in batch-sized lumps.
     */
    double samplesPerEvent = 64.0;

    /** Shed priority; lower-priority classes are shed first. */
    int priority = 0;
};

/** Full streaming-ingest scenario (ServerConfig::ingest). */
struct IngestConfig
{
    /** Master switch. When false the ingest path costs nothing. */
    bool enabled = false;

    /** Seed for every arrival stream (traces are reproducible). */
    std::uint64_t seed = 0x696e67657374ull;

    // --- traffic classes --------------------------------------------

    IngestClassConfig steady{0.0, 64.0, 2};  ///< base load
    IngestClassConfig diurnal{0.0, 64.0, 1}; ///< modulated swing
    IngestClassConfig burst{0.0, 256.0, 0};  ///< low-priority bursts

    /** Peak-to-mean swing of the diurnal class, in [0, 1]. */
    double diurnalAmplitude = 0.8;

    /** Period of the diurnal modulation in simulated seconds. */
    Time diurnalPeriod = 20.0;

    /**
     * Explicit extra arrivals, merged with the generated streams. Must
     * be ordered by `at` (validate() checks).
     */
    std::vector<IngestArrival> schedule;

    // --- ingest buffer ----------------------------------------------

    /** Host-DRAM ingest buffer capacity in samples. */
    double bufferCapacity = 8192.0;

    /** Overload clears when the buffer drains back to this level. */
    double lowWatermark = 2048.0;

    /** Overload trips when the buffer reaches this level. */
    double highWatermark = 6144.0;

    // --- overload policy chain --------------------------------------

    /**
     * Escalation order. Policy i engages when the buffer reaches
     * highWatermark + i * (bufferCapacity - highWatermark) / size();
     * all engaged policies disengage together at the low watermark.
     * Arrivals beyond bufferCapacity are always dropped (overflow).
     */
    std::vector<IngestPolicy> policyChain{
        IngestPolicy::Throttle, IngestPolicy::Shed, IngestPolicy::Echo};

    /** Fraction of each batch admitted while Throttle is engaged. */
    double throttleFactor = 0.5;

    /** Shed drops arrivals with priority <= this while engaged. */
    int shedPriorityCutoff = 0;

    /**
     * Batch reuse count while Echo is engaged: each training step
     * consumes batch/echoFactor fresh samples and echoes the rest
     * ("Faster Neural Network Training with Data Echoing").
     */
    double echoFactor = 2.0;

    /**
     * Statistical efficiency of an echoed sample relative to a fresh
     * one, in [0, 1]; reported as the echo efficiency loss.
     */
    double echoEfficiency = 0.7;

    // --- freshness SLO ----------------------------------------------

    /**
     * Staleness target in seconds (arrival → landed on shard); 0 = no
     * target. Reported as SessionReport::freshnessSloAttainment().
     */
    Time stalenessSlo = 0.0;

    // --- shard writes -----------------------------------------------

    /** Samples drained per shard-write flow. */
    double writeChunkSamples = 256.0;

    /** Probability one shard-write attempt transiently fails. */
    double writeFailureProb = 0.0;

    /** Write retries per chunk before its samples are abandoned. */
    std::size_t maxWriteRetries = 3;

    /** First retry backoff; doubles per subsequent attempt. */
    Time writeRetryBackoff = 1e-3;

    /** True when any arrival source is live. */
    bool anyArrivals() const
    {
        return steady.ratePerSec > 0.0 || diurnal.ratePerSec > 0.0 ||
               burst.ratePerSec > 0.0 || !schedule.empty();
    }
};

/** Traffic classes as an arrival Source (sim/arrivals.hh). */
struct IngestTraffic
{
    using Event = IngestArrival;
    struct Class : ArrivalClass
    {
        IngestTrafficKind kind = IngestTrafficKind::Steady;
        IngestClassConfig cfg;
        double amplitude = 0.0;
        Time period = 1.0;
    };
    static constexpr FollowUps kFollowUps = FollowUps::None;
    static Time at(const IngestArrival &ev) { return ev.at; }
    static IngestArrival draw(Class &c, Time start);
};

/**
 * Draws the traffic timeline for one run. Construct one per session.
 * It is an arrival stream: arm(eq, handler) plays the explicit
 * arrivals, then each class chaining its next arrival lazily, so the
 * trace extends as far as the run does; preview() lists the same
 * arrivals.
 */
class IngestScheduler : public ArrivalStream<IngestTraffic>
{
  public:
    explicit IngestScheduler(const IngestConfig &cfg);

    /** Does the next shard-write attempt fail? (consumes the stream) */
    bool writeAttemptFails();

  private:
    double writeFailureProb_;
    Rng writeFailRng_;
};

} // namespace tb

#endif // TRAINBOX_SIM_INGEST_HH
