/**
 * @file
 * Checkpoint/restore subsystem for the training simulator.
 *
 * Extreme-scale training survives component failures by periodically
 * making the model + optimizer state durable and, after a fatal crash,
 * rolling back to the last durable snapshot and replaying the lost
 * steps. In TrainBox the checkpoint writes land on the *same* clustered
 * NVMe SSDs and PCIe switches that feed the data-preparation path, so
 * checkpoint bandwidth directly competes with prep reads — a contention
 * the paper's balance argument makes worth modeling precisely.
 *
 * Two checkpoint modes are simulated (CheckpointConfig::mode):
 *
 *  - **Sync** — training pauses at a step boundary while the snapshot
 *    drains to the SSDs; the pause is the classic checkpoint cost C of
 *    the Young–Daly analysis.
 *  - **Async** — training pauses only for a short device-buffer
 *    snapshot (state copied into host/FPGA DRAM at
 *    `snapshotBandwidth`), then a background drain flow writes the
 *    buffer to the SSDs while training continues. The drain contends
 *    with prep reads on SSD media and fabric links; the checkpoint
 *    only becomes durable when the drain completes.
 *
 * The interval-selection problem is the classic one solved by Young
 * (1974) and refined by Daly (2006): checkpoint too often and the cost
 * C dominates; too rarely and the expected lost work W/2 per failure
 * dominates. youngDalyInterval() returns the first-order optimum
 * sqrt(2 C M); bench/checkpoint_sweep validates it against the
 * simulated optimum.
 *
 * See docs/ROBUSTNESS.md ("Checkpoint & restore").
 */

#ifndef TRAINBOX_TRAINBOX_CHECKPOINT_HH
#define TRAINBOX_TRAINBOX_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "fluid/fluid.hh"

namespace tb {

class Server;
class TraceWriter;

/** How a checkpoint drains to durable storage. */
enum class CheckpointMode
{
    Sync,  ///< training pauses for the whole SSD drain
    Async, ///< short snapshot pause, background drain
};

/** Display name ("sync" / "async"). */
const char *checkpointModeName(CheckpointMode m);

/** Periodic-checkpoint scenario description (ServerConfig::checkpoint). */
struct CheckpointConfig
{
    /** Master switch. When false the checkpoint path costs nothing. */
    bool enabled = false;

    CheckpointMode mode = CheckpointMode::Sync;

    /**
     * Seconds of training between checkpoint captures (the Young–Daly
     * W). The clock restarts when training resumes after a capture, so
     * the interval measures useful work, not work + pause. Checkpoints
     * are taken at the first step boundary after the interval elapses.
     */
    Time interval = 30.0;

    /**
     * Optimizer state as a multiple of the parameter bytes (Adam keeps
     * two moment tensors => 2.0). Checkpoint size is
     * (1 + optimizerSlots) * modelBytes.
     */
    double optimizerSlots = 2.0;

    /**
     * Aggregate rate of the device -> host/FPGA buffer snapshot copy
     * (the async mode's only training pause; also bounds nothing in
     * sync mode, where the SSD drain is the pause).
     */
    Rate snapshotBandwidth = 100.0e9;

    /**
     * Wall time from a fatal crash to the machine accepting work again
     * (process relaunch, device reset, checkpoint reload). Applies to
     * fatal-crash recovery even when periodic checkpointing is
     * disabled (then every crash rolls back to step 0).
     */
    Time restartLatency = 10.0;
};

/**
 * Young's first-order optimal checkpoint interval: W = sqrt(2 C M) for
 * checkpoint cost @p cost and mean time between failures @p mtbf.
 * Returns 0 when either input is non-positive.
 */
Time youngDalyInterval(Time cost, Time mtbf);

/**
 * Daly's higher-order refinement
 * W = sqrt(2 C M) * (1 + sqrt(C/(2M))/3 + C/(2M)) - C, valid for
 * C < 2 M (falls back to the first-order form otherwise).
 */
Time dalyInterval(Time cost, Time mtbf);

/**
 * Predicted efficiency (useful time / wall time) of checkpointing every
 * @p interval seconds with cost @p cost, failures every @p mtbf on
 * average, and @p restart seconds of downtime per failure:
 * 1 - C/(W+C) - (W/2 + R)/M. Clamped to [0, 1]; 0 when inputs are
 * degenerate.
 */
double checkpointEfficiencyModel(Time interval, Time cost, Time mtbf,
                                 Time restart);

/** Everything a session reports about checkpoint/restore activity. */
struct CheckpointStats
{
    std::size_t committed = 0;    ///< checkpoints made durable
    std::size_t skipped = 0;      ///< due while a drain was in flight
    std::size_t fatalCrashes = 0; ///< rollbacks taken
    std::size_t stepsLost = 0;    ///< global steps rolled back (replayed)
    Bytes bytesWritten = 0.0;     ///< durable checkpoint bytes
    Time pauseTime = 0.0;         ///< training pauses (drains/snapshots)
    Time lostWorkTime = 0.0;      ///< at-risk work discarded by crashes
    Time restartTime = 0.0;       ///< downtime spent restarting
    Time avgCost = 0.0;           ///< mean capture -> durable latency
};

/**
 * Drives periodic checkpoints and crash rollback for one
 * TrainingSession run. The session calls maybeBegin() at every step
 * boundary and crash()/restarted() around fatal faults; the
 * checkpointer owns the drain flows (built from each PrepGroup's
 * checkpointWrite template), the durable-state bookkeeping, and the
 * wall-time ledger behind SessionResult::efficiency(). Its events and
 * flows belong to the session's owner, and the session's release
 * removes them, so a checkpointer has no teardown of its own.
 */
class Checkpointer
{
  public:
    /**
     * @param trace optional Chrome-trace writer (borrowed; must outlive
     *              the run, same contract as TrainingSession::setTrace)
     */
    Checkpointer(Server &server, TraceWriter *trace);

    Checkpointer(const Checkpointer &) = delete;
    Checkpointer &operator=(const Checkpointer &) = delete;

    /** Bytes of one full snapshot (model + optimizer state). */
    Bytes totalBytes() const;

    /**
     * Step-boundary hook: start a checkpoint of the state at @p step
     * when the interval has elapsed. Returns true when training must
     * pause; @p onResume then fires exactly once when compute may
     * restart (drain end in Sync mode, snapshot end in Async). Returns
     * false when no pause is needed (not yet due, disabled, or an
     * async drain is still in flight — counted as skipped).
     */
    bool maybeBegin(std::size_t step, std::function<void()> onResume);

    /**
     * Ask for a capture at the next step boundary regardless of the
     * interval clock (a drain notice wants durable state before the
     * member detaches). No-op when checkpointing is disabled; the
     * request persists until a capture actually begins.
     */
    void requestCapture() { force_ = true; }

    /**
     * A fatal crash at time @p now with @p currentStep steps
     * committed: aborts any in-flight capture (partial files are
     * useless), accounts the lost work, and returns the step to roll
     * back to (0 when nothing is durable yet).
     */
    std::size_t crash(Time now, std::size_t currentStep);

    /** The restart after the last crash() finished at time @p now. */
    void restarted(Time now);

    /** True while a capture or background drain is in flight. */
    bool draining() const { return draining_; }

    /**
     * Step of the last durable checkpoint (0 = none). Besides the
     * in-session crash/rollback path above, the fleet retry path
     * (trainbox/fleet.cc) reads this off a killed session to bank
     * durable progress across restart attempts, and charges the same
     * CheckpointConfig::restartLatency on top of the retry backoff
     * before the replacement attempt is queued.
     */
    std::size_t lastDurableStep() const { return durableStep_; }

    /** Finalized counters (avgCost computed over committed drains). */
    CheckpointStats stats() const;

  private:
    void launchDrain();
    void onDrainComplete(Time now);
    void accruePause(Time pause);

    Server &server_;
    TraceWriter *trace_;
    std::vector<Bytes> shardBytes_; ///< per-group snapshot shard

    // in-flight capture
    bool draining_ = false;
    std::size_t captureStep_ = 0;
    Time captureTime_ = 0.0;
    Time drainStart_ = 0.0;
    std::size_t outstanding_ = 0;
    std::vector<FlowId> drainFlows_;
    EventId snapshotEv_{};
    std::function<void()> onResume_;

    // durable state + the interval clock
    std::size_t durableStep_ = 0;
    Time lastResume_ = 0.0;
    bool force_ = false; ///< requestCapture() pending

    // wall-time ledger: work after anchor_ is lost if a crash arrives
    // before the next durable commit; pauses already billed inside the
    // at-risk window are subtracted so no second is counted twice.
    Time anchor_ = 0.0;
    Time pauseSinceAnchor_ = 0.0;
    Time crashTime_ = 0.0;

    Time costSum_ = 0.0;
    CheckpointStats stats_;
};

} // namespace tb

#endif // TRAINBOX_TRAINBOX_CHECKPOINT_HH
