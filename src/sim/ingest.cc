#include "sim/ingest.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tb {

namespace {

/** Per-class stream tags (keep stable: they define the traces). */
constexpr std::uint64_t kIngestStream = 0x494e474553ull;
constexpr std::uint64_t kWriteFailStream = 0x494e475746ull;

std::uint64_t
classStreamTag(IngestTrafficKind kind)
{
    return kIngestStream + static_cast<std::uint64_t>(kind);
}

constexpr double kTwoPi = 6.283185307179586476925286766559;

std::vector<IngestTraffic::Class>
makeClasses(const IngestConfig &cfg)
{
    std::vector<IngestTraffic::Class> classes;
    auto add = [&](IngestTrafficKind kind, const IngestClassConfig &cc,
                   double amplitude, Time period) {
        if (cc.ratePerSec <= 0.0 || cc.samplesPerEvent <= 0.0)
            return;
        // The event rate: the class delivers its mean sample rate in
        // batch-sized lumps.
        classes.push_back({{streamRng(cfg.seed, classStreamTag(kind)),
                            cc.ratePerSec / cc.samplesPerEvent},
                           kind,
                           cc,
                           amplitude,
                           period});
    };
    add(IngestTrafficKind::Steady, cfg.steady, 0.0, 1.0);
    add(IngestTrafficKind::Diurnal, cfg.diurnal, cfg.diurnalAmplitude,
        cfg.diurnalPeriod);
    add(IngestTrafficKind::Burst, cfg.burst, 0.0, 1.0);
    return classes;
}

} // namespace

const char *
ingestPolicyName(IngestPolicy policy)
{
    switch (policy) {
      case IngestPolicy::Throttle:
        return "throttle";
      case IngestPolicy::Shed:
        return "shed";
      case IngestPolicy::Echo:
        return "echo";
      case IngestPolicy::Stall:
        return "stall";
    }
    return "unknown";
}

IngestScheduler::IngestScheduler(const IngestConfig &cfg)
    : ArrivalStream(makeClasses(cfg), cfg.schedule),
      writeFailureProb_(cfg.writeFailureProb),
      writeFailRng_(streamRng(cfg.seed, kWriteFailStream))
{
    panic_if(cfg.bufferCapacity < 0.0,
             "ingest.bufferCapacity must be >= 0, got %g",
             cfg.bufferCapacity);
    panic_if(cfg.diurnalPeriod <= 0.0 && cfg.diurnal.ratePerSec > 0.0,
             "ingest.diurnalPeriod must be > 0, got %g", cfg.diurnalPeriod);
}

IngestArrival
IngestTraffic::draw(Class &c, Time start)
{
    IngestArrival ev;
    ev.kind = c.kind;
    ev.priority = c.cfg.priority;
    ev.at = start;
    // Diurnal traffic modulates the batch *volume* at a fixed event
    // rate: rate(t) = mean * (1 + A sin(2*pi*t/period)), clamped at 0.
    double scale = 1.0;
    if (c.amplitude > 0.0)
        scale = std::max(
            0.0, 1.0 + c.amplitude * std::sin(kTwoPi * ev.at / c.period));
    ev.samples = c.cfg.samplesPerEvent * scale;
    c.prevEnd = ev.at;
    return ev;
}

bool
IngestScheduler::writeAttemptFails()
{
    if (writeFailureProb_ <= 0.0)
        return false;
    return writeFailRng_.uniform() < writeFailureProb_;
}

} // namespace tb
