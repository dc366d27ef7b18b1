#include "sim/fault_injector.hh"

#include <limits>

#include "common/logging.hh"

namespace tb {

namespace {

/** Per-class stream tags (keep stable: they define the schedules). */
constexpr std::uint64_t kReadFailStream = 0x5245414446ull;
constexpr std::uint64_t kStragglerStream = 0x5354524147ull;
constexpr std::uint64_t kCorruptionStream = 0x434f525255ull;

std::uint64_t
corruptionStreamTag(CorruptionKind kind)
{
    return kCorruptionStream + static_cast<std::uint64_t>(kind);
}

std::uint64_t
classStreamTag(FaultKind kind)
{
    return 0x57494e444f57ull + static_cast<std::uint64_t>(kind);
}

std::vector<FaultWindows::Class>
makeClasses(const FaultConfig &cfg, const FaultTargets &targets)
{
    std::vector<FaultWindows::Class> classes;
    auto add = [&](FaultKind kind, const FaultClassConfig &cc,
                   std::size_t n_targets) {
        const bool point = kind == FaultKind::FatalCrash;
        if (cc.ratePerSec > 0.0 && (cc.duration > 0.0 || point) &&
            n_targets > 0)
            classes.push_back(
                {{streamRng(cfg.seed, classStreamTag(kind)), cc.ratePerSec},
                 kind,
                 cc,
                 n_targets});
    };
    add(FaultKind::SsdDegrade, cfg.ssdDegrade, targets.numSsds);
    add(FaultKind::PrepCrash, cfg.prepCrash, targets.numGroups);
    add(FaultKind::EthDegrade, cfg.ethDegrade, 1);
    add(FaultKind::RouteLoss, cfg.routeLoss, targets.numGroups);
    // Fatal crashes are point events: the configured duration is
    // ignored (forced to 0) so arrivals stay a Poisson process with
    // MTBF = 1/rate regardless of what the scenario struct says.
    add(FaultKind::FatalCrash, {cfg.fatalCrash.ratePerSec, 0.0, 0.0}, 1);
    return classes;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::SsdDegrade:
        return "ssd_degrade";
      case FaultKind::PrepCrash:
        return "prep_crash";
      case FaultKind::EthDegrade:
        return "eth_degrade";
      case FaultKind::RouteLoss:
        return "route_loss";
      case FaultKind::FatalCrash:
        return "fatal_crash";
    }
    return "unknown";
}

const char *
corruptionKindName(CorruptionKind kind)
{
    switch (kind) {
      case CorruptionKind::SsdBitFlip:
        return "ssd_bit_flip";
      case CorruptionKind::PcieLinkError:
        return "pcie_link_error";
      case CorruptionKind::FpgaUpset:
        return "fpga_upset";
      case CorruptionKind::HostDramFlip:
        return "host_dram_flip";
    }
    return "unknown";
}

FaultInjector::FaultInjector(const FaultConfig &cfg,
                             const FaultTargets &targets)
    : ArrivalStream(makeClasses(cfg, targets), {}), cfg_(cfg),
      readFailRng_(streamRng(cfg.seed, kReadFailStream))
{
    panic_if(cfg_.ssdReadFailureProb < 0.0 ||
                 cfg_.ssdReadFailureProb >= 1.0,
             "ssdReadFailureProb must be in [0, 1), got %g",
             cfg_.ssdReadFailureProb);
    panic_if(cfg_.stragglerFactor < 1.0,
             "stragglerFactor must be >= 1, got %g", cfg_.stragglerFactor);
    for (std::size_t k = 0; k < kNumCorruptionKinds; ++k) {
        const auto kind = static_cast<CorruptionKind>(k);
        const double p = cfg_.corruption.probFor(kind);
        panic_if(p < 0.0 || p >= 1.0,
                 "corruption probability for %s must be in [0, 1), got %g",
                 corruptionKindName(kind), p);
        corruptionRngs_[k] = streamRng(cfg.seed, corruptionStreamTag(kind));
    }
    panic_if(cfg_.corruption.pcieReplayLatency < 0.0,
             "pcieReplayLatency must be >= 0, got %g",
             cfg_.corruption.pcieReplayLatency);
}

FaultEvent
FaultWindows::draw(Class &c, Time start)
{
    // The gap runs from the end of the previous window, so windows of
    // one class never overlap.
    FaultEvent ev;
    ev.kind = c.kind;
    ev.target = static_cast<std::size_t>(c.rng.uniformInt(
        0, static_cast<std::int64_t>(c.numTargets) - 1));
    ev.start = start;
    ev.duration = c.cfg.duration;
    ev.magnitude = c.cfg.magnitude;
    c.prevEnd = ev.start + ev.duration;
    return ev;
}

bool
FaultInjector::ssdReadAttemptFails()
{
    if (cfg_.ssdReadFailureProb <= 0.0)
        return false;
    const bool fails = readFailRng_.uniform() < cfg_.ssdReadFailureProb;
    if (fails)
        ++readFailures_;
    return fails;
}

bool
FaultInjector::corruptionStrikes(CorruptionKind kind)
{
    const double p = cfg_.corruption.probFor(kind);
    if (p <= 0.0)
        return false;
    const auto k = static_cast<std::size_t>(kind);
    const bool strikes = corruptionRngs_[k].uniform() < p;
    if (strikes)
        ++corruptions_[k];
    return strikes;
}

std::size_t
FaultInjector::corruptionsInjected() const
{
    std::size_t total = 0;
    for (std::size_t n : corruptions_)
        total += n;
    return total;
}

double
FaultInjector::stragglerFactor(std::size_t group, std::size_t step) const
{
    if (cfg_.stragglerProb <= 0.0)
        return 1.0;
    const std::uint64_t h = mix64(
        cfg_.seed ^ kStragglerStream ^
        mix64(group * 0x9e3779b97f4a7c15ull + step + 1));
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53; // uniform in [0, 1)
    return u < cfg_.stragglerProb ? cfg_.stragglerFactor : 1.0;
}

// --- fleet-level faults -------------------------------------------------

namespace {

std::uint64_t
fleetClassStreamTag(FleetFaultKind kind)
{
    return 0x464c454554ull + static_cast<std::uint64_t>(kind);
}

/** Seeded fleet-fault windows (FleetFaultInjector::arm() plays repairs). */
struct FleetWindows
{
    using Event = FleetFaultEvent;
    struct Class : ArrivalClass
    {
        FleetFaultKind kind = FleetFaultKind::HostOutage;
        std::size_t numTargets = 0;
        Time mttr = 0.0;
        std::size_t units = 1;
    };
    static constexpr FollowUps kFollowUps = FollowUps::None;
    static Time at(const FleetFaultEvent &ev) { return ev.start; }

    static FleetFaultEvent
    draw(Class &c, Time start)
    {
        // The gap runs from the previous window's end (per-class
        // windows never overlap); the victim is uniform.
        FleetFaultEvent ev;
        ev.kind = c.kind;
        ev.host = static_cast<std::size_t>(c.rng.uniformInt(
            0, static_cast<std::int64_t>(c.numTargets) - 1));
        ev.start = start;
        ev.duration = c.mttr;
        ev.units = c.units;
        c.prevEnd = ev.start + ev.duration;
        return ev;
    }
};

} // namespace

const char *
fleetFaultKindName(FleetFaultKind kind)
{
    switch (kind) {
      case FleetFaultKind::HostOutage:
        return "host_outage";
      case FleetFaultKind::BoxLoss:
        return "box_loss";
      case FleetFaultKind::PoolPartition:
        return "pool_partition";
    }
    return "unknown";
}

FleetFaultInjector::FleetFaultInjector(const FleetFaultConfig &cfg,
                                       std::size_t numHosts, Time horizon)
{
    if (!cfg.enabled)
        return;
    // Seeded classes need the horizon to end; fleet validation requires
    // one when any class is active.
    std::vector<FleetWindows::Class> classes;
    auto add = [&](FleetFaultKind kind, const FleetFaultClassConfig &cc,
                   std::size_t n_targets, std::size_t units) {
        if (cc.mtbf <= 0.0 || n_targets == 0 || horizon <= 0.0)
            return;
        classes.push_back(
            {{streamRng(cfg.seed, fleetClassStreamTag(kind)),
              static_cast<double>(n_targets) / cc.mtbf},
             kind,
             n_targets,
             cc.mttr,
             units});
    };
    add(FleetFaultKind::HostOutage, cfg.hostOutage, numHosts, 1);
    add(FleetFaultKind::BoxLoss, cfg.boxLoss, numHosts, cfg.boxLossUnits);
    add(FleetFaultKind::PoolPartition, cfg.poolPartition, 1,
        cfg.poolPartitionFpgas);
    events_ = ArrivalStream<FleetWindows>(std::move(classes), cfg.schedule)
                  .preview(horizon > 0.0
                               ? horizon
                               : std::numeric_limits<Time>::infinity());
}

void
FleetFaultInjector::arm(EventQueue &eq, Handler onFault, Handler onRepair)
{
    onFault_ = std::move(onFault);
    onRepair_ = std::move(onRepair);
    // The whole schedule is known upfront, so play it eagerly. Each
    // fault schedules its own repair from inside its callback: a
    // zero-length window then still runs fault before repair (the
    // repair's sequence number is necessarily larger).
    const Time origin = eq.now();
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const FleetFaultEvent ev = events_[i];
        eq.schedule(origin + ev.start, [this, &eq, origin, ev, i] {
            ++faultsInjected_;
            if (onFault_)
                onFault_(ev, i);
            eq.schedule(origin + ev.start + ev.duration, [this, ev, i] {
                if (onRepair_)
                    onRepair_(ev, i);
            });
        });
    }
}

} // namespace tb
