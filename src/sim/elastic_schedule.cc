#include "sim/elastic_schedule.hh"

#include "common/logging.hh"

namespace tb {

namespace {

/** Per-class stream tags (keep stable: they define the timelines). */
constexpr std::uint64_t kElasticStream = 0x454c415354ull;

std::uint64_t
classStreamTag(ElasticTargetKind target, bool planned)
{
    return kElasticStream + 2 * static_cast<std::uint64_t>(target) +
           (planned ? 0 : 1);
}

/** The last cfg.deferredJoinGroups groups, last first. */
std::vector<std::size_t>
deferredGroupsOf(const ElasticityConfig &cfg, std::size_t numGroups)
{
    panic_if(cfg.deferredJoinGroups >= numGroups &&
                 cfg.deferredJoinGroups > 0,
             "elasticity.deferredJoinGroups (%zu) must leave at least "
             "one of the %zu groups active",
             cfg.deferredJoinGroups, numGroups);
    std::vector<std::size_t> groups;
    for (std::size_t i = 0; i < cfg.deferredJoinGroups; ++i)
        groups.push_back(numGroups - 1 - i);
    return groups;
}

std::vector<ElasticLeaves::Class>
makeClasses(const ElasticityConfig &cfg, const ElasticTargets &targets)
{
    std::vector<ElasticLeaves::Class> classes;
    auto add = [&](ElasticTargetKind target, bool planned,
                   const ElasticClassConfig &cc) {
        if (cc.ratePerSec <= 0.0 || targets.numGroups == 0)
            return;
        classes.push_back(
            {{streamRng(cfg.seed, classStreamTag(target, planned)),
              cc.ratePerSec},
             target,
             planned,
             targets.numGroups,
             planned ? cfg.graceWindow : 0.0,
             cc.absence});
    };
    add(ElasticTargetKind::Group, /*planned=*/true, cfg.groupDrain);
    add(ElasticTargetKind::Group, /*planned=*/false, cfg.groupPreempt);
    add(ElasticTargetKind::Prep, /*planned=*/true, cfg.prepDrain);
    add(ElasticTargetKind::Prep, /*planned=*/false, cfg.prepPreempt);
    return classes;
}

/** The explicit schedule plus one scale-up join per deferred group. */
std::vector<ElasticEvent>
fixedEvents(const ElasticityConfig &cfg, std::size_t numGroups)
{
    std::vector<ElasticEvent> events = cfg.schedule;
    // Their initial detachment is session state, not an event.
    for (std::size_t g : deferredGroupsOf(cfg, numGroups))
        events.push_back({ElasticTargetKind::Group, ElasticAction::Join, g,
                          cfg.scaleUpTime});
    return events;
}

} // namespace

const char *
elasticTargetKindName(ElasticTargetKind kind)
{
    switch (kind) {
      case ElasticTargetKind::Group:
        return "group";
      case ElasticTargetKind::Prep:
        return "prep";
    }
    return "unknown";
}

const char *
elasticActionName(ElasticAction action)
{
    switch (action) {
      case ElasticAction::Drain:
        return "drain";
      case ElasticAction::Preempt:
        return "preempt";
      case ElasticAction::Join:
        return "join";
    }
    return "unknown";
}

ElasticScheduler::ElasticScheduler(const ElasticityConfig &cfg,
                                   const ElasticTargets &targets)
    : ArrivalStream(makeClasses(cfg, targets),
                    fixedEvents(cfg, targets.numGroups)),
      deferred_(deferredGroupsOf(cfg, targets.numGroups))
{
    panic_if(cfg.graceWindow < 0.0,
             "elasticity.graceWindow must be >= 0, got %g",
             cfg.graceWindow);
    panic_if(cfg.rejoinLatency < 0.0,
             "elasticity.rejoinLatency must be >= 0, got %g",
             cfg.rejoinLatency);
}

ElasticEvent
ElasticLeaves::draw(Class &c, Time start)
{
    // The gap runs from the previous join, so one class never
    // re-targets a member it has not yet returned.
    ElasticEvent leave;
    leave.target = c.target;
    leave.action =
        c.planned ? ElasticAction::Drain : ElasticAction::Preempt;
    leave.index = static_cast<std::size_t>(c.rng.uniformInt(
        0, static_cast<std::int64_t>(c.numTargets) - 1));
    leave.at = start;
    c.prevEnd = c.joinAt(leave.at);
    return leave;
}

} // namespace tb
