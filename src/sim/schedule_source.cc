#include "sim/schedule_source.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tb {

std::vector<SchedulePreviewEntry>
FaultScheduleSource::schedule(const FaultConfig &cfg,
                              const ScheduleTargets &targets, Time horizon)
{
    std::vector<SchedulePreviewEntry> out;
    if (!cfg.enabled)
        return out;
    const FaultTargets ft{targets.numSsds, targets.numGroups};
    for (const FaultEvent &ev : FaultInjector::schedule(cfg, ft, horizon)) {
        out.push_back(SchedulePreviewEntry{
            ev.start, "fault",
            csprintf("%s target=%zu for %.3gs x%.3g",
                     faultKindName(ev.kind), ev.target, ev.duration,
                     ev.magnitude)});
    }
    return out;
}

std::vector<SchedulePreviewEntry>
FaultScheduleSource::preview(const ScheduleTargets &targets,
                             Time horizon) const
{
    return schedule(cfg_, targets, horizon);
}

std::vector<SchedulePreviewEntry>
ElasticScheduleSource::schedule(const ElasticityConfig &cfg,
                                const ScheduleTargets &targets, Time horizon)
{
    std::vector<SchedulePreviewEntry> out;
    if (!cfg.enabled)
        return out;
    const ElasticTargets et{targets.numGroups};
    for (const ElasticEvent &ev :
         ElasticScheduler::schedule(cfg, et, horizon)) {
        out.push_back(SchedulePreviewEntry{
            ev.at, "elastic",
            csprintf("%s %s%zu", elasticActionName(ev.action),
                     elasticTargetKindName(ev.target), ev.index)});
    }
    return out;
}

std::vector<SchedulePreviewEntry>
ElasticScheduleSource::preview(const ScheduleTargets &targets,
                               Time horizon) const
{
    return schedule(cfg_, targets, horizon);
}

std::vector<SchedulePreviewEntry>
IngestScheduleSource::schedule(const IngestConfig &cfg,
                               const ScheduleTargets & /*targets*/,
                               Time horizon)
{
    std::vector<SchedulePreviewEntry> out;
    if (!cfg.enabled)
        return out;
    for (const IngestArrival &ev : IngestScheduler::schedule(cfg, horizon)) {
        out.push_back(SchedulePreviewEntry{
            ev.at, "ingest",
            csprintf("%s %.0f samples prio=%d",
                     ingestTrafficKindName(ev.kind), ev.samples,
                     ev.priority)});
    }
    return out;
}

std::vector<SchedulePreviewEntry>
IngestScheduleSource::preview(const ScheduleTargets &targets,
                              Time horizon) const
{
    return schedule(cfg_, targets, horizon);
}

std::vector<SchedulePreviewEntry>
FleetFaultScheduleSource::schedule(const FleetFaultConfig &cfg,
                                   const ScheduleTargets &targets,
                                   Time horizon)
{
    std::vector<SchedulePreviewEntry> out;
    if (!cfg.enabled)
        return out;
    for (const FleetFaultEvent &ev :
         FleetFaultInjector::schedule(cfg, targets.numHosts, horizon)) {
        out.push_back(SchedulePreviewEntry{
            ev.start, "fleet",
            csprintf("%s host=%zu for %.3gs units=%zu",
                     fleetFaultKindName(ev.kind), ev.host, ev.duration,
                     ev.units)});
    }
    return out;
}

std::vector<SchedulePreviewEntry>
FleetFaultScheduleSource::preview(const ScheduleTargets &targets,
                                  Time horizon) const
{
    return schedule(cfg_, targets, horizon);
}

std::vector<SchedulePreviewEntry>
mergedSchedule(const std::vector<const ScheduleSource *> &sources,
               const ScheduleTargets &targets, Time horizon)
{
    std::vector<SchedulePreviewEntry> out;
    for (const ScheduleSource *src : sources) {
        if (!src || !src->enabled())
            continue;
        auto entries = src->preview(targets, horizon);
        out.insert(out.end(), std::make_move_iterator(entries.begin()),
                   std::make_move_iterator(entries.end()));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SchedulePreviewEntry &a,
                        const SchedulePreviewEntry &b) { return a.at < b.at; });
    return out;
}

std::vector<SchedulePreviewEntry>
mergedSchedule(const FaultConfig &faults, const ElasticityConfig &elastic,
               const IngestConfig &ingest, const ScheduleTargets &targets,
               Time horizon)
{
    const FaultScheduleSource f(faults);
    const ElasticScheduleSource e(elastic);
    const IngestScheduleSource i(ingest);
    return mergedSchedule({&f, &e, &i}, targets, horizon);
}

} // namespace tb
