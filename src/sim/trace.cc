#include "sim/trace.hh"

#include <cstdio>

#include "common/field_writer.hh"

namespace tb {

int
TraceWriter::trackId(const std::string &track)
{
    auto it = tracks_.find(track);
    if (it != tracks_.end())
        return it->second;
    const int id = static_cast<int>(tracks_.size()) + 1;
    tracks_.emplace(track, id);
    return id;
}

void
TraceWriter::complete(const std::string &track, const std::string &name,
                      Time start, Time duration,
                      const std::string &category)
{
    events_.push_back(
        {'X', name, category, trackId(track), start, duration});
}

void
TraceWriter::instant(const std::string &track, const std::string &name,
                     Time when, const std::string &category)
{
    events_.push_back({'i', name, category, trackId(track), when, 0.0});
}

void
TraceWriter::counter(const std::string &track, const std::string &name,
                     Time when, double value)
{
    events_.push_back({'C', name, "sim", trackId(track), when, value});
}

std::string
TraceWriter::toJson() const
{
    std::string out = "{\"traceEvents\":[";
    const auto begin = [&out](char phase, int track) {
        out += out.back() == '[' ? "{\"ph\":\"" : ",{\"ph\":\"";
        out += phase;
        out += "\",\"pid\":1,\"tid\":" + std::to_string(track);
    };

    // Thread-name metadata so tracks show readable labels.
    for (const auto &[name, id] : tracks_) {
        begin('M', id);
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
        appendJsonString(out, name);
        out += "}}";
    }

    for (const auto &e : events_) {
        begin(e.phase, e.track);
        out += ",\"name\":";
        appendJsonString(out, e.name);
        if (e.phase != 'C') {
            out += ",\"cat\":";
            appendJsonString(out, e.category);
        }
        out += ",\"ts\":";
        appendNumber(out, e.start * 1e6, NumberFormat::Fixed3);
        if (e.phase == 'X') {
            out += ",\"dur\":";
            appendNumber(out, e.duration * 1e6, NumberFormat::Fixed3);
        } else if (e.phase == 'C') {
            out += ",\"args\":{\"value\":";
            appendNumber(out, e.duration, NumberFormat::Short);
            out += '}';
        } else {
            out += ",\"s\":\"t\"";
        }
        out += '}';
    }
    return out + "]}";
}

bool
TraceWriter::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = toJson();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    std::fclose(f);
    return ok;
}

void
TraceWriter::clear()
{
    events_.clear();
    tracks_.clear();
}

} // namespace tb
