#include "obs/spans.h"

#include <atomic>
#include <cstdio>

#include "obs/clock.h"
#include "obs/json.h"

namespace jrs::obs {

SpanTracer::SpanTracer()
    : epoch_(steadyNow())
{
}

std::uint64_t
SpanTracer::nowUs() const
{
    return microsSince(epoch_);
}

std::uint32_t
SpanTracer::currentLane()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t lane =
        next.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

void
SpanTracer::nameCurrentLane(const std::string &name)
{
    const std::uint32_t lane = currentLane();
    std::lock_guard<std::mutex> lock(mu_);
    laneNames_[lane] = name;
}

void
SpanTracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

void
SpanTracer::recordCounter(CounterRecord counter)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.push_back(std::move(counter));
}

std::size_t
SpanTracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::size_t
SpanTracer::counterSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size();
}

std::string
SpanTracer::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    out += "{\n\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() {
        out += first ? "" : ",\n";
        first = false;
    };
    sep();
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 0, \"args\": {\"name\": \"jrs\"}}";
    for (const auto &[lane, name] : laneNames_) {
        sep();
        out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": "
            + std::to_string(lane) + ", \"args\": {\"name\": \""
            + jsonEscape(name) + "\"}}";
    }
    for (const SpanRecord &s : spans_) {
        sep();
        out += "{\"name\": \"" + jsonEscape(s.name) + "\", \"cat\": \""
            + jsonEscape(s.cat) + "\", \"ph\": \"X\", \"ts\": "
            + std::to_string(s.startUs) + ", \"dur\": "
            + std::to_string(s.durUs) + ", \"pid\": 1, \"tid\": "
            + std::to_string(s.lane) + ", \"args\": {";
        for (std::size_t a = 0; a < s.args.size(); ++a) {
            if (a != 0)
                out += ", ";
            out += "\"" + jsonEscape(s.args[a].first) + "\": \""
                + jsonEscape(s.args[a].second) + "\"";
        }
        out += "}}";
    }
    for (const CounterRecord &c : counters_) {
        sep();
        out += "{\"name\": \"" + jsonEscape(c.name)
            + "\", \"ph\": \"C\", \"ts\": " + std::to_string(c.ts)
            + ", \"pid\": 1, \"tid\": " + std::to_string(c.lane)
            + ", \"args\": {";
        for (std::size_t a = 0; a < c.values.size(); ++a) {
            if (a != 0)
                out += ", ";
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g",
                          c.values[a].second);
            out += "\"" + jsonEscape(c.values[a].first) + "\": "
                + buf;
        }
        out += "}}";
    }
    out += "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
    return out;
}

void
SpanTracer::writeJson(const std::string &path) const
{
    writeTextFile(path, toJson(), "trace JSON");
}

void
SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
    counters_.clear();
    laneNames_.clear();
}

} // namespace jrs::obs
