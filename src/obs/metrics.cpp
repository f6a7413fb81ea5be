#include "obs/metrics.h"

#include <cmath>

#include "obs/json.h"

namespace jrs::obs {

namespace {

/** Bucket index for Histogram: everything <= 1 lands in bucket 0. */
std::size_t
bucketOf(double v)
{
    std::size_t i = 0;
    double bound = 1.0;
    while (v > bound && i + 1 < Histogram::kNumBuckets) {
        bound *= 2.0;
        ++i;
    }
    return i;
}

} // namespace

void
Histogram::record(double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (s_.count == 0) {
        s_.min = v;
        s_.max = v;
    } else {
        s_.min = std::min(s_.min, v);
        s_.max = std::max(s_.max, v);
    }
    ++s_.count;
    s_.sum += v;
    ++s_.buckets[bucketOf(v)];
}

Histogram::Snapshot
Histogram::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return s_;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (slot == nullptr)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (slot == nullptr)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (slot == nullptr)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::uint64_t
MetricRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

double
MetricRegistry::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second->value();
}

std::string
MetricRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    out += "{\n  \"schema\": \"jrs-metrics-v1\",\n";

    out += "  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(name)
            + "\": " + std::to_string(c->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : gauges_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(name)
            + "\": " + jsonNumber(g->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_) {
        const Histogram::Snapshot s = h->snapshot();
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(name) + "\": {\"count\": "
            + std::to_string(s.count) + ", \"sum\": "
            + jsonNumber(s.sum) + ", \"min\": "
            + jsonNumber(s.count == 0 ? 0.0 : s.min) + ", \"max\": "
            + jsonNumber(s.count == 0 ? 0.0 : s.max) + ", \"mean\": "
            + jsonNumber(s.mean()) + ", \"buckets\": [";
        // Sparse bucket list: [upper_bound, count] pairs, non-zero
        // buckets only, so tiny histograms stay tiny in JSON.
        bool firstBucket = true;
        double bound = 1.0;
        for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
            if (s.buckets[i] != 0) {
                if (!firstBucket)
                    out += ", ";
                firstBucket = false;
                out += "[" + jsonNumber(bound) + ", "
                    + std::to_string(s.buckets[i]) + "]";
            }
            bound *= 2.0;
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";

    out += "}\n";
    return out;
}

void
MetricRegistry::writeJson(const std::string &path) const
{
    writeTextFile(path, toJson(), "metrics JSON");
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

} // namespace jrs::obs
