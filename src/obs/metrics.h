/**
 * @file
 * The metrics registry: named counters, gauges and histograms with
 * cheap hot-path updates and a stable JSON snapshot.
 *
 * Instrumented subsystems (VM engine, JIT translator, sweep engine)
 * register metrics by name and update them through
 * handles; a snapshot renders every metric to the `jrs-metrics-v1`
 * JSON schema (documented in DESIGN.md). Handles returned by
 * counter()/gauge()/histogram() stay valid for the registry's
 * lifetime, so callers can look a metric up once and update it from
 * hot code without re-hashing the name.
 *
 * Thread-safety: counter and gauge updates are relaxed atomics;
 * histogram updates take a per-histogram mutex (they sit on warm, not
 * hot, paths — one record per compilation or sweep point). Metrics
 * never feed back into the simulation, so enabling them cannot change
 * any experimental result.
 */
#ifndef JRS_OBS_METRICS_H
#define JRS_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace jrs::obs {

/** Monotonically increasing event count. */
class Counter {
  public:
    void add(std::uint64_t n = 1) {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-written value (occupancy, queue depth, ...). */
class Gauge {
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }

    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Distribution summary: count/sum/min/max plus power-of-two buckets.
 * Bucket i counts values v with 2^(i-1) < v <= 2^i (bucket 0 takes
 * everything <= 1), which is plenty for the integer-ish quantities we
 * record (bytecode sizes, emitted instructions, point wall-times in
 * microseconds).
 */
class Histogram {
  public:
    /** Number of power-of-two buckets (top bucket is unbounded). */
    static constexpr std::size_t kNumBuckets = 48;

    void record(double v);

    struct Snapshot {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;   ///< meaningless when count == 0
        double max = 0.0;
        std::uint64_t buckets[kNumBuckets] = {};

        double mean() const {
            return count == 0 ? 0.0
                              : sum / static_cast<double>(count);
        }
    };

    Snapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    Snapshot s_;
};

/** Named metric store; see file comment. */
class MetricRegistry {
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Find-or-create; the returned reference is registry-lifetime. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Current value of a counter, 0 when it was never registered. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Current value of a gauge, 0.0 when never registered. */
    double gaugeValue(const std::string &name) const;

    /**
     * Snapshot every metric as `jrs-metrics-v1` JSON. Names are
     * emitted sorted, so two snapshots of the same state are
     * byte-identical.
     */
    std::string toJson() const;

    /** Write toJson() to @p path; throws VmError on I/O failure. */
    void writeJson(const std::string &path) const;

    /** Drop every metric (tests). Outstanding handles dangle. */
    void reset();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace jrs::obs

#endif // JRS_OBS_METRICS_H
