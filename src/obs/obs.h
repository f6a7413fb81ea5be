/**
 * @file
 * Process-wide observability switchboard.
 *
 * jrs instruments its runtime layers — the VM engine, the JIT
 * translator and the sweep engine — against one
 * global MetricRegistry and one global SpanTracer, gated by a single
 * runtime toggle. The toggle is OFF by default and every
 * instrumentation site checks it first, so an untoggled run pays one
 * relaxed atomic load per *instrumented operation* (a run, a
 * compilation, a sweep point — never per simulated instruction):
 * observability is zero-cost for the simulation itself, and metrics
 * and spans only ever read simulator state, so results are
 * bit-identical whether it is on or off (tests/test_obs.cpp asserts
 * this for a whole sweep).
 *
 * Instrumentation idiom:
 * @code
 *   obs::count("jit.compilations");
 *   obs::ScopedSpan span("jit.translate", "jit");
 *   span.arg("method", m.name);
 * @endcode
 */
#ifndef JRS_OBS_OBS_H
#define JRS_OBS_OBS_H

#include "obs/metrics.h"
#include "obs/spans.h"

namespace jrs::obs {

/** Is observability collection on? (relaxed atomic load). */
bool enabled();

/** Turn collection on/off (off at process start). */
void setEnabled(bool on);

/** The process-wide metric registry. */
MetricRegistry &metrics();

/** The process-wide span tracer. */
SpanTracer &tracer();

/** Bump a named counter when observability is on. */
inline void
count(const char *name, std::uint64_t n = 1)
{
    if (enabled())
        metrics().counter(name).add(n);
}

/** Set a named gauge when observability is on. */
inline void
gaugeSet(const char *name, double v)
{
    if (enabled())
        metrics().gauge(name).set(v);
}

/** Record into a named histogram when observability is on. */
inline void
observe(const char *name, double v)
{
    if (enabled())
        metrics().histogram(name).record(v);
}

/**
 * RAII span against the global tracer. Construction is a no-op while
 * observability is off (the off-state cost is the enabled() check);
 * when on, the span covers construction-to-destruction on the calling
 * thread's lane.
 */
class ScopedSpan {
  public:
    ScopedSpan(const char *name, const char *cat)
    {
        if (!enabled())
            return;
        tracer_ = &tracer();
        span_.name = name;
        span_.cat = cat;
        span_.lane = SpanTracer::currentLane();
        span_.startUs = tracer_->nowUs();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach a string argument (shown in the Perfetto side panel). */
    void arg(const char *key, std::string value)
    {
        if (tracer_ != nullptr)
            span_.args.emplace_back(key, std::move(value));
    }

    /** Replace the span name (e.g. once record-vs-load is known). */
    void rename(std::string name)
    {
        if (tracer_ != nullptr)
            span_.name = std::move(name);
    }

    /** True when this span is actually recording. */
    bool active() const { return tracer_ != nullptr; }

    ~ScopedSpan()
    {
        if (tracer_ == nullptr)
            return;
        span_.durUs = tracer_->nowUs() - span_.startUs;
        tracer_->record(std::move(span_));
    }

  private:
    SpanTracer *tracer_ = nullptr;
    SpanRecord span_;
};

} // namespace jrs::obs

#endif // JRS_OBS_OBS_H
