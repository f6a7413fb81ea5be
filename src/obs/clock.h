/**
 * @file
 * Shared monotonic-clock helpers.
 *
 * Every host-side measurement in the tree — sweep wall-clock totals,
 * span-tracer timestamps, the bench binaries' serial and replay
 * timings — reads the same steady_clock through these helpers, so
 * elapsed-time math is written exactly once. Simulated time never passes through here; that unit
 * is retired instructions (see arch/).
 */
#ifndef JRS_OBS_CLOCK_H
#define JRS_OBS_CLOCK_H

#include <chrono>
#include <cstdint>

namespace jrs::obs {

/** Monotonic timestamp type used by all host-side timing. */
using SteadyTime = std::chrono::steady_clock::time_point;

/** Current monotonic timestamp. */
inline SteadyTime
steadyNow()
{
    return std::chrono::steady_clock::now();
}

/** Seconds elapsed from @p t0 to @p t1. */
inline double
secondsBetween(SteadyTime t0, SteadyTime t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Seconds elapsed since @p t0. */
inline double
secondsSince(SteadyTime t0)
{
    return secondsBetween(t0, steadyNow());
}

/** Whole microseconds elapsed since @p t0 (span-tracer resolution). */
inline std::uint64_t
microsSince(SteadyTime t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            steadyNow() - t0)
            .count());
}

} // namespace jrs::obs

#endif // JRS_OBS_CLOCK_H
