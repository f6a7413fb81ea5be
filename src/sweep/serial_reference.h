/**
 * @file
 * The serial reference behind every `--compare-serial`.
 *
 * runSerialReference measures a grid the plain way, sharing no code
 * with SweepEngine::run: for each distinct TraceKey, in grid order, it
 * builds the key's point sinks, fans them out through one MultiSink,
 * makes one live runWorkload(key.toRunSpec(), attach) on a method map
 * that follows the run, and extracts each point. No worker pool, no
 * guarded fan-out, no group observer, private translation.
 * compareResults then holds a sweep to it point by point: ok flag,
 * events, and every metric's name and value bit for bit. The bench
 * driver (bench/bench_util.h sweepMain) and `jrs_sweep` both check
 * through compareSerial.
 *
 * The reference isolates only sink factories and extractors: a sink
 * that throws mid-run aborts its key's run and fails every point of
 * the key, where the engine fails that one point. Such a sweep already
 * exits 1 on its failed point; the comparison reports the siblings too.
 */
#ifndef JRS_SWEEP_SERIAL_REFERENCE_H
#define JRS_SWEEP_SERIAL_REFERENCE_H

#include <ostream>
#include <string>
#include <vector>

#include "sweep/sweep.h"

namespace jrs::sweep {

/**
 * Measure every point of @p grid on the calling thread (see file
 * comment). The result has the grid's order and labels, jobs = 1,
 * traces.recordings = VM runs, and zero per-point seconds.
 */
SweepResult runSerialReference(const std::vector<SweepPoint> &grid);

/**
 * One "label: why" line per point of @p swept that differs from
 * @p reference in label, ok flag, events, or any metric's name or
 * value bits; empty when the two agree everywhere.
 */
std::vector<std::string> compareResults(const SweepResult &swept,
                                        const SweepResult &reference);

/**
 * `--compare-serial`: run the serial reference of @p grid and compare
 * @p swept with it. Prints a "compare-serial: ..." summary to @p out
 * and the first ten mismatches to @p err; true when bit-identical.
 */
bool compareSerial(const std::vector<SweepPoint> &grid,
                   const SweepResult &swept, std::ostream &out,
                   std::ostream &err);

} // namespace jrs::sweep

#endif // JRS_SWEEP_SERIAL_REFERENCE_H
