/**
 * @file
 * Shared command-line plumbing for the observability output flags.
 *
 * Every tool that can emit observability artifacts spells the same
 * three flags the same way:
 *
 *   --metrics-json FILE   jrs-metrics-v1 registry snapshot
 *   --trace-json FILE     Chrome trace-event JSON (open in Perfetto)
 *   --perf-json FILE      jrs-perf-report-v1 attribution report
 *   --cct-json FILE       jrs-cct-v1 calling-context tree
 *   --flame FILE          folded stacks (flamegraph.pl / speedscope)
 *   --sample-json FILE    jrs-sample-v1 sampled profile
 *   --sample-period N     mean cycles between samples (default 4096)
 *   --sample-seed N       PRNG seed for the jittered sample gaps
 *
 * ObsCli centralizes the parse / enable / write-on-exit steps so the
 * flag set stays consistent across jrs_sweep, jrs_profile, jrs_perf
 * and the sweep-engine bench ports. Inside the argv loop:
 *
 *   if (cli.tryParse(a, next))
 *       continue;
 *
 * then cli.setup() before running, and cli.finish(std::cout) (plus
 * cli.writeReports(...) when the tool filled an ObsReports) on every
 * exit path after the run started. cli.observers(map) builds the
 * profilers the flags selected; attach them all to one PipelineSim
 * and a single run feeds every report.
 *
 * Each profiler's runs collect in one obs::ReportSet (obs/report.h)
 * named by its schema; ObsCli::write puts a set in the files its flags
 * named. Every file goes through obs::writeTextFile, so a write that
 * fails throws VmError naming the path; the tools catch it, print
 * "<tool>: <message>" and exit 1.
 */
#ifndef JRS_OBS_CLI_H
#define JRS_OBS_CLI_H

#include <cstdlib>
#include <iostream>
#include <memory>
#include <ostream>
#include <string>

#include "gc/config.h"
#include "obs/obs.h"
#include "obs/perf.h"
#include "obs/report.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "vm/jit/code_cache.h"
#include "vm/runtime/heap.h"

namespace jrs::obs {

/** One report set per profiler; sweeps fill them group by group. */
struct ObsReports {
    ReportSet perf{"jrs-perf-report-v1"};
    ReportSet cct{"jrs-cct-v1"};
    ReportSet sample{"jrs-sample-v1"};
};

/**
 * The profilers one replay feeds (null = not requested). Attach them
 * to one PipelineSim, replay once, then snapshot them with addTo().
 */
struct Observers {
    std::unique_ptr<PerfAttribution> perf;
    std::unique_ptr<prof::CctBuilder> cct;
    std::unique_ptr<prof::SamplingProfiler> sampler;

    /** Attach every present profiler to @p pipe, in member order. */
    void attachTo(PipelineSim &pipe) const {
        if (perf != nullptr)
            pipe.observe(*perf);
        if (cct != nullptr)
            pipe.observe(*cct);
        if (sampler != nullptr)
            pipe.observe(*sampler);
    }

    /** Snapshot every present profiler into @p r under @p label. */
    void addTo(ObsReports &r, const std::string &label) const {
        if (perf != nullptr)
            r.perf.add(label, *perf);
        if (cct != nullptr)
            r.cct.add(label, *cct);
        if (sampler != nullptr)
            r.sample.add(label, *sampler);
    }

    /**
     * Conservation against the pipeline they rode: the perf totals'
     * cycles, the CCT's events and cycles (both its totals and the
     * sums over its nodes) and the sampler's cycle clock must each
     * equal @p pipe's. Prints every mismatch to @p err; true when all
     * hold.
     */
    bool conserves(const PipelineSim &pipe, std::ostream &err) const {
        bool ok = true;
        const auto expect = [&](const char *what, std::uint64_t got,
                                std::uint64_t want, const char *unit) {
            if (got == want)
                return;
            err << "conservation mismatch: " << what << " = " << got
                << ", pipeline reports " << want << ' ' << unit << '\n';
            ok = false;
        };
        const std::uint64_t cycles = pipe.cycles();
        const std::uint64_t events = pipe.instructions();
        if (perf != nullptr)
            expect("perf cycles", perf->totals().cycles(), cycles,
                   "cycles");
        if (cct != nullptr) {
            std::uint64_t nodeCycles = 0;
            std::uint64_t nodeEvents = 0;
            for (const prof::CctNode &n : cct->nodes()) {
                nodeCycles += n.cycles();
                nodeEvents += n.events;
            }
            expect("cct events", cct->totalEvents(), events, "events");
            expect("cct cycles", cct->totalCycles(), cycles, "cycles");
            expect("sum(cct node events)", nodeEvents, events, "events");
            expect("sum(cct node cycles)", nodeCycles, cycles, "cycles");
        }
        if (sampler != nullptr)
            expect("sampler clock", sampler->clockTotal(), cycles,
                   "cycles");
        return ok;
    }
};

/** See file comment. */
struct ObsCli {
    std::string metricsJson;  ///< --metrics-json output path
    std::string traceJson;    ///< --trace-json output path
    std::string perfJson;     ///< --perf-json output path
    std::string cctJson;      ///< --cct-json output path
    std::string flame;        ///< --flame output path
    std::string sampleJson;   ///< --sample-json output path
    std::uint64_t samplePeriod = 0;  ///< --sample-period (0 = default)
    std::uint64_t sampleSeed = 1;    ///< --sample-seed

    /** Usage-string fragment for the flags handled here. */
    static const char *usageText() {
        return " [--metrics-json FILE] [--trace-json FILE]"
               " [--perf-json FILE] [--cct-json FILE] [--flame FILE]"
               " [--sample-json FILE] [--sample-period N]"
               " [--sample-seed N]";
    }

    /** Parse a decimal count; exits 2 on anything else. */
    static std::uint64_t parseCount(const std::string &v,
                                    const char *what) {
        char *end = nullptr;
        const unsigned long long n =
            std::strtoull(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0') {
            std::cerr << "error: " << what
                      << " expects a decimal count, got '" << v
                      << "'\n";
            std::exit(2);
        }
        return n;
    }

    /**
     * Consume @p a when it is one of the flags above. @p next must
     * yield the flag's value, advancing the caller's argv cursor (and
     * erroring out itself when the value is missing).
     */
    template <class NextFn>
    bool tryParse(const std::string &a, NextFn &&next) {
        if (a == "--metrics-json") {
            metricsJson = next();
            return true;
        }
        if (a == "--trace-json") {
            traceJson = next();
            return true;
        }
        if (a == "--perf-json") {
            perfJson = next();
            return true;
        }
        if (a == "--cct-json") {
            cctJson = next();
            return true;
        }
        if (a == "--flame") {
            flame = next();
            return true;
        }
        if (a == "--sample-json") {
            sampleJson = next();
            return true;
        }
        if (a == "--sample-period") {
            samplePeriod = parseCount(next(), "--sample-period");
            return true;
        }
        if (a == "--sample-seed") {
            sampleSeed = parseCount(next(), "--sample-seed");
            return true;
        }
        return false;
    }

    /** True when the tool should collect an attribution report. */
    bool perfRequested() const { return !perfJson.empty(); }

    /** True when the tool should build calling-context trees. */
    bool cctRequested() const {
        return !cctJson.empty() || !flame.empty();
    }

    /** True when the tool should run a sampled profile. */
    bool sampleRequested() const {
        return !sampleJson.empty() || samplePeriod != 0;
    }

    /**
     * The sampling knobs the flags selected (cycle clock; a period of
     * 0 falls back to prof::kDefaultSamplePeriod so `--sample-json`
     * alone works).
     */
    prof::SampleOptions sampleOptions() const {
        prof::SampleOptions opt;
        opt.period = samplePeriod == 0 ? prof::kDefaultSamplePeriod
                                       : samplePeriod;
        opt.seed = sampleSeed;
        opt.cycleClock = true;
        return opt;
    }

    /**
     * The profilers the flags selected, reading @p map (which must
     * outlive them); @p popt configures the perf pass.
     */
    Observers observers(const MethodMap &map,
                        PerfOptions popt = {}) const {
        Observers o;
        if (perfRequested())
            o.perf = std::make_unique<PerfAttribution>(map, popt);
        if (cctRequested())
            o.cct = std::make_unique<prof::CctBuilder>(map);
        if (sampleRequested())
            o.sampler = std::make_unique<prof::SamplingProfiler>(
                map, sampleOptions());
        return o;
    }

    /**
     * Enable jrs::obs when registry or tracer output was requested.
     * (--perf-json alone does not need the global toggle: attribution
     * sinks collect unconditionally once attached.)
     */
    void setup() const {
        if (!metricsJson.empty() || !traceJson.empty())
            setEnabled(true);
    }

    /**
     * Write the registry/tracer files that were requested. Call on
     * every exit path after the run, so a partial run still leaves
     * its artifacts behind for diagnosis.
     */
    void finish(std::ostream &out) const {
        if (!metricsJson.empty()) {
            metrics().writeJson(metricsJson);
            out << "wrote " << metricsJson << '\n';
        }
        if (!traceJson.empty()) {
            tracer().writeJson(traceJson);
            out << "wrote " << traceJson << '\n';
        }
    }

    /**
     * Write @p set's document to @p json and its folded stacks to
     * @p folded, skipping an empty path and announcing each file on
     * @p out. Throws VmError when a write fails.
     */
    static void write(const ReportSet &set, const std::string &json,
                      std::ostream &out,
                      const std::string &folded = {}) {
        if (!json.empty()) {
            set.writeJson(json);
            out << "wrote " << json << '\n';
        }
        if (!folded.empty()) {
            set.writeFolded(folded);
            out << "wrote " << folded << '\n';
        }
    }

    /** Every set of @p r to the paths requested: perf, CCT
     *  (--cct-json, then --flame), sample. */
    void writeReports(const ObsReports &r, std::ostream &out) const {
        write(r.perf, perfJson, out);
        write(r.cct, cctJson, out, flame);
        write(r.sample, sampleJson, out);
    }
};

/**
 * Shared command-line plumbing for the collector flags, in the same
 * style as ObsCli:
 *
 *   --collector NAME   nogc (default) | marksweep | copying
 *   --heap-bytes N     heap arena capacity (accepts k/m/g suffix)
 *   --gc-budget N      collect after N bytes allocated since last GC
 *   --gc-every N       collect every N allocations (stress knob)
 *
 * Unknown collector names and malformed sizes are command-line
 * errors: the helper prints a message and exits 2 (never throws), so
 * scripts can distinguish usage errors from run failures.
 */
struct GcCli {
    gc::GcOptions gc;                          ///< --collector/--gc-*
    std::size_t heapBytes = kDefaultHeapBytes; ///< --heap-bytes

    /** Usage-string fragment for the flags handled here. */
    static const char *usageText() {
        return " [--collector nogc|marksweep|copying]"
               " [--heap-bytes N] [--gc-budget N] [--gc-every N]";
    }

    /** True when any collector was selected. */
    bool enabled() const {
        return gc.collector != gc::CollectorKind::None;
    }

    /** Apply the parsed flags to an engine configuration. */
    template <class Config>
    void apply(Config &cfg) const {
        cfg.gc = gc;
        cfg.heapBytes = heapBytes;
    }

    /**
     * Parse "N", "Nk", "Nm" or "Ng" (binary multiples); exits 2 on
     * anything else.
     */
    static std::size_t parseSize(const std::string &v,
                                 const char *what) {
        char *end = nullptr;
        const unsigned long long n =
            std::strtoull(v.c_str(), &end, 10);
        std::size_t shift = 0;
        if (end != v.c_str() && *end != '\0') {
            switch (*end) {
              case 'k': case 'K': shift = 10; ++end; break;
              case 'm': case 'M': shift = 20; ++end; break;
              case 'g': case 'G': shift = 30; ++end; break;
              default: break;
            }
        }
        if (end == v.c_str() || *end != '\0') {
            std::cerr << "error: " << what
                      << " expects a byte count (optionally with a"
                         " k/m/g suffix), got '" << v << "'\n";
            std::exit(2);
        }
        return static_cast<std::size_t>(n) << shift;
    }

    /**
     * Consume @p a when it is one of the flags above; same contract
     * as ObsCli::tryParse.
     */
    template <class NextFn>
    bool tryParse(const std::string &a, NextFn &&next) {
        if (a == "--collector") {
            const std::string v = next();
            if (!gc::parseCollector(v, &gc.collector)) {
                std::cerr << "error: unknown --collector '" << v
                          << "' (expect nogc, marksweep or "
                             "copying)\n";
                std::exit(2);
            }
            return true;
        }
        if (a == "--heap-bytes") {
            heapBytes = parseSize(next(), "--heap-bytes");
            return true;
        }
        if (a == "--gc-budget") {
            gc.budgetBytes = parseSize(next(), "--gc-budget");
            return true;
        }
        if (a == "--gc-every") {
            gc.everyNAllocs = static_cast<std::uint64_t>(
                parseSize(next(), "--gc-every"));
            return true;
        }
        return false;
    }
};

/**
 * Shared command-line plumbing for the managed code cache, in the
 * same style as GcCli:
 *
 *   --code-cache-bytes N     capacity (k/m/g suffix; 0 = unlimited)
 *   --code-cache-policy P    fifo (default) | lru | cost | costpb
 *   --code-cache-alloc S     first (default) | best extent placement
 *   --osr-back-edges N       OSR back-edge threshold (0 = off)
 *   --shared-code-cache      process-wide shared translation cache
 *
 * Unknown policy/strategy names and malformed sizes print a message
 * and exit 2 (never throw), matching the GcCli error contract.
 */
struct CodeCacheCli {
    CodeCacheConfig codeCache;  ///< --code-cache-bytes/-policy/-alloc
    std::uint64_t osrBackEdgeThreshold = 0;  ///< --osr-back-edges
    bool sharedCodeCache = false;            ///< --shared-code-cache

    /** Usage-string fragment for the flags handled here. */
    static const char *usageText() {
        return " [--code-cache-bytes N]"
               " [--code-cache-policy fifo|lru|cost|costpb]"
               " [--code-cache-alloc first|best]"
               " [--osr-back-edges N] [--shared-code-cache]";
    }

    /** True when a bound was set (the policy alone changes nothing). */
    bool bounded() const { return codeCache.capacityBytes != 0; }

    /** Apply the parsed flags to an engine configuration. */
    template <class Config>
    void apply(Config &cfg) const {
        cfg.codeCache = codeCache;
        cfg.osrBackEdgeThreshold = osrBackEdgeThreshold;
    }

    /**
     * Consume @p a when it is one of the flags above; same contract
     * as ObsCli::tryParse.
     */
    template <class NextFn>
    bool tryParse(const std::string &a, NextFn &&next) {
        if (a == "--code-cache-bytes") {
            codeCache.capacityBytes =
                GcCli::parseSize(next(), "--code-cache-bytes");
            return true;
        }
        if (a == "--code-cache-policy") {
            const std::string v = next();
            if (!parseEvictionPolicy(v, &codeCache.policy)) {
                std::cerr << "error: unknown --code-cache-policy '"
                          << v
                          << "' (expect fifo, lru, cost or costpb)\n";
                std::exit(2);
            }
            return true;
        }
        if (a == "--code-cache-alloc") {
            const std::string v = next();
            if (!parseAllocStrategy(v, &codeCache.strategy)) {
                std::cerr << "error: unknown --code-cache-alloc '"
                          << v << "' (expect first or best)\n";
                std::exit(2);
            }
            return true;
        }
        if (a == "--osr-back-edges") {
            osrBackEdgeThreshold = static_cast<std::uint64_t>(
                GcCli::parseSize(next(), "--osr-back-edges"));
            return true;
        }
        if (a == "--shared-code-cache") {
            sharedCodeCache = true;
            return true;
        }
        return false;
    }
};

} // namespace jrs::obs

#endif // JRS_OBS_CLI_H
