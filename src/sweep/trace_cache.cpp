#include "sweep/trace_cache.h"

#include <cstdio>
#include <filesystem>

#include "obs/obs.h"
#include "vm/runtime/vm_error.h"

namespace jrs::sweep {

std::string
ExecMode::id() const
{
    switch (kind) {
      case Kind::Interp:
        return "interp";
      case Kind::Jit:
        return "jit";
      case Kind::Counter:
        return "counter" + std::to_string(counterThreshold);
    }
    return "invalid";
}

std::shared_ptr<CompilationPolicy>
ExecMode::makePolicy() const
{
    switch (kind) {
      case Kind::Interp:
        return std::make_shared<NeverCompilePolicy>();
      case Kind::Jit:
        return std::make_shared<AlwaysCompilePolicy>();
      case Kind::Counter:
        return std::make_shared<CounterPolicy>(counterThreshold);
    }
    throw VmError("invalid ExecMode");
}

std::string
TraceKey::str() const
{
    std::string s = workload + "-a" + std::to_string(arg) + "-"
        + mode.id() + "-" + syncKindName(sync) + "-q"
        + std::to_string(quantum);
    // Non-default components only: pre-GC keys (and their on-disk
    // recordings) must remain byte-identical.
    if (gc.collector != gc::CollectorKind::None)
        s += std::string("-") + gc::collectorName(gc.collector);
    if (heapBytes != kDefaultHeapBytes)
        s += "-h" + std::to_string(heapBytes);
    if (gc.budgetBytes != 0)
        s += "-gb" + std::to_string(gc.budgetBytes);
    if (gc.everyNAllocs != 0)
        s += "-ge" + std::to_string(gc.everyNAllocs);
    if (codeCache.capacityBytes != 0) {
        s += "-cc" + std::to_string(codeCache.capacityBytes) + "-"
            + evictionPolicyName(codeCache.policy);
    }
    if (codeCache.strategy != AllocStrategy::kFirstFit)
        s += std::string("-") + allocStrategyName(codeCache.strategy)
            + "fit";
    if (osrBackEdgeThreshold != 0)
        s += "-osr" + std::to_string(osrBackEdgeThreshold);
    return s + "-v" + std::to_string(kTraceVersion);
}

RunSpec
TraceKey::toRunSpec() const
{
    const WorkloadInfo *w = findWorkload(workload);
    if (w == nullptr)
        throw VmError("TraceKey names unknown workload: " + workload);
    RunSpec spec;
    spec.workload = w;
    spec.arg = arg;
    spec.policy = mode.makePolicy();
    spec.syncKind = sync;
    spec.quantum = quantum;
    spec.gc = gc;
    spec.heapBytes = heapBytes;
    spec.codeCache = codeCache;
    spec.osrBackEdgeThreshold = osrBackEdgeThreshold;
    return spec;
}

TraceKey
traceKey(const std::string &workload, ExecMode mode, std::int32_t arg,
         SyncKind sync)
{
    TraceKey key;
    key.workload = workload;
    key.arg = arg;
    key.mode = mode;
    key.sync = sync;
    return key;
}

TraceCache::TraceCache(std::string dir)
    : dir_(std::move(dir))
{
    if (!dir_.empty())
        std::filesystem::create_directories(dir_);
}

namespace {

/**
 * Sidecar format: "key=value" lines. The key line guards against a
 * foreign file reusing the name; events guards truncation. The two
 * freeb/freex lines carry the recorded run's end-of-run code-cache
 * free-extent accounting (the fragmentation gauge) so disk-loaded
 * streams report the same value as the live recording; they are
 * optional on read, so pre-existing sidecars still load (as zeros).
 */
void
writeMeta(const std::string &path, const std::string &key,
          const RunResult &result)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw VmError("cannot write trace meta: " + path);
    const bool ok =
        std::fprintf(
            f, "key=%s\nexit=%d\nevents=%llu\nfreeb=%llu\nfreex=%llu\n",
            key.c_str(), result.exitValue,
            static_cast<unsigned long long>(result.totalEvents),
            static_cast<unsigned long long>(result.codeCacheFreeBytes),
            static_cast<unsigned long long>(result.codeCacheFreeExtents))
        > 0;
    if (std::fclose(f) != 0 || !ok)
        throw VmError("cannot write trace meta: " + path);
}

/** @return false when the sidecar is missing or does not match. */
bool
readMeta(const std::string &path, const std::string &key,
         RunResult &result)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return false;
    char keyBuf[512] = {};
    int exitValue = 0;
    unsigned long long events = 0;
    unsigned long long freeBytes = 0;
    unsigned long long freeExtents = 0;
    const bool ok =
        std::fscanf(f, "key=%511[^\n]\nexit=%d\nevents=%llu", keyBuf,
                    &exitValue, &events)
        == 3;
    // Optional trailer (recordings made before it simply lack it).
    const bool hasFree = ok
        && std::fscanf(f, "\nfreeb=%llu\nfreex=%llu", &freeBytes,
                       &freeExtents)
            == 2;
    std::fclose(f);
    if (!ok || key != keyBuf)
        return false;
    result = RunResult{};
    result.completed = true;
    result.hasExitValue = true;
    result.exitValue = exitValue;
    result.totalEvents = events;
    if (hasFree) {
        result.codeCacheFreeBytes = freeBytes;
        result.codeCacheFreeExtents = freeExtents;
    }
    return true;
}

/**
 * Method-map sidecar: one "lo hi name" line (hex addresses) per
 * registered range. Optional — recordings made before this sidecar
 * existed simply yield a null RecordedRun::methods on load.
 */
void
writeMethods(const std::string &path, const obs::MethodMap &map)
{
    std::string body;
    map.forEachRange([&](SimAddr lo, SimAddr hi,
                         const std::string &name) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%llx %llx ",
                      static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(hi));
        body += buf;
        body += name;
        body += '\n';
    });
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw VmError("cannot write trace methods: " + path);
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (std::fclose(f) != 0 || !ok)
        throw VmError("cannot write trace methods: " + path);
}

/** @return null when the sidecar is missing or malformed. */
std::shared_ptr<const obs::MethodMap>
readMethods(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return nullptr;
    auto map = std::make_shared<obs::MethodMap>();
    unsigned long long lo = 0;
    unsigned long long hi = 0;
    char name[512] = {};
    bool ok = true;
    int fields;
    while ((fields = std::fscanf(f, "%llx %llx %511[^\n]\n", &lo, &hi,
                                 name))
           == 3) {
        try {
            map->add(lo, hi, name);
        } catch (const std::exception &) {
            ok = false;
            break;
        }
    }
    ok = ok && fields == EOF;
    std::fclose(f);
    return ok ? map : nullptr;
}

} // namespace

RunSpec
TraceCache::runSpecFor(const TraceKey &key) const
{
    RunSpec spec = key.toRunSpec();
    std::lock_guard<std::mutex> lock(mu_);
    spec.sharedCache = shared_;
    return spec;
}

void
TraceCache::countRun(const RunResult &result)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.recordings;
        stats_.translateBuildNs += result.translateBuildNs;
    }
    obs::count("trace_cache.recordings");
}

std::shared_ptr<const RecordedRun>
TraceCache::produce(const TraceKey &key)
{
    const std::string keyStr = key.str();
    if (!dir_.empty()) {
        const std::string base = dir_ + "/" + keyStr + ".jrstrace";
        RunResult meta;
        if (readMeta(base + ".meta", keyStr, meta)
            && std::filesystem::exists(base)) {
            obs::ScopedSpan span("trace.load", "sweep");
            span.arg("key", keyStr);
            std::shared_ptr<TraceBuffer> trace;
            try {
                trace = std::make_shared<TraceBuffer>(
                    TraceBuffer::load(base));
            } catch (const VmError &) {
                // Truncated mid-record or unreadable: re-record below.
            }
            if (trace != nullptr && trace->size() == meta.totalEvents) {
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++stats_.diskLoads;
                }
                obs::count("trace_cache.disk_loads");
                auto run = std::make_shared<RecordedRun>();
                run->result = meta;
                run->trace = std::move(trace);
                run->methods = readMethods(base + ".methods");
                return run;
            }
            // Truncated or stale payload: fall through and re-record.
        }
    }

    obs::ScopedSpan span("trace.record", "sweep");
    span.arg("key", keyStr);
    auto run = std::make_shared<RecordedRun>(
        recordWorkload(runSpecFor(key)));
    countRun(run->result);
    if (!dir_.empty()) {
        const std::string base = dir_ + "/" + keyStr + ".jrstrace";
        run->trace->save(base);
        writeMeta(base + ".meta", keyStr, run->result);
        if (run->methods != nullptr)
            writeMethods(base + ".methods", *run->methods);
    }
    return run;
}

std::shared_ptr<const RecordedRun>
TraceCache::get(const TraceKey &key)
{
    const std::string keyStr = key.str();
    std::promise<std::shared_ptr<const RecordedRun>> promise;
    Entry mine = promise.get_future().share();
    Entry theirs;
    bool producer = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = entries_.try_emplace(keyStr, mine);
        if (inserted) {
            producer = true;
        } else {
            theirs = it->second;
            ++stats_.memoryHits;
        }
    }
    if (!producer)
        obs::count("trace_cache.memory_hits");
    if (!producer)
        return theirs.get();  // blocks until recorded; rethrows poison
    try {
        promise.set_value(produce(key));
    } catch (...) {
        promise.set_exception(std::current_exception());
    }
    return mine.get();
}

RunResult
TraceCache::runLive(const TraceKey &key, TraceSink &sink)
{
    RunSpec spec = runSpecFor(key);
    spec.sink = &sink;
    RunResult result = runWorkload(spec);
    countRun(result);
    return result;
}

void
TraceCache::setSharedCache(std::shared_ptr<SharedCodeCache> shared)
{
    std::lock_guard<std::mutex> lock(mu_);
    shared_ = std::move(shared);
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace jrs::sweep
