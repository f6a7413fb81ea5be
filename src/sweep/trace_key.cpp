#include "sweep/trace_key.h"

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
    // Non-default components only: pre-GC keys must remain
    // byte-identical.
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
    return s + "-v1";
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

} // namespace jrs::sweep
