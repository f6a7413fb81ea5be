#include "harness/experiment.h"

namespace jrs {

namespace {

/** The engine configuration @p spec asks for, feeding @p sink. */
EngineConfig
engineConfig(const RunSpec &spec, TraceSink *sink)
{
    EngineConfig cfg;
    cfg.policy = spec.policy ? spec.policy
                             : std::make_shared<AlwaysCompilePolicy>();
    cfg.syncKind = spec.syncKind;
    cfg.sink = sink;
    cfg.quantum = spec.quantum;
    cfg.gc = spec.gc;
    cfg.heapBytes = spec.heapBytes;
    cfg.codeCache = spec.codeCache;
    cfg.osrBackEdgeThreshold = spec.osrBackEdgeThreshold;
    cfg.sharedCodeCache = spec.sharedCache;
    cfg.sharedProgramKey = spec.workload->name;
    return cfg;
}

/**
 * Build @p spec's program, run it on an engine feeding @p sink (and
 * what @p attach returns, on a followed method map), and hand the
 * finished engine to @p after (while it is still alive) so callers
 * can capture engine state. Throws VmError when the run does not
 * complete cleanly.
 */
template <class AfterFn>
RunResult
runEngine(const RunSpec &spec, TraceSink *sink, AfterFn &&after,
          const AttachFn &attach = {})
{
    if (spec.workload == nullptr)
        throw VmError("RunSpec without workload");
    const Program prog = spec.workload->build();
    EngineConfig cfg = engineConfig(spec, sink);
    MultiSink both;
    std::shared_ptr<obs::MethodMap> map;  // outlives the engine
    if (attach) {
        map = std::make_shared<obs::MethodMap>(
            obs::MethodMap::follow(prog));
        cfg.codeObserver = map.get();
        if (TraceSink *attached = attach(map)) {
            if (sink != nullptr) {
                both.add(sink);
                both.add(attached);
                cfg.sink = &both;
            } else {
                cfg.sink = attached;
            }
        }
    }
    ExecutionEngine engine(prog, cfg);
    const std::int32_t arg =
        spec.arg != 0 ? spec.arg : spec.workload->smallArg;
    RunResult res = engine.run(arg);
    if (!res.completed) {
        throw VmError(std::string(spec.workload->name)
                      + " did not complete: "
                      + (res.uncaughtException != nullptr
                             ? res.uncaughtException
                             : "unknown"));
    }
    after(engine);
    return res;
}

} // namespace

RunResult
runWorkload(const RunSpec &spec, const AttachFn &attach)
{
    return runEngine(spec, spec.sink, [](ExecutionEngine &) {}, attach);
}

RecordedRun
recordWorkload(const RunSpec &spec)
{
    auto buffer = std::make_shared<TraceBuffer>();
    MultiSink fanout;
    fanout.add(buffer.get());
    if (spec.sink != nullptr)
        fanout.add(spec.sink);

    RecordedRun out;
    out.result = runEngine(spec, &fanout, [&](ExecutionEngine &engine) {
        // Captured before teardown: registry + code cache ranges.
        out.methods = std::make_shared<obs::MethodMap>(
            obs::MethodMap::forRun(engine.registry(),
                                   engine.codeCache()));
    });
    out.trace = std::move(buffer);
    return out;
}

ModePair
runBothModes(const WorkloadInfo &w, std::int32_t arg,
             TraceSink *interp_sink, TraceSink *jit_sink)
{
    ModePair out;
    {
        RunSpec s;
        s.workload = &w;
        s.arg = arg;
        s.policy = std::make_shared<NeverCompilePolicy>();
        s.sink = interp_sink;
        out.interp = runWorkload(s);
    }
    {
        RunSpec s;
        s.workload = &w;
        s.arg = arg;
        s.policy = std::make_shared<AlwaysCompilePolicy>();
        s.sink = jit_sink;
        out.jit = runWorkload(s);
    }
    if (out.interp.exitValue != out.jit.exitValue) {
        throw VmError(std::string(w.name)
                      + ": interp/JIT checksum divergence");
    }
    return out;
}

OracleOutcome
runOracleExperiment(const WorkloadInfo &w, std::int32_t arg,
                    TraceSink *oracle_sink)
{
    OracleOutcome out;
    {
        RunSpec s;
        s.workload = &w;
        s.arg = arg;
        s.policy = std::make_shared<NeverCompilePolicy>();
        out.interpRun = runWorkload(s);
    }
    {
        RunSpec s;
        s.workload = &w;
        s.arg = arg;
        s.policy = std::make_shared<AlwaysCompilePolicy>();
        out.jitRun = runWorkload(s);
    }
    out.decisions = computeOracleDecisions(out.interpRun.profiles,
                                           out.jitRun.profiles);
    auto oracle = std::make_shared<OraclePolicy>(out.decisions);
    out.methodsCompiledByOracle = oracle->numCompiled();
    {
        RunSpec s;
        s.workload = &w;
        s.arg = arg;
        s.policy = oracle;
        s.sink = oracle_sink;
        out.oracleRun = runWorkload(s);
    }
    if (out.oracleRun.exitValue != out.jitRun.exitValue)
        throw VmError(std::string(w.name) + ": oracle run diverged");
    return out;
}

} // namespace jrs
