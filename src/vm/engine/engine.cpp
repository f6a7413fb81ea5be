#include "vm/engine/engine.h"

#include "gc/gc_controller.h"
#include "gc/live_digest.h"
#include "obs/obs.h"
#include "vm/sync/monitor_cache.h"
#include "vm/sync/thin_lock.h"

namespace jrs {

namespace {

std::unique_ptr<SyncSystem>
makeSync(SyncKind kind, Heap &heap, TraceEmitter &emitter)
{
    switch (kind) {
      case SyncKind::MonitorCache:
        return std::make_unique<MonitorCacheSync>(heap, emitter);
      case SyncKind::ThinLock:
        return std::make_unique<ThinLockSync>(heap, emitter);
      case SyncKind::OneBitLock:
        return std::make_unique<OneBitLockSync>(heap, emitter);
    }
    throw VmError("bad sync kind");
}

/**
 * Push one finished run's headline numbers into the global metric
 * registry. Called once per run and only when observability is on, so
 * the VM's hot paths never see the registry.
 */
void
publishRunMetrics(const RunResult &r, const CodeCache &cache)
{
    obs::MetricRegistry &m = obs::metrics();
    m.counter("vm.runs").add(1);
    m.counter("vm.events.total").add(r.totalEvents);
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        m.counter("vm.events."
                  + std::string(phaseName(static_cast<Phase>(p))))
            .add(r.phaseEvents[p]);
    }
    m.counter("vm.bytecodes_interpreted").add(r.bytecodesInterpreted);
    m.counter("vm.native_insts_retired").add(r.nativeInstsRetired);
    m.counter("vm.dispatches_folded").add(r.dispatchesFolded);
    m.counter("vm.methods_compiled").add(r.methodsCompiled);
    m.counter("vm.calls_inlined").add(r.callsInlined);
    m.counter("vm.calls_devirtualized").add(r.callsDevirtualized);
    m.counter("vm.osr_transitions").add(r.osrTransitions);

    m.counter("vm.heap.bytes_allocated").add(r.memory.heapBytes);
    m.gauge("vm.code_cache.bytes")
        .set(static_cast<double>(r.memory.codeCacheBytes));
    m.gauge("vm.code_cache.methods")
        .set(static_cast<double>(cache.numMethods()));
    m.counter("vm.code_cache.lookups").add(cache.lookups());
    m.counter("vm.code_cache.lookup_misses").add(cache.lookupMisses());
    m.counter("vm.code_cache.evictions").add(r.codeCacheEvictions);
    m.counter("vm.code_cache.bytes_evicted")
        .add(r.codeCacheBytesEvicted);
    m.counter("vm.code_cache.retranslations").add(r.retranslations);
    m.gauge("vm.code_cache.free_bytes")
        .set(static_cast<double>(cache.freeBytes()));
    m.gauge("vm.code_cache.free_extents")
        .set(static_cast<double>(cache.freeExtents()));
    m.gauge("vm.code_cache.fragmentation").set(cache.fragmentation());
    m.counter("vm.code_cache.shared_hits")
        .add(r.sharedTranslationHits);
    m.counter("vm.code_cache.shared_misses")
        .add(r.sharedTranslationMisses);

    const LockStats &ls = r.lockStats;
    m.counter("vm.lock.enters").add(ls.enterOps);
    m.counter("vm.lock.exits").add(ls.exitOps);
    m.counter("vm.lock.blocks").add(ls.blocks);
    m.counter("vm.lock.inflations").add(ls.inflations);
    m.counter("vm.lock.sim_cycles").add(ls.simCycles);
    m.counter("vm.lock.case_unlocked")
        .add(ls.caseCount[static_cast<std::size_t>(
            LockCase::Unlocked)]);
    m.counter("vm.lock.case_recursive")
        .add(ls.caseCount[static_cast<std::size_t>(
            LockCase::Recursive)]);
    m.counter("vm.lock.case_deep_recursive")
        .add(ls.caseCount[static_cast<std::size_t>(
            LockCase::DeepRecursive)]);
    m.counter("vm.lock.case_contended")
        .add(ls.caseCount[static_cast<std::size_t>(
            LockCase::Contended)]);

    m.histogram("vm.run.events")
        .record(static_cast<double>(r.totalEvents));
}

} // namespace

ExecutionEngine::ExecutionEngine(const Program &prog, EngineConfig cfg)
    : prog_(prog), cfg_(std::move(cfg))
{
    if (!cfg_.policy)
        cfg_.policy = std::make_shared<AlwaysCompilePolicy>();

    heap_ = std::make_unique<Heap>(cfg_.heapBytes);
    registry_ = std::make_unique<ClassRegistry>(prog_, *heap_);

    internalSink_.add(&counting_);
    if (cfg_.sink != nullptr)
        internalSink_.add(cfg_.sink);
    emitter_.setSink(&internalSink_);

    sync_ = makeSync(cfg_.syncKind, *heap_, emitter_);
    runtime_ =
        std::make_unique<RuntimeSupport>(*registry_, *heap_, emitter_);
    cache_ = std::make_unique<CodeCache>(cfg_.codeCache);
    cache_->setEvictionHook([this](const NativeMethod &nm) {
        if (cfg_.codeObserver != nullptr)
            cfg_.codeObserver->onEvict(nm, counting_.total());
        rearmBase_[nm.id] = profiles_.of(nm.id).invocations;
        translator_->releaseShared(nm.id);
        // The OSR counter is re-armed alongside the invocation
        // counter: a live interpreter frame of the victim restarts its
        // back-edge count, so a loop-dominated method recovers through
        // OSR after osrBackEdgeThreshold more back edges instead of
        // retranslating on the very next one (or waiting out the full
        // invocation re-earn).
        if (cfg_.osrBackEdgeThreshold != 0) {
            for (const auto &t : threads_) {
                for (Activation &act : t->frames) {
                    auto *f = std::get_if<InterpFrame>(&act);
                    if (f != nullptr && f->method->id == nm.id)
                        f->backEdges = 0;
                }
            }
        }
    });
    if (cfg_.codeObserver != nullptr) {
        cache_->setInstallHook([this](const NativeMethod &nm) {
            cfg_.codeObserver->onInstall(nm, counting_.total());
        });
    }
    cache_->setRetranslateCost([this](MethodId id) {
        auto it = lastTranslateCost_.find(id);
        return it != lastTranslateCost_.end() ? it->second
                                              : std::uint64_t{0};
    });
    translator_ =
        std::make_unique<Translator>(*registry_, *cache_, emitter_);
    translator_->setInlining(cfg_.jitInlining);
    if (cfg_.sharedCodeCache != nullptr) {
        translator_->setSharedCache(
            cfg_.sharedCodeCache, cfg_.sharedProgramKey,
            cfg_.gc.collector != gc::CollectorKind::None
                ? gc::collectorName(cfg_.gc.collector)
                : "");
    }
    ctx_.reset(new VmContext{*registry_, *heap_, *sync_, *runtime_,
                             emitter_, *this});
    interp_ = std::make_unique<Interpreter>(*ctx_);
    interp_->setFolding(cfg_.interpreterFolding);
    exec_ = std::make_unique<NativeExecutor>(*ctx_);

    if (cfg_.gc.collector != gc::CollectorKind::None) {
        gc_ = std::make_unique<gc::GcController>(
            cfg_.gc, *heap_, *registry_, threads_, *sync_, emitter_);
        runtime_->setGcController(gc_.get());
    }

    profiles_ = ProfileTable(prog_.methods.size());
}

ExecutionEngine::~ExecutionEngine() = default;

std::uint64_t
ExecutionEngine::liveHeapHash()
{
    return gc::liveHeapHash(*heap_, *registry_, threads_);
}

std::uint64_t
ExecutionEngine::eventCount() const
{
    return counting_.total();
}

const NativeMethod *
ExecutionEngine::steppingNative() const
{
    if (stepping_ == nullptr || stepping_->frames.empty())
        return nullptr;
    const auto *f = std::get_if<NativeFrame>(&stepping_->frames.back());
    return f != nullptr ? f->nm : nullptr;
}

void
ExecutionEngine::invokeMethod(VmThread &thread, MethodId target,
                              const Value *args, std::uint8_t nargs)
{
    const Method &m = registry_->method(target);
    if (nargs != m.numArgs)
        throw VmError("arity mismatch calling " + m.name);

    MethodProfile &prof = profiles_.of(target);
    ++prof.invocations;

    const NativeMethod *nm = cache_->lookup(target);
    // After eviction the counter policy sees invocations since the
    // eviction point, so the method must re-earn its translation.
    const auto rearm = rearmBase_.find(target);
    const std::uint64_t policyInvocations =
        rearm != rearmBase_.end() ? prof.invocations - rearm->second
                                  : prof.invocations;
    if (nm == nullptr && uncompilable_.count(target) == 0
        && cfg_.policy->shouldCompile(target, policyInvocations)) {
        const std::uint64_t before = counting_.total();
        nm = translator_->translate(target);
        const std::uint64_t delta = counting_.total() - before;
        prof.translateEvents += delta;
        translateEventsThisStep_ += delta;
        if (nm == nullptr) {
            // A deferred translation (shared-cache fallback mode) is
            // retriable, not uncompilable.
            if (!translator_->lastTranslateDeferred())
                uncompilable_.insert(target);
        } else {
            lastTranslateCost_[target] = delta;
            if (rearm != rearmBase_.end())
                ++retranslations_;
        }
    }

    SimAddr sync_obj = 0;
    if (m.isSynchronized) {
        sync_obj = m.isStatic ? registry_->classObject(m.owner)
                              : args[0].asRef();
        if (sync_obj == 0)
            runtime_->throwBuiltin(BuiltinEx::NullPointer);
    }

    if (nm != nullptr) {
        ++prof.nativeInvocations;
        NativeFrame f;
        f.nm = nm;
        f.ip = 0;
        try {
            f.base = thread.pushFrameSpace(nm->numSpills + 8u);
        } catch (const VmError &) {
            runtime_->throwBuiltin(BuiltinEx::StackOverflow);
        }
        f.spills.assign(nm->numSpills, 0);
        f.spillRefs.assign(nm->numSpills, false);
        for (std::uint8_t i = 0; i < nargs; ++i) {
            f.regs[kArgRegBase + i] = args[i].raw();
            f.setRegRef(kArgRegBase + i, args[i].tag() == Tag::Ref);
        }
        f.syncObj = sync_obj;
        f.monitorPending = sync_obj != 0;
        thread.frames.emplace_back(std::move(f));
    } else {
        ++prof.interpInvocations;
        InterpFrame f;
        f.method = &m;
        f.pc = 0;
        try {
            f.base = thread.pushFrameSpace(m.numLocals + m.maxStack);
        } catch (const VmError &) {
            runtime_->throwBuiltin(BuiltinEx::StackOverflow);
        }
        f.locals.assign(m.numLocals, Value());
        for (std::uint8_t i = 0; i < nargs; ++i)
            f.locals[i] = args[i];
        f.stack.reserve(m.maxStack);
        f.syncObj = sync_obj;
        f.monitorPending = sync_obj != 0;
        // Frame setup traffic: locals install.
        for (std::uint8_t i = 0; i < nargs; ++i) {
            emitter_.store(Phase::Runtime,
                           seg::kRuntimeCode + 0x40 + 4u * (i % 8),
                           f.localAddr(i), 4);
        }
        thread.frames.emplace_back(std::move(f));
    }
    thread.noteHighWater();
}

std::uint32_t
ExecutionEngine::spawnThread(MethodId target, Value arg)
{
    const Method &m = registry_->method(target);
    if (!m.isStatic || m.numArgs != 1)
        throw VmError("thread entry must be static(int): " + m.name);
    const std::uint32_t tid =
        static_cast<std::uint32_t>(threads_.size());
    threads_.push_back(std::make_unique<VmThread>(tid));
    invokeMethod(*threads_.back(), target, &arg, 1);
    return tid;
}

bool
ExecutionEngine::threadDone(std::uint32_t tid) const
{
    if (tid >= threads_.size())
        throw VmError("join of unknown thread");
    return threads_[tid]->state == ThreadState::Done;
}

void
ExecutionEngine::unwind(VmThread &thread, SimAddr exception,
                        const char *name)
{
    const ClassId ex_cls = heap_->klassOf(exception);

    // Digest hook: record (exception class, faulting method, faulting
    // bytecode pc) into an order-sensitive hash. Native frames map
    // their instruction index back to the owning bytecode via bc2n so
    // interp and JIT runs of the same program record identical chains.
    if (!thread.frames.empty()) {
        MethodId fault_method = 0;
        std::uint32_t fault_pc = 0;
        const Activation &top = thread.frames.back();
        if (const auto *f = std::get_if<InterpFrame>(&top)) {
            fault_method = f->method->id;
            fault_pc = f->pc;
        } else {
            const auto &nf = std::get<NativeFrame>(top);
            fault_method = nf.nm->id;
            for (std::size_t pc = 0; pc < nf.nm->bc2n.size(); ++pc) {
                const std::int32_t n = nf.nm->bc2n[pc];
                if (n >= 0 && static_cast<std::uint32_t>(n) <= nf.ip)
                    fault_pc = static_cast<std::uint32_t>(pc);
            }
        }
        auto mix = [this](std::uint64_t v) {
            throwChainHash_ ^= v;
            throwChainHash_ *= 1099511628211ull;
        };
        mix(ex_cls);
        mix(fault_method);
        mix(fault_pc);
    }
    ++guestThrows_;

    auto matches = [&](ClassId catch_type) {
        if (catch_type == kNoClass)
            return true;  // catch-all
        if (ex_cls >= kBuiltinExClassBase)
            return false;  // builtins only match catch-all
        return isSubclassOf(prog_, ex_cls, catch_type);
    };

    // The faulting (top) frame's pc points AT the faulting
    // instruction; caller frames have already advanced their pc past
    // the invoke, so their effective pc for range checks is "just
    // inside" the preceding instruction.
    bool top_frame = true;
    while (!thread.frames.empty()) {
        Activation &act = thread.frames.back();
        if (auto *f = std::get_if<InterpFrame>(&act)) {
            for (const ExceptionEntry &h : f->method->handlers) {
                const bool in_range = top_frame
                    ? f->pc >= h.startPc && f->pc < h.endPc
                    : f->pc > h.startPc && f->pc <= h.endPc;
                if (in_range && matches(h.catchType)) {
                    f->stack.clear();
                    f->stack.push_back(Value::makeRef(exception));
                    f->pc = h.handlerPc;
                    return;
                }
            }
            if (f->syncObj != 0 && !f->monitorPending)
                sync_->exit(thread.tid(), f->syncObj);
        } else {
            auto &nf = std::get<NativeFrame>(act);
            for (const NativeHandler &h : nf.nm->handlers) {
                const bool in_range = top_frame
                    ? nf.ip >= h.startIdx && nf.ip < h.endIdx
                    : nf.ip > h.startIdx && nf.ip <= h.endIdx;
                if (in_range && matches(h.catchType)) {
                    nf.ip = h.handlerIdx;
                    nf.regs[kStackRegBase] = exception;
                    nf.setRegRef(kStackRegBase, true);
                    return;
                }
            }
            if (nf.syncObj != 0 && !nf.monitorPending)
                sync_->exit(thread.tid(), nf.syncObj);
        }
        thread.frames.pop_back();
        thread.popFrameSpace();
        top_frame = false;
    }
    // Uncaught: the thread dies.
    thread.state = ThreadState::Done;
    thread.uncaughtName = name != nullptr ? name : "Exception";
}

bool
ExecutionEngine::tryOsr(VmThread &thread)
{
    auto *f = std::get_if<InterpFrame>(&thread.frames.back());
    if (f == nullptr || f->backEdges < cfg_.osrBackEdgeThreshold)
        return false;
    if (f->monitorPending)
        return false;  // entry monitor not yet acquired
    const MethodId id = f->method->id;
    if (uncompilable_.count(id) != 0) {
        f->backEdges = 0;
        return false;
    }

    const NativeMethod *nm = cache_->lookup(id);
    if (nm == nullptr) {
        const std::uint64_t before = counting_.total();
        nm = translator_->translate(id);
        const std::uint64_t delta = counting_.total() - before;
        profiles_.of(id).translateEvents += delta;
        translateEventsThisStep_ += delta;
        if (nm == nullptr) {
            if (!translator_->lastTranslateDeferred())
                uncompilable_.insert(id);
            f->backEdges = 0;
            return false;
        }
        lastTranslateCost_[id] = delta;
        if (rearmBase_.count(id) != 0)
            ++retranslations_;
    }
    if (f->pc >= nm->bc2n.size() || nm->bc2n[f->pc] < 0) {
        f->backEdges = 0;
        return false;
    }

    // Map the live interpreter state onto the compiled method's frame
    // layout: locals and operand-stack positions go to the registers /
    // spill slots the translator assigned them statically.
    const Method &m = *f->method;
    NativeFrame nf;
    nf.nm = nm;
    nf.ip = static_cast<std::uint32_t>(nm->bc2n[f->pc]);
    nf.spills.assign(nm->numSpills, 0);
    nf.spillRefs.assign(nm->numSpills, false);
    const std::size_t spilled_locals =
        m.numLocals > kNumLocalRegs ? m.numLocals - kNumLocalRegs : 0;
    for (std::size_t i = 0; i < f->locals.size(); ++i) {
        const std::uint64_t raw = f->locals[i].raw();
        const bool is_ref = f->locals[i].tag() == Tag::Ref;
        if (i < kNumLocalRegs) {
            nf.regs[kLocalRegBase + i] = raw;
            nf.setRegRef(static_cast<std::uint8_t>(kLocalRegBase + i),
                         is_ref);
        } else {
            nf.spills[i - kNumLocalRegs] = raw;
            nf.spillRefs[i - kNumLocalRegs] = is_ref;
        }
    }
    for (std::size_t j = 0; j < f->stack.size(); ++j) {
        const std::uint64_t raw = f->stack[j].raw();
        const bool is_ref = f->stack[j].tag() == Tag::Ref;
        if (j < kNumStackRegs) {
            nf.regs[kStackRegBase + j] = raw;
            nf.setRegRef(static_cast<std::uint8_t>(kStackRegBase + j),
                         is_ref);
        } else {
            nf.spills[spilled_locals + (j - kNumStackRegs)] = raw;
            nf.spillRefs[spilled_locals + (j - kNumStackRegs)] = is_ref;
        }
    }
    nf.syncObj = f->syncObj;
    nf.monitorPending = false;  // already held by the interp frame

    // Swap the simulated frame space (check before committing).
    const std::uint32_t old_slots = m.numLocals + m.maxStack;
    thread.popFrameSpace();
    try {
        nf.base = thread.pushFrameSpace(nm->numSpills + 8u);
    } catch (const VmError &) {
        // Keep interpreting; restore the original reservation.
        f->base = thread.pushFrameSpace(old_slots);
        f->backEdges = 0;
        return false;
    }
    thread.frames.back() = Activation(std::move(nf));
    thread.noteHighWater();
    interp_->clearFoldState();
    ++osrTransitions_;

    // OSR entry stub: the runtime rewrites the frame (register fills
    // from the interpreter frame's memory image).
    for (std::uint32_t k = 0; k < 6; ++k) {
        emitter_.store(Phase::Runtime,
                       seg::kRuntimeCode + 0x700 + 4u * k,
                       std::get<NativeFrame>(thread.frames.back()).base
                           + 4u * k,
                       4);
    }
    return true;
}

void
ExecutionEngine::deliverReturn(VmThread &thread, const StepResult &r)
{
    if (thread.frames.empty()) {
        thread.state = ThreadState::Done;
        return;
    }
    if (!r.hasValue)
        return;
    Activation &act = thread.frames.back();
    if (auto *f = std::get_if<InterpFrame>(&act)) {
        emitter_.store(Phase::Interpret, seg::kInterpCode + 0x30,
                       f->stackAddr(f->stack.size()), 4);
        f->stack.push_back(r.value);
    } else {
        auto &nf = std::get<NativeFrame>(act);
        nf.regs[kArgRegBase] = r.value.raw();
        nf.setRegRef(kArgRegBase, r.value.tag() == Tag::Ref);
    }
}

bool
ExecutionEngine::stepThread(VmThread &thread)
{
    const std::uint64_t quantum =
        thread.state == ThreadState::Runnable ? cfg_.quantum : 1;
    bool progressed = false;
    stepping_ = &thread;

    for (std::uint64_t i = 0; i < quantum; ++i) {
        if (thread.frames.empty()) {
            thread.state = ThreadState::Done;
            break;
        }
        const bool is_interp =
            std::holds_alternative<InterpFrame>(thread.frames.back());
        MethodId running;
        if (is_interp) {
            running = std::get<InterpFrame>(thread.frames.back())
                          .method->id;
        } else {
            const NativeMethod *nm =
                std::get<NativeFrame>(thread.frames.back()).nm;
            running = nm->id;
            if (cfg_.codeObserver != nullptr && nm != lastNative_) {
                lastNative_ = nm;
                cfg_.codeObserver->onNativeFrame(*nm, counting_.total());
            }
        }

        const std::uint64_t before = counting_.total();
        const std::uint64_t gc_before =
            gc_ != nullptr ? gc_->stats().gcEvents : 0;
        translateEventsThisStep_ = 0;
        StepResult r =
            is_interp ? interp_->step(thread) : exec_->step(thread);

        switch (r.action) {
          case StepAction::Continue:
          case StepAction::Invoked:
            progressed = true;
            thread.state = ThreadState::Runnable;
            break;
          case StepAction::Returned:
            progressed = true;
            thread.state = ThreadState::Runnable;
            if (thread.frames.empty()) {
                thread.state = ThreadState::Done;
                if (r.hasValue && thread.tid() == 0
                    && r.value.tag() == Tag::Int) {
                    mainExitValue_ = r.value.asInt();
                    mainHasExit_ = true;
                }
            } else {
                deliverReturn(thread, r);
            }
            break;
          case StepAction::Blocked:
            if (thread.state == ThreadState::Runnable)
                thread.state = ThreadState::BlockedOnMonitor;
            break;
          case StepAction::Thrown:
            progressed = true;
            unwind(thread, r.thrown, r.thrownName);
            break;
        }

        // Attribute everything the step caused — including return
        // delivery and unwinding, but excluding translation (already
        // charged to the compiled method) and collector work (GC is
        // attributed to no method; it shows up as Phase::Gc) — to the
        // method that ran.
        const std::uint64_t gc_delta =
            (gc_ != nullptr ? gc_->stats().gcEvents : 0) - gc_before;
        const std::uint64_t delta = counting_.total() - before
            - translateEventsThisStep_ - gc_delta;
        MethodProfile &prof = profiles_.of(running);
        if (is_interp)
            prof.interpEvents += delta;
        else
            prof.nativeEvents += delta;

        // On-stack replacement check: hot loops escape the interpreter
        // without waiting for the next invocation.
        if (cfg_.osrBackEdgeThreshold != 0 && is_interp
            && r.action == StepAction::Continue
            && !thread.frames.empty()) {
            (void)tryOsr(thread);
        }

        if (r.action == StepAction::Blocked)
            return progressed;  // yield the slice
        if (thread.state == ThreadState::Done)
            break;
        if (cfg_.maxEvents != 0 && counting_.total() >= cfg_.maxEvents)
            break;
    }
    return progressed;
}

RunResult
ExecutionEngine::run(std::int32_t arg)
{
    if (ran_)
        throw VmError("ExecutionEngine::run called twice");
    ran_ = true;

    obs::ScopedSpan span("vm.run", "vm");
    if (span.active())
        span.arg("entry", registry_->method(prog_.entry).name);

    RunResult result;

    // Main thread.
    threads_.push_back(std::make_unique<VmThread>(0));
    {
        Value a = Value::makeInt(arg);
        invokeMethod(*threads_[0], prog_.entry, &a, 1);
    }

    std::size_t cursor = 0;
    while (true) {
        std::size_t live = 0;
        for (const auto &t : threads_) {
            if (t->state != ThreadState::Done)
                ++live;
        }
        if (live == 0)
            break;
        if (cfg_.maxEvents != 0 && counting_.total() >= cfg_.maxEvents)
            break;

        bool any_progress = false;
        const std::size_t num_threads = threads_.size();
        for (std::size_t k = 0; k < num_threads; ++k) {
            VmThread &t = *threads_[(cursor + k) % num_threads];
            if (t.state == ThreadState::Done)
                continue;
            if (t.state == ThreadState::Joining) {
                if (!threadDone(t.joinTarget))
                    continue;
                t.state = ThreadState::Runnable;
            }
            if (stepThread(t))
                any_progress = true;
        }
        cursor = (cursor + 1) % std::max<std::size_t>(1,
                                                      threads_.size());

        if (!any_progress) {
            // Everyone is blocked: deadlock (or a join cycle).
            throw VmError("deadlock: no runnable thread can progress");
        }
    }

    internalSink_.onFinish();

    // Assemble the result.
    result.completed = threads_[0]->state == ThreadState::Done
        && threads_[0]->uncaughtName == nullptr;
    result.uncaughtException = threads_[0]->uncaughtName;
    result.hasExitValue = mainHasExit_;
    result.exitValue = mainExitValue_;
    result.output = runtime_->output();
    result.totalEvents = counting_.total();
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        result.phaseEvents[p] =
            counting_.inPhase(static_cast<Phase>(p));
    }
    result.bytecodesInterpreted = interp_->bytecodesRetired();
    result.nativeInstsRetired = exec_->instsRetired();
    result.methodsCompiled = translator_->methodsTranslated();
    result.callsInlined = translator_->callsInlined();
    result.dispatchesFolded = interp_->foldedDispatches();
    result.osrTransitions = osrTransitions_;
    result.codeCacheEvictions = cache_->evictions();
    result.codeCacheBytesEvicted = cache_->bytesEvicted();
    result.retranslations = retranslations_;
    result.codeCacheFreeBytes = cache_->freeBytes();
    result.codeCacheFreeExtents = cache_->freeExtents();
    result.sharedTranslationHits = translator_->sharedHits();
    result.sharedTranslationMisses = translator_->sharedMisses();
    result.translateBuildNs = translator_->buildNs();
    result.translateBuildNsSaved = translator_->buildNsSaved();
    result.bytecodeCounts.assign(interp_->opCounts().begin(),
                                 interp_->opCounts().end());
    result.callsDevirtualized = translator_->callsDevirtualized();
    result.threadsSpawned =
        static_cast<std::uint32_t>(threads_.size()) - 1;
    result.guestThrows = guestThrows_;
    result.throwChainHash = throwChainHash_;
    result.profiles = profiles_;
    result.lockStats = sync_->stats();

    result.memory.classDataBytes = registry_->metadataBytes();
    result.memory.heapBytes = heap_->bytesAllocated();
    std::size_t stack_bytes = 0;
    for (const auto &t : threads_)
        stack_bytes += static_cast<std::size_t>(t->stackHighWater());
    result.memory.stackBytes = stack_bytes;
    result.memory.codeCacheBytes = cache_->codeBytes();
    result.memory.translatorBytes = translator_->peakWorkingBytes();

    if (gc_ != nullptr)
        result.gcStats = gc_->stats();

    if (obs::enabled()) {
        publishRunMetrics(result, *cache_);
        if (cfg_.sharedCodeCache != nullptr)
            cfg_.sharedCodeCache->publishMetrics();
        span.arg("events", std::to_string(result.totalEvents));
        span.arg("completed", result.completed ? "true" : "false");
    }
    return result;
}

} // namespace jrs
