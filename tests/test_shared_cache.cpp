/**
 * @file
 * jrs shared cross-worker translation cache test suite (ctest label
 * "jit"; rides the TSan and UBSan CI jobs).
 *
 * Pins the SharedCodeCache contracts:
 *  - single-flight: N threads racing on one key perform exactly one
 *    build per key per generation (buildsFor is the witness);
 *  - reference counting: one ref per acquire, zero-ref entries stay
 *    resident for future sharers, bounded caches retire only zero-ref
 *    entries (FIFO), over-capacity transients die at last release;
 *  - a failed build poisons nothing: the in-flight entry is erased and
 *    the next requester restarts the single-flight;
 *  - fallback mode (waitForInflight=false) returns "deferred" instead
 *    of blocking behind another worker's build;
 *  - compatibility-key isolation: program / inlining / barrier
 *    differences never share an artifact;
 *  - engine integration: shared-cache runs are bit-identical to
 *    private runs (stream, events, exit value), repeat runs are pure
 *    hits (misses == 0), and a multithreaded stress run is clean under
 *    TSan with consistent aggregate accounting.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "obs/obs.h"
#include "sweep/grids.h"
#include "sweep/sweep.h"
#include "vm/jit/shared_cache.h"
#include "vm/runtime/vm_error.h"
#include "workloads/workload.h"

namespace jrs {
namespace {

// ---------------------------------------------------------------------
// Unit-level helpers
// ---------------------------------------------------------------------

/** Synthetic artifact of @p insts instructions (8 sim bytes each). */
std::shared_ptr<const TranslationArtifact>
makeArtifact(std::size_t insts, std::uint64_t buildNs = 1000)
{
    auto a = std::make_shared<TranslationArtifact>();
    a->code.resize(insts);
    a->buildNs = buildNs;
    return a;
}

TranslationKey
keyFor(MethodId method, bool inlining = false,
       const std::string &program = "prog",
       const std::string &barriers = "")
{
    TranslationKey k;
    k.program = program;
    k.method = method;
    k.inlining = inlining;
    k.barriers = barriers;
    return k;
}

/** Order-sensitive FNV-1a digest over every TraceEvent field. */
class DigestSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override {
        put(ev.pc);
        put(isMemory(ev.kind) ? ev.mem : 0);
        put(isControl(ev.kind) ? ev.target : 0);
        put(static_cast<std::uint64_t>(ev.kind));
        put(static_cast<std::uint64_t>(ev.phase));
        put(ev.taken ? 1 : 0);
        put(ev.memSize);
        put(ev.rd);
        put(ev.rs1);
        put(ev.rs2);
    }
    std::uint64_t digest() const { return h_; }

  private:
    void put(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }
    std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t
digestOf(const RecordedRun &run)
{
    DigestSink sink;
    run.trace->replay(sink);
    return sink.digest();
}

// ---------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------

TEST(SharedCacheSingleFlight, NThreadsOneBuildPerKey)
{
    SharedCodeCache cache;
    const TranslationKey k = keyFor(7);
    std::atomic<int> builds{0};
    constexpr int kThreads = 8;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            auto artifact = cache.acquire(k, [&] {
                ++builds;
                // Widen the in-flight window so contenders really
                // arrive mid-build.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                return makeArtifact(8);
            });
            ASSERT_NE(artifact, nullptr);
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.buildsFor(k), 1u);
    const SharedCacheStats s = cache.stats();
    EXPECT_EQ(s.lookups, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.sharedHits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(s.installs, 1u);
    EXPECT_EQ(cache.refsOn(k), static_cast<std::size_t>(kThreads));
}

TEST(SharedCacheSingleFlight, FailedBuildErasesAndRetries)
{
    SharedCodeCache cache;
    const TranslationKey k = keyFor(1);
    EXPECT_THROW(cache.acquire(
                     k,
                     []() -> std::shared_ptr<const TranslationArtifact> {
                         throw VmError("translator exploded");
                     }),
                 VmError);
    EXPECT_EQ(cache.buildsFor(k), 0u);
    EXPECT_EQ(cache.refsOn(k), 0u);

    // The key is not poisoned: the next requester builds normally.
    bool hit = true;
    auto artifact = cache.acquire(k, [] { return makeArtifact(8); },
                                  &hit);
    ASSERT_NE(artifact, nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.buildsFor(k), 1u);
    const SharedCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 2u); // the failed attempt still counted
    EXPECT_EQ(s.installs, 1u);
}

TEST(SharedCacheSingleFlight, FallbackModeDefersBehindInflightBuild)
{
    SharedCacheConfig cfg;
    cfg.waitForInflight = false;
    SharedCodeCache cache(cfg);
    const TranslationKey k = keyFor(3);

    std::promise<void> entered, unblock;
    std::thread builder([&] {
        cache.acquire(k, [&] {
            entered.set_value();
            unblock.get_future().wait();
            return makeArtifact(8);
        });
    });
    entered.get_future().wait();

    // The build is in flight: fallback mode returns deferred instead
    // of blocking.
    bool hit = true;
    EXPECT_EQ(cache.acquire(k, [] { return makeArtifact(8); }, &hit),
              nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.stats().deferred, 1u);
    EXPECT_EQ(cache.stats().contended, 1u);

    unblock.set_value();
    builder.join();

    // Once published, the retry is an ordinary shared hit.
    ASSERT_NE(cache.acquire(k, [] { return makeArtifact(8); }, &hit),
              nullptr);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.buildsFor(k), 1u);
}

// ---------------------------------------------------------------------
// Reference counting and bounded eviction
// ---------------------------------------------------------------------

TEST(SharedCacheRefs, ZeroRefEntriesStayResident)
{
    SharedCodeCache cache;
    const TranslationKey k = keyFor(5);
    auto build = [] { return makeArtifact(8, 500); };

    cache.acquire(k, build);
    cache.acquire(k, build);
    EXPECT_EQ(cache.refsOn(k), 2u);
    cache.release(k);
    EXPECT_EQ(cache.refsOn(k), 1u);
    cache.release(k);
    EXPECT_EQ(cache.refsOn(k), 0u);
    cache.release(k); // over-release is a no-op
    EXPECT_EQ(cache.refsOn(k), 0u);

    // The artifact is still cached: a later worker hits without a
    // rebuild and the saved ns are credited.
    bool hit = false;
    ASSERT_NE(cache.acquire(k, build, &hit), nullptr);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.buildsFor(k), 1u);
    EXPECT_EQ(cache.stats().buildNsSaved, 2u * 500u);
    EXPECT_EQ(cache.stats().liveEntries, 1u);
}

TEST(SharedCacheRefs, BoundedEvictsOnlyZeroRefFifo)
{
    SharedCacheConfig cfg;
    cfg.capacityBytes = 128; // room for two 64-byte artifacts
    SharedCodeCache cache(cfg);
    const TranslationKey a = keyFor(1);
    const TranslationKey b = keyFor(2);
    const TranslationKey c = keyFor(3);
    auto build = [] { return makeArtifact(8); };

    cache.acquire(a, build); // held: ref 1
    cache.acquire(b, build);
    cache.release(b); // idle: ref 0, still resident
    EXPECT_EQ(cache.stats().liveBytes, 128u);

    // c needs space: the idle FIFO victim is b; a is pinned by its
    // reference and must survive.
    cache.acquire(c, build);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().bytesEvicted, 64u);

    bool hit = false;
    ASSERT_NE(cache.acquire(a, build, &hit), nullptr);
    EXPECT_TRUE(hit) << "pinned entry must not be evicted";

    // b was retired: re-acquiring it is a new generation.
    cache.release(c); // make room for the rebuild
    hit = true;
    ASSERT_NE(cache.acquire(b, build, &hit), nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.buildsFor(b), 2u);
}

TEST(SharedCacheRefs, OverCapacityTransientDiesAtLastRelease)
{
    SharedCacheConfig cfg;
    cfg.capacityBytes = 64;
    SharedCodeCache cache(cfg);
    const TranslationKey k = keyFor(9);
    auto big = [] { return makeArtifact(32); }; // 256B > capacity

    // The artifact is served anyway — the current holders share it —
    // but it is never byte-accounted.
    ASSERT_NE(cache.acquire(k, big), nullptr);
    EXPECT_EQ(cache.stats().liveEntries, 1u);
    EXPECT_EQ(cache.stats().liveBytes, 0u);

    // Dropping the last reference retires the transient immediately.
    cache.release(k);
    EXPECT_EQ(cache.stats().liveEntries, 0u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    bool hit = true;
    ASSERT_NE(cache.acquire(k, big, &hit), nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.buildsFor(k), 2u);
}

// ---------------------------------------------------------------------
// Compatibility key
// ---------------------------------------------------------------------

TEST(SharedCacheKey, ConfigDifferencesNeverShare)
{
    SharedCodeCache cache;
    std::atomic<int> builds{0};
    auto build = [&] {
        ++builds;
        return makeArtifact(8);
    };

    // Same method id under four incompatible configurations: every
    // one builds its own artifact.
    cache.acquire(keyFor(1, false, "compress", ""), build);
    cache.acquire(keyFor(1, true, "compress", ""), build);
    cache.acquire(keyFor(1, false, "javac", ""), build);
    cache.acquire(keyFor(1, false, "compress", "marksweep"), build);
    EXPECT_EQ(builds.load(), 4);
    EXPECT_EQ(cache.stats().sharedHits, 0u);

    // ...and the exact same key shares.
    bool hit = false;
    cache.acquire(keyFor(1, false, "compress", ""), build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(builds.load(), 4);

    EXPECT_EQ(keyFor(1, true, "compress", "marksweep").str(),
              "compress/#1+inline+marksweep");
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(SharedCacheMetrics, PublishMirrorsStats)
{
    obs::metrics().reset();
    obs::setEnabled(true);
    SharedCodeCache cache;
    const TranslationKey k = keyFor(4);
    cache.acquire(k, [] { return makeArtifact(8, 700); });
    cache.acquire(k, [] { return makeArtifact(8, 700); });
    cache.publishMetrics();
    obs::setEnabled(false);
    EXPECT_EQ(obs::metrics().gaugeValue("code_cache.shared.lookups"),
              2.0);
    EXPECT_EQ(obs::metrics().gaugeValue("code_cache.shared.hits"),
              1.0);
    EXPECT_EQ(obs::metrics().gaugeValue("code_cache.shared.misses"),
              1.0);
    EXPECT_EQ(obs::metrics().gaugeValue("code_cache.shared.build_ns"),
              700.0);
    EXPECT_EQ(
        obs::metrics().gaugeValue("code_cache.shared.build_ns_saved"),
        700.0);
    EXPECT_EQ(
        obs::metrics().gaugeValue("code_cache.shared.live_entries"),
        1.0);
    obs::metrics().reset();
}

// ---------------------------------------------------------------------
// Multithreaded stress (the TSan workout)
// ---------------------------------------------------------------------

TEST(SharedCacheStress, WorkersHammerOneBoundedCache)
{
    SharedCacheConfig cfg;
    cfg.capacityBytes = 4 << 10; // tight: forces eviction churn
    SharedCodeCache cache(cfg);
    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    constexpr int kKeys = 16;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            std::vector<TranslationKey> held;
            for (int i = 0; i < kIters; ++i) {
                const TranslationKey k =
                    keyFor((t * 31 + i * 7) % kKeys);
                auto artifact = cache.acquire(k, [&k] {
                    return makeArtifact(8 + 8 * (k.method % 4), 100);
                });
                ASSERT_NE(artifact, nullptr);
                ASSERT_GE(artifact->code.size(), 8u);
                if (i % 3 == 0)
                    cache.release(k); // short-lived holder
                else
                    held.push_back(k);
                // Periodically drain so zero-ref entries exist for the
                // eviction path to chew on.
                if (held.size() > 8) {
                    for (const TranslationKey &h : held)
                        cache.release(h);
                    held.clear();
                }
            }
            for (const TranslationKey &h : held)
                cache.release(h);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const SharedCacheStats s = cache.stats();
    EXPECT_EQ(s.lookups,
              static_cast<std::uint64_t>(kThreads) * kIters);
    // Blocking mode: every lookup resolves to a hit or a miss.
    EXPECT_EQ(s.sharedHits + s.misses, s.lookups);
    EXPECT_EQ(s.deferred, 0u);
    EXPECT_GT(s.sharedHits, 0u);
    std::uint64_t builds = 0;
    for (int m = 0; m < kKeys; ++m) {
        EXPECT_GE(cache.buildsFor(m < kKeys ? keyFor(m) : keyFor(0)),
                  1u);
        builds += cache.buildsFor(keyFor(m));
    }
    // Generations line up: every miss is exactly one recorded build.
    EXPECT_EQ(builds, s.misses);
    EXPECT_EQ(builds, s.installs);
}

// ---------------------------------------------------------------------
// Engine integration: bit-identity and translate-once
// ---------------------------------------------------------------------

RunSpec
helloSpec()
{
    RunSpec spec;
    spec.workload = findWorkload("hello");
    spec.arg = spec.workload->tinyArg;
    return spec;
}

TEST(SharedCacheEngine, SharedRunsAreBitIdenticalToPrivate)
{
    const RecordedRun priv = recordWorkload(helloSpec());
    ASSERT_TRUE(priv.result.completed);
    EXPECT_EQ(priv.result.sharedTranslationHits, 0u);
    EXPECT_EQ(priv.result.sharedTranslationMisses, 0u);
    EXPECT_GT(priv.result.translateBuildNs, 0u);

    auto shared = std::make_shared<SharedCodeCache>();
    RunSpec spec = helloSpec();
    spec.sharedCache = shared;
    const RecordedRun s1 = recordWorkload(spec);
    const RecordedRun s2 = recordWorkload(spec);
    ASSERT_TRUE(s1.result.completed);
    ASSERT_TRUE(s2.result.completed);

    // First shared run builds everything; the repeat is pure hits —
    // exactly one translate per method per generation, process-wide.
    EXPECT_GT(s1.result.sharedTranslationMisses, 0u);
    EXPECT_EQ(s1.result.sharedTranslationHits, 0u);
    EXPECT_EQ(s2.result.sharedTranslationMisses, 0u);
    EXPECT_EQ(s2.result.sharedTranslationHits,
              s1.result.sharedTranslationMisses);
    EXPECT_GT(s2.result.translateBuildNsSaved, 0u);
    EXPECT_EQ(shared->stats().misses,
              s1.result.sharedTranslationMisses);

    // Sharing saves host work, never changes the simulated stream.
    EXPECT_EQ(s1.result.exitValue, priv.result.exitValue);
    EXPECT_EQ(s1.result.totalEvents, priv.result.totalEvents);
    EXPECT_EQ(s2.result.totalEvents, priv.result.totalEvents);
    const std::uint64_t want = digestOf(priv);
    EXPECT_EQ(digestOf(s1), want);
    EXPECT_EQ(digestOf(s2), want);
}

TEST(SharedCacheEngine, FallbackModeUncontendedIsStillIdentical)
{
    const RecordedRun priv = recordWorkload(helloSpec());
    SharedCacheConfig cfg;
    cfg.waitForInflight = false;
    RunSpec spec = helloSpec();
    spec.sharedCache = std::make_shared<SharedCodeCache>(cfg);
    const RecordedRun rec = recordWorkload(spec);
    ASSERT_TRUE(rec.result.completed);
    // A lone engine never meets an in-flight build, so fallback mode
    // degenerates to the deterministic path.
    EXPECT_EQ(spec.sharedCache->stats().deferred, 0u);
    EXPECT_EQ(rec.result.totalEvents, priv.result.totalEvents);
    EXPECT_EQ(digestOf(rec), digestOf(priv));
}

TEST(SharedCacheSweep, SharedSweepMatchesPrivateBitForBit)
{
    // One workload's slice of the code-cache grid at tiny input: 18
    // different cache configurations that all share artifacts (the
    // compatibility key ignores capacity/policy/strategy — artifacts
    // are address-independent).
    std::vector<sweep::SweepPoint> points;
    for (sweep::SweepPoint &p : sweep::buildCodeCacheGrid()) {
        if (p.label.rfind("code_cache/compress/", 0) == 0) {
            p.key.arg = findWorkload("compress")->tinyArg;
            points.push_back(std::move(p));
        }
    }
    ASSERT_FALSE(points.empty());

    sweep::SweepOptions privOpts;
    privOpts.jobs = 4;
    sweep::SweepEngine privEng(privOpts);
    const sweep::SweepResult priv = privEng.run(points);
    ASSERT_TRUE(priv.allOk());
    EXPECT_FALSE(priv.sharedCacheUsed);

    sweep::SweepOptions sharedOpts;
    sharedOpts.jobs = 4;
    sharedOpts.sharedCache = std::make_shared<SharedCodeCache>();
    sweep::SweepEngine sharedEng(sharedOpts);
    const sweep::SweepResult shared = sharedEng.run(points);
    ASSERT_TRUE(shared.allOk());

    // The shared cache did real cross-worker work: one build per
    // compatibility key, every other translation served as a hit.
    EXPECT_TRUE(shared.sharedCacheUsed);
    EXPECT_GT(shared.shared.sharedHits, 0u);
    EXPECT_GT(shared.shared.misses, 0u);
    EXPECT_EQ(shared.shared.sharedHits + shared.shared.misses,
              shared.shared.lookups);
    EXPECT_GT(shared.shared.buildNsSaved, 0u);
    EXPECT_LT(shared.traces.translateBuildNs,
              priv.traces.translateBuildNs);

    // ...and not one metric moved: every point is bit-identical.
    ASSERT_EQ(priv.points.size(), shared.points.size());
    for (const sweep::PointResult &a : priv.points) {
        const sweep::PointResult *b = shared.find(a.label);
        ASSERT_NE(b, nullptr) << a.label;
        EXPECT_EQ(a.traceEvents, b->traceEvents) << a.label;
        ASSERT_EQ(a.metrics.size(), b->metrics.size()) << a.label;
        for (const sweep::Metric &m : a.metrics) {
            EXPECT_EQ(m.value, b->metric(m.name))
                << a.label << " " << m.name;
        }
    }
}

} // namespace
} // namespace jrs
