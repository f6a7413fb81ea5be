#include <gtest/gtest.h>

#include <list>
#include <vector>

#include "arch/cache/cache.h"
#include "arch/cache/time_series.h"
#include "support/random.h"
#include "vm/runtime/vm_error.h"

namespace jrs {
namespace {

TEST(Cache, ColdMissThenHit)
{
    Cache c({1024, 32, 1, true});
    EXPECT_FALSE(c.access(0x1000, false, Phase::Interpret));
    EXPECT_TRUE(c.access(0x1000, false, Phase::Interpret));
    EXPECT_TRUE(c.access(0x101f, false, Phase::Interpret));  // same line
    EXPECT_FALSE(c.access(0x1020, false, Phase::Interpret));  // next line
    EXPECT_EQ(c.stats().reads, 4u);
    EXPECT_EQ(c.stats().readMisses, 2u);
}

TEST(Cache, DirectMappedConflict)
{
    Cache c({1024, 32, 1, true});  // 32 sets
    const std::uint64_t a = 0x0000;
    const std::uint64_t b = a + 1024;  // same set, different tag
    EXPECT_FALSE(c.access(a, false, Phase::Interpret));
    EXPECT_FALSE(c.access(b, false, Phase::Interpret));
    EXPECT_FALSE(c.access(a, false, Phase::Interpret));  // evicted
}

TEST(Cache, TwoWayHoldsBothConflictingLines)
{
    Cache c({1024, 32, 2, true});
    const std::uint64_t a = 0x0000;
    const std::uint64_t b = a + 512;  // same set in a 16-set cache
    EXPECT_FALSE(c.access(a, false, Phase::Interpret));
    EXPECT_FALSE(c.access(b, false, Phase::Interpret));
    EXPECT_TRUE(c.access(a, false, Phase::Interpret));
    EXPECT_TRUE(c.access(b, false, Phase::Interpret));
}

TEST(Cache, LruEvictsLeastRecent)
{
    Cache c({256, 32, 2, true});  // 4 sets
    const std::uint64_t s = 0;    // set 0 lines: 0, 128, 256, ...
    c.access(s + 0 * 128, false, Phase::Interpret);    // A
    c.access(s + 1 * 128, false, Phase::Interpret);    // B
    c.access(s + 0 * 128, false, Phase::Interpret);    // touch A (MRU)
    c.access(s + 2 * 128, false, Phase::Interpret);    // C evicts B
    EXPECT_TRUE(c.probe(s + 0 * 128));
    EXPECT_FALSE(c.probe(s + 1 * 128));
    EXPECT_TRUE(c.probe(s + 2 * 128));
}

TEST(Cache, WriteAllocateFillsLine)
{
    Cache c({1024, 32, 1, true});
    EXPECT_FALSE(c.access(0x40, true, Phase::Interpret));
    EXPECT_TRUE(c.access(0x40, false, Phase::Interpret));
    EXPECT_EQ(c.stats().writeMisses, 1u);
}

TEST(Cache, WriteNoAllocateLeavesLineCold)
{
    Cache c({1024, 32, 1, false});
    EXPECT_FALSE(c.access(0x40, true, Phase::Interpret));
    EXPECT_FALSE(c.access(0x40, false, Phase::Interpret));
    EXPECT_EQ(c.stats().writeMisses, 1u);
    EXPECT_EQ(c.stats().readMisses, 1u);
}

TEST(Cache, PhaseSplitAccounting)
{
    Cache c({1024, 32, 1, true});
    c.access(0x0, false, Phase::Interpret);
    c.access(0x100, true, Phase::Translate);
    c.access(0x200, false, Phase::Translate);
    EXPECT_EQ(c.phaseStats(Phase::Interpret).reads, 1u);
    EXPECT_EQ(c.phaseStats(Phase::Translate).writes, 1u);
    EXPECT_EQ(c.phaseStats(Phase::Translate).reads, 1u);
    const CacheStats rest = c.statsExcluding(Phase::Translate);
    EXPECT_EQ(rest.reads, 1u);
    EXPECT_EQ(rest.writes, 0u);
    EXPECT_EQ(c.stats().accesses(), 3u);
}

TEST(Cache, StatsHelpers)
{
    CacheStats s;
    s.reads = 80;
    s.writes = 20;
    s.readMisses = 5;
    s.writeMisses = 15;
    EXPECT_EQ(s.accesses(), 100u);
    EXPECT_EQ(s.misses(), 20u);
    EXPECT_DOUBLE_EQ(s.missRate(), 0.2);
    EXPECT_DOUBLE_EQ(s.writeMissFraction(), 0.75);
}

TEST(Cache, RejectsBadConfig)
{
    EXPECT_THROW(Cache({1000, 32, 1, true}), VmError);  // not pow2
    EXPECT_THROW(Cache({1024, 32, 0, true}), VmError);  // zero assoc
    EXPECT_THROW(Cache({1024, 24, 1, true}), VmError);  // bad line
}

TEST(Cache, ResetStats)
{
    Cache c({1024, 32, 1, true});
    c.access(0x0, false, Phase::Interpret);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses(), 0u);
    EXPECT_EQ(c.phaseStats(Phase::Interpret).accesses(), 0u);
    // Contents survive a stats reset.
    EXPECT_TRUE(c.access(0x0, false, Phase::Interpret));
}

/**
 * Property: for a fixed reference stream and set count, LRU misses are
 * non-increasing in associativity (the stack-inclusion property).
 */
class AssocSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AssocSweep, LruInclusionProperty)
{
    const std::uint32_t assoc = GetParam();
    // Keep the set count constant: size scales with assoc.
    Cache small({256u * assoc, 32, assoc, true});
    Cache bigger({256u * assoc * 2, 32, assoc * 2, true});
    std::uint64_t seed = 99;
    std::uint64_t misses_small = 0, misses_big = 0;
    for (int i = 0; i < 20000; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t addr = (seed >> 30) & 0x3fff;
        if (!small.access(addr, false, Phase::Interpret))
            ++misses_small;
        if (!bigger.access(addr, false, Phase::Interpret))
            ++misses_big;
    }
    EXPECT_LE(misses_big, misses_small);
}

INSTANTIATE_TEST_SUITE_P(Assocs, AssocSweep,
                         ::testing::Values(1u, 2u, 4u));

/** Property: accesses are conserved across phase counters. */
class PhaseConservation
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PhaseConservation, SumOfPhasesEqualsTotal)
{
    Cache c({4096, GetParam(), 2, true});
    std::uint64_t seed = 5;
    for (int i = 0; i < 5000; ++i) {
        seed = seed * 2862933555777941757ull + 3037000493ull;
        c.access((seed >> 20) & 0xffff, (seed & 1) != 0,
                 static_cast<Phase>((seed >> 8) & 3));
    }
    CacheStats sum;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const CacheStats &ps = c.phaseStats(static_cast<Phase>(p));
        sum.reads += ps.reads;
        sum.writes += ps.writes;
        sum.readMisses += ps.readMisses;
        sum.writeMisses += ps.writeMisses;
    }
    EXPECT_EQ(sum.reads, c.stats().reads);
    EXPECT_EQ(sum.writes, c.stats().writes);
    EXPECT_EQ(sum.readMisses, c.stats().readMisses);
    EXPECT_EQ(sum.writeMisses, c.stats().writeMisses);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, PhaseConservation,
                         ::testing::Values(16u, 32u, 64u, 128u));

TEST(CacheSink, RoutesIAndDAccesses)
{
    CacheSink sink({1024, 32, 1, true}, {1024, 32, 1, true});
    TraceEvent ev;
    ev.pc = 0x100;
    ev.kind = NKind::IntAlu;
    sink.onEvent(ev);
    EXPECT_EQ(sink.icache().stats().accesses(), 1u);
    EXPECT_EQ(sink.dcache().stats().accesses(), 0u);

    ev.kind = NKind::Load;
    ev.mem = 0x4000;
    sink.onEvent(ev);
    EXPECT_EQ(sink.dcache().stats().reads, 1u);

    ev.kind = NKind::Store;
    sink.onEvent(ev);
    EXPECT_EQ(sink.dcache().stats().writes, 1u);
    EXPECT_EQ(sink.icache().stats().accesses(), 3u);
}

TEST(TimeSeries, WindowsPartitionTheRun)
{
    TimeSeriesCacheSink ts({1024, 32, 1, true}, {1024, 32, 1, true},
                           100);
    TraceEvent ev;
    ev.kind = NKind::Load;
    for (int i = 0; i < 250; ++i) {
        ev.pc = 0x100 + (i % 3) * 0x1000;
        ev.mem = 0x8000 + i * 64;
        ts.onEvent(ev);
    }
    ts.onFinish();
    ASSERT_EQ(ts.samples().size(), 3u);  // 100 + 100 + 50
    std::uint64_t d_total = 0;
    for (const MissSample &s : ts.samples())
        d_total += s.dMisses;
    EXPECT_EQ(d_total, ts.dcache().stats().misses());
}

TEST(TimeSeries, TranslatePhaseCounted)
{
    TimeSeriesCacheSink ts({1024, 32, 1, true}, {1024, 32, 1, true},
                           10);
    TraceEvent ev;
    ev.kind = NKind::Store;
    ev.phase = Phase::Translate;
    ev.mem = 0x9000;
    for (int i = 0; i < 10; ++i)
        ts.onEvent(ev);
    ASSERT_EQ(ts.samples().size(), 1u);
    EXPECT_EQ(ts.samples()[0].translateEvents, 10u);
    EXPECT_GE(ts.samples()[0].dWriteMisses, 1u);
}

/**
 * The textbook model Cache must match: each set a list of lines,
 * most recently used first, evicting from the back.
 */
class ListLru {
  public:
    explicit ListLru(CacheConfig cfg)
        : cfg_(cfg), sets_(cfg.numSets()) {}

    bool access(std::uint64_t addr, bool isWrite) {
        const std::uint64_t line = addr / cfg_.lineBytes;
        std::list<std::uint64_t> &set = sets_[line % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        if (isWrite && !cfg_.writeAllocate)
            return false;
        set.push_front(line);
        if (set.size() > cfg_.assoc)
            set.pop_back();
        return false;
    }

  private:
    CacheConfig cfg_;
    std::vector<std::list<std::uint64_t>> sets_;
};

/** Replay @p addrs through Cache and ListLru; they must agree. */
void
expectMatchesListLru(CacheConfig cfg,
                     const std::vector<std::uint64_t> &addrs,
                     std::uint64_t seed)
{
    Cache c(cfg);
    ListLru ref(cfg);
    XorShift64 rng(seed);
    CacheStats want;
    CacheStats wantPhase[kNumPhases];
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const bool write = rng.nextBounded(4) == 0;
        const auto phase =
            static_cast<Phase>(rng.nextBounded(kNumPhases));
        const bool hit = ref.access(addrs[i], write);
        ASSERT_EQ(c.access(addrs[i], write, phase), hit)
            << "access " << i << " addr " << addrs[i];
        for (CacheStats *st :
             {&want, &wantPhase[static_cast<std::size_t>(phase)]}) {
            ++(write ? st->writes : st->reads);
            if (!hit)
                ++(write ? st->writeMisses : st->readMisses);
        }
    }
    const auto same = [](const CacheStats &a, const CacheStats &b) {
        return a.reads == b.reads && a.writes == b.writes
            && a.readMisses == b.readMisses
            && a.writeMisses == b.writeMisses;
    };
    EXPECT_TRUE(same(c.stats(), want));
    for (std::size_t p = 0; p < kNumPhases; ++p)
        EXPECT_TRUE(same(c.phaseStats(static_cast<Phase>(p)),
                         wantPhase[p]))
            << "phase " << p;
}

TEST(Cache, MatchesListLruReference)
{
    // 1 KiB of 32-byte lines: assoc 32 is fully associative.
    for (const std::uint32_t assoc : {1u, 2u, 4u, 32u}) {
        for (const bool allocate : {true, false}) {
            SCOPED_TRACE("assoc " + std::to_string(assoc)
                         + (allocate ? " write-allocate"
                                     : " write-no-allocate"));
            const CacheConfig cfg{1024, 32, assoc, allocate};
            const std::uint64_t setStride =
                static_cast<std::uint64_t>(cfg.numSets())
                * cfg.lineBytes;

            // Random addresses over 4x the capacity: hits, misses,
            // fills of empty ways and evictions all happen.
            XorShift64 rng(assoc * 2 + allocate);
            std::vector<std::uint64_t> random;
            for (int i = 0; i < 20000; ++i)
                random.push_back(0x5000'0000 + rng.nextBounded(4096));
            expectMatchesListLru(cfg, random, 7);

            // Conflict strides: assoc + 1 lines of one set cycled,
            // and a hot line re-touched between the others.
            std::vector<std::uint64_t> conflict;
            for (int round = 0; round < 200; ++round) {
                for (std::uint32_t k = 0; k <= assoc; ++k) {
                    conflict.push_back(0x40 + k * setStride);
                    if (k % 2 == 0)
                        conflict.push_back(0x40);
                }
                conflict.push_back(0x40 + (round % 3) * setStride
                                   + setStride * assoc * 2);
            }
            expectMatchesListLru(cfg, conflict, 11);
        }
    }
}

} // namespace
} // namespace jrs
