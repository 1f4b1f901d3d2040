/**
 * @file
 * Unit tests for the SyntheticSource workload generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

BenchmarkProfile
simpleProfile()
{
    BenchmarkProfile p;
    p.name = "test-profile";
    p.pctLoads = 0.3;
    p.pctStores = 0.1;
    BehaviorSpec loop;
    loop.kind = BehaviorKind::Loop;
    loop.region = 4096;
    p.loadBehaviors = {loop};
    p.storeBehaviors = {loop};
    return p;
}

TEST(SyntheticSource, ProducesExactlyLimitRecords)
{
    SyntheticSource source(simpleProfile(), 1000, 1);
    TraceRecord rec;
    Count count = 0;
    while (source.next(rec))
        ++count;
    EXPECT_EQ(count, 1000u);
    EXPECT_FALSE(source.next(rec));
}

TEST(SyntheticSource, MixMatchesProfile)
{
    SyntheticSource source(simpleProfile(), 200000, 1);
    TraceRecord rec;
    Count loads = 0, stores = 0, total = 0;
    while (source.next(rec)) {
        ++total;
        loads += rec.isLoad();
        stores += rec.isStore();
    }
    EXPECT_NEAR(double(loads) / double(total), 0.3, 0.01);
    EXPECT_NEAR(double(stores) / double(total), 0.1, 0.01);
}

TEST(SyntheticSource, MixHoldsWithBursts)
{
    BenchmarkProfile p = simpleProfile();
    p.storeBurstContinue = 0.6;
    SyntheticSource source(p, 300000, 1);
    TraceRecord rec;
    Count loads = 0, stores = 0, total = 0;
    while (source.next(rec)) {
        ++total;
        loads += rec.isLoad();
        stores += rec.isStore();
    }
    EXPECT_NEAR(double(stores) / double(total), 0.1, 0.01)
        << "bursting must not inflate the store fraction";
    EXPECT_NEAR(double(loads) / double(total), 0.3, 0.01)
        << "nor deflate the load fraction";
}

TEST(SyntheticSource, BurstsGroupStores)
{
    BenchmarkProfile p = simpleProfile();
    p.storeBurstContinue = 0.8;
    SyntheticSource source(p, 100000, 1);
    TraceRecord rec, prev = TraceRecord::nonMem();
    Count store_after_store = 0, stores = 0;
    while (source.next(rec)) {
        if (rec.isStore()) {
            ++stores;
            if (prev.isStore())
                ++store_after_store;
        }
        prev = rec;
    }
    // With mean burst ~5 the store->store transition rate is much
    // higher than the i.i.d. 10%.
    EXPECT_GT(double(store_after_store) / double(stores), 0.5);
}

TEST(SyntheticSource, ResetReproducesIdenticalStream)
{
    SyntheticSource source(spec92::profile("compress"), 5000, 7);
    std::vector<TraceRecord> first;
    TraceRecord rec;
    while (source.next(rec))
        first.push_back(rec);
    source.reset();
    for (const TraceRecord &expect : first) {
        ASSERT_TRUE(source.next(rec));
        EXPECT_EQ(rec, expect);
    }
}

TEST(SyntheticSource, SeedsChangeTheStream)
{
    SyntheticSource a(spec92::profile("compress"), 1000, 1);
    SyntheticSource b(spec92::profile("compress"), 1000, 2);
    TraceRecord ra, rb;
    int diff = 0;
    while (a.next(ra) && b.next(rb))
        diff += !(ra == rb);
    EXPECT_GT(diff, 100);
}

TEST(SyntheticSource, RawLoadsRevisitRecentStores)
{
    BenchmarkProfile p = simpleProfile();
    // Make stores scattered so RAW hits are unmistakable.
    p.storeBehaviors[0].kind = BehaviorKind::Random;
    p.storeBehaviors[0].region = 1 << 20;
    p.rawFraction = 0.5;
    SyntheticSource source(p, 50000, 3);
    TraceRecord rec;
    std::vector<Addr> recent;
    Count raw_hits = 0, loads = 0;
    while (source.next(rec)) {
        if (rec.isStore()) {
            recent.push_back(rec.addr);
        } else if (rec.isLoad()) {
            ++loads;
            for (std::size_t i = recent.size() > 64
                     ? recent.size() - 64 : 0;
                 i < recent.size(); ++i) {
                if (recent[i] == rec.addr) {
                    ++raw_hits;
                    break;
                }
            }
        }
    }
    EXPECT_GT(double(raw_hits) / double(loads), 0.35);
}

TEST(SyntheticSource, PcsFormLoops)
{
    BenchmarkProfile p = simpleProfile();
    p.codeLoop = 256;
    p.codeJumpProb = 0.0;
    SyntheticSource source(p, 1000, 1);
    TraceRecord rec;
    std::set<Addr> pcs;
    while (source.next(rec)) {
        EXPECT_EQ(rec.pc % 4, 0u);
        pcs.insert(rec.pc);
    }
    EXPECT_EQ(pcs.size(), 64u) << "a 256B loop holds 64 instructions";
}

TEST(SyntheticSource, SharedArenasOverlap)
{
    BenchmarkProfile p = simpleProfile();
    p.loadBehaviors[0].kind = BehaviorKind::Random;
    p.loadBehaviors[0].region = 4096;
    p.storeBehaviors[0].kind = BehaviorKind::Random;
    p.storeBehaviors[0].region = 4096;
    p.storeBehaviors[0].shareWithLoad = 0;
    SyntheticSource source(p, 50000, 1);
    TraceRecord rec;
    Addr load_min = ~Addr{0}, store_min = ~Addr{0};
    while (source.next(rec)) {
        if (rec.isLoad())
            load_min = std::min(load_min, rec.addr);
        else if (rec.isStore())
            store_min = std::min(store_min, rec.addr);
    }
    EXPECT_EQ(load_min / 4096, store_min / 4096)
        << "shared store behaviour must use the load arena";
}

TEST(SyntheticSource, PrivateArenasDisjoint)
{
    SyntheticSource source(simpleProfile(), 20000, 1);
    TraceRecord rec;
    std::set<Addr> load_arenas, store_arenas;
    while (source.next(rec)) {
        if (rec.isLoad())
            load_arenas.insert(rec.addr >> 33);
        else if (rec.isStore())
            store_arenas.insert(rec.addr >> 33);
    }
    for (Addr arena : load_arenas)
        EXPECT_EQ(store_arenas.count(arena), 0u);
}

TEST(SyntheticSource, BarrierFractionEmitsBarriers)
{
    BenchmarkProfile p = simpleProfile();
    p.barrierFraction = 0.05;
    SyntheticSource source(p, 100000, 1);
    TraceRecord rec;
    Count barriers = 0;
    while (source.next(rec))
        barriers += rec.op == Op::Barrier;
    // ~5% of the ~60% non-memory slots.
    EXPECT_NEAR(double(barriers) / 100000.0, 0.03, 0.01);
}

/** The stream as nextBatch() delivers it, in odd-sized batches. */
std::vector<TraceRecord>
batchStream(const char *name, Count records, std::uint64_t seed)
{
    SyntheticSource source(spec92::profile(name), records, seed);
    std::vector<TraceRecord> out;
    TraceRecord buffer[193];
    while (std::size_t got = source.nextBatch(buffer, 193))
        out.insert(out.end(), buffer, buffer + got);
    return out;
}

/** Expand run items back into records: a run's NonMem pcs step by 4
 *  from the pc of the record preceding the run. */
void
expandItems(const TraceRun *items, std::size_t count,
            std::vector<TraceRecord> &records)
{
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRun &item = items[i];
        for (std::uint32_t k = 1; k <= item.nonMemBefore; ++k)
            records.push_back(TraceRecord::nonMem(
                item.pcBefore + 4 * static_cast<Addr>(k)));
        records.push_back(item.rec);
    }
}

/** Whether @p rec is a plain NonMem record continuing @p prev. */
bool
continuesRun(const TraceRecord &rec, const TraceRecord &prev)
{
    return rec.op == Op::NonMem && rec.size == 0 && rec.addr == 0
        && rec.pc == prev.pc + 4;
}

/** expandItems(), checking the items are maximal: only a call's last
 *  item (cut by its budget or the end of the stream) may end in a
 *  plain record that continues its predecessor. */
void
expandMaximal(const TraceRun *items, std::size_t count,
              std::vector<TraceRecord> &records)
{
    for (std::size_t i = 0; i < count; ++i) {
        expandItems(items + i, 1, records);
        std::size_t n = records.size();
        if (i + 1 < count && n >= 2) {
            EXPECT_FALSE(continuesRun(records[n - 1], records[n - 2]))
                << "record " << n - 1 << " left out of its run";
        }
    }
}

/** Drain @p source through nextRuns() with @p budget records per
 *  call, checking each call stops exactly at its budget. */
std::vector<TraceRecord>
drainRuns(SyntheticSource &source, Count budget, Count &folded)
{
    std::vector<TraceRecord> seen;
    TraceRun items[64];
    while (std::size_t got = source.nextRuns(items, 64, budget)) {
        std::size_t before = seen.size();
        expandMaximal(items, got, seen);
        Count covered = seen.size() - before;
        EXPECT_LE(covered, budget);
        if (seen.size() < source.instructions()) {
            // Only a full item batch may stop short of the budget.
            EXPECT_TRUE(covered == budget || got == 64)
                << "covered " << covered << " of " << budget;
        }
        for (std::size_t i = 0; i < got; ++i)
            folded += items[i].nonMemBefore;
    }
    return seen;
}

/** An index two records into the first plain NonMem run of at least
 *  four records: a budget there cuts a run. */
Count
midRunIndex(const std::vector<TraceRecord> &stream)
{
    Count run = 0;
    for (Count i = 1; i < stream.size(); ++i) {
        run = continuesRun(stream[i], stream[i - 1]) ? run + 1 : 0;
        if (run == 4)
            return i - 1;
    }
    ADD_FAILURE() << "no NonMem run of four records";
    return 1;
}

TEST(SyntheticSourceRuns, ItemsExpandToTheBatchStream)
{
    // Dense NonMem runs (compress), store bursts (tomcatv) and loop
    // jumps that break runs (espresso).
    for (const char *name : {"compress", "tomcatv", "espresso"}) {
        std::vector<TraceRecord> expected = batchStream(name, 20'000, 5);
        const Count mid = midRunIndex(expected);
        for (Count budget : {Count{1}, mid, Count{4096}, kNoRecordBudget}) {
            SCOPED_TRACE(std::string(name) + " budget "
                         + std::to_string(budget));
            SyntheticSource source(spec92::profile(name), 20'000, 5);
            for (int pass = 0; pass < 2; ++pass) {
                // The second pass runs after reset().
                Count folded = 0;
                std::vector<TraceRecord> seen =
                    drainRuns(source, budget, folded);
                ASSERT_EQ(seen.size(), expected.size());
                for (std::size_t i = 0; i < expected.size(); ++i)
                    ASSERT_EQ(seen[i], expected[i]) << "record " << i;
                if (budget > 1) {
                    EXPECT_GT(folded, 0u) << "no NonMem run folded";
                }
                source.reset();
            }
        }
    }
}

TEST(SyntheticSourceRuns, InterleavesWithNextAndNextBatch)
{
    std::vector<TraceRecord> expected =
        batchStream("compress", 20'000, 9);
    SyntheticSource mixed(spec92::profile("compress"), 20'000, 9);
    std::vector<TraceRecord> seen;
    TraceRecord buffer[7];
    TraceRun items[5];
    for (unsigned turn = 0;; ++turn) {
        std::size_t before = seen.size();
        switch (turn % 3) {
          case 0: {
            TraceRecord record;
            if (mixed.next(record))
                seen.push_back(record);
            break;
          }
          case 1: {
            std::size_t got = mixed.nextBatch(buffer, 7);
            seen.insert(seen.end(), buffer, buffer + got);
            break;
          }
          default: {
            // Odd budgets cut runs; the next call must fold the
            // records after a next()/nextBatch() into their run too.
            std::size_t got = mixed.nextRuns(items, 5, turn % 11 + 1);
            expandMaximal(items, got, seen);
            break;
          }
        }
        if (seen.size() == before && turn % 3 == 2)
            break;
    }
    ASSERT_EQ(seen.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(seen[i], expected[i]) << "record " << i;
}

TEST(SyntheticSourceDeath, OverfullMixIsFatal)
{
    BenchmarkProfile p = simpleProfile();
    p.pctLoads = 0.7;
    p.pctStores = 0.4;
    EXPECT_EXIT(SyntheticSource(p, 10, 1),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace wbsim
