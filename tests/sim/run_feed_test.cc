/**
 * @file
 * Equivalence suite for the simulator's one feed loop. Every way of
 * feeding a trace — run items from a MaterializedCursor or straight
 * from a generator (NonMem runs as counts, cut at record budgets),
 * consume() then run() on one source — must reproduce a
 * step()-per-record reference bit-for-bit: same cycles, same stall
 * attribution, same buffer traffic. Machines whose NonMem runs are
 * charged per instruction (bubbles, a real I-cache) are covered too.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/figures.hh"
#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kRecords = 60'000;

void
expectSameResults(const SimResults &a, const SimResults &b,
                  const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.stalls.bufferFullCycles, b.stalls.bufferFullCycles)
        << what;
    EXPECT_EQ(a.stalls.l2ReadAccessCycles, b.stalls.l2ReadAccessCycles)
        << what;
    EXPECT_EQ(a.stalls.loadHazardCycles, b.stalls.loadHazardCycles)
        << what;
    EXPECT_EQ(a.l1LoadHits, b.l1LoadHits) << what;
    EXPECT_EQ(a.l1LoadMisses, b.l1LoadMisses) << what;
    EXPECT_EQ(a.wbMerges, b.wbMerges) << what;
    EXPECT_EQ(a.wbAllocations, b.wbAllocations) << what;
    EXPECT_EQ(a.wbRetirements, b.wbRetirements) << what;
    EXPECT_EQ(a.wbHazards, b.wbHazards) << what;
    EXPECT_EQ(a.wbServedLoads, b.wbServedLoads) << what;
    EXPECT_EQ(a.l2ReadMisses, b.l2ReadMisses) << what;
    EXPECT_EQ(a.memReads, b.memReads) << what;
    EXPECT_EQ(a.barriers, b.barriers) << what;
    EXPECT_EQ(a.barrierStallCycles, b.barrierStallCycles) << what;
    EXPECT_EQ(a.ifetchMisses, b.ifetchMisses) << what;
    EXPECT_EQ(a.l2IFetchStallCycles, b.l2IFetchStallCycles) << what;
}

/**
 * The reference: step() every record of @p trace, resetting stats
 * after the first @p warmup records, then drain.
 */
SimResults
stepReference(const MaterializedTrace &trace,
              const MachineConfig &machine, Count warmup = 0)
{
    MaterializedCursor cursor(trace);
    Simulator stepper(machine);
    TraceRecord record;
    for (Count done = 1; cursor.next(record); ++done) {
        stepper.step(record);
        if (done == warmup)
            stepper.resetStats();
    }
    stepper.drain();
    return stepper.results(trace.name());
}

MaterializedTrace
buildTrace(const char *name, Count records, std::uint64_t seed)
{
    SyntheticSource source(spec92::profile(name), records, seed);
    return MaterializedTrace::build(source);
}

/** An index two records into the first encoded NonMem run of at
 *  least four records: a quota there cuts a run item. */
Count
midRunIndex(const MaterializedTrace &trace)
{
    MaterializedCursor cursor(trace);
    TraceRun item;
    for (Count at = 0; cursor.nextRuns(&item, 1) == 1;
         at = cursor.position()) {
        if (item.nonMemBefore >= 4)
            return at + 2;
    }
    ADD_FAILURE() << "no NonMem run in " << trace.name();
    return 0;
}

TEST(RunFeed, MatchesRecordPathsOnEveryProfile)
{
    for (const char *name : {"compress", "tomcatv", "espresso", "sc"}) {
        BenchmarkProfile profile = spec92::profile(name);
        MachineConfig machine = figures::baselineMachine();

        // The generator feed: run items generated in place.
        SyntheticSource direct(profile, kRecords, 3);
        Simulator ref(machine);
        SimResults ref_results = ref.run(direct);

        // Run items with NonMem runs as counts.
        SyntheticSource again(profile, kRecords, 3);
        MaterializedTrace trace = MaterializedTrace::build(again);
        MaterializedCursor cursor(trace);
        Simulator fed(machine);
        SimResults fed_results = fed.run(cursor);
        expectSameResults(fed_results, ref_results, name);
        expectSameResults(fed_results, stepReference(trace, machine),
                          name);
    }
}

TEST(RunFeed, BubbleMachineMatchesStepReference)
{
    // bubbleProbability > 0: every instruction, NonMem runs included,
    // draws from the bubble RNG in order, so runs are charged one
    // instruction at a time.
    MachineConfig machine = figures::baselineMachine();
    machine.bubbleProbability = 0.05;
    MaterializedTrace trace = buildTrace("compress", kRecords, 7);

    MaterializedCursor cursor(trace);
    Simulator fed(machine);
    SimResults fed_results = fed.run(cursor);
    expectSameResults(fed_results, stepReference(trace, machine),
                      "bubble");

    SyntheticSource direct(spec92::profile("compress"), kRecords, 7);
    Simulator generated(machine);
    expectSameResults(generated.run(direct), fed_results,
                      "bubble generator");
}

TEST(RunFeed, RealICacheMachineMatchesStepReference)
{
    // A real I-cache fetches every instruction's pc, so each NonMem
    // run is replayed with its implied pcs.
    MachineConfig machine = figures::baselineMachine();
    machine.perfectICache = false;
    MaterializedTrace trace = buildTrace("espresso", kRecords, 11);

    MaterializedCursor cursor(trace);
    Simulator fed(machine);
    SimResults fed_results = fed.run(cursor);
    SimResults ref_results = stepReference(trace, machine);
    expectSameResults(fed_results, ref_results, "icache");
    EXPECT_GT(fed_results.ifetchMisses, 0u);
}

TEST(RunFeed, QuotaStopsExactlyAndMatchesStepReference)
{
    MachineConfig machine = figures::baselineMachine();
    MaterializedTrace trace = buildTrace("compress", kRecords, 5);
    MaterializedTrace prefix = buildTrace("compress", 10'000, 5);

    MaterializedCursor cursor(trace);
    Simulator fed(machine);
    ASSERT_EQ(fed.consume(cursor, 10'000), 10'000u);
    EXPECT_EQ(cursor.position(), 10'000u);
    EXPECT_EQ(fed.instructions(), 10'000u);
    fed.drain();
    expectSameResults(fed.results("limited"),
                      stepReference(prefix, machine), "limited");
}

TEST(RunFeed, ConsumeThenRunResumesWhereTheQuotaCut)
{
    // Both run-item sources: a cursor and the generator itself (the
    // uncached paths). Real-I-cache machines fetch each run's pcs
    // from pcBefore, so they check the generator's pc bookkeeping.
    MaterializedTrace trace = buildTrace("compress", kRecords, 13);
    const Count mid_run = midRunIndex(trace);
    MachineConfig plain = figures::baselineMachine();
    MachineConfig bubbly = plain;
    bubbly.bubbleProbability = 0.05;
    MachineConfig icache = plain;
    icache.perfectICache = false;

    for (const MachineConfig &machine : {plain, bubbly, icache}) {
        for (Count k : {mid_run, Count{4096}, Count{3 * 4096},
                        trace.size()}) {
            for (bool generated : {false, true}) {
                MaterializedCursor cursor(trace);
                SyntheticSource generator(spec92::profile("compress"),
                                          kRecords, 13);
                TraceSource &source = generated
                    ? static_cast<TraceSource &>(generator)
                    : cursor;
                Simulator fed(machine);
                ASSERT_EQ(fed.consume(source, k), k);
                if (!generated) {
                    ASSERT_EQ(cursor.position(), k);
                }
                fed.resetStats();
                SimResults fed_results = fed.run(source);
                EXPECT_EQ(fed_results.instructions, trace.size() - k);
                std::string what = machine.describe() + " k="
                    + std::to_string(k)
                    + (generated ? " generator" : " cursor");
                expectSameResults(fed_results,
                                  stepReference(trace, machine, k),
                                  what.c_str());
            }
        }
    }
}

} // namespace
} // namespace wbsim
