/**
 * @file
 * Tests for the MultiCoreSystem and the arbitrated-bus topology:
 * the N=1 bit-identity guarantee across every policy axis, the
 * run-ahead schedule's equivalence to a record-by-record reference
 * scheduler and its exact work count, schedule determinism,
 * contention sanity on real workloads, aggregate semantics, and the
 * cache-path equivalence of runMultiCore.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "sim/event_log.hh"
#include "sim/multicore.hh"
#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kInstructions = 20'000;
constexpr Count kWarmup = 5'000;
constexpr std::uint64_t kSeed = 7;

/** Uncached runner options (exercise the code paths directly; the
 *  cached paths get their own test below). */
RunnerOptions
uncachedOptions()
{
    RunnerOptions options;
    options.instructions = kInstructions;
    options.warmup = kWarmup;
    options.seed = kSeed;
    options.materialize = false;
    options.checkpoints = false;
    return options;
}

/**
 * The tentpole's defining constraint: a 1-core system run through
 * the bus-arbitrated path reproduces the legacy single-core run bit
 * for bit, on every store-buffer kind x retirement mode x hazard
 * policy combination. No competing requester means every bus grant
 * degenerates to max(earliest, freeAt) — the standalone port rule.
 */
TEST(MultiCoreEquivalence, SingleCoreMatchesLegacyRunBitForBit)
{
    BenchmarkProfile profile = spec92::profile("compress");
    RunnerOptions options = uncachedOptions();

    for (BufferKind kind :
         {BufferKind::WriteBuffer, BufferKind::WriteCache}) {
        for (RetirementMode mode :
             {RetirementMode::Occupancy, RetirementMode::FixedRate,
              RetirementMode::Paced}) {
            for (LoadHazardPolicy policy :
                 {LoadHazardPolicy::FlushFull,
                  LoadHazardPolicy::FlushPartial,
                  LoadHazardPolicy::FlushItemOnly,
                  LoadHazardPolicy::ReadFromWB}) {
                MachineConfig machine = figures::baselineMachine();
                machine.cores = 1;
                machine.writeBuffer.kind = kind;
                machine.writeBuffer.retirementMode = mode;
                machine.writeBuffer.hazardPolicy = policy;
                machine.validate();

                SimResults legacy =
                    runOne(profile, machine, kInstructions, kSeed,
                           kWarmup);
                MultiCoreResults mc =
                    runMultiCore(profile, machine, options, kSeed);
                ASSERT_EQ(mc.perCore.size(), 1u);
                EXPECT_EQ(mc.perCore[0], legacy)
                    << bufferKindName(kind) << "/"
                    << retirementModeName(mode) << "/"
                    << loadHazardPolicyName(policy);
            }
        }
    }
}

TEST(MultiCoreEquivalence, RunOneRoutesTopologyCellsThroughTheBus)
{
    // runOne on a cores>1 machine must return exactly the
    // multi-core aggregate — grids and serve cells treat topology
    // like any other machine axis.
    BenchmarkProfile profile = spec92::profile("espresso");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    RunnerOptions options = uncachedOptions();
    SimResults via_run_one = runOne(profile, machine, options, kSeed);
    SimResults aggregate =
        runMultiCore(profile, machine, options, kSeed).aggregate();
    EXPECT_EQ(via_run_one, aggregate);
}

/**
 * The scheduler MultiCoreSystem had before cores ran ahead, kept as
 * an oracle: every record of every core goes through the
 * min-(clock, core id) schedule and the arbiter, one at a time
 * through the public Simulator::step. Warmup boundaries, sink
 * attachment and the final drain follow MultiCoreSystem::run.
 */
class ReferenceSystem final : public BusScheduler
{
  public:
    explicit ReferenceSystem(const MachineConfig &machine)
        : bus_(machine.cores, machine.busDiscipline, this)
    {
        for (unsigned i = 0; i < machine.cores; ++i) {
            Core core;
            core.sim = std::make_unique<Simulator>(machine);
            core.sim->attachBus(&bus_, i);
            cores_.push_back(std::move(core));
        }
    }

    void attachObs(const obs::ObsSink &sink) { sink_ = sink; }

    MultiCoreResults
    run(const std::vector<TraceSource *> &sources, Count warmup)
    {
        warmup_ = warmup;
        for (unsigned i = 0; i < cores_.size(); ++i) {
            cores_[i].source = sources[i];
            if (warmup == 0)
                beginMeasurement(i);
        }
        for (;;) {
            int best = -1;
            for (unsigned i = 0; i < cores_.size(); ++i) {
                if (cores_[i].exhausted)
                    continue;
                if (best < 0 || clockOf(i) < clockOf(best))
                    best = static_cast<int>(i);
            }
            if (best < 0)
                break;
            stepOne(static_cast<unsigned>(best));
        }
        MultiCoreResults out;
        out.discipline = bus_.discipline();
        for (unsigned i = 0; i < cores_.size(); ++i) {
            Core &core = cores_[i];
            core.sim->drain();
            out.perCore.push_back(
                core.sim->results(core.source->name()));
            BusCoreStats now = bus_.coreStats(i);
            now.grants -= core.busAtReset.grants;
            now.busyCycles -= core.busAtReset.busyCycles;
            now.waitCycles -= core.busAtReset.waitCycles;
            now.contendedGrants -= core.busAtReset.contendedGrants;
            out.bus.push_back(now);
        }
        return out;
    }

    Cycle
    clockOf(unsigned i) const override
    {
        return cores_[i].sim->now();
    }

    bool
    stepOne(unsigned i) override
    {
        Core &core = cores_[i];
        TraceRecord record;
        if (core.exhausted || !core.source->next(record)) {
            core.exhausted = true;
            return false;
        }
        core.sim->step(record);
        if (!core.measuring && core.sim->instructions() >= warmup_)
            beginMeasurement(i);
        return true;
    }

  private:
    struct Core
    {
        std::unique_ptr<Simulator> sim;
        TraceSource *source = nullptr;
        bool exhausted = false;
        bool measuring = false;
        BusCoreStats busAtReset;
    };

    void
    beginMeasurement(unsigned i)
    {
        Core &core = cores_[i];
        core.sim->resetStats();
        core.busAtReset = bus_.coreStats(i);
        core.measuring = true;
        if (sink_.attached())
            core.sim->attachObs(sink_);
    }

    std::vector<Core> cores_;
    BusArbiter bus_;
    Count warmup_ = 0;
    obs::ObsSink sink_;
};

/** Records per core in the schedule-equivalence runs. */
constexpr Count kScheduleRecords = 6'000;

/** Core i's trace: the profile's generator at seed kSeed + i. */
std::unique_ptr<SyntheticSource>
coreGenerator(unsigned core)
{
    return std::make_unique<SyntheticSource>(
        spec92::profile("compress"), kScheduleRecords, kSeed + core);
}

/**
 * A warmup length that cuts a NonMem run on every one of @p cores
 * cores' traces: records warmup-1 and warmup are both plain NonMem,
 * so a MaterializedCursor must split a run item at the boundary.
 */
Count
warmupInsideNonMemRuns(unsigned cores)
{
    std::vector<std::vector<TraceRecord>> traces;
    for (unsigned i = 0; i < cores; ++i) {
        std::unique_ptr<SyntheticSource> source = coreGenerator(i);
        std::vector<TraceRecord> records;
        TraceRecord record;
        while (source->next(record))
            records.push_back(record);
        traces.push_back(std::move(records));
    }
    for (Count w = kScheduleRecords / 3; w < kScheduleRecords; ++w) {
        bool inside = true;
        for (const std::vector<TraceRecord> &t : traces)
            inside = inside && t[w - 1].op == Op::NonMem
                && t[w].op == Op::NonMem;
        if (inside)
            return w;
    }
    ADD_FAILURE() << "no common NonMem run to cut";
    return 0;
}

/** Per-core sources of one kind; both systems get fresh ones. */
struct CoreSources
{
    std::vector<MaterializedTrace> traces;
    std::vector<std::unique_ptr<TraceSource>> owned;
    std::vector<TraceSource *> sources;

    CoreSources(unsigned cores, bool materialized)
    {
        traces.reserve(cores);
        for (unsigned i = 0; i < cores; ++i) {
            std::unique_ptr<SyntheticSource> generator =
                coreGenerator(i);
            if (materialized) {
                traces.push_back(MaterializedTrace::build(*generator));
                owned.push_back(std::make_unique<MaterializedCursor>(
                    traces.back()));
            } else {
                owned.push_back(std::move(generator));
            }
            sources.push_back(owned.back().get());
        }
    }
};

enum class Issue
{
    Plain,
    RealICache,
    Bubbles,
};

const char *
issueName(Issue issue)
{
    switch (issue) {
      case Issue::Plain:
        return "plain";
      case Issue::RealICache:
        return "real-icache";
      case Issue::Bubbles:
        return "bubbles";
    }
    return "?";
}

MachineConfig
scheduleMachine(unsigned cores, BusDiscipline discipline,
                BufferKind kind, Issue issue)
{
    MachineConfig machine = figures::baselineMachine();
    machine.cores = cores;
    machine.busDiscipline = discipline;
    machine.writeBuffer.kind = kind;
    machine.perfectICache = issue != Issue::RealICache;
    if (issue == Issue::Bubbles)
        machine.bubbleProbability = 0.1;
    machine.validate();
    return machine;
}

/**
 * Running cores ahead between bus-touching records must not move a
 * bit: every core's results and bus accounting equal the
 * record-by-record reference schedule, on every axis that changes
 * what a core may run ahead through.
 */
TEST(MultiCoreSchedule, RunAheadMatchesRecordByRecordReference)
{
    for (unsigned cores : {2u, 3u, 4u}) {
        const Count cut = warmupInsideNonMemRuns(cores);
        for (BusDiscipline discipline :
             {BusDiscipline::Fcfs, BusDiscipline::Priority}) {
            for (BufferKind kind :
                 {BufferKind::WriteBuffer, BufferKind::WriteCache}) {
                for (Issue issue :
                     {Issue::Plain, Issue::RealICache, Issue::Bubbles}) {
                    MachineConfig machine =
                        scheduleMachine(cores, discipline, kind, issue);
                    for (Count warmup : {Count{0}, cut}) {
                        for (bool materialized : {true, false}) {
                            std::ostringstream what;
                            what << cores << " cores/"
                                 << busDisciplineName(discipline) << "/"
                                 << bufferKindName(kind) << "/"
                                 << issueName(issue) << "/warmup "
                                 << warmup << "/"
                                 << (materialized ? "cursor"
                                                  : "generator");
                            CoreSources ref_src(cores, materialized);
                            ReferenceSystem reference(machine);
                            MultiCoreResults expected =
                                reference.run(ref_src.sources, warmup);

                            CoreSources src(cores, materialized);
                            MultiCoreSystem system(machine);
                            MultiCoreResults actual =
                                system.run(src.sources, warmup);

                            EXPECT_EQ(actual.perCore, expected.perCore)
                                << what.str();
                            EXPECT_EQ(actual.bus, expected.bus)
                                << what.str();
                            Count waits = 0;
                            for (const BusCoreStats &b : expected.bus)
                                waits += b.contendedGrants;
                            EXPECT_GT(waits, 0u)
                                << what.str() << ": no contention";
                        }
                    }
                }
            }
        }
    }
}

TEST(MultiCoreSchedule, SharedEventLogKeepsTheScheduleOrder)
{
    // Load hits are recorded in the event log; with one log shared
    // by all cores they must arrive in the reference's order, so
    // cores hold them back rather than run ahead through them.
    MachineConfig machine = scheduleMachine(
        2, BusDiscipline::Fcfs, BufferKind::WriteBuffer, Issue::Plain);
    const Count warmup = warmupInsideNonMemRuns(2);

    EventLog expected_log(1 << 16);
    obs::ObsSink expected_sink{.eventLog = &expected_log};
    CoreSources ref_src(2, true);
    ReferenceSystem reference(machine);
    reference.attachObs(expected_sink);
    MultiCoreResults expected = reference.run(ref_src.sources, warmup);

    EventLog actual_log(1 << 16);
    obs::ObsSink actual_sink{.eventLog = &actual_log};
    CoreSources src(2, true);
    MultiCoreSystem system(machine);
    for (unsigned i = 0; i < 2; ++i)
        system.attachObs(i, actual_sink);
    MultiCoreResults actual = system.run(src.sources, warmup);

    EXPECT_EQ(actual.perCore, expected.perCore);
    ASSERT_GT(expected_log.ofKind(SimEventKind::LoadHit).size(), 0u);
    std::ostringstream expected_dump, actual_dump;
    expected_log.dump(expected_dump);
    actual_log.dump(actual_dump);
    EXPECT_EQ(actual_dump.str(), expected_dump.str());
}

/**
 * The exact work the schedule does. On a plain machine only records
 * that may reach the L2 port are handed through it; on a machine
 * whose fetches may miss, every instruction is. A run-ahead that
 * silently switches off fails here on any host, whatever its speed.
 */
TEST(MultiCoreSchedule, HandoffsCountOnlyBusTouchingRecords)
{
    for (bool real_icache : {false, true}) {
        MachineConfig machine = scheduleMachine(
            2, BusDiscipline::Fcfs, BufferKind::WriteBuffer,
            real_icache ? Issue::RealICache : Issue::Plain);
        CoreSources src(2, true);
        MultiCoreSystem system(machine);
        MultiCoreResults r = system.run(src.sources, 0);

        Count instructions = 0, touching = 0;
        for (const SimResults &core : r.perCore) {
            instructions += core.instructions;
            touching += core.stores + core.l1LoadMisses + core.barriers;
        }
        ASSERT_EQ(instructions, 2 * kScheduleRecords);
        if (real_icache) {
            EXPECT_EQ(system.handoffs(), instructions);
        } else {
            EXPECT_EQ(system.handoffs(), touching);
            EXPECT_LT(system.handoffs(), instructions / 2);
        }
    }
}

TEST(MultiCore, ScheduleIsDeterministic)
{
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 3;
    RunnerOptions options = uncachedOptions();
    MultiCoreResults first =
        runMultiCore(profile, machine, options, kSeed);
    MultiCoreResults second =
        runMultiCore(profile, machine, options, kSeed);
    EXPECT_EQ(first.perCore, second.perCore);
    EXPECT_EQ(first.bus, second.bus);
}

TEST(MultiCore, CachedCellMatchesUncachedReference)
{
    BenchmarkProfile profile = spec92::profile("li");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    RunnerOptions cached = uncachedOptions();
    cached.materialize = true;
    MultiCoreResults via_cache =
        runMultiCore(profile, machine, cached, kSeed);
    MultiCoreResults reference =
        runMultiCore(profile, machine, uncachedOptions(), kSeed);
    EXPECT_EQ(via_cache.perCore, reference.perCore);
    EXPECT_EQ(via_cache.bus, reference.bus);
}

TEST(MultiCore, ContentionInflatesStallsAndOccupiesTheBus)
{
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    RunnerOptions options = uncachedOptions();

    machine.cores = 1;
    MultiCoreResults solo =
        runMultiCore(profile, machine, options, kSeed);

    machine.cores = 2;
    MultiCoreResults duo =
        runMultiCore(profile, machine, options, kSeed);
    ASSERT_EQ(duo.perCore.size(), 2u);
    ASSERT_EQ(duo.bus.size(), 2u);

    // Core 0 replays the very workload the solo machine ran (core i
    // seeds with seed + i); sharing the L2 can only delay it.
    EXPECT_EQ(duo.perCore[0].instructions,
              solo.perCore[0].instructions);
    EXPECT_GT(duo.perCore[0].cycles, solo.perCore[0].cycles);
    EXPECT_GT(duo.perCore[0].stalls.l2ReadAccessCycles,
              solo.perCore[0].stalls.l2ReadAccessCycles);

    // Both cores got bus service, and the contention is visible in
    // the arbitration accounting.
    for (const BusCoreStats &stats : duo.bus) {
        EXPECT_GT(stats.grants, 0u);
        EXPECT_GT(stats.busyCycles, 0u);
    }
    EXPECT_GT(duo.bus[0].contendedGrants + duo.bus[1].contendedGrants,
              0u);
    EXPECT_GT(duo.bus[0].waitCycles + duo.bus[1].waitCycles, 0u);
}

TEST(MultiCore, PriorityDisciplineFavorsCoreZero)
{
    // Under fixed priority core 0 never loses an arbitration, so the
    // queueing burden lands on the low-priority core. Wait cycles
    // are the direct witness.
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    machine.busDiscipline = BusDiscipline::Priority;
    RunnerOptions options = uncachedOptions();
    MultiCoreResults results =
        runMultiCore(profile, machine, options, kSeed);
    EXPECT_EQ(results.discipline, BusDiscipline::Priority);
    EXPECT_LT(results.bus[0].waitCycles, results.bus[1].waitCycles);
}

TEST(MultiCore, AggregateSumsCountersAndTakesTheSlowestClock)
{
    BenchmarkProfile profile = spec92::profile("espresso");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 3;
    RunnerOptions options = uncachedOptions();
    MultiCoreResults results =
        runMultiCore(profile, machine, options, kSeed);
    SimResults aggregate = results.aggregate();

    Count instructions = 0, stores = 0, stall_cycles = 0;
    Count slowest = 0;
    for (const SimResults &core : results.perCore) {
        instructions += core.instructions;
        stores += core.stores;
        stall_cycles += core.stalls.totalCycles();
        slowest = std::max(slowest, core.cycles);
    }
    EXPECT_EQ(aggregate.instructions, instructions);
    EXPECT_EQ(aggregate.stores, stores);
    EXPECT_EQ(aggregate.stalls.totalCycles(), stall_cycles);
    EXPECT_EQ(aggregate.cycles, slowest);
}

TEST(MultiCore, PerCoreWarmupBoundaryMeasuresTheTail)
{
    // Every core resets statistics at its own warmup boundary, so
    // each measured region covers exactly the post-warmup tail even
    // though the cores cross their boundaries at different cycles.
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    RunnerOptions options = uncachedOptions();
    MultiCoreResults results =
        runMultiCore(profile, machine, options, kSeed);
    for (const SimResults &core : results.perCore)
        EXPECT_EQ(core.instructions, kInstructions);
}

TEST(MultiCore, HeterogeneousCoresKeepTheirOwnConfigs)
{
    // The serve path can build mixed systems: per-core buffer depths
    // must stay with their core.
    MachineConfig shallow = figures::baselineMachine();
    shallow.writeBuffer.depth = 2;
    shallow.writeBuffer.highWaterMark = 1;
    MachineConfig deep = figures::baselineMachine();
    deep.writeBuffer.depth = 12;
    deep.writeBuffer.highWaterMark = 2;
    MultiCoreSystem system(
        std::vector<MachineConfig>{shallow, deep});
    ASSERT_EQ(system.cores(), 2u);

    BenchmarkProfile profile = spec92::profile("compress");
    SyntheticSource src0(profile, kInstructions, kSeed);
    SyntheticSource src1(profile, kInstructions, kSeed + 1);
    MultiCoreResults results = system.run({&src0, &src1});
    ASSERT_EQ(results.perCore.size(), 2u);
    EXPECT_NE(results.perCore[0].machine, results.perCore[1].machine);
}

TEST(MultiCoreFingerprint, TopologyIsPartOfTheIdentity)
{
    // The grid caches key warm state by fingerprint; a 2-core cell
    // aliasing a 1-core cell would replay the wrong checkpoint.
    MachineConfig solo = figures::baselineMachine();
    solo.cores = 1;
    MachineConfig duo = solo;
    duo.cores = 2;
    EXPECT_NE(solo.stateFingerprint(), duo.stateFingerprint());

    // At cores > 1 the discipline is live machine state...
    MachineConfig duo_priority = duo;
    duo_priority.busDiscipline = BusDiscipline::Priority;
    EXPECT_NE(duo.stateFingerprint(),
              duo_priority.stateFingerprint());

    // ...but solo it is inert and must NOT perturb the fingerprint:
    // every pre-topology cache key and golden fingerprint survives.
    MachineConfig solo_priority = solo;
    solo_priority.busDiscipline = BusDiscipline::Priority;
    EXPECT_EQ(solo.stateFingerprint(),
              solo_priority.stateFingerprint());
}

TEST(MultiCoreFingerprint, DescribeNamesTopologyOnlyWhenPresent)
{
    MachineConfig machine = figures::baselineMachine();
    EXPECT_EQ(machine.describe().find("cores"), std::string::npos);
    machine.cores = 4;
    machine.busDiscipline = BusDiscipline::Priority;
    EXPECT_NE(machine.describe().find("cores=4"), std::string::npos);
    EXPECT_NE(machine.describe().find("bus=priority"),
              std::string::npos);
}

TEST(MultiCoreConfigDeath, CoreCountIsValidated)
{
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 0;
    EXPECT_DEATH(machine.validate(), "core count");
    machine.cores = 65;
    EXPECT_DEATH(machine.validate(), "core count");
}

} // namespace
} // namespace wbsim
