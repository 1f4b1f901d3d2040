/**
 * @file
 * Golden-file tests: the JSON, CSV, and trace_event artifacts of a
 * tiny deterministic run, and the per-core results of a few small
 * multi-core cells, must match the checked-in references byte for
 * byte. Regenerate with WBSIM_UPDATE_GOLDEN=1 after a deliberate
 * format change and review the diff like any other code change.
 *
 * The golden provenance pins build_flags to "golden" so the files do
 * not churn with the compiler version.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "obs/export.hh"
#include "obs/hooks.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/trace_event.hh"
#include "sim/event_log.hh"
#include "sim/multicore.hh"
#include "workloads/spec92.hh"

#ifndef WBSIM_GOLDEN_DIR
#error "WBSIM_GOLDEN_DIR must point at tests/obs/golden"
#endif

namespace wbsim::obs
{
namespace
{

constexpr Count kInstructions = 1'000;
constexpr Count kWarmup = 200;
constexpr std::uint64_t kSeed = 1;

bool
updateMode()
{
    const char *env = std::getenv("WBSIM_UPDATE_GOLDEN");
    return env != nullptr && *env != '\0' && *env != '0';
}

std::string
goldenPath(const std::string &name)
{
    return std::string(WBSIM_GOLDEN_DIR) + "/" + name;
}

/** Compare @p actual against golden @p name (or regenerate it). */
void
expectGolden(const std::string &name, const std::string &actual)
{
    std::string path = goldenPath(name);
    if (updateMode()) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << actual;
        SUCCEED() << "regenerated " << path;
        return;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden file " << path
                    << " (run with WBSIM_UPDATE_GOLDEN=1)";
    std::ostringstream expected;
    expected << is.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "artifact drifted from " << path
        << "; regenerate with WBSIM_UPDATE_GOLDEN=1 if intended";
}

Provenance
goldenProvenance(const MachineConfig &machine)
{
    Provenance p;
    p.machineFingerprint = machine.stateFingerprint();
    p.machine = machine.describe();
    p.seed = kSeed;
    p.instructions = kInstructions;
    p.warmup = kWarmup;
    p.buildFlags = "golden";
    return p;
}

TEST(Golden, SimResultsJson)
{
    MachineConfig machine = figures::baselineMachine();
    SimResults r = runOne(spec92::profile("compress"), machine,
                          kInstructions, kSeed, kWarmup);
    std::ostringstream os;
    writeSimResultsJson(os, r, goldenProvenance(machine));
    expectGolden("sim_results.json", os.str());
    // Whatever the bytes, they must still round-trip.
    EXPECT_EQ(parseSimResultsJson(os.str()), r);
}

TEST(Golden, GridCsv)
{
    MachineConfig baseline = figures::baselineMachine();
    MachineConfig deep = baseline;
    deep.writeBuffer.depth = 12;
    deep.writeBuffer.highWaterMark = 8;
    std::vector<std::vector<SimResults>> grid;
    for (const char *benchmark : {"compress", "li"}) {
        BenchmarkProfile profile = spec92::profile(benchmark);
        grid.push_back(
            {runOne(profile, baseline, kInstructions, kSeed, kWarmup),
             runOne(profile, deep, kInstructions, kSeed, kWarmup)});
    }
    std::ostringstream os;
    writeGridCsv(os, {"compress", "li"}, {"wb4", "wb12"}, grid);
    expectGolden("grid.csv", os.str());
}

TEST(Golden, TraceEventJson)
{
    MachineConfig machine = figures::baselineMachine();
    EventLog log(256);
    Timeline timeline;
    MetricsRegistry metrics;
    ObsSink sink{&metrics, &timeline, &log};
    runOne(spec92::profile("compress"), machine, kInstructions, kSeed,
           kWarmup, sink);
    std::ostringstream os;
    writeTraceEventJson(os, &log, &timeline,
                        goldenProvenance(machine));
    expectGolden("trace_event.json", os.str());
}

TEST(Golden, MultiCoreCells)
{
    // Small 2- and 4-core cells under both bus disciplines, plus a
    // real-I-cache machine (every instruction may fetch through the
    // bus), replayed from materialized traces so NonMem runs arrive
    // as run items. Each core's SimResults document and bus service
    // accounting is pinned: the schedule may be reorganised, but no
    // bit of any core's result may move.
    struct Cell
    {
        const char *benchmark;
        unsigned cores;
        BusDiscipline discipline;
        bool realICache;
    };
    constexpr Cell kCells[] = {
        {"compress", 2, BusDiscipline::Fcfs, false},
        {"compress", 2, BusDiscipline::Priority, false},
        {"espresso", 4, BusDiscipline::Fcfs, false},
        {"li", 4, BusDiscipline::Priority, false},
        {"compress", 2, BusDiscipline::Fcfs, true},
    };
    RunnerOptions options;
    options.instructions = 4 * kInstructions;
    options.warmup = kInstructions;
    options.seed = kSeed;
    options.materialize = true;
    options.checkpoints = false;

    std::ostringstream os;
    for (const Cell &cell : kCells) {
        MachineConfig machine = figures::baselineMachine();
        machine.cores = cell.cores;
        machine.busDiscipline = cell.discipline;
        machine.perfectICache = !cell.realICache;
        machine.validate();
        MultiCoreResults r = runMultiCore(spec92::profile(cell.benchmark),
                                          machine, options, kSeed);
        ASSERT_EQ(r.perCore.size(), cell.cores);
        os << "# " << cell.benchmark << " " << machine.describe()
           << "\n";
        for (unsigned i = 0; i < cell.cores; ++i) {
            Provenance p = goldenProvenance(machine);
            p.seed = kSeed + i;
            p.instructions = options.instructions;
            p.warmup = options.warmup;
            os << "## core " << i << "\n";
            writeSimResultsJson(os, r.perCore[i], p);
            const BusCoreStats &bus = r.bus[i];
            os << "## bus " << i << " grants=" << bus.grants
               << " busy_cycles=" << bus.busyCycles
               << " wait_cycles=" << bus.waitCycles
               << " contended_grants=" << bus.contendedGrants << "\n";
        }
    }
    expectGolden("multicore_cells.txt", os.str());
}

} // namespace
} // namespace wbsim::obs
