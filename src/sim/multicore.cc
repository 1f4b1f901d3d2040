#include "sim/multicore.hh"

#include <algorithm>

#include "util/logging.hh"

namespace wbsim
{

namespace
{

/// Run items pulled from a core's TraceSource per refill.
constexpr std::size_t kFeedBatch = 256;

std::vector<MachineConfig>
replicate(const MachineConfig &config)
{
    config.validate();
    return std::vector<MachineConfig>(std::max(1u, config.cores),
                                      config);
}

} // namespace

SimResults
MultiCoreResults::aggregate() const
{
    wbsim_assert(!perCore.empty(), "aggregating an empty system");
    SimResults r = perCore.front();
    for (std::size_t i = 1; i < perCore.size(); ++i) {
        const SimResults &c = perCore[i];
        r.instructions += c.instructions;
        r.cycles = std::max(r.cycles, c.cycles);
        r.loads += c.loads;
        r.stores += c.stores;
        r.stalls += c.stalls;
        r.l1LoadHits += c.l1LoadHits;
        r.l1LoadMisses += c.l1LoadMisses;
        r.l1StoreHits += c.l1StoreHits;
        r.l1StoreMisses += c.l1StoreMisses;
        r.wbMerges += c.wbMerges;
        r.wbAllocations += c.wbAllocations;
        r.wbRetirements += c.wbRetirements;
        r.wbFlushes += c.wbFlushes;
        r.wbHazards += c.wbHazards;
        r.wbServedLoads += c.wbServedLoads;
        r.wbWordsWritten += c.wbWordsWritten;
        r.wbEntriesWritten += c.wbEntriesWritten;
        r.wbMeanOccupancy += c.wbMeanOccupancy;
        r.l2ReadHits += c.l2ReadHits;
        r.l2ReadMisses += c.l2ReadMisses;
        r.l2WriteHits += c.l2WriteHits;
        r.l2WriteMisses += c.l2WriteMisses;
        r.memReads += c.memReads;
        r.memWriteBacks += c.memWriteBacks;
        r.ifetchMisses += c.ifetchMisses;
        r.l2IFetchStallCycles += c.l2IFetchStallCycles;
        r.barriers += c.barriers;
        r.barrierStallCycles += c.barrierStallCycles;
        r.storeFetches += c.storeFetches;
        r.storeFetchCycles += c.storeFetchCycles;
    }
    r.wbMeanOccupancy /= static_cast<double>(perCore.size());
    return r;
}

MultiCoreSystem::MultiCoreSystem(const MachineConfig &config)
    : MultiCoreSystem(replicate(config))
{
}

MultiCoreSystem::MultiCoreSystem(
    const std::vector<MachineConfig> &configs)
    : bus_(static_cast<unsigned>(
               std::max<std::size_t>(1, configs.size())),
           configs.empty() ? BusDiscipline::Fcfs
                           : configs.front().busDiscipline,
           this)
{
    wbsim_assert(!configs.empty(),
                 "a multi-core system needs at least one core");
    cores_.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        CoreState core;
        core.sim = std::make_unique<Simulator>(configs[i]);
        core.sim->attachBus(&bus_, static_cast<unsigned>(i));
        core.items.resize(kFeedBatch);
        cores_.push_back(std::move(core));
    }
}

void
MultiCoreSystem::attachObs(unsigned coreId, const obs::ObsSink &sink)
{
    wbsim_assert(coreId < cores_.size(),
                 "obs attach to an unknown core");
    cores_[coreId].sink = sink;
    // Already past the measurement boundary (warmup == 0 or a
    // mid-run attach): take effect immediately, like the single-core
    // harness attaching after resetStats().
    if (cores_[coreId].measuring && sink.attached())
        cores_[coreId].sim->attachObs(sink);
}

void
MultiCoreSystem::beginMeasurement(unsigned i)
{
    CoreState &core = cores_[i];
    core.sim->resetStats();
    core.busAtReset = bus_.coreStats(i);
    core.measuring = true;
    if (core.sink.attached())
        core.sim->attachObs(core.sink);
}

bool
MultiCoreSystem::park(unsigned i)
{
    CoreState &core = cores_[i];
    Simulator &sim = *core.sim;
    for (;;) {
        if (core.pos == core.have) {
            // Each core crosses its warmup boundary at its own pace:
            // under contention the cores' clocks diverge, so a global
            // boundary would mix warmup and measured cycles on the
            // faster cores. The record budget cuts the refill there.
            if (!core.measuring && sim.instructions() >= warmup_)
                beginMeasurement(i);
            Count budget = core.measuring
                ? kNoRecordBudget
                : warmup_ - sim.instructions();
            core.have = core.source->nextRuns(core.items.data(),
                                              kFeedBatch, budget);
            core.pos = 0;
            if (core.have == 0)
                return false;
        }
        TraceRun &item = core.items[core.pos];
        if (sim.plainIssue()) {
            core.pos += sim.runAhead(&item, core.have - core.pos);
            if (core.pos == core.have)
                continue;
            core.next = core.items[core.pos++].rec;
            return true;
        }
        // Any fetch may miss to L2: every instruction is scheduled,
        // the run's NonMem instructions one at a time.
        if (item.nonMemBefore != 0) {
            --item.nonMemBefore;
            item.pcBefore += 4;
            core.next = TraceRecord::nonMem(item.pcBefore);
            return true;
        }
        core.next = item.rec;
        ++core.pos;
        return true;
    }
}

bool
MultiCoreSystem::stepOne(unsigned i)
{
    CoreState &core = cores_[i];
    if (!core.parked)
        return false;
    ++handoffs_;
    core.sim->step(core.next);
    core.parked = park(i);
    return true;
}

MultiCoreResults
MultiCoreSystem::run(const std::vector<TraceSource *> &sources,
                     Count warmup)
{
    wbsim_assert(sources.size() == cores_.size(),
                 "one trace source per core required");
    warmup_ = warmup;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        wbsim_assert(sources[i] != nullptr, "null trace source");
        cores_[i].source = sources[i];
        cores_[i].workload = sources[i]->name();
        if (warmup == 0)
            beginMeasurement(static_cast<unsigned>(i));
    }
    for (unsigned i = 0; i < cores_.size(); ++i)
        cores_[i].parked = park(i);

    // Min-clock schedule over parked records: always run the parked
    // record whose core clock is furthest behind (ties to the lowest
    // id), so no core passes bus traffic that could contend with it.
    // Work between two parked records never reads or writes the bus,
    // so running it ahead leaves the order of bus-touching records
    // exactly as a record-by-record min-clock schedule has it. The
    // bus arbiter recursively advances lagging cores inside a step
    // whenever a grant needs the causality window closed.
    for (;;) {
        int best = -1;
        Cycle best_clock = 0;
        for (unsigned i = 0; i < cores_.size(); ++i) {
            if (!cores_[i].parked)
                continue;
            Cycle t = cores_[i].sim->now();
            if (best < 0 || t < best_clock) {
                best = static_cast<int>(i);
                best_clock = t;
            }
        }
        if (best < 0)
            break;
        stepOne(static_cast<unsigned>(best));
    }

    // Drain in core id order; drains serialise through the bus like
    // any other write traffic.
    for (CoreState &core : cores_)
        core.sim->drain();

    MultiCoreResults out;
    out.discipline = bus_.discipline();
    out.perCore.reserve(cores_.size());
    out.bus.reserve(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        CoreState &core = cores_[i];
        wbsim_assert(core.measuring,
                     "a core never reached its warmup quota; "
                     "warmup must be shorter than the trace");
        out.perCore.push_back(core.sim->results(core.workload));
        const BusCoreStats &now =
            bus_.coreStats(static_cast<unsigned>(i));
        const BusCoreStats &base = core.busAtReset;
        BusCoreStats measured;
        measured.grants = now.grants - base.grants;
        measured.busyCycles = now.busyCycles - base.busyCycles;
        measured.waitCycles = now.waitCycles - base.waitCycles;
        measured.contendedGrants =
            now.contendedGrants - base.contendedGrants;
        out.bus.push_back(measured);
    }
    return out;
}

} // namespace wbsim
