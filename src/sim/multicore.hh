/**
 * @file
 * MultiCoreSystem: N per-core Simulators on one clock base, every
 * core's L2 traffic serialised through one BusArbiter.
 *
 * The single-core Simulator is untouched as a component: each core
 * keeps its own L1s, store buffer, retirement engine, and stall
 * accounting. What the system adds is the shared resource and the
 * schedule. Each core runs ahead through work that cannot reach the
 * L2 port and parks its next record that can; parked records are
 * interleaved across cores in min-(clock, core id) order, with the
 * arbiter recursively advancing lagging cores whenever a bus request
 * needs a causally safe grant (DESIGN.md §14).
 *
 * A 1-core system with the bus attached reproduces the legacy
 * single-core run bit for bit (no competing requester means every
 * grant is max(earliest, freeAt), exactly the standalone port); the
 * multicore equivalence tests pin this across all policy axes.
 */

#ifndef WBSIM_SIM_MULTICORE_HH
#define WBSIM_SIM_MULTICORE_HH

#include <memory>
#include <vector>

#include "mem/bus.hh"
#include "sim/machine_config.hh"
#include "sim/results.hh"
#include "sim/simulator.hh"
#include "trace/source.hh"

namespace wbsim
{

/** Everything a multi-core run produces. */
struct MultiCoreResults
{
    /** Per-core results (measured region, core id order). */
    std::vector<SimResults> perCore;

    /** Per-core bus service accounting over the measured region. */
    std::vector<BusCoreStats> bus;

    BusDiscipline discipline = BusDiscipline::Fcfs;

    /**
     * One SimResults summarising the system: counters summed across
     * cores, cycles the max per-core cycle count (the system is done
     * when its slowest core is), mean occupancy averaged. This is
     * what runOne() returns for a multi-core cell, so grids, serve
     * responses, and reports handle topology cells with no schema
     * change.
     */
    SimResults aggregate() const;
};

/** N cores, one arbitrated bus; drive with per-core trace sources. */
class MultiCoreSystem final : public BusScheduler
{
  public:
    /** Homogeneous system: @p config replicated config.cores times. */
    explicit MultiCoreSystem(const MachineConfig &config);

    /** Heterogeneous system: one config per core (the serve path's
     *  mixed-cell scenario). Core count is configs.size(); the bus
     *  discipline comes from configs[0]. */
    explicit MultiCoreSystem(const std::vector<MachineConfig> &configs);

    unsigned
    cores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** @name Introspection for tests. */
    /// @{
    Simulator &core(unsigned i) { return *cores_[i].sim; }
    BusArbiter &bus() { return bus_; }
    /** Records that went through the schedule (the run loop or the
     *  arbiter): every record on a machine whose fetches may miss,
     *  else only stores, L1-missing loads and barriers. */
    Count handoffs() const { return handoffs_; }
    /// @}

    /**
     * Attach observability sinks to core @p i. Sinks attach at the
     * core's measurement boundary (after its warmup reset), so they
     * cover the measured region only — per-core metric shards merge
     * afterwards via MetricsRegistry::merge.
     */
    void attachObs(unsigned coreId, const obs::ObsSink &sink);

    /** Attribute bus occupancy to Channel::BusBusy on @p timeline. */
    void
    attachBusTimeline(obs::Timeline *timeline)
    {
        bus_.attachTimeline(timeline);
    }

    /**
     * Run every core's source to exhaustion under one schedule.
     * @p sources must hold one source per core (caller-owned).
     * Each core simulates @p warmup instructions, then resets its
     * statistics at its own boundary (cores cross asynchronously
     * under contention) and measures the rest. Buffers are drained
     * at the end, in core id order.
     *
     * Single-shot: the system's machine state is consumed by the
     * run. Build a fresh system for another run.
     */
    MultiCoreResults run(const std::vector<TraceSource *> &sources,
                         Count warmup = 0);

  private:
    /** @name BusScheduler: only parked records are scheduled, and a
     *  core's clock is its clock before its parked record. */
    /// @{
    Cycle
    clockOf(unsigned i) const override
    {
        return cores_[i].sim->now();
    }
    bool stepOne(unsigned i) override;
    /// @}

    struct CoreState
    {
        std::unique_ptr<Simulator> sim;
        TraceSource *source = nullptr;
        /** Run items pulled from the source; items[pos] onward are
         *  still to run. */
        std::vector<TraceRun> items;
        std::size_t pos = 0;
        std::size_t have = 0;
        /** The next record that may reach the L2 port, and whether
         *  there is one (false once the source is exhausted). */
        TraceRecord next;
        bool parked = false;
        bool measuring = false;
        BusCoreStats busAtReset;
        obs::ObsSink sink;
        std::string workload;
    };

    /** Run core @p i ahead to its next record that may reach the L2
     *  port and park it there; false when the source is exhausted.
     *  Crosses the core's warmup boundary on the way. */
    bool park(unsigned i);

    /** Reset core @p i's statistics and attach its sinks: the
     *  per-core measurement boundary. */
    void beginMeasurement(unsigned i);

    std::vector<CoreState> cores_;
    BusArbiter bus_;
    Count warmup_ = 0;
    Count handoffs_ = 0;
};

} // namespace wbsim

#endif // WBSIM_SIM_MULTICORE_HH
