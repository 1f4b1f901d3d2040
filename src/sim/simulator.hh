/**
 * @file
 * The cycle-level simulator of the paper's machine model (§2.1):
 * single-issue, blocking caches, write-through L1, coalescing write
 * buffer, and an L2 that is either perfect or real.
 *
 * The simulator is the only place timing decisions are made; caches
 * and buffers are functional models plus busy-interval resources.
 */

#ifndef WBSIM_SIM_SIMULATOR_HH
#define WBSIM_SIM_SIMULATOR_HH

#include <memory>

#include "core/store_buffer.hh"
#include "mem/l1_dcache.hh"
#include "mem/l1_icache.hh"
#include "mem/l2_cache.hh"
#include "mem/l2_port.hh"
#include "mem/main_memory.hh"
#include "obs/hooks.hh"
#include "obs/timeline.hh"
#include "sim/event_log.hh"
#include "sim/machine_config.hh"
#include "sim/results.hh"
#include "trace/source.hh"
#include "util/lint.hh"
#include "util/random.hh"

namespace wbsim
{

/**
 * A bit-exact capture of one Simulator's complete mutable state:
 * tag stores, write-buffer contents and in-flight transactions, the
 * busy intervals of the L2 port and memory channel, clocks, RNG
 * streams, and every statistic. Produced by Simulator::snapshot();
 * Simulator::restore() replays it into any simulator built from the
 * same MachineConfig, any number of times (the grid runner forks
 * many measured runs off one warm image).
 *
 * Move-only. The embedded buffer clone is bound to the snapshot's
 * own port copy and is never advanced; it exists purely as a state
 * carrier for the next cloneRebound().
 */
struct SimSnapshot
{
    std::uint64_t configFingerprint = 0;
    L1DataCache l1d;
    L1ICache l1i;
    L2Cache l2;
    MainMemory memory;
    std::unique_ptr<L2Port> port;
    std::unique_ptr<StoreBuffer> buffer;
    Cycle cycle = 0;
    Cycle cycleBase = 0;
    Count instructions = 0;
    Count loads = 0;
    Count stores = 0;
    unsigned issueSlot = 0;
    Rng bubbleRng{0};
    StallStats stalls;
    Count ifetchMisses = 0;
    Count l2IFetchStallCycles = 0;
    Count barriers = 0;
    Count barrierStallCycles = 0;
    Count storeFetches = 0;
    Count storeFetchCycles = 0;
};

/** One simulated machine; run one trace through it. */
class Simulator
{
  public:
    explicit Simulator(const MachineConfig &config);

    /**
     * Consume @p source to exhaustion, drain the write buffer so all
     * traffic is accounted, and return the aggregated results.
     */
    SimResults run(TraceSource &source);

    /**
     * Execute exactly @p count records (fewer only if the source
     * ends), without draining or producing results: the warmup half
     * of a measured run, and the one feed loop run() is built on.
     * Records arrive as run items (TraceSource::nextRuns) under a
     * record budget of what is left, so a source that stores NonMem
     * runs natively stops exactly at @p count, mid-run if need be,
     * and a later consume() or run() resumes there.
     * @return records consumed.
     */
    Count consume(TraceSource &source, Count count);

    /** Execute a single record: the run item {0, @p record}.
     *  MultiCoreSystem runs every record it schedules this way. */
    void step(const TraceRecord &record);

    /**
     * Multi-core run-ahead, on plain-issue machines only: execute
     * @p items in order while the work cannot reach the L2 port —
     * NonMem runs (charged in O(1)), NonMem records, and loads that
     * hit in L1. Load hits are held back while an event log is
     * attached, since a log shared between cores must record them
     * in schedule order.
     * @return the index of the first item whose record may reach
     *         the L2 port, with that item's NonMem run already
     *         charged and its record left for step(); @p n when
     *         every item ran.
     */
    std::size_t runAhead(const TraceRun *items, std::size_t n);

    /** Perfect I-cache and no issue bubbles: no instruction outside
     *  loads, stores and barriers can reach the L2 port, which is
     *  what runAhead() needs. Fixed by the config. */
    bool plainIssue() const { return plain_issue_; }

    /**
     * Capture all mutable state (see SimSnapshot). Typically taken
     * right after warmup + resetStats(), so restored runs begin at
     * the measurement boundary.
     */
    SimSnapshot snapshot() const;

    /**
     * Adopt the state in @p snap, which must come from a simulator
     * with an identical MachineConfig (checked by fingerprint). The
     * attached observability sink, if any, is kept.
     */
    void restore(const SimSnapshot &snap);

    /** @name Introspection for tests. */
    /// @{
    Cycle now() const { return cycle_; }
    const StallStats &stalls() const { return stalls_; }
    StoreBuffer &buffer() { return *buffer_; }
    L1DataCache &l1d() { return l1d_; }
    L2Cache &l2() { return l2_; }
    L2Port &port() { return port_; }
    MainMemory &memory() { return memory_; }
    Count instructions() const { return instructions_; }
    /// @}

    /** Drain the store buffer and advance time to completion. */
    void drain();

    /**
     * Route all of this core's L2 traffic through @p bus as
     * requester @p coreId (nullptr detaches; the default standalone
     * port is the paper's single-core machine, bit for bit).
     * Survives restore(). The MultiCoreSystem attaches every core
     * before feeding records.
     */
    void
    attachBus(BusArbiter *bus, unsigned coreId)
    {
        port_.attachBus(bus, coreId);
    }

    /**
     * Attach an observability sink: any combination of a metrics
     * registry, a cycle-attribution timeline, and an event log (all
     * optional, caller-owned; the event log records loads, stores,
     * stalls, hazards and write transfers). Null members detach the
     * corresponding channel; a default-constructed sink detaches
     * everything and every publish site reverts to a no-op.
     * Survives restore(): the restored port and buffer are
     * re-attached automatically.
     */
    void attachObs(const obs::ObsSink &sink);

    /**
     * Zero all statistics while keeping cache and buffer contents:
     * call after a warmup period so steady-state behaviour is
     * measured without compulsory-miss pollution.
     */
    void resetStats();

    /** Snapshot results so far (drain() first for exact totals). */
    SimResults results(const std::string &workload) const;

  private:
    MachineConfig config_;
    Cycle l2_transfer_cycles_;

    L1DataCache l1d_;
    L1ICache l1i_;
    L2Cache l2_;
    L2Port port_;
    MainMemory memory_;
    std::unique_ptr<StoreBuffer> buffer_;

    /** Per-instruction work outside the op handlers is pure issue
     *  arithmetic (perfect I-cache, no bubble RNG draws), so a
     *  NonMem run is charged in O(1). Fixed by the config at
     *  construction. */
    bool plain_issue_;

    Cycle cycle_ = 0;
    Cycle cycle_base_ = 0;
    Count instructions_ = 0;
    Count loads_ = 0;
    Count stores_ = 0;
    unsigned issue_slot_ = 0;
    Rng bubble_rng_{0xb0bb1e};

    StallStats stalls_;
    Count ifetch_misses_ = 0;
    Count l2_ifetch_stall_cycles_ = 0;
    Count barriers_ = 0;
    Count barrier_stall_cycles_ = 0;
    Count store_fetches_ = 0;
    Count store_fetch_cycles_ = 0;
    EventLog *event_log_ = nullptr;

    /** @name Observability sinks (null = detached = no-op). */
    /// @{
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::Timeline *timeline_ = nullptr;
    obs::MetricId m_stall_full_ = 0;   //!< buffer-full stall durations
    obs::MetricId m_stall_read_ = 0;   //!< read-access wait durations
    obs::MetricId m_stall_hazard_ = 0; //!< hazard-resolution latencies
    obs::MetricId m_stall_barrier_ = 0; //!< barrier-drain durations
    /// @}

    /** The L2 write callback handed to store-buffer instances. */
    L2WriteHook makeL2WriteHook();

    /** Record an event if a log is attached. */
    void note(SimEventKind kind, Addr addr = 0, Count a = 0,
              Count b = 0)
    {
        if (event_log_)
            event_log_->record(cycle_, kind, addr, a, b);
    }

    /** @name The feed's per-item path, forced inline into consume(),
     *  step() and runAhead(): left to its own estimate GCC outlines
     *  them into a call per item. */
    /// @{
    /** Charge the issue cost of one instruction. */
    [[gnu::always_inline]] void advanceIssue();

    /** Execute one run item: its NonMem run, then its record. */
    [[gnu::always_inline]] void runItem(const TraceRun &item);

    /**
     * Charge a run of @p count plain NonMem instructions following
     * the instruction at @p pc_before. With plain_issue_ the charge
     * is O(1): the division lands cycle_ and issue_slot_ exactly
     * where @p count advanceIssue() calls would. Otherwise each
     * instruction issues (drawing its bubble) and fetches in turn;
     * a run's pc values step by 4, so the j-th sits at
     * `pc_before + 4*j`.
     */
    [[gnu::always_inline]] void chargeNonMemRun(Count count,
                                                Addr pc_before);
    /// @}

    /** §2.2 ordering instruction: drain the buffer, stall the CPU. */
    void doBarrier();

    /** Functional-and-timing L2 write callback for the buffer. */
    Cycle l2Write(Addr base, unsigned valid_words, unsigned total_words,
                  Cycle start);

    /** Handle an instruction fetch (real-I-cache extension). */
    void fetch(Addr pc);

    void doLoad(Addr addr, unsigned size);
    void doStore(Addr addr, unsigned size);

    /** Perform a demand L2 read at @p earliest, charging port waits
     *  to the given stall counters (including the longest-episode
     *  high-water mark) and attributing any wait to @p channel on
     *  the timeline. @return data-ready cycle. */
    Cycle l2DemandRead(Addr addr, Cycle earliest, Count &stall_cycles,
                       Count &stall_events, Count &max_episode,
                       obs::Channel channel
                       = obs::Channel::ReadAccessStall);

    /** The one publish site for the read-access-stall handle
     *  (WL-PUB-UNIQUE): port waits and write-priority drains both
     *  report through it, attributing the wait to @p channel. */
    WBSIM_HOT void
    publishReadStall(Cycle at, Cycle wait, obs::Channel channel)
    {
        if (metrics_ != nullptr)
            metrics_->sample(m_stall_read_, wait);
        if (timeline_ != nullptr)
            timeline_->add(channel, at, wait);
    }
};

} // namespace wbsim

#endif // WBSIM_SIM_SIMULATOR_HH
