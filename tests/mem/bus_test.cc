/**
 * @file
 * Unit tests for the BusArbiter: discipline name round-trips, solo
 * degeneracy, FCFS vs fixed-priority ordering under a scripted
 * BusScheduler, exhausted-core handling, and the per-core
 * accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/bus.hh"
#include "obs/timeline.hh"

namespace wbsim
{
namespace
{

TEST(BusDiscipline, NamesRoundTrip)
{
    EXPECT_STREQ(busDisciplineName(BusDiscipline::Fcfs), "fcfs");
    EXPECT_STREQ(busDisciplineName(BusDiscipline::Priority),
                 "priority");
    EXPECT_EQ(parseBusDiscipline("fcfs"), BusDiscipline::Fcfs);
    EXPECT_EQ(parseBusDiscipline("priority"),
              BusDiscipline::Priority);
    for (BusDiscipline discipline :
         {BusDiscipline::Fcfs, BusDiscipline::Priority})
        EXPECT_EQ(parseBusDiscipline(busDisciplineName(discipline)),
                  discipline);
}

TEST(BusDiscipline, TryParseRejectsUnknownNamesWithoutWriting)
{
    BusDiscipline out = BusDiscipline::Priority;
    EXPECT_FALSE(tryParseBusDiscipline("round-robin", out));
    EXPECT_EQ(out, BusDiscipline::Priority);
    EXPECT_TRUE(tryParseBusDiscipline("fcfs", out));
    EXPECT_EQ(out, BusDiscipline::Fcfs);
}

TEST(BusDisciplineDeathTest, ParseDiesOnUnknownName)
{
    EXPECT_DEATH(parseBusDiscipline("lottery"),
                 "unknown bus discipline");
}

TEST(BusArbiter, SoloGrantDegeneratesToMaxOfEarliestAndFreeAt)
{
    // One core, no scheduler: every grant is max(earliest, freeAt),
    // exactly the unattached L2Port busy-interval rule.
    BusArbiter bus(1, BusDiscipline::Fcfs);
    EXPECT_EQ(bus.acquire(0, L2Txn::Read, 10, 5), 10u);
    EXPECT_EQ(bus.freeAt(), 15u);
    // A request under the busy interval queues behind it...
    EXPECT_EQ(bus.acquire(0, L2Txn::WriteRetire, 12, 4), 15u);
    EXPECT_EQ(bus.freeAt(), 19u);
    // ...and one after it starts on time.
    EXPECT_EQ(bus.acquire(0, L2Txn::Read, 30, 2), 30u);

    const BusCoreStats &stats = bus.coreStats(0);
    EXPECT_EQ(stats.grants, 3u);
    EXPECT_EQ(stats.busyCycles, 11u);
    EXPECT_EQ(stats.waitCycles, 3u); // 15 - 12
    EXPECT_EQ(stats.contendedGrants, 1u);
    EXPECT_EQ(bus.totalGrants(), 3u);
    EXPECT_EQ(bus.totalBusyCycles(), 11u);
}

TEST(BusArbiter, BusyIntervalViewTracksTheCurrentTransaction)
{
    BusArbiter bus(2, BusDiscipline::Fcfs);
    bus.acquire(1, L2Txn::WriteRetire, 5, 10);
    EXPECT_TRUE(bus.busyAt(5));
    EXPECT_TRUE(bus.busyAt(14));
    EXPECT_FALSE(bus.busyAt(15));
    EXPECT_TRUE(bus.writeUnderwayAt(7));
    EXPECT_EQ(bus.kindAt(7), L2Txn::WriteRetire);
    EXPECT_EQ(bus.kindAt(20), L2Txn::None);
    EXPECT_EQ(bus.owner(), 1u);

    bus.acquire(0, L2Txn::Read, 20, 3);
    EXPECT_FALSE(bus.writeUnderwayAt(21));
    EXPECT_EQ(bus.kindAt(21), L2Txn::Read);
    EXPECT_EQ(bus.owner(), 0u);
}

/**
 * Scripted two-core rig: core 0 sits at a scripted clock and, when
 * the arbiter steps it, presents one scripted request of its own
 * before leaping past the causality horizon. This reproduces the
 * co-simulation re-entrancy (acquire inside stepOne) without a full
 * MultiCoreSystem.
 */
struct ScriptedRival final : BusScheduler
{
    BusArbiter bus;
    std::vector<Cycle> clocks{0, 0};
    L2Txn rivalKind = L2Txn::Read;
    Cycle rivalEarliest = 0;
    Cycle rivalDuration = 0;
    Cycle rivalStart = 0; //!< grant instant core 0 received
    bool rivalRequested = false;

    explicit ScriptedRival(BusDiscipline discipline)
        : bus(2, discipline, this)
    {
    }

    Cycle
    clockOf(unsigned core) const override
    {
        return clocks[core];
    }

    bool
    stepOne(unsigned core) override
    {
        EXPECT_EQ(core, 0u); // only core 0 is ever stepped here
        if (rivalRequested)
            return false;
        rivalRequested = true;
        clocks[0] = rivalEarliest;
        rivalStart =
            bus.acquire(0, rivalKind, rivalEarliest, rivalDuration);
        clocks[0] = 1'000'000; // past any horizon
        return true;
    }
};

TEST(BusArbiter, FcfsGrantsTheEarlierRequestFirst)
{
    // Core 1 requests [20, 30); stepping core 0 surfaces a rival
    // request at cycle 5. FCFS serves the earlier request time:
    // core 0 gets [5, 15), core 1 queues to 20 (its own earliest).
    ScriptedRival rig(BusDiscipline::Fcfs);
    rig.rivalEarliest = 5;
    rig.rivalDuration = 10;
    Cycle start = rig.bus.acquire(1, L2Txn::Read, 20, 10);
    EXPECT_EQ(rig.rivalStart, 5u);
    EXPECT_EQ(start, 20u);
    EXPECT_EQ(rig.bus.coreStats(0).grants, 1u);
    EXPECT_EQ(rig.bus.coreStats(1).grants, 1u);
    EXPECT_EQ(rig.bus.coreStats(1).waitCycles, 0u);
}

TEST(BusArbiter, FcfsQueuesTheLaterRequestBehindTheEarlier)
{
    // Rival at cycle 5 for 30 cycles: core 1's request at 20 must
    // wait for the bus to free at 35.
    ScriptedRival rig(BusDiscipline::Fcfs);
    rig.rivalEarliest = 5;
    rig.rivalDuration = 30;
    Cycle start = rig.bus.acquire(1, L2Txn::Read, 20, 10);
    EXPECT_EQ(rig.rivalStart, 5u);
    EXPECT_EQ(start, 35u);
    EXPECT_EQ(rig.bus.coreStats(1).waitCycles, 15u);
    EXPECT_EQ(rig.bus.coreStats(1).contendedGrants, 1u);
}

TEST(BusArbiter, PriorityGrantsCoreZeroOverAnEarlierRequest)
{
    // Core 1 asks first (cycle 5); stepping core 0 surfaces a rival
    // at cycle 8. Fixed priority serves core 0 first even though
    // its request is later: core 0 gets [8, 12), core 1 queues to
    // 12. FCFS would have granted core 1 at 5.
    ScriptedRival rig(BusDiscipline::Priority);
    rig.rivalEarliest = 8;
    rig.rivalDuration = 4;
    Cycle start = rig.bus.acquire(1, L2Txn::Read, 5, 10);
    EXPECT_EQ(rig.rivalStart, 8u);
    EXPECT_EQ(start, 12u);
    EXPECT_EQ(rig.bus.coreStats(1).waitCycles, 7u);
    EXPECT_EQ(rig.bus.coreStats(1).contendedGrants, 1u);
}

TEST(BusArbiter, FcfsBreaksEqualRequestTimesByArrivalOrder)
{
    // Rival surfaces a request with the same earliest cycle as the
    // outer one. Core 1 registered first (lower seq), so FCFS
    // grants it first and the rival queues.
    ScriptedRival rig(BusDiscipline::Fcfs);
    rig.rivalEarliest = 20;
    rig.rivalDuration = 10;
    Cycle start = rig.bus.acquire(1, L2Txn::Read, 20, 10);
    EXPECT_EQ(start, 20u);
    EXPECT_EQ(rig.rivalStart, 30u);
}

/** A scheduler whose cores sit at cycle 0 with nothing to run. */
struct EmptyCores final : BusScheduler
{
    unsigned steps = 0;

    Cycle
    clockOf(unsigned) const override
    {
        return 0;
    }

    bool
    stepOne(unsigned) override
    {
        ++steps;
        return false;
    }
};

TEST(BusArbiter, ExhaustedCoresStopBeingStepped)
{
    // stepOne returning false marks the core exhausted; the arbiter
    // must grant without it and never ask again.
    EmptyCores cores;
    BusArbiter bus(2, BusDiscipline::Fcfs, &cores);
    EXPECT_EQ(bus.acquire(1, L2Txn::Read, 10, 5), 10u);
    EXPECT_EQ(cores.steps, 1u);
    EXPECT_EQ(bus.acquire(1, L2Txn::Read, 20, 5), 20u);
    EXPECT_EQ(cores.steps, 1u); // not asked again
}

TEST(BusArbiter, TimelineReceivesBusOccupancy)
{
    BusArbiter bus(1, BusDiscipline::Fcfs);
    obs::Timeline timeline(100, 8);
    bus.attachTimeline(&timeline);
    bus.acquire(0, L2Txn::Read, 0, 7);
    bus.acquire(0, L2Txn::WriteRetire, 10, 3);
    EXPECT_EQ(timeline.total(obs::Channel::BusBusy), 10u);
}

TEST(BusArbiter, ResetStatsKeepsTheBusyInterval)
{
    BusArbiter bus(1, BusDiscipline::Fcfs);
    bus.acquire(0, L2Txn::Read, 0, 10);
    bus.resetStats();
    EXPECT_EQ(bus.coreStats(0).grants, 0u);
    EXPECT_EQ(bus.totalBusyCycles(), 0u);
    // Machine state survives the measurement boundary: the next
    // request still queues behind the in-flight transaction.
    EXPECT_EQ(bus.freeAt(), 10u);
    EXPECT_EQ(bus.acquire(0, L2Txn::Read, 4, 2), 10u);
}

} // namespace
} // namespace wbsim
