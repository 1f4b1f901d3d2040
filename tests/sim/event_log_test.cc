/**
 * @file
 * Tests for the ring-buffer event log and its simulator integration.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/event_log.hh"
#include "sim/simulator.hh"
#include "trace/memory_trace.hh"

namespace wbsim
{
namespace
{

TEST(EventLog, RecordsInOrder)
{
    EventLog log(16);
    log.record(1, SimEventKind::LoadHit, 0x10);
    log.record(2, SimEventKind::Store, 0x20);
    log.record(3, SimEventKind::Hazard, 0x20, 6, 0);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log.at(0).kind, SimEventKind::LoadHit);
    EXPECT_EQ(log.at(1).addr, 0x20u);
    EXPECT_EQ(log.at(2).a, 6u);
    EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLog, RingDropsOldest)
{
    EventLog log(4);
    for (Cycle c = 1; c <= 10; ++c)
        log.record(c, SimEventKind::Store, c * 8);
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.recorded(), 10u);
    EXPECT_EQ(log.dropped(), 6u);
    EXPECT_EQ(log.at(0).cycle, 7u); // oldest retained
    EXPECT_EQ(log.at(3).cycle, 10u);
}

TEST(EventLog, OfKindFilters)
{
    EventLog log(16);
    log.record(1, SimEventKind::Store, 0x10);
    log.record(2, SimEventKind::LoadMiss, 0x20);
    log.record(3, SimEventKind::Store, 0x30);
    auto stores = log.ofKind(SimEventKind::Store);
    ASSERT_EQ(stores.size(), 2u);
    EXPECT_EQ(stores[1].addr, 0x30u);
}

TEST(EventLog, ClearResets)
{
    EventLog log(4);
    log.record(1, SimEventKind::Store, 0x10);
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.recorded(), 0u);
}

TEST(EventLog, DumpFormatsLines)
{
    EventLog log(4);
    log.record(42, SimEventKind::Hazard, 0x1000, 6, 1);
    std::ostringstream os;
    log.dump(os);
    EXPECT_EQ(os.str(), "@42 hazard addr=0x1000 a=6 b=1\n");
}

TEST(EventLog, DumpMentionsDropped)
{
    EventLog log(2);
    for (Cycle c = 1; c <= 5; ++c)
        log.record(c, SimEventKind::Store, 8);
    std::ostringstream os;
    log.dump(os);
    EXPECT_NE(os.str().find("3 earlier events dropped"),
              std::string::npos);
}

TEST(EventLog, AllKindsNamed)
{
    for (auto kind :
         {SimEventKind::LoadHit, SimEventKind::LoadMiss,
          SimEventKind::Store, SimEventKind::BufferFullStall,
          SimEventKind::ReadAccessStall, SimEventKind::Hazard,
          SimEventKind::WbWrite, SimEventKind::Barrier,
          SimEventKind::IFetchMiss}) {
        EXPECT_STRNE(simEventKindName(kind), "?");
    }
}

TEST(EventLogSim, SimulatorRecordsTheStory)
{
    MachineConfig config;
    Simulator sim(config);
    EventLog log(64);
    sim.attachObs(obs::ObsSink{.eventLog = &log});

    sim.step(TraceRecord::store(0x1000)); // store
    sim.step(TraceRecord::store(0x2000)); // store (starts retirement)
    sim.step(TraceRecord::load(0x2000));  // hazard: flush-full
    sim.step(TraceRecord::load(0x9000));  // plain miss

    EXPECT_EQ(log.ofKind(SimEventKind::Store).size(), 2u);
    ASSERT_EQ(log.ofKind(SimEventKind::Hazard).size(), 1u);
    EXPECT_EQ(log.ofKind(SimEventKind::Hazard)[0].addr, 0x2000u);
    EXPECT_EQ(log.ofKind(SimEventKind::LoadMiss).size(), 2u);
    // Retirement + flush both produced WbWrite events.
    EXPECT_EQ(log.ofKind(SimEventKind::WbWrite).size(), 2u);
}

TEST(EventLogSim, DetachedLogCostsNothing)
{
    MachineConfig config;
    Simulator with_log(config);
    Simulator without_log(config);
    EventLog log(8);
    with_log.attachObs(obs::ObsSink{.eventLog = &log});
    for (Addr a = 1; a <= 20; ++a) {
        with_log.step(TraceRecord::store(a * 0x1000));
        without_log.step(TraceRecord::store(a * 0x1000));
    }
    EXPECT_EQ(with_log.now(), without_log.now())
        << "logging must not perturb timing";
}

TEST(EventLog, ForEachVisitsEveryEventInOrder)
{
    EventLog log(16);
    log.record(1, SimEventKind::Store, 0x10);
    log.record(2, SimEventKind::LoadMiss, 0x20);
    log.record(3, SimEventKind::Store, 0x30);
    std::vector<Cycle> cycles;
    log.forEach([&](const SimEventRecord &e) {
        cycles.push_back(e.cycle);
    });
    EXPECT_EQ(cycles, (std::vector<Cycle>{1, 2, 3}));
}

TEST(EventLog, ForEachByKindFiltersWithoutAllocating)
{
    EventLog log(16);
    log.record(1, SimEventKind::Store, 0x10);
    log.record(2, SimEventKind::LoadMiss, 0x20);
    log.record(3, SimEventKind::Store, 0x30);
    log.record(4, SimEventKind::Barrier, 0, 5, 0);
    std::vector<Addr> addrs;
    log.forEach(SimEventKind::Store, [&](const SimEventRecord &e) {
        EXPECT_EQ(e.kind, SimEventKind::Store);
        addrs.push_back(e.addr);
    });
    EXPECT_EQ(addrs, (std::vector<Addr>{0x10, 0x30}));
    // The filtered visit matches the allocating ofKind() snapshot.
    EXPECT_EQ(addrs.size(), log.ofKind(SimEventKind::Store).size());
}

TEST(EventLog, ForEachAfterWrapStartsAtOldestRetained)
{
    EventLog log(4);
    for (Cycle c = 1; c <= 10; ++c)
        log.record(c, SimEventKind::Store, c * 8);
    std::vector<Cycle> cycles;
    log.forEach([&](const SimEventRecord &e) {
        cycles.push_back(e.cycle);
    });
    EXPECT_EQ(cycles, (std::vector<Cycle>{7, 8, 9, 10}));
}

TEST(EventLogSim, BarrierAndBufferFullEventsCaptured)
{
    MachineConfig config;
    Simulator sim(config);
    EventLog log(64);
    sim.attachObs(obs::ObsSink{.eventLog = &log});
    for (Addr a = 1; a <= 5; ++a)
        sim.step(TraceRecord::store(a * 0x1000));
    sim.step(TraceRecord::barrier());
    EXPECT_GE(log.ofKind(SimEventKind::BufferFullStall).size(), 1u);
    ASSERT_EQ(log.ofKind(SimEventKind::Barrier).size(), 1u);
    EXPECT_GT(log.ofKind(SimEventKind::Barrier)[0].a, 0u);
}

} // namespace
} // namespace wbsim
