/**
 * @file
 * Tests for MaterializedTrace / MaterializedCursor: the encoded
 * replay must be record-for-record identical to the source stream,
 * and seek() must land exactly where sequential decode would.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

std::vector<TraceRecord>
drain(TraceSource &source)
{
    std::vector<TraceRecord> records;
    TraceRecord record;
    while (source.next(record))
        records.push_back(record);
    return records;
}

/** Expand run items back into flat records. A run's NonMem pcs step
 *  by 4 from the pc of the record preceding the run. */
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

TEST(MaterializedTrace, RoundTripsSyntheticStreamExactly)
{
    BenchmarkProfile profile = spec92::profile("espresso");
    SyntheticSource reference(profile, 20'000, 7);
    std::vector<TraceRecord> expected = drain(reference);

    SyntheticSource again(profile, 20'000, 7);
    MaterializedTrace trace = MaterializedTrace::build(again);
    ASSERT_EQ(trace.size(), expected.size());
    EXPECT_EQ(trace.name(), again.name());

    MaterializedCursor cursor(trace);
    std::vector<TraceRecord> replayed = drain(cursor);
    ASSERT_EQ(replayed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(replayed[i], expected[i]) << "record " << i;
}

TEST(MaterializedTrace, EncodingIsCompact)
{
    BenchmarkProfile profile = spec92::profile("li");
    SyntheticSource source(profile, 50'000, 1);
    MaterializedTrace trace = MaterializedTrace::build(source);
    // The whole point: well under sizeof(TraceRecord) per record.
    EXPECT_LT(trace.encodedBytes(),
              trace.size() * sizeof(TraceRecord) / 2);
}

TEST(MaterializedTrace, FingerprintIdentifiesContent)
{
    BenchmarkProfile profile = spec92::profile("tomcatv");
    SyntheticSource a1(profile, 10'000, 3);
    SyntheticSource a2(profile, 10'000, 3);
    SyntheticSource b(profile, 10'000, 4);
    MaterializedTrace ta1 = MaterializedTrace::build(a1);
    MaterializedTrace ta2 = MaterializedTrace::build(a2);
    MaterializedTrace tb = MaterializedTrace::build(b);
    auto decoded = [](const MaterializedTrace &trace) {
        MaterializedCursor cursor(trace);
        return drain(cursor);
    };
    EXPECT_EQ(decoded(ta1), decoded(ta2));
    EXPECT_NE(decoded(ta1), decoded(tb));
}

TEST(MaterializedTrace, BuildHonoursLimit)
{
    BenchmarkProfile profile = spec92::profile("compress");
    SyntheticSource source(profile, 10'000, 1);
    MaterializedTrace trace = MaterializedTrace::build(source, 1'234);
    EXPECT_EQ(trace.size(), 1'234u);
}

TEST(MaterializedCursor, SeekMatchesSequentialDecode)
{
    // Three sync intervals (4096-record blocks) of a run-heavy
    // stream: seeks land on sync points, inside NonMem runs and just
    // before the records that carry them.
    BenchmarkProfile profile = spec92::profile("compress");
    SyntheticSource source(profile, 3 * 4096, 11);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor sequential(trace);
    std::vector<TraceRecord> all = drain(sequential);

    constexpr Count kWindow = 300;
    for (Count p = 0; p < trace.size(); ++p) {
        MaterializedCursor cursor(trace);
        cursor.seek(p);
        ASSERT_EQ(cursor.position(), p);
        // Continue through a mix of item and record reads.
        std::vector<TraceRecord> seen;
        TraceRun items[3];
        expandItems(items, cursor.nextRuns(items, 3), seen);
        TraceRecord record;
        while (seen.size() < kWindow && cursor.next(record))
            seen.push_back(record);
        ASSERT_GE(seen.size(), std::min(kWindow, trace.size() - p))
            << "position " << p;
        for (std::size_t i = 0; i < seen.size(); ++i)
            ASSERT_EQ(seen[i], all[p + i])
                << "position " << p << " + " << i;
    }

    // Seeking to the end yields an exhausted cursor.
    MaterializedCursor end(trace);
    end.seek(trace.size());
    EXPECT_EQ(end.position(), trace.size());
    TraceRecord record;
    EXPECT_FALSE(end.next(record));
}

TEST(MaterializedCursor, NextBatchMatchesNext)
{
    BenchmarkProfile profile = spec92::profile("fft");
    SyntheticSource source(profile, 5'000, 2);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor one(trace);
    std::vector<TraceRecord> singles = drain(one);

    MaterializedCursor batched(trace);
    std::vector<TraceRecord> batches;
    TraceRecord buffer[192]; // deliberately not a divisor of 5000
    for (;;) {
        std::size_t got = batched.nextBatch(buffer, 192);
        batches.insert(batches.end(), buffer, buffer + got);
        if (got < 192)
            break;
    }
    ASSERT_EQ(batches.size(), singles.size());
    for (std::size_t i = 0; i < singles.size(); ++i)
        ASSERT_EQ(batches[i], singles[i]) << "record " << i;
}

std::vector<TraceRecord>
expandRuns(MaterializedCursor &cursor, std::size_t batch_items)
{
    std::vector<TraceRecord> records;
    std::vector<TraceRun> items(batch_items);
    for (;;) {
        std::size_t got = cursor.nextRuns(items.data(), batch_items);
        if (got == 0)
            break;
        expandItems(items.data(), got, records);
    }
    return records;
}

TEST(MaterializedCursor, NextRunsExpandsToSameStream)
{
    // Profiles with very different run structure: dense NonMem runs
    // (compress), store-heavy bursts (tomcatv), and a pure-NonMem
    // tail exercising the carrier form.
    for (const char *name : {"compress", "tomcatv", "espresso"}) {
        BenchmarkProfile profile = spec92::profile(name);
        SyntheticSource source(profile, 20'000, 5);
        MaterializedTrace trace = MaterializedTrace::build(source);

        MaterializedCursor flat(trace);
        std::vector<TraceRecord> expected = drain(flat);

        // Odd item-batch size so refills land mid-stream.
        MaterializedCursor runs(trace);
        std::vector<TraceRecord> expanded = expandRuns(runs, 17);
        ASSERT_EQ(expanded.size(), expected.size()) << name;
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(expanded[i], expected[i])
                << name << " record " << i;
    }
}

TEST(MaterializedCursor, NextRunsResumesAfterRecordBatchCut)
{
    BenchmarkProfile profile = spec92::profile("compress");
    SyntheticSource source(profile, 20'000, 9);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor flat(trace);
    std::vector<TraceRecord> expected = drain(flat);

    // Interleave record batches (odd size, so they cut items mid-run)
    // with run batches; together they must still cover the stream
    // record-for-record.
    MaterializedCursor mixed(trace);
    std::vector<TraceRecord> seen;
    TraceRecord buffer[7];
    std::vector<TraceRun> items(5);
    bool use_records = true;
    for (;;) {
        std::size_t before = seen.size();
        if (use_records) {
            std::size_t got = mixed.nextBatch(buffer, 7);
            seen.insert(seen.end(), buffer, buffer + got);
        } else {
            std::size_t got = mixed.nextRuns(items.data(), 5);
            expandItems(items.data(), got, seen);
        }
        use_records = !use_records;
        if (seen.size() == before)
            break;
    }
    ASSERT_EQ(seen.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(seen[i], expected[i]) << "record " << i;
    EXPECT_EQ(mixed.position(), trace.size());
}

TEST(MaterializedCursor, NextRunsStopsExactlyAtRecordBudget)
{
    BenchmarkProfile profile = spec92::profile("compress");
    SyntheticSource source(profile, 20'000, 9);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor flat(trace);
    std::vector<TraceRecord> expected = drain(flat);

    // Budgets of 1..13 records cut items mid-run again and again;
    // the pieces must still cover the stream record-for-record.
    MaterializedCursor budgeted(trace);
    std::vector<TraceRecord> seen;
    std::vector<TraceRun> items(64);
    for (Count budget = 1;; budget = budget % 13 + 1) {
        Count before = budgeted.position();
        std::size_t got =
            budgeted.nextRuns(items.data(), items.size(), budget);
        if (got == 0)
            break;
        expandItems(items.data(), got, seen);
        ASSERT_EQ(seen.size(), budgeted.position());
        ASSERT_LE(budgeted.position() - before, budget);
        if (budgeted.position() < trace.size()) {
            ASSERT_EQ(budgeted.position() - before, budget);
        }
    }
    ASSERT_EQ(seen.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(seen[i], expected[i]) << "record " << i;
    budgeted.reset();
    EXPECT_EQ(budgeted.nextRuns(items.data(), items.size(), 0), 0u);
    EXPECT_EQ(budgeted.position(), 0u);
}

TEST(MaterializedCursor, ResetRestartsFromRecordZero)
{
    BenchmarkProfile profile = spec92::profile("li");
    SyntheticSource source(profile, 1'000, 1);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor cursor(trace);
    TraceRecord first;
    ASSERT_TRUE(cursor.next(first));
    TraceRecord record;
    while (cursor.next(record)) {
    }
    cursor.reset();
    EXPECT_EQ(cursor.position(), 0u);
    TraceRecord again;
    ASSERT_TRUE(cursor.next(again));
    EXPECT_EQ(again, first);
}

} // namespace
} // namespace wbsim
