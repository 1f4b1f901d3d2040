/**
 * @file
 * Abstract instruction-stream source.
 *
 * A source is a synthetic workload generator, an in-memory or
 * materialized trace, or a trace file reader. The simulator pulls
 * run items (TraceRun) from it in batches; sources are single-pass
 * but restartable via reset().
 */

#ifndef WBSIM_TRACE_SOURCE_HH
#define WBSIM_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>

#include "trace/record.hh"

namespace wbsim
{

/**
 * One run item: a run of plain non-memory instructions followed by
 * one explicit record. Materialized traces store NonMem runs as a
 * prefix count on the next record, so this is their native decode
 * shape; consumers charge the run in O(1) when per-instruction work
 * is pure issue arithmetic.
 *
 * The run covers @ref nonMemBefore plain NonMem records (size 0, no
 * address, pc ascending by 4 from `pcBefore + 4`); their pc values
 * are implied, not stored. `rec.pc` need not continue the run: the
 * record may follow a taken branch. A run with no following record,
 * or one cut by a record budget, ends in an item whose `rec` is
 * itself the run's last plain NonMem record.
 */
struct TraceRun
{
    /** Plain NonMem records preceding (and not including) rec. */
    std::uint32_t nonMemBefore = 0;
    TraceRecord rec;
    /** pc of the record before the run; meaningful only when
     *  nonMemBefore != 0. */
    Addr pcBefore = 0;
};

/** nextRuns() budget meaning "until the end of the stream". */
constexpr Count kNoRecordBudget = std::numeric_limits<Count>::max();

/** A restartable stream of retired-instruction records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Fetch the next record.
     * @return false at end of stream (record untouched).
     */
    virtual bool next(TraceRecord &record) = 0;

    /**
     * Fetch up to @p max records into @p out. The default
     * nextRuns() consumes batches, so the per-record cost of a
     * source is a flat copy/decode, not a virtual call; sources with
     * cheap bulk access (generators, in-memory and materialized
     * traces) override this.
     * @return number of records delivered; < max only at end of
     *         stream.
     */
    virtual std::size_t
    nextBatch(TraceRecord *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /**
     * Fetch up to @p max run items covering at most @p record_budget
     * records in total (an item covers `nonMemBefore + 1` records).
     * This default emits one item per record, over nextBatch();
     * sources that store or generate NonMem runs natively
     * (materialized traces, the synthetic generator) override it.
     * @return number of items delivered; 0 at end of stream or when
     *         the budget is 0.
     */
    virtual std::size_t
    nextRuns(TraceRun *out, std::size_t max,
             Count record_budget = kNoRecordBudget)
    {
        constexpr std::size_t kChunk = 256;
        TraceRecord chunk[kChunk];
        std::size_t want = static_cast<std::size_t>(
            std::min<Count>(max, record_budget));
        std::size_t n = 0;
        while (n < want) {
            std::size_t ask = std::min(want - n, kChunk);
            std::size_t got = nextBatch(chunk, ask);
            for (std::size_t i = 0; i < got; ++i)
                out[n + i] = TraceRun{0, chunk[i]};
            n += got;
            if (got < ask)
                break;
        }
        return n;
    }

    /** Rewind to the beginning of the stream. */
    virtual void reset() = 0;

    /** Human-readable identity for reports. */
    virtual std::string name() const = 0;
};

} // namespace wbsim

#endif // WBSIM_TRACE_SOURCE_HH
