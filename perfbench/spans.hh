/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded
 * from the benchmark's own code around calls into the program's
 * layers; they are kept in memory and written out at exit as Chrome
 * trace_event JSON (loadable in Perfetto or chrome://tracing).
 */
#ifndef WBSIM_PERFBENCH_SPANS_HH
#define WBSIM_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** One closed span; times are nanoseconds since the recorder's
 *  origin. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the causing span, -1 for a root. */
    int parent = -1;
    /** Cell (or request) the span belongs to, -1 for none. */
    long cell = -1;
    /** Recording thread, numbered in first-use order. */
    unsigned thread = 0;
};

/** Thread-safe append-only span store. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span now; returns its id for children and close(). */
    int open(const std::string &name, long cell, int parent);
    void close(int id);

    /** Spans recorded so far (a mark for selfSecondsByLayer). */
    std::size_t size() const;

    /** Self time per layer (the span name up to its first '.') over
     *  the spans recorded from mark @p first on: each span's duration
     *  minus the part of it its children cover. */
    std::map<std::string, double>
    selfSecondsByLayer(std::size_t first = 0) const;

    /** Durations, in seconds, of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Chrome trace_event document; @p stamp lands in "metadata". */
    void writeChromeTrace(
        std::ostream &os,
        const std::vector<std::pair<std::string, std::string>> &stamp)
        const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::uint64_t, unsigned> threads_;
};

/** RAII span; a null recorder makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name,
               long cell = -1, int parent = -1)
        : recorder_(recorder),
          id_(recorder ? recorder->open(name, cell, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder *recorder_;
    int id_;
};

} // namespace perfbench

#endif // WBSIM_PERFBENCH_SPANS_HH
