/**
 * @file
 * Shared types of the wbsim benchmark program: cells, metrics, the
 * per-workload interface, and the byte/digest helpers the
 * correctness gate uses.
 */
#ifndef WBSIM_PERFBENCH_BENCH_HH
#define WBSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.hh"
#include "sim/machine_config.hh"
#include "sim/multicore.hh"
#include "sim/results.hh"
#include "workloads/profile.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;
using wbsim::Count;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One simulated (profile, machine, seed, length) cell. */
struct Cell
{
    wbsim::BenchmarkProfile profile;
    wbsim::MachineConfig machine;
    std::uint64_t seed = 1;
    Count instructions = 0;
    Count warmup = 0;
};

/** One metric line: printed for humans and emitted in the JSON. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (1 for an exact count). */
    std::size_t samples = 1;
    /** Base, definition or caveat printed beside the value. */
    std::string note;
};

inline void
addMetric(std::vector<Metric> &out, const std::string &name, double value,
          const std::string &unit, std::size_t samples,
          const std::string &note = "")
{
    out.push_back({name, value, unit, samples, note});
}

/**
 * The exact simulated work of a set of cells: summed SimResults
 * counters plus bus and grid-cache counts. Every field is an integer
 * (or a sum of bit-identical doubles), so two runs of one program at
 * one seed must agree exactly.
 */
struct WorkCounts
{
    wbsim::SimResults sum;
    double occupancySum = 0.0;
    std::size_t cells = 0;
    wbsim::BusCoreStats bus;
    Count busSpanCycles = 0;
    std::size_t traceLookups = 0;
    std::size_t traceHits = 0;
    std::size_t checkpointLookups = 0;
    std::size_t checkpointHits = 0;

    void add(const wbsim::SimResults &r);
    void addBus(const wbsim::MultiCoreResults &r);
    bool operator==(const WorkCounts &other) const = default;
};

/** What one timed pass over a workload's cells produced. */
struct PassResult
{
    double wallSeconds = 0.0;
    std::size_t cells = 0;
    /** Simulated instructions, warmup included, of cells actually
     *  simulated (store hits and checkpoint resumes skip warmup). */
    double simInstructions = 0.0;
    /** Latency of each user request in the pass, milliseconds. */
    std::vector<double> requestMs;
    /** Cells that errored or exhausted their retries. */
    std::size_t failed = 0;
    /** Digest of every cell's result bytes, in cell order. */
    std::uint64_t digest = 0;
    WorkCounts counts;
};

class SpanRecorder;

/**
 * A benchmark workload. setUp() builds the inputs (and, for the
 * served mix, the server and its connections); pass() runs one
 * fixed, seed-determined set of cells and may be repeated.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs and connections; tearDown() undoes it. */
    virtual void setUp() = 0;
    virtual void tearDown() = 0;
    /** One pass. With @p spans set, record a span around each call
     *  the pass makes into the program. */
    virtual PassResult pass(unsigned index, SpanRecorder *spans) = 0;
    /** What a "request" is in requestMs, for the printed notes. */
    virtual const char *requestUnit() const = 0;
    /** A deterministic sample of pass 0's cells for the correctness
     *  gate and the traced layer replay. */
    virtual std::vector<Cell> sample() const = 0;
    /**
     * Cross-check the sampled cells against the uncached reference
     * path; returns the number of mismatching cells and appends a
     * line per mismatch to @p log.
     */
    virtual std::size_t check(std::string &log) = 0;
    /** Loopback port of the workload's own server, 0 for none. */
    virtual std::uint16_t servePort() const { return 0; }
};

std::unique_ptr<Workload> makeGridSweep(std::uint64_t seed,
                                        unsigned threads);
std::unique_ptr<Workload> makeMcBus(std::uint64_t seed,
                                    unsigned threads);
std::unique_ptr<Workload> makeServedMix(std::uint64_t seed);

/** Provenance build string stamped into result bytes that feed the
 *  committed digests: fixed, so the digest does not name a
 *  compiler. */
inline constexpr const char *kDigestBuildFlags = "perfbench";

/** The provenance a served or local result document of @p cell
 *  carries, stamped with @p buildFlags. */
wbsim::obs::Provenance provenanceOf(const Cell &cell,
                                    const std::string &buildFlags);

/** The wbsim-sim-results-v1 bytes of @p results for @p cell. */
std::string resultBytes(const wbsim::SimResults &results,
                        const Cell &cell,
                        const std::string &buildFlags);

/** FNV-1a over @p bytes, chained from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Quantile @p q of @p values (linear interpolation, as numpy). */
double quantile(std::vector<double> values, double q);

/**
 * Per-layer timings and counts from replaying @p cells through every
 * layer's public entry points (layers.cc). The serve layer is driven
 * through the server on @p port, or through a replay server started
 * here when @p port is 0. Returns the number of replayed cells whose
 * bytes disagree with the uncached reference; @p log names them.
 */
std::size_t replayLayers(const std::vector<Cell> &cells,
                         std::uint16_t port, SpanRecorder &spans,
                         std::vector<Metric> &out, std::string &log);

/** The exact-count metrics (core, mem, mem.bus, harness). */
void countMetrics(const WorkCounts &counts, std::vector<Metric> &out);

} // namespace perfbench

#endif // WBSIM_PERFBENCH_BENCH_HH
