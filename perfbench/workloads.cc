/**
 * @file
 * The three benchmark workloads. Each pass runs one fixed,
 * seed-determined set of cells from cold grid caches, so every pass
 * repeats the same work and a run reports medians over its passes.
 */

#include <sched.h>

#include <algorithm>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "obs/export.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "spans.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "workloads/spec92.hh"

namespace perfbench
{

using namespace wbsim;

void
WorkCounts::add(const SimResults &r)
{
    SimResults &s = sum;
    s.instructions += r.instructions;
    s.cycles += r.cycles;
    s.loads += r.loads;
    s.stores += r.stores;
    s.stalls += r.stalls;
    s.l1LoadHits += r.l1LoadHits;
    s.l1LoadMisses += r.l1LoadMisses;
    s.wbMerges += r.wbMerges;
    s.wbEntriesWritten += r.wbEntriesWritten;
    s.wbHazards += r.wbHazards;
    s.l2ReadHits += r.l2ReadHits;
    s.l2ReadMisses += r.l2ReadMisses;
    s.l2WriteHits += r.l2WriteHits;
    s.l2WriteMisses += r.l2WriteMisses;
    occupancySum += r.wbMeanOccupancy;
    ++cells;
}

void
WorkCounts::addBus(const MultiCoreResults &r)
{
    Count span = 0;
    for (const SimResults &core : r.perCore)
        span = std::max(span, core.cycles);
    busSpanCycles += span;
    for (const BusCoreStats &core : r.bus) {
        bus.grants += core.grants;
        bus.busyCycles += core.busyCycles;
        bus.waitCycles += core.waitCycles;
        bus.contendedGrants += core.contendedGrants;
    }
}

obs::Provenance
provenanceOf(const Cell &cell, const std::string &buildFlags)
{
    obs::Provenance provenance;
    provenance.machineFingerprint = cell.machine.stateFingerprint();
    provenance.machine = cell.machine.describe();
    provenance.seed = cell.seed;
    provenance.instructions = cell.instructions;
    provenance.warmup = cell.warmup;
    provenance.buildFlags = buildFlags;
    return provenance;
}

std::string
resultBytes(const SimResults &results, const Cell &cell,
            const std::string &buildFlags)
{
    std::ostringstream os;
    obs::writeSimResultsJson(os, results, provenanceOf(cell, buildFlags));
    return os.str();
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = q * double(values.size() - 1);
    std::size_t lo = std::size_t(rank);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - double(lo));
}

namespace
{

/** Cells in a pass's correctness/replay sample. */
constexpr std::size_t kSampleCells = 12;

double
millisSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

RunnerOptions
cachedOptions(Count instructions, Count warmup, unsigned threads,
              std::uint64_t seed)
{
    RunnerOptions options;
    options.instructions = instructions;
    options.warmup = warmup;
    options.threads = threads;
    options.seed = seed;
    options.materialize = true;
    options.checkpoints = true;
    return options;
}

/** Grid-cache lookups of the pass so far (caches are cleared at the
 *  start of every pass). */
void
addCacheCounts(WorkCounts &counts)
{
    GridCacheStats stats = gridCacheStats();
    counts.traceHits = stats.traceHits;
    counts.traceLookups = stats.traceHits + stats.traceBuilds;
    counts.checkpointHits = stats.checkpointHits;
    counts.checkpointLookups =
        stats.checkpointHits + stats.checkpointBuilds;
}

MachineConfig
designPoint(unsigned depth, unsigned retireAt, LoadHazardPolicy hazard)
{
    MachineConfig machine = figures::baselineMachine();
    machine.writeBuffer.depth = depth;
    machine.writeBuffer.highWaterMark = retireAt;
    machine.writeBuffer.hazardPolicy = hazard;
    return machine;
}

/** Evenly spaced indices into [0, total). */
std::vector<std::size_t>
sampleIndices(std::size_t total)
{
    std::vector<std::size_t> out;
    std::size_t n = std::min(kSampleCells, total);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(i * total / n + (total / n) / 2);
    return out;
}

// ---------------------------------------------------------------
// grid_sweep: the paper-figure use. Every modelled SPEC92 profile x
// a single-core design grid (depth x retire-at-N), one figure per
// load-hazard policy, all through runExperiment with the default
// trace materialization and warm-state checkpoints. Each figure is
// swept one profile and one retire-at-N column (every depth) at a
// time, as design_space_explorer's one-axis sweeps do, so a pass
// makes enough runExperiment calls for a latency tail.

constexpr Count kGridInstructions = 50'000;
constexpr Count kGridWarmup = 25'000;
const unsigned kGridDepths[] = {4, 8, 12, 16};
const unsigned kGridRetireAt[] = {1, 2, 4};
const LoadHazardPolicy kHazards[] = {
    LoadHazardPolicy::FlushFull, LoadHazardPolicy::FlushPartial,
    LoadHazardPolicy::FlushItemOnly, LoadHazardPolicy::ReadFromWB};

class GridSweep final : public Workload
{
  public:
    GridSweep(std::uint64_t seed, unsigned threads)
        : options_(cachedOptions(kGridInstructions, kGridWarmup,
                                 threads, seed))
    {
    }

    const char *requestUnit() const override
    {
        return "one runExperiment call: one figure, one profile, "
               "one retire-at-N, every depth";
    }

    void
    setUp() override
    {
        profiles_ = spec92::allProfiles();
        for (const char *name : {"gmtry", "cholsky"})
            profiles_.push_back(spec92::transformedProfile(name));
        for (const std::string &name : spec92::lowStallNames())
            profiles_.push_back(spec92::lowStallProfile(name));
        figures_.clear();
        columns_.clear();
        for (LoadHazardPolicy hazard : kHazards) {
            Experiment figure;
            figure.id = std::string("grid-")
                        + loadHazardPolicyName(hazard);
            for (unsigned depth : kGridDepths)
                for (unsigned retireAt : kGridRetireAt)
                    figure.variants.push_back(
                        {"d" + std::to_string(depth) + "-r"
                             + std::to_string(retireAt),
                         designPoint(depth, retireAt, hazard)});
            for (std::size_t r = 0; r < std::size(kGridRetireAt); ++r) {
                Experiment column;
                column.id = figure.id + "-r"
                            + std::to_string(kGridRetireAt[r]);
                for (std::size_t d = 0; d < std::size(kGridDepths); ++d)
                    column.variants.push_back(
                        figure.variants[variantIndex(d, r)]);
                columns_.push_back(std::move(column));
            }
            figures_.push_back(std::move(figure));
        }
    }

    void
    tearDown() override
    {
        profiles_.clear();
        figures_.clear();
        columns_.clear();
    }

    PassResult
    pass(unsigned index, SpanRecorder *spans) override
    {
        clearGridCaches();
        PassResult out;
        // results[figure][profile][variant]
        std::vector<ExperimentResults> results(
            figures_.size(),
            ExperimentResults(profiles_.size(),
                              std::vector<SimResults>(
                                  figures_.front().variants.size())));
        const std::size_t retires = std::size(kGridRetireAt);
        auto start = Clock::now();
        for (std::size_t f = 0; f < figures_.size(); ++f)
            for (std::size_t b = 0; b < profiles_.size(); ++b)
                for (std::size_t r = 0; r < retires; ++r) {
                    auto begin = Clock::now();
                    ScopedSpan span(
                        spans, "harness.runExperiment",
                        long((f * profiles_.size() + b) * retires + r));
                    std::vector<SimResults> column = std::move(
                        runExperiment(columns_[f * retires + r],
                                      {profiles_[b]}, options_)
                            .front());
                    for (std::size_t d = 0; d < column.size(); ++d)
                        results[f][b][variantIndex(d, r)] =
                            std::move(column[d]);
                    out.requestMs.push_back(millisSince(begin));
                }
        out.wallSeconds = secondsSince(start);
        addCacheCounts(out.counts);

        std::uint64_t digest = 0xcbf29ce484222325ull;
        forEachCell([&](const Cell &cell, std::size_t f, std::size_t b,
                        std::size_t v) {
            const SimResults &r = results[f][b][v];
            out.counts.add(r);
            digest = fnv1a(resultBytes(r, cell, kDigestBuildFlags),
                           digest);
            ++out.cells;
        });
        out.digest = digest;
        out.simInstructions =
            double(out.cells) * double(options_.instructions)
            + double(out.counts.checkpointLookups
                     - out.counts.checkpointHits)
                  * double(options_.warmup);
        if (index == 0)
            pass0_ = std::move(results);
        return out;
    }

    std::vector<Cell>
    sample() const override
    {
        std::vector<Cell> all;
        forEachCell([&](const Cell &cell, std::size_t, std::size_t,
                        std::size_t) { all.push_back(cell); });
        std::vector<Cell> out;
        for (std::size_t i : sampleIndices(all.size()))
            out.push_back(all[i]);
        return out;
    }

    std::size_t
    check(std::string &log) override
    {
        std::vector<std::pair<Cell, const SimResults *>> all;
        forEachCell([&](const Cell &cell, std::size_t f, std::size_t b,
                        std::size_t v) {
            all.emplace_back(cell, &pass0_[f][b][v]);
        });
        std::size_t bad = 0;
        for (std::size_t i : sampleIndices(all.size())) {
            const auto &[cell, got] = all[i];
            SimResults reference =
                runOne(cell.profile, cell.machine, cell.instructions,
                       cell.seed, cell.warmup);
            if (resultBytes(*got, cell, kDigestBuildFlags)
                != resultBytes(reference, cell, kDigestBuildFlags)) {
                ++bad;
                log += "grid_sweep cell " + cell.profile.name + " "
                       + cell.machine.describe()
                       + " differs from uncached runOne\n";
            }
        }
        return bad;
    }

  private:
    /** A figure's variant at depth index @p d, retire-at index @p r. */
    static std::size_t
    variantIndex(std::size_t d, std::size_t r)
    {
        return d * std::size(kGridRetireAt) + r;
    }

    template <typename Visit>
    void
    forEachCell(Visit visit) const
    {
        for (std::size_t f = 0; f < figures_.size(); ++f)
            for (std::size_t b = 0; b < profiles_.size(); ++b)
                for (std::size_t v = 0; v < figures_[f].variants.size();
                     ++v) {
                    Cell cell{profiles_[b],
                              figures_[f].variants[v].machine,
                              options_.seed, options_.instructions,
                              options_.warmup};
                    visit(cell, f, b, v);
                }
    }

    RunnerOptions options_;
    std::vector<BenchmarkProfile> profiles_;
    std::vector<Experiment> figures_;
    /** One runExperiment call's variants: figures_[f]'s column r is
     *  columns_[f * retire-at count + r]. */
    std::vector<Experiment> columns_;
    std::vector<ExperimentResults> pass0_;
};

// ---------------------------------------------------------------
// mc_bus: multi-core cells on the store-heaviest profiles, the only
// workload that runs BusArbiter and MultiCoreSystem.

// Instructions per cell, split evenly over its cores, so every cell
// simulates the same total and the latency tail is not one cell type.
constexpr Count kMcInstructions = 160'000;
constexpr Count kMcWarmup = 80'000;
constexpr std::size_t kMcProfiles = 3;
const unsigned kMcCores[] = {2, 4};
const unsigned kMcDepths[] = {2, 4, 8};
const BusDiscipline kMcDisciplines[] = {BusDiscipline::Fcfs,
                                        BusDiscipline::Priority};

class McBus final : public Workload
{
  public:
    McBus(std::uint64_t seed, unsigned threads)
        : seed_(seed), threads_(threads)
    {
    }

    const char *requestUnit() const override
    {
        return "one runMultiCore cell";
    }

    void
    setUp() override
    {
        std::vector<BenchmarkProfile> profiles = spec92::allProfiles();
        std::stable_sort(profiles.begin(), profiles.end(),
                         [](const BenchmarkProfile &a,
                            const BenchmarkProfile &b) {
                             return a.pctStores > b.pctStores;
                         });
        profiles.resize(kMcProfiles);
        cells_.clear();
        for (const BenchmarkProfile &profile : profiles)
            for (unsigned cores : kMcCores)
                for (BusDiscipline discipline : kMcDisciplines)
                    for (unsigned depth : kMcDepths) {
                        MachineConfig machine = designPoint(
                            depth, 2, LoadHazardPolicy::FlushFull);
                        machine.cores = cores;
                        machine.busDiscipline = discipline;
                        cells_.push_back({profile, machine, seed_,
                                          kMcInstructions / cores,
                                          kMcWarmup / cores});
                    }
    }

    void tearDown() override { cells_.clear(); }

    PassResult
    pass(unsigned index, SpanRecorder *spans) override
    {
        clearGridCaches();
        PassResult out;
        std::vector<MultiCoreResults> results(cells_.size());
        std::vector<double> ms(cells_.size());
        auto start = Clock::now();
        parallelFor(cells_.size(), threads_, [&](std::size_t i) {
            auto begin = Clock::now();
            ScopedSpan span(spans, "harness.runMultiCore", long(i));
            results[i] = runMultiCore(cells_[i].profile,
                                      cells_[i].machine,
                                      optionsFor(cells_[i], true),
                                      cells_[i].seed);
            ms[i] = millisSince(begin);
        });
        out.wallSeconds = secondsSince(start);
        out.requestMs = ms;
        addCacheCounts(out.counts);

        std::uint64_t digest = 0xcbf29ce484222325ull;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            out.counts.add(results[i].aggregate());
            out.counts.addBus(results[i]);
            digest = mcDigest(results[i], cells_[i], digest);
            out.simInstructions +=
                double(cells_[i].machine.cores)
                * double(cells_[i].instructions + cells_[i].warmup);
        }
        out.cells = cells_.size();
        out.digest = digest;
        if (index == 0)
            pass0_ = std::move(results);
        return out;
    }

    std::vector<Cell>
    sample() const override
    {
        std::vector<Cell> out;
        for (std::size_t i : sampleIndices(cells_.size()))
            out.push_back(cells_[i]);
        return out;
    }

    std::size_t
    check(std::string &log) override
    {
        std::size_t bad = 0;
        for (std::size_t i : sampleIndices(cells_.size())) {
            const Cell &cell = cells_[i];
            MultiCoreResults reference =
                runMultiCore(cell.profile, cell.machine,
                             optionsFor(cell, false), cell.seed);
            if (mcDigest(reference, cell, 0)
                != mcDigest(pass0_[i], cell, 0)) {
                ++bad;
                log += "mc_bus cell " + cell.profile.name + " "
                       + cell.machine.describe()
                       + " differs from the unmaterialized run\n";
            }
        }
        return bad;
    }

  private:
    /** Options for @p cell; @p cached = trace materialization on. */
    static RunnerOptions
    optionsFor(const Cell &cell, bool cached)
    {
        RunnerOptions options = cachedOptions(
            cell.instructions, cell.warmup, 1, cell.seed);
        options.materialize = cached;
        options.checkpoints = cached;
        return options;
    }

    /** Aggregate and per-core bytes plus the bus counters. */
    static std::uint64_t
    mcDigest(const MultiCoreResults &r, const Cell &cell,
             std::uint64_t h)
    {
        h = fnv1a(resultBytes(r.aggregate(), cell, kDigestBuildFlags), h);
        for (const SimResults &core : r.perCore)
            h = fnv1a(resultBytes(core, cell, kDigestBuildFlags), h);
        for (const BusCoreStats &bus : r.bus)
            h = fnv1a(std::to_string(bus.grants) + ","
                          + std::to_string(bus.busyCycles) + ","
                          + std::to_string(bus.waitCycles) + ","
                          + std::to_string(bus.contendedGrants) + ";",
                      h);
        return h;
    }

    std::uint64_t seed_;
    unsigned threads_;
    std::vector<Cell> cells_;
    std::vector<MultiCoreResults> pass0_;
};

// ---------------------------------------------------------------
// served_mix: an in-process ServeServer on loopback driven closed
// loop by a few ServeClient connections. Each request carries two
// short cells: one repeats a cell the same connection sent earlier in
// the pass (a result-store read), the other is a new (profile, seed,
// machine) cell that builds a trace, simulates and inserts (a write).
// One miss per request and one worker per connection, so a request
// never queues behind another connection's cells: its latency is its
// own cell's, not an accident of how the connections interleave.
// The process runs on one CPU, so every hand-off (client, connection
// thread, worker and back) is a switch on a running vCPU rather than
// a wake-up of a halted one, which on a shared host took milliseconds
// often enough to double the p99 of whole runs.

constexpr Count kServeInstructions = 16'000;
constexpr Count kServeWarmup = 8'000;
constexpr std::size_t kCellsPerRequest = 2;
/** Twice 17 profiles x 12 machines: every connection asks for each
 *  (profile, machine) pair exactly twice, whatever the seed. */
constexpr std::size_t kRequestsPerConnection = 2 * 17 * 12;
/** Closed-loop client connections and simulation workers. */
constexpr unsigned kServeConnections = 1;
constexpr unsigned kServeWorkers = 1;
constexpr unsigned kServeRetries = 200;
const unsigned kServeDepths[] = {2, 4, 8};

class ServedMix final : public Workload
{
  public:
    explicit ServedMix(std::uint64_t seed) : seed_(seed) {}

    ~ServedMix() override { tearDown(); }

    const char *requestUnit() const override
    {
        return "one sweep request, send to decoded response";
    }

    void
    setUp() override
    {
        pinToOneCpu();
        // The daemon's default grid-cache budget: a served process
        // must bound its caches.
        setGridCacheByteBudget(std::size_t(512) << 20);
        serve::ServeConfig config;
        config.workers = kServeWorkers;
        server_ = std::make_unique<serve::ServeServer>(config);
        std::string error;
        if (!server_->start(error))
            wbsim_fatal("served_mix: server start failed: ", error);
        clients_.clear();
        for (unsigned c = 0; c < kServeConnections; ++c) {
            clients_.emplace_back();
            if (!clients_.back().connectTcp(server_->port(), error)
                || !clients_.back().ping(error))
                wbsim_fatal("served_mix: connect failed: ", error);
        }
    }

    void
    tearDown() override
    {
        clients_.clear();
        if (server_) {
            server_->stop();
            server_.reset();
        }
    }

    std::uint16_t servePort() const override
    {
        return server_ ? server_->port() : 0;
    }

    PassResult
    pass(unsigned index, SpanRecorder *spans) override
    {
        // Every pass starts from an empty result store and cold grid
        // caches, so every pass repeats the same hits and misses.
        if (index > 0) {
            tearDown();
            setUp();
        }
        clearGridCaches();
        std::vector<std::vector<std::vector<Cell>>> requests(
            kServeConnections);
        for (unsigned c = 0; c < kServeConnections; ++c)
            requests[c] = makeRequests(c);

        std::vector<std::vector<double>> ms(kServeConnections);
        std::vector<std::vector<serve::Response>> responses(
            kServeConnections);
        PassResult out;
        auto start = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kServeConnections; ++c)
            threads.emplace_back([&, c]() {
                for (std::size_t r = 0; r < requests[c].size(); ++r) {
                    std::vector<serve::CellSpec> specs;
                    for (const Cell &cell : requests[c][r])
                        specs.push_back({cell.profile.name, cell.seed,
                                         cell.instructions, cell.warmup,
                                         cell.machine});
                    auto begin = Clock::now();
                    ScopedSpan span(spans, "serve.sweepWithRetry",
                                    long(c * 100000 + r));
                    serve::Response response;
                    std::string error;
                    if (!clients_[c].sweepWithRetry(specs, 0,
                                                    kServeRetries,
                                                    response, error))
                        response.type = serve::ResponseType::Error;
                    ms[c].push_back(millisSince(begin));
                    responses[c].push_back(std::move(response));
                }
            });
        for (std::thread &t : threads)
            t.join();
        out.wallSeconds = secondsSince(start);
        addCacheCounts(out.counts);

        std::uint64_t digest = 0xcbf29ce484222325ull;
        std::vector<std::pair<Cell, std::string>> received;
        for (unsigned c = 0; c < kServeConnections; ++c) {
            out.requestMs.insert(out.requestMs.end(), ms[c].begin(),
                                 ms[c].end());
            for (std::size_t r = 0; r < requests[c].size(); ++r) {
                const std::vector<Cell> &cells = requests[c][r];
                const serve::Response &response = responses[c][r];
                out.cells += cells.size();
                if (response.type != serve::ResponseType::Results
                    || response.cells.size() != cells.size()) {
                    out.failed += cells.size();
                    continue;
                }
                for (std::size_t k = 0; k < cells.size(); ++k) {
                    const serve::CellResult &got = response.cells[k];
                    SimResults results;
                    std::string error;
                    if (!serve::ServeClient::cellToResults(got, results,
                                                           error)) {
                        ++out.failed;
                        continue;
                    }
                    out.counts.add(results);
                    digest = fnv1a(
                        resultBytes(results, cells[k], kDigestBuildFlags),
                        digest);
                    if (!got.cacheHit)
                        out.simInstructions += double(
                            cells[k].instructions + cells[k].warmup);
                    if (index == 0)
                        received.emplace_back(cells[k], got.resultJson);
                }
            }
        }
        out.digest = digest;
        if (index == 0)
            pass0_ = std::move(received);
        return out;
    }

    std::vector<Cell>
    sample() const override
    {
        std::vector<Cell> out;
        for (std::size_t i : sampleIndices(pass0_.size()))
            out.push_back(pass0_[i].first);
        return out;
    }

    std::size_t
    check(std::string &log) override
    {
        std::size_t bad = 0;
        for (std::size_t i : sampleIndices(pass0_.size())) {
            const auto &[cell, served] = pass0_[i];
            SimResults local =
                runOne(cell.profile, cell.machine, cell.instructions,
                       cell.seed, cell.warmup);
            if (served
                != resultBytes(local, cell,
                               obs::Provenance::defaultBuildFlags())) {
                ++bad;
                log += "served_mix cell " + cell.profile.name + " "
                       + cell.machine.describe()
                       + " differs from the local uncached run\n";
            }
        }
        return bad;
    }

  private:
    /**
     * Restrict this thread, and so the server and client threads it
     * starts, to the highest-numbered CPU it may run on.
     */
    static void
    pinToOneCpu()
    {
        cpu_set_t allowed;
        if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
            wbsim_fatal("served_mix: sched_getaffinity failed");
        int last = -1;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                last = cpu;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(last, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0)
            wbsim_fatal("served_mix: sched_setaffinity failed");
    }

    /**
     * The seed-determined requests of connection @p c. The first
     * request carries one new cell; every later one carries one new
     * cell and one repeat of a cell the connection sent before, so
     * every request simulates one cell. New cells cycle through every
     * profile (in a seed-shuffled order) and every machine, so each
     * seed asks for the same (profile, machine) pairs.
     * New cells get seeds no other cell uses, so they always miss the
     * store; repeats always hit it because the connection waited for
     * their first reply.
     */
    std::vector<std::vector<Cell>>
    makeRequests(unsigned c) const
    {
        Rng rng(seed_ * 0x9e3779b97f4a7c15ull + c);
        std::vector<std::string> names = spec92::benchmarkNames();
        for (std::size_t i = names.size(); i > 1; --i)
            std::swap(names[i - 1], names[rng.nextBelow(i)]);
        std::uint64_t nextSeed = (seed_ << 32) | (std::uint64_t(c) << 16);
        std::size_t made = 0;
        auto fresh = [&]() {
            std::size_t j = made++;
            MachineConfig machine =
                designPoint(kServeDepths[j % 3], 2, kHazards[(j / 3) % 4]);
            return Cell{spec92::profile(names[(j + c) % names.size()]),
                        machine, nextSeed++, kServeInstructions,
                        kServeWarmup};
        };
        std::vector<Cell> history;
        std::vector<std::vector<Cell>> out;
        for (std::size_t r = 0; r < kRequestsPerConnection; ++r) {
            std::vector<Cell> request;
            for (std::size_t k = 0; k < kCellsPerRequest / 2; ++k)
                request.push_back(fresh());
            for (std::size_t k = 0; r > 0 && k < kCellsPerRequest / 2; ++k)
                request.push_back(history[rng.nextBelow(history.size())]);
            history.insert(history.end(), request.begin(), request.end());
            out.push_back(std::move(request));
        }
        return out;
    }

    std::uint64_t seed_;
    std::unique_ptr<serve::ServeServer> server_;
    std::vector<serve::ServeClient> clients_;
    std::vector<std::pair<Cell, std::string>> pass0_;
};

} // namespace

std::unique_ptr<Workload>
makeGridSweep(std::uint64_t seed, unsigned threads)
{
    return std::make_unique<GridSweep>(seed, threads);
}

std::unique_ptr<Workload>
makeMcBus(std::uint64_t seed, unsigned threads)
{
    return std::make_unique<McBus>(seed, threads);
}

std::unique_ptr<Workload>
makeServedMix(std::uint64_t seed)
{
    return std::make_unique<ServedMix>(seed);
}

} // namespace perfbench
