#include "harness/experiment.hh"

#include <cmath>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/thread_pool.hh"
#include "workloads/generator.hh"

namespace wbsim
{

namespace
{

#ifdef NDEBUG
constexpr bool kDebugBuild = false;
#else
constexpr bool kDebugBuild = true;
#endif

/** Map/key/control-block overhead charged per cached entry. */
constexpr std::size_t kEntryOverhead = 256;

/**
 * Approximate resident bytes of one warm-state checkpoint. The
 * dominant term is per-line cache state (tag + status per line in
 * every modelled cache); the rest (write buffer, ports, RNG) is a
 * small fixed cost. An estimate is enough here: the budget bounds
 * the cache to the right order of magnitude, it is not an allocator.
 */
std::size_t
approxSnapshotBytes(const MachineConfig &machine)
{
    auto lines = [](const CacheGeometry &g) {
        return std::size_t(g.sizeBytes / g.lineBytes);
    };
    std::size_t count = lines(machine.l1d);
    if (!machine.perfectICache)
        count += lines(machine.l1i);
    if (!machine.perfectL2)
        count += lines(machine.l2);
    return count * 32 + 4 * 1024 + kEntryOverhead;
}

/** Bytes charged per key hash the checkpoint doorkeeper remembers
 *  (an unordered_set node plus its bucket slot). */
constexpr std::size_t kDoorkeeperKeyBytes = 32;

/**
 * The process-wide grid caches: materialized traces keyed by
 * (benchmark, seed, length) and warm-state checkpoints keyed by
 * (benchmark, seed, warmup, machine state fingerprint). Both are
 * build-once: the first worker to claim a key builds the value
 * while later claimants block on a shared_future, so concurrent grid
 * cells never duplicate work.
 *
 * Checkpoints are stored only on a key's second lookup. A paper
 * figure is a one-shot sweep of distinct cells, so a snapshot stored
 * on the first lookup would never be restored. The first lookup of a
 * key only records its hash in a doorkeeper set, and the cell warms
 * up on its own simulator; the second lookup also warms up in place
 * and then stores its snapshot; later lookups restore it. A hash
 * collision only stores a snapshot one lookup early: snapshots stay
 * keyed by the full key string, so no result can change.
 *
 * The cache is byte-bounded: when a budget is set (WBSIM_GRID_CACHE_MB
 * or setGridCacheByteBudget) and a build pushes the resident
 * footprint past it, the least-recently-used *resolved* entries are
 * evicted across both maps until the footprint fits, and then, if
 * that is not enough, the doorkeeper is forgotten. In-flight builds
 * are never evicted, and eviction never invalidates a value a caller
 * already holds (values are shared_ptr; the map only drops its
 * reference), so a too-small budget degrades throughput, never
 * correctness.
 *
 * Thread-safety contract: maps, doorkeeper, LRU list and counters
 * are only touched under mutex_ (WBSIM_GUARDED_BY on every such
 * member, so wbsim-lint's WL-LOCK-GUARD proves it statically); the
 * values are immutable once the future resolves (shared_ptr<const>),
 * so readers never race with the builder. Verified race-free by CI's
 * `tsan` job, which runs the harness tests under ThreadSanitizer
 * with no suppressions.
 */
class GridCache
{
  public:
    using TracePtr = std::shared_ptr<const MaterializedTrace>;
    using SnapPtr = std::shared_ptr<const SimSnapshot>;

    /** One lookup's claim on a key. `future` is valid when another
     *  caller built (or is building) the value; otherwise `build`
     *  says whether this caller must publish() the value it makes. */
    template <typename Ptr> struct Claim
    {
        std::shared_future<Ptr> future;
        std::promise<Ptr> promise;
        std::string key;
        std::uint64_t generation = 0;
        bool build = false;
    };
    using SnapClaim = Claim<SnapPtr>;

    GridCache()
    {
        budget_ = std::size_t(envUint("WBSIM_GRID_CACHE_MB", 0))
                  * 1024 * 1024;
    }

    TracePtr trace(const BenchmarkProfile &profile, std::uint64_t seed,
                   Count length)
    {
        std::ostringstream key;
        key << profile.name << '#' << seed << '#' << length;
        Claim<TracePtr> claim = lookup<TracePtr>(key.str());
        if (!claim.build)
            return claim.future.get();
        SyntheticSource source(profile, length, seed);
        auto built = std::make_shared<const MaterializedTrace>(
            MaterializedTrace::build(source));
        publish(claim, built, built->encodedBytes() + kEntryOverhead);
        return built;
    }

    /** Look up the warm state of (profile, seed, warmup, machine).
     *  On a miss the caller simulates the warmup itself, and stores
     *  its snapshot with storeCheckpoint() when the claim says
     *  `build`. */
    SnapClaim lookupCheckpoint(const BenchmarkProfile &profile,
                               const MachineConfig &machine,
                               std::uint64_t seed, Count warmup)
    {
        std::ostringstream key;
        key << profile.name << '#' << seed << '#' << warmup << '#'
            << machine.stateFingerprint();
        return lookup<SnapPtr>(key.str());
    }

    void storeCheckpoint(SnapClaim &claim, SimSnapshot snapshot,
                         const MachineConfig &machine)
    {
        publish(claim,
                std::make_shared<const SimSnapshot>(std::move(snapshot)),
                approxSnapshotBytes(machine));
    }

    GridCacheStats stats()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GridCacheStats out = stats_;
        out.cachedBytes = bytes_;
        out.doorkeeperBytes = doorkeeper_.size() * kDoorkeeperKeyBytes;
        out.budgetBytes = budget_;
        return out;
    }

    void setByteBudget(std::size_t bytes)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        budget_ = bytes;
        evictLocked();
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        traces_.clear();
        snapshots_.clear();
        doorkeeper_.clear();
        lru_.clear();
        bytes_ = 0;
        ++generation_;
        stats_ = GridCacheStats{};
    }

  private:
    /** MRU at the back; only resolved entries are listed. */
    using LruList = std::list<std::pair<bool, std::string>>;

    template <typename Ptr> struct Slot
    {
        std::shared_future<Ptr> future;
        std::size_t bytes = 0;
        bool resolved = false;
        /** clear() epoch at insert; a stale builder must not book
         *  bytes against a slot re-created after a clear(). */
        std::uint64_t generation = 0;
        LruList::iterator lru{};
    };

    template <typename Ptr>
    using Map = std::unordered_map<std::string, Slot<Ptr>>;

    static constexpr bool isTrace(const TracePtr *) { return true; }
    static constexpr bool isTrace(const SnapPtr *) { return false; }

    /** The map holding entries of @p Ptr's kind. Tag-pointer
     *  overloads (not a template) so the WBSIM_REQUIRES contract is
     *  visible to the analyzer: the returned reference is guarded
     *  state and every caller selects it under mutex_. */
    WBSIM_REQUIRES(mutex_) Map<TracePtr> &mapFor(const TracePtr *)
    {
        return traces_;
    }
    WBSIM_REQUIRES(mutex_) Map<SnapPtr> &mapFor(const SnapPtr *)
    {
        return snapshots_;
    }

    /** Find @p key, or count a build and (for a trace, or for a
     *  checkpoint the doorkeeper has seen before) claim its slot. */
    template <typename Ptr> Claim<Ptr> lookup(std::string key)
    {
        constexpr bool is_trace =
            isTrace(static_cast<const Ptr *>(nullptr));
        Claim<Ptr> claim;
        std::lock_guard<std::mutex> lock(mutex_);
        Map<Ptr> &map = mapFor(static_cast<const Ptr *>(nullptr));
        auto it = map.find(key);
        if (it != map.end()) {
            claim.future = it->second.future;
            ++(is_trace ? stats_.traceHits : stats_.checkpointHits);
            if (it->second.resolved)
                lru_.splice(lru_.end(), lru_, it->second.lru);
            return claim;
        }
        ++(is_trace ? stats_.traceBuilds : stats_.checkpointBuilds);
        if (!is_trace
            && doorkeeper_.insert(std::hash<std::string>{}(key)).second) {
            bytes_ += kDoorkeeperKeyBytes;
            evictLocked();
            return claim;
        }
        Slot<Ptr> slot;
        slot.future = claim.promise.get_future().share();
        slot.generation = generation_;
        map.emplace(key, std::move(slot));
        claim.key = std::move(key);
        claim.generation = generation_;
        claim.build = true;
        return claim;
    }

    /** Hand @p value to the claim's waiters and make it resident. */
    template <typename Ptr>
    void publish(Claim<Ptr> &claim, const Ptr &value, std::size_t bytes)
    {
        constexpr bool is_trace =
            isTrace(static_cast<const Ptr *>(nullptr));
        claim.promise.set_value(value);
        std::lock_guard<std::mutex> lock(mutex_);
        Map<Ptr> &map = mapFor(static_cast<const Ptr *>(nullptr));
        auto it = map.find(claim.key);
        if (it == map.end() || it->second.resolved
            || it->second.generation != claim.generation)
            return;
        it->second.resolved = true;
        it->second.bytes = bytes;
        it->second.lru = lru_.insert(lru_.end(), {is_trace, claim.key});
        bytes_ += bytes;
        if (!is_trace)
            ++stats_.checkpointStores;
        evictLocked();
    }

    WBSIM_REQUIRES(mutex_) void evictLocked()
    {
        while (budget_ != 0 && bytes_ > budget_ && !lru_.empty()) {
            const auto &[is_trace, key] = lru_.front();
            if (is_trace)
                evictFrom(traces_, key, stats_.traceEvictions);
            else
                evictFrom(snapshots_, key,
                          stats_.checkpointEvictions);
            lru_.pop_front();
        }
        if (budget_ != 0 && bytes_ > budget_) {
            bytes_ -= doorkeeper_.size() * kDoorkeeperKeyBytes;
            doorkeeper_.clear();
        }
    }

    template <typename Ptr>
    WBSIM_REQUIRES(mutex_) void evictFrom(Map<Ptr> &map,
                                          const std::string &key,
                                          std::size_t &evictions)
    {
        auto it = map.find(key);
        wbsim_assert(it != map.end() && it->second.resolved,
                     "grid-cache LRU entry out of sync with its map");
        bytes_ -= it->second.bytes;
        map.erase(it);
        ++evictions;
    }

    std::mutex mutex_;
    WBSIM_GUARDED_BY(mutex_) Map<TracePtr> traces_;
    WBSIM_GUARDED_BY(mutex_) Map<SnapPtr> snapshots_;
    /** Hashes of checkpoint keys looked up at least once. */
    WBSIM_GUARDED_BY(mutex_) std::unordered_set<std::size_t> doorkeeper_;
    WBSIM_GUARDED_BY(mutex_) LruList lru_;
    WBSIM_GUARDED_BY(mutex_) GridCacheStats stats_;
    WBSIM_GUARDED_BY(mutex_) std::size_t bytes_ = 0;
    WBSIM_GUARDED_BY(mutex_) std::size_t budget_ = 0;
    WBSIM_GUARDED_BY(mutex_) std::uint64_t generation_ = 0;
};

GridCache &
gridCache()
{
    static GridCache cache;
    return cache;
}

} // namespace

RunnerOptions
RunnerOptions::fromEnvironment()
{
    RunnerOptions options;
    options.instructions = envUint("WBSIM_INSTRUCTIONS", 1'000'000);
    options.warmup =
        envUint("WBSIM_WARMUP", options.instructions / 2);
    options.threads = defaultThreads();
    options.seed = envUint("WBSIM_SEED", 1);
    options.materialize = envUint("WBSIM_MATERIALIZE", 1) != 0;
    options.checkpoints = envUint("WBSIM_CHECKPOINTS", 1) != 0;
    return options;
}

MultiCoreResults
runMultiCore(const BenchmarkProfile &profile,
             const MachineConfig &machine,
             const RunnerOptions &options, std::uint64_t seed)
{
    wbsim_assert(machine.cores >= 1, "runMultiCore with no cores");
    Count length = options.instructions + options.warmup;
    MultiCoreSystem system(machine);
    if (options.obs.attached()) {
        for (unsigned i = 0; i < system.cores(); ++i)
            system.attachObs(i, options.obs);
        system.attachBusTimeline(options.obs.timeline);
    }

    MultiCoreResults result;
    if (options.materialize) {
        // One cached trace per core seed; checkpoints are bypassed
        // (a warm snapshot captures one core, not a system).
        GridCache &cache = gridCache();
        std::vector<GridCache::TracePtr> traces;
        std::vector<std::unique_ptr<MaterializedCursor>> cursors;
        std::vector<TraceSource *> sources;
        for (unsigned i = 0; i < system.cores(); ++i) {
            traces.push_back(cache.trace(profile, seed + i, length));
            cursors.push_back(
                std::make_unique<MaterializedCursor>(*traces.back()));
            sources.push_back(cursors.back().get());
        }
        result = system.run(sources, options.warmup);
    } else {
        std::vector<std::unique_ptr<SyntheticSource>> generators;
        std::vector<TraceSource *> sources;
        for (unsigned i = 0; i < system.cores(); ++i) {
            generators.push_back(std::make_unique<SyntheticSource>(
                profile, length, seed + i));
            sources.push_back(generators.back().get());
        }
        result = system.run(sources, options.warmup);
    }

    if constexpr (kDebugBuild) {
        if (options.materialize) {
            // Shadow the cached cell with the regenerate-in-place
            // path, like the single-core debug cross-check: replay
            // must never change a bit of any core's results.
            RunnerOptions uncached = options;
            uncached.materialize = false;
            uncached.checkpoints = false;
            uncached.obs = {};
            MultiCoreSystem reference_system(machine);
            std::vector<std::unique_ptr<SyntheticSource>> generators;
            std::vector<TraceSource *> sources;
            for (unsigned i = 0; i < reference_system.cores(); ++i) {
                generators.push_back(
                    std::make_unique<SyntheticSource>(profile, length,
                                                      seed + i));
                sources.push_back(generators.back().get());
            }
            MultiCoreResults reference =
                reference_system.run(sources, options.warmup);
            wbsim_assert(result.perCore == reference.perCore
                         && result.bus == reference.bus,
                         "cached multi-core cell diverged from the "
                         "uncached reference run (workload ",
                         profile.name, ", machine ",
                         machine.describe(), ")");
        }
    }
    return result;
}

SimResults
runOne(const BenchmarkProfile &profile, const MachineConfig &machine,
       Count instructions, std::uint64_t seed, Count warmup,
       const obs::ObsSink &obs)
{
    if (machine.cores > 1) {
        RunnerOptions options;
        options.instructions = instructions;
        options.warmup = warmup;
        options.materialize = false;
        options.checkpoints = false;
        options.obs = obs;
        return runMultiCore(profile, machine, options, seed)
            .aggregate();
    }
    SyntheticSource source(profile, instructions + warmup, seed);
    Simulator simulator(machine);
    if (warmup > 0) {
        simulator.consume(source, warmup);
        simulator.resetStats();
    }
    if (obs.attached())
        simulator.attachObs(obs);
    return simulator.run(source);
}

SimResults
runOne(const BenchmarkProfile &profile, const MachineConfig &machine,
       const RunnerOptions &options, std::uint64_t seed)
{
    if (machine.cores > 1)
        return runMultiCore(profile, machine, options, seed)
            .aggregate();
    if (!options.materialize && !options.checkpoints)
        return runOne(profile, machine, options.instructions, seed,
                      options.warmup, options.obs);

    GridCache &cache = gridCache();
    Count length = options.instructions + options.warmup;
    GridCache::TracePtr trace = cache.trace(profile, seed, length);
    MaterializedCursor cursor(*trace);
    Simulator simulator(machine);
    if (options.warmup > 0) {
        GridCache::SnapClaim claim;
        if (options.checkpoints)
            claim = cache.lookupCheckpoint(profile, machine, seed,
                                           options.warmup);
        if (claim.future.valid()) {
            simulator.restore(*claim.future.get());
            cursor.seek(options.warmup);
        } else {
            simulator.consume(cursor, options.warmup);
            simulator.resetStats();
            if (claim.build)
                cache.storeCheckpoint(claim, simulator.snapshot(),
                                      machine);
        }
    }
    if (options.obs.attached())
        simulator.attachObs(options.obs);
    SimResults result = simulator.run(cursor);

    if constexpr (kDebugBuild) {
        // Debug builds shadow every cached cell with the uncached
        // reference path: materialization and checkpoint-resume must
        // never change a single bit of any result.
        SimResults reference = runOne(profile, machine,
                                      options.instructions, seed,
                                      options.warmup);
        wbsim_assert(result == reference,
                     "cached grid cell diverged from the uncached "
                     "reference run (workload ",
                     profile.name, ", machine ", machine.describe(),
                     ")");
    }
    return result;
}

GridCacheStats
gridCacheStats()
{
    return gridCache().stats();
}

void
setGridCacheByteBudget(std::size_t bytes)
{
    gridCache().setByteBudget(bytes);
}

void
clearGridCaches()
{
    gridCache().clear();
}

ExperimentResults
runExperiment(const Experiment &experiment,
              const std::vector<BenchmarkProfile> &profiles,
              const RunnerOptions &options)
{
    const std::size_t benchmarks = profiles.size();
    const std::size_t variants = experiment.variants.size();
    ExperimentResults results(benchmarks,
                              std::vector<SimResults>(variants));
    parallelFor(benchmarks * variants, options.threads,
                [&](std::size_t index) {
                    std::size_t b = index / variants;
                    std::size_t v = index % variants;
                    results[b][v] =
                        runOne(profiles[b],
                               experiment.variants[v].machine,
                               options, options.seed);
                });
    return results;
}

std::vector<SimResults>
runReplicated(const BenchmarkProfile &profile,
              const MachineConfig &machine,
              const RunnerOptions &options, unsigned replicas)
{
    std::vector<SimResults> runs(replicas);
    parallelFor(replicas, options.threads, [&](std::size_t i) {
        runs[i] = runOne(profile, machine, options, options.seed + i);
    });
    return runs;
}

MetricSummary
summarizeMetric(const std::vector<SimResults> &runs,
                const std::function<double(const SimResults &)> &metric)
{
    MetricSummary summary;
    summary.n = runs.size();
    if (runs.empty())
        return summary;
    double sum = 0.0;
    for (const SimResults &r : runs)
        sum += metric(r);
    summary.mean = sum / double(runs.size());
    if (runs.size() > 1) {
        double ss = 0.0;
        for (const SimResults &r : runs) {
            double d = metric(r) - summary.mean;
            ss += d * d;
        }
        summary.sd = std::sqrt(ss / double(runs.size() - 1));
    }
    return summary;
}

} // namespace wbsim
