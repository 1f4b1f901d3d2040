/**
 * @file
 * Load generator for wbsim-serve: an in-process daemon hammered over
 * real loopback sockets by a fleet of client threads.
 *
 * Three phases:
 *   1. cold  — every cell distinct; all misses flow through the
 *              admission queue and the worker pool.
 *   2. warm  — the same cells again; every one must come out of the
 *              result store without touching the queue.
 *   3. backpressure (--backpressure or default) — a deliberately
 *              tiny queue forces RETRY_AFTER, and retrying clients
 *              must still complete every cell.
 *
 * Exit status is the verdict: non-zero when any invariant breaks
 * (a deadlock shows up as the CI timeout instead). Invariants:
 * every sweep completes, the result store stays within its byte
 * budget, the warm phase hits the store for every cell, and (with
 * --assert-speedup) warm throughput is at least 2x cold.
 *
 * Defaults keep the no-argument run CI-smoke fast while still
 * keeping >= 1000 cells in flight at once; WBSIM_INSTRUCTIONS
 * scales the per-cell work like every other bench binary.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/options.hh"

using namespace wbsim;
using namespace wbsim::serve;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin)
        .count();
}

struct PhaseOutcome
{
    double seconds = 0.0;
    std::uint64_t cells = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t retries = 0;
    std::vector<double> requestMillis;

    double
    throughput() const
    {
        return seconds > 0.0 ? double(cells) / seconds : 0.0;
    }

    double
    percentile(double q) const
    {
        if (requestMillis.empty())
            return 0.0;
        std::vector<double> sorted = requestMillis;
        std::sort(sorted.begin(), sorted.end());
        std::size_t at = std::size_t(q * double(sorted.size() - 1));
        return sorted[at];
    }
};

/** The benchmarks the fleet sweeps (spread so distinct connections
 *  ask for distinct traces). */
const char *kBenchmarks[] = {"espresso", "li", "tomcatv", "su2cor"};

/** One connection's batch of @p batch cells on its own seed, so the
 *  cold phase is all store misses. The benchmark, depth and hazard
 *  axes all repeat every 16 cells, so a batch holds at most 16
 *  distinct cells (the default 48-cell batch holds each three times)
 *  and the server simulates each distinct cell once. */
std::vector<CellSpec>
makeBatch(unsigned connection, std::size_t batch, Count instructions,
          Count warmup)
{
    std::vector<CellSpec> cells;
    cells.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
        CellSpec cell;
        cell.benchmark =
            kBenchmarks[(connection + i) % std::size(kBenchmarks)];
        cell.seed = 1 + connection;
        cell.instructions = instructions;
        cell.warmup = warmup;
        cell.machine = figures::baselineMachine();
        // Spread the machine axis: depth 1..8 and both hazard
        // policies, so the sweep looks like a real design-space grid.
        cell.machine.writeBuffer.depth = unsigned(1 + i % 8);
        cell.machine.writeBuffer.highWaterMark = std::min(
            cell.machine.writeBuffer.highWaterMark,
            cell.machine.writeBuffer.depth);
        cell.machine.writeBuffer.hazardPolicy =
            (i / 8) % 2 == 0 ? LoadHazardPolicy::FlushFull
                             : LoadHazardPolicy::FlushPartial;
        cells.push_back(std::move(cell));
    }
    return cells;
}

/** Run @p connections concurrent clients, each sweeping its batch
 *  once, and fold the timings together. */
PhaseOutcome
runPhase(const ServeServer &server, unsigned connections,
         std::size_t batch, Count instructions, Count warmup,
         unsigned maxAttempts)
{
    PhaseOutcome outcome;
    std::mutex merge;
    std::vector<std::thread> fleet;
    fleet.reserve(connections);
    Clock::time_point begin = Clock::now();
    for (unsigned c = 0; c < connections; ++c) {
        fleet.emplace_back([&, c]() {
            ServeClient client;
            std::string error;
            if (!client.connectTcp(server.port(), error))
                wbsim_fatal("loadgen connect: ", error);
            std::vector<CellSpec> cells =
                makeBatch(c, batch, instructions, warmup);
            Clock::time_point requestBegin = Clock::now();
            Response response;
            unsigned attempts = 0;
            for (;;) {
                ++attempts;
                if (!client.sweep(cells, c, response, error))
                    wbsim_fatal("loadgen sweep: ", error);
                if (response.type == ResponseType::Results)
                    break;
                if (response.type != ResponseType::RetryAfter)
                    wbsim_fatal("loadgen: unexpected response ",
                                responseTypeName(response.type), ": ",
                                response.error);
                if (attempts >= maxAttempts)
                    wbsim_fatal("loadgen: still backpressured "
                                "after ",
                                attempts, " attempts");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        response.retryAfterMs));
            }
            double millis =
                secondsSince(requestBegin) * 1e3;
            if (response.cells.size() != cells.size())
                wbsim_fatal("loadgen: ", cells.size(),
                            " cells asked, ",
                            response.cells.size(), " answered");
            std::uint64_t hits = 0;
            for (const CellResult &cell : response.cells) {
                if (cell.resultJson.empty())
                    wbsim_fatal("loadgen: empty cell payload");
                hits += cell.cacheHit ? 1 : 0;
            }
            std::lock_guard<std::mutex> lock(merge);
            outcome.cells += response.cells.size();
            outcome.storeHits += hits;
            outcome.retries += attempts - 1;
            outcome.requestMillis.push_back(millis);
        });
    }
    for (std::thread &thread : fleet)
        thread.join();
    outcome.seconds = secondsSince(begin);
    return outcome;
}

void
printPhase(const char *name, const PhaseOutcome &outcome)
{
    std::cout << name << ": " << outcome.cells << " cells in "
              << outcome.seconds << " s ("
              << std::uint64_t(outcome.throughput())
              << " cells/s), store hits " << outcome.storeHits
              << ", retries " << outcome.retries
              << ", request p50/p95/p99 = "
              << outcome.percentile(0.50) << "/"
              << outcome.percentile(0.95) << "/"
              << outcome.percentile(0.99) << " ms\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.declare("connections", "concurrent client connections",
                    "24");
    options.declare("batch", "cells per sweep request", "48");
    options.declare("instructions",
                    "instructions per cell (WBSIM_INSTRUCTIONS "
                    "overrides)",
                    "10000");
    options.declare("warmup", "warmup instructions per cell", "1000");
    options.declare("workers", "server workers (0 = all cores)", "0");
    options.declare("queue", "admission queue capacity", "4096");
    options.declare("discipline", "fcfs|priority", "fcfs");
    options.declare("store-mb", "result store budget, MB", "64");
    options.declare("grid-cache-mb", "grid cache budget, MB", "64");
    options.declare("assert-speedup",
                    "fail unless warm >= 2x cold throughput", "",
                    true);
    options.declare("skip-backpressure",
                    "skip the tiny-queue overload phase", "", true);
    options.declare("help", "print usage", "", true);
    options.parse(argc, argv);
    if (options.getFlag("help")) {
        std::cout << options.usage();
        return 0;
    }

    const unsigned connections =
        unsigned(options.getUint("connections"));
    const std::size_t batch = options.getUint("batch");
    const Count instructions =
        envUint("WBSIM_INSTRUCTIONS", options.getUint("instructions"));
    const Count warmup =
        std::min<Count>(options.getUint("warmup"), instructions);
    std::cout << "serve_loadgen: " << connections << " connections x "
              << batch << " cells (" << connections * batch
              << " in flight), " << instructions
              << " instructions/cell\n";

    setGridCacheByteBudget(options.getUint("grid-cache-mb") << 20);

    ServeConfig config;
    config.port = 0;
    config.workers = unsigned(options.getUint("workers"));
    config.queueCapacity = options.getUint("queue");
    config.discipline =
        parseDispatchDiscipline(options.get("discipline"));
    config.storeBudgetBytes = options.getUint("store-mb") << 20;
    ServeServer server(config);
    std::string error;
    if (!server.start(error))
        wbsim_fatal("loadgen: server failed to start: ", error);

    PhaseOutcome cold = runPhase(server, connections, batch,
                                 instructions, warmup, 100);
    printPhase("cold", cold);
    PhaseOutcome warm = runPhase(server, connections, batch,
                                 instructions, warmup, 100);
    printPhase("warm", warm);

    ResultStoreStats store = server.storeStats();
    std::cout << "store: " << store.entries << " entries, "
              << store.bytes << " / " << store.budgetBytes
              << " bytes, " << store.evictions << " evictions\n";
    if (store.budgetBytes != 0 && store.bytes > store.budgetBytes)
        wbsim_fatal("loadgen: result store exceeded its byte budget");
    GridCacheStats grid = gridCacheStats();
    std::cout << "grid cache: " << grid.traceBuilds << " trace builds, "
              << grid.traceHits << " hits; " << grid.checkpointBuilds
              << " checkpoint builds, " << grid.checkpointHits
              << " hits; " << grid.cachedBytes << " / "
              << grid.budgetBytes << " bytes\n";
    if (grid.budgetBytes != 0 && grid.cachedBytes > grid.budgetBytes)
        wbsim_fatal("loadgen: grid cache exceeded its byte budget");
    if (warm.storeHits != warm.cells)
        wbsim_fatal("loadgen: warm phase expected every cell from "
                    "the store, got ",
                    warm.storeHits, " of ", warm.cells);
    if (options.getFlag("assert-speedup")
        && warm.throughput() < 2.0 * cold.throughput())
        wbsim_fatal("loadgen: warm throughput ",
                    std::uint64_t(warm.throughput()),
                    " cells/s is not 2x cold ",
                    std::uint64_t(cold.throughput()), " cells/s");
    server.stop();

    if (!options.getFlag("skip-backpressure")) {
        // Overload a deliberately tiny queue: raw sweeps must see
        // RETRY_AFTER, retrying sweeps must all complete. The queue
        // holds exactly one batch — admission is all-or-nothing, so
        // anything smaller could never be admitted at all — and the
        // fleet's contention for that single slot forces rejections.
        ServeConfig tiny = config;
        tiny.queueCapacity = std::max<std::size_t>(batch, 1);
        tiny.retryAfterMs = 5;
        ServeServer small(tiny);
        if (!small.start(error))
            wbsim_fatal("loadgen: overload server failed to start: ",
                        error);
        PhaseOutcome pressed = runPhase(small, connections, batch,
                                        instructions, warmup, 10000);
        printPhase("backpressure", pressed);
        DispatchQueueStats queue = small.queueStats();
        if (connections > 1 && queue.rejected == 0)
            wbsim_fatal("loadgen: overload phase never tripped "
                        "RETRY_AFTER (queue capacity ",
                        tiny.queueCapacity, ")");
        small.stop();
    }

    std::cout << "serve_loadgen: OK\n";
    return 0;
}
