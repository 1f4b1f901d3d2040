/**
 * @file
 * wbsim_bench: runs one named workload for a fixed time and prints
 * every metric by name with its unit and sample count, then one JSON
 * line. With --trace 0 the metrics are the end-to-end ones (host
 * time, untraced); with --trace 1 they are the per-layer ones from a
 * separate traced run. Exits non-zero on any correctness mismatch.
 *
 *   wbsim_bench --workload grid_sweep --seed 1 --seconds 10 --trace 0
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "harness/experiment.hh"
#include "spans.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

using namespace perfbench;

namespace
{

/** Seed the committed result digests were recorded at. */
constexpr std::uint64_t kDigestSeed = 1;
/**
 * Simulation threads of grid_sweep and mc_bus.
 * Two, not all four cores of the reference host: on a shared 4-core
 * VM, back-to-back batches of grid_sweep runs spread by 18% across
 * seeds at four threads and by 3% at two.
 */
constexpr unsigned kThreads = 2;
/** Set-up probes per run; setup_s is their median. */
constexpr unsigned kSetUpProbes = 21;
/** Fewest timed passes a run makes, whatever --seconds says. */
constexpr unsigned kMinPasses = 3;
/** Share of --seconds a traced run spends on its passes; the layer
 *  replay takes the rest. */
constexpr double kTracedPassShare = 0.6;

std::string
format(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/** The host stamp every output carries. */
std::vector<std::pair<std::string, std::string>>
hostStamp(const std::string &workload, std::uint64_t seed, bool trace)
{
    return {
        {"workload", workload},
        {"seed", std::to_string(seed)},
        {"trace", trace ? "1" : "0"},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu", cpuModel()},
        {"compiler", WBSIM_BENCH_COMPILER},
        {"build_type", WBSIM_BENCH_BUILD_TYPE},
        {"simd", wbsim::simd::levelName(wbsim::simd::defaultLevel())},
    };
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/** Committed per-workload digests at kDigestSeed ("name hex" lines). */
std::map<std::string, std::uint64_t>
readDigests(const std::string &path)
{
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(path);
    std::string name, digest;
    while (in >> name >> digest)
        out[name] = std::stoull(digest, nullptr, 16);
    return out;
}

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::int64_t
steadyNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * One set-up probe: launch this program again with --setup-probe so
 * the child sets the workload up and reports how long after its
 * launch it was ready to time its first operation. That covers
 * process start, profile set-up, server start and client connect.
 * steady_clock is system-wide, so the child can read the parent's
 * launch stamp.
 */
double
probeSetUp(const std::vector<std::string> &args)
{
    int fds[2];
    if (::pipe(fds) != 0)
        wbsim_fatal("setup probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    std::vector<std::string> argStrings = args;
    argStrings.push_back("--setup-probe=" + std::to_string(steadyNanos()));
    std::vector<char *> argv;
    for (std::string &a : argStrings)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                              argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string output;
    char buf[256];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;)
        output.append(buf, std::size_t(n));
    ::close(fds[0]);
    int status = 0;
    if (spawned != 0 || ::waitpid(pid, &status, 0) != pid
        || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        wbsim_fatal("setup probe failed");
    return std::stod(output);
}

} // namespace

namespace perfbench
{

void
countMetrics(const WorkCounts &c, std::vector<Metric> &out)
{
    const wbsim::SimResults &s = c.sum;
    double kinstr = double(s.instructions) / 1000.0;
    double instr = double(s.instructions);
    const std::string base =
        "exact over " + std::to_string(c.cells) + " cells, "
        + std::to_string(s.instructions) + " measured instructions";
    addMetric(out, "core.stores_per_kinstr", ratio(double(s.stores), kinstr),
         "1/kinstr", 1, base);
    addMetric(out, "core.merge_rate", ratio(double(s.wbMerges), double(s.stores)),
         "ratio", 1, "write-buffer merges / stores");
    addMetric(out, "core.writebacks_per_kinstr",
         ratio(double(s.wbEntriesWritten), kinstr), "1/kinstr", 1,
         "buffer entries written to L2");
    addMetric(out, "core.hazards_per_kinstr", ratio(double(s.wbHazards), kinstr),
         "1/kinstr", 1);
    addMetric(out, "core.mean_occupancy", ratio(c.occupancySum, double(c.cells)),
         "entries", 1, "mean over cells of SimResults::wbMeanOccupancy");
    addMetric(out, "core.cpi_buffer_full",
         ratio(double(s.stalls.bufferFullCycles), instr), "cycles/instr", 1);
    addMetric(out, "core.cpi_read_access",
         ratio(double(s.stalls.l2ReadAccessCycles), instr), "cycles/instr",
         1);
    addMetric(out, "core.cpi_load_hazard",
         ratio(double(s.stalls.loadHazardCycles), instr), "cycles/instr", 1);
    addMetric(out, "mem.l1_load_hit_rate",
         ratio(double(s.l1LoadHits), double(s.l1LoadHits + s.l1LoadMisses)),
         "ratio", 1);
    addMetric(out, "mem.l2_read_hit_rate",
         ratio(double(s.l2ReadHits), double(s.l2ReadHits + s.l2ReadMisses)),
         "ratio", 1);
    addMetric(out, "mem.l2_txn_per_kinstr",
         ratio(double(s.l2ReadHits + s.l2ReadMisses + s.l2WriteHits
                      + s.l2WriteMisses),
               kinstr),
         "1/kinstr", 1, "L2 reads + writes");
    const std::string busBase =
        std::to_string(c.bus.grants) + " grants"
        + (c.bus.grants ? "" : " (no multi-core cells)");
    addMetric(out, "mem.bus.grants_per_kinstr", ratio(double(c.bus.grants), kinstr),
         "1/kinstr", 1, busBase);
    addMetric(out, "mem.bus.wait_cycles_per_grant",
         ratio(double(c.bus.waitCycles), double(c.bus.grants)), "cycles", 1,
         busBase);
    addMetric(out, "mem.bus.busy_frac",
         ratio(double(c.bus.busyCycles), double(c.busSpanCycles)), "ratio", 1,
         "bus busy cycles / slowest core's cycles, summed over cells");
    addMetric(out, "mem.bus.contended_frac",
         ratio(double(c.bus.contendedGrants), double(c.bus.grants)), "ratio",
         1, busBase);
    addMetric(out, "harness.trace_hit_ratio",
         ratio(double(c.traceHits), double(c.traceLookups)), "ratio", 1,
         std::to_string(c.traceHits) + " hits / "
             + std::to_string(c.traceLookups) + " lookups per pass");
    addMetric(out, "harness.checkpoint_hit_ratio",
         ratio(double(c.checkpointHits), double(c.checkpointLookups)),
         "ratio", 1,
         std::to_string(c.checkpointHits) + " hits / "
             + std::to_string(c.checkpointLookups) + " lookups per pass");
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    wbsim::Options cli;
    cli.declare("workload", "grid_sweep | mc_bus | served_mix", "");
    cli.declare("seed", "workload seed", "1");
    cli.declare("seconds", "timed seconds", "10");
    cli.declare("trace", "0 = end-to-end run, 1 = traced per-layer run",
                "0");
    cli.declare("digests", "committed digest file", "");
    cli.declare("spans-out", "Chrome trace_event file for --trace 1", "");
    cli.declare("setup-probe",
                "internal: set up, print seconds since this steady-clock "
                "nanosecond stamp, exit",
                "");
    cli.parse(argc, argv);

    const std::string workloadName = cli.get("workload");
    const std::uint64_t seed = cli.getUint("seed");
    const double seconds = cli.getDouble("seconds");
    const bool traced = cli.getUint("trace") != 0;
    const unsigned threads = std::min(kThreads, wbsim::defaultThreads());

    std::unique_ptr<Workload> workload;
    if (workloadName == "grid_sweep")
        workload = makeGridSweep(seed, threads);
    else if (workloadName == "mc_bus")
        workload = makeMcBus(seed, threads);
    else if (workloadName == "served_mix")
        // One closed-loop connection and one simulation worker on one
        // CPU (see ServedMix::setUp): one thread is runnable at a
        // time, so no hand-off waits for another vCPU to wake.
        workload = makeServedMix(seed);
    else
        wbsim_fatal("unknown --workload '", workloadName, "'");

    if (cli.has("setup-probe") && !cli.get("setup-probe").empty()) {
        std::int64_t launched = std::stoll(cli.get("setup-probe"));
        workload->setUp();
        std::cout << format(double(steadyNanos() - launched) * 1e-9)
                  << "\n";
        workload->tearDown();
        return 0;
    }

    auto stamp = hostStamp(workloadName, seed, traced);
    std::cout << "#";
    for (const auto &[key, value] : stamp)
        std::cout << " " << key << "=" << value;
    std::cout << "\n";

    // Set-up probes in child processes (end-to-end runs only), then
    // this process's own set-up.
    std::vector<double> setups;
    for (unsigned i = 0; !traced && i < kSetUpProbes; ++i)
        setups.push_back(probeSetUp(
            {argv[0], "--workload=" + workloadName,
             "--seed=" + std::to_string(seed)}));
    workload->setUp();

    // Timed passes. A traced run alternates untraced and traced
    // passes, so the tracing overhead compares neighbours.
    const double passSeconds = traced ? seconds * kTracedPassShare : seconds;
    SpanRecorder spans;
    // Pass 0 warms the process up and is not timed: a process's
    // first pass ran up to a third slower than its later ones.
    unsigned index = 0;
    const PassResult first = workload->pass(index++, nullptr);
    std::vector<PassResult> passes;
    std::vector<PassResult> tracedPasses;
    auto start = Clock::now();
    while (passes.size() < kMinPasses
           || secondsSince(start) < passSeconds) {
        passes.push_back(workload->pass(index++, nullptr));
        if (traced)
            tracedPasses.push_back(workload->pass(index++, &spans));
    }

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string log;
    attempted += first.cells;
    failed += first.failed;
    for (const auto *set : {&passes, &tracedPasses})
        for (const PassResult &p : *set) {
            attempted += p.cells;
            failed += p.failed;
            if (p.digest != first.digest || !(p.counts == first.counts)) {
                failed += p.cells;
                log += "a pass differs from pass 0 in bytes or exact "
                       "counts\n";
            }
        }
    failed += workload->check(log);
    if (seed == kDigestSeed && !cli.get("digests").empty()) {
        auto digests = readDigests(cli.get("digests"));
        auto it = digests.find(workloadName);
        if (it == digests.end() || it->second != first.digest) {
            failed += first.cells;
            log += "result digest " + hex(first.digest)
                   + " differs from the committed one\n";
        }
    }

    std::vector<Metric> metrics;
    std::vector<double> walls, tracedWalls, cellRates, simRates;
    std::vector<double> requestMs, passP99s;
    for (const PassResult &p : passes) {
        walls.push_back(p.wallSeconds);
        cellRates.push_back(double(p.cells) / p.wallSeconds);
        simRates.push_back(p.simInstructions / p.wallSeconds / 1e6);
        requestMs.insert(requestMs.end(), p.requestMs.begin(),
                         p.requestMs.end());
        passP99s.push_back(quantile(p.requestMs, 0.99));
    }
    for (const PassResult &p : tracedPasses)
        tracedWalls.push_back(p.wallSeconds);
    const double untracedWall = quantile(walls, 0.5);

    if (!traced) {
        addMetric(metrics, "setup_s", quantile(setups, 0.5), "s", setups.size(),
             "median set-up probe: process start to first timed operation");
        addMetric(metrics, "wall_s", untracedWall, "s", walls.size(),
             "median pass of " + std::to_string(first.cells)
                 + " cells; quartiles " + format(quantile(walls, 0.25))
                 + " .. " + format(quantile(walls, 0.75)));
        addMetric(metrics, "cells_per_s", quantile(cellRates, 0.5), "cells/s",
             cellRates.size(), "median over passes");
        addMetric(metrics, "sim_minstr_per_s", quantile(simRates, 0.5),
             "Minstr/s", simRates.size(),
             "simulated instructions incl. warmup, simulated cells only");
        addMetric(metrics, "req_ms_p50", quantile(requestMs, 0.5), "ms",
             requestMs.size(), workload->requestUnit());
        // A slow host phase of a few seconds fills the pooled tail, so
        // the gated p99 is taken per pass and the median pass kept.
        addMetric(metrics, "req_ms_p99", quantile(passP99s, 0.5), "ms",
             requestMs.size(),
             "median over passes of each pass's p99 ("
                 + std::to_string(first.requestMs.size())
                 + " requests a pass); pooled p99 "
                 + format(quantile(requestMs, 0.99)) + " with "
                 + std::to_string(requestMs.size() / 100)
                 + " samples beyond");
        addMetric(metrics, "peak_rss_mb", peakRssMb(), "MB", 1, "ru_maxrss");
    } else {
        const std::size_t replayMark = spans.size();
        failed += replayLayers(workload->sample(), workload->servePort(),
                               spans, metrics, log);
        countMetrics(first.counts, metrics);
        auto self = spans.selfSecondsByLayer(replayMark);
        for (const char *layer : {"workloads", "trace", "sim", "harness",
                                  "obs", "serve", "bench"})
            addMetric(metrics, std::string("self_ms.") + layer,
                 self[layer] * 1e3, "ms", 1,
                 std::string(layer) == "sim"
                     ? "layer replay; includes core and mem"
                     : "layer replay; span time minus child spans");
        const double tracedWall = quantile(tracedWalls, 0.5);
        addMetric(metrics, "untraced_wall_s", untracedWall, "s", walls.size(),
             "median untraced pass");
        addMetric(metrics, "traced_wall_s", tracedWall, "s", tracedWalls.size(),
             "median pass with spans on");
        addMetric(metrics, "tracing_overhead_s", tracedWall - untracedWall, "s",
             tracedWalls.size(), "traced minus untraced median pass");
        if (!cli.get("spans-out").empty()) {
            std::ofstream os(cli.get("spans-out"));
            spans.writeChromeTrace(os, stamp);
        }
    }
    workload->tearDown();

    failed = std::min(failed, attempted);
    std::cout << "result_digest " << hex(first.digest) << "\n";
    std::cout << "failed_frac " << format(ratio(double(failed),
                                                double(attempted)))
              << " ratio (n=" << attempted << " cells)\n";
    for (const Metric &m : metrics)
        std::cout << m.name << " " << format(m.value) << " " << m.unit
                  << " (n=" << m.samples << ")"
                  << (m.note.empty() ? "" : "  # " + m.note) << "\n";
    if (!log.empty())
        std::cout << "MISMATCH\n" << log;

    std::ostringstream json;
    json << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << format(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return failed == 0 ? 0 : 1;
}
