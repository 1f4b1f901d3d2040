/**
 * @file
 * The traced layer replay: a sample of a workload's cells is driven
 * through each layer's public entry points one at a time, with a
 * span around every call, so each layer's host time is measured
 * where its work happens. Spans are recorded from the benchmark's
 * code only; a span's self time therefore includes every layer below
 * the called entry point (Simulator::run covers core and mem).
 */

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "harness/experiment.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "trace/materialized_trace.hh"
#include "trace/memory_trace.hh"
#include "util/logging.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace perfbench
{

using namespace wbsim;

namespace
{

constexpr std::size_t kGenBatch = 4096;
constexpr std::size_t kRunBatch = 1024;
constexpr std::size_t kRequestCells = 4;

/** A loopback stream socket, closed on destruction. */
class Socket
{
  public:
    explicit Socket(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (fd_ < 0
            || ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                         sizeof addr)
                   < 0)
            wbsim_fatal("layer replay: cannot connect to port ", port);
    }
    ~Socket() { ::close(fd_); }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

std::vector<double>
scaled(std::vector<double> values, double scale)
{
    for (double &v : values)
        v *= scale;
    return values;
}

} // namespace

std::size_t
replayLayers(const std::vector<Cell> &cells, std::uint16_t port,
             SpanRecorder &spans, std::vector<Metric> &out,
             std::string &log)
{
    std::size_t mismatches = 0;
    Count records = 0;
    Count encodedBytes = 0;
    Count warmupInstructions = 0;
    Count runInstructions = 0;
    Count mcInstructions = 0;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        const long id = long(i);
        const Count length = cell.instructions + cell.warmup;
        ScopedSpan root(&spans, "bench.cell", id);

        // workloads: generate the cell's records in batches.
        std::vector<TraceRecord> generated;
        generated.reserve(length);
        {
            SyntheticSource source(cell.profile, length, cell.seed);
            std::vector<TraceRecord> batch(kGenBatch);
            for (;;) {
                std::size_t n = 0;
                {
                    ScopedSpan span(&spans, "workloads.nextBatch", id,
                                    root.id());
                    n = source.nextBatch(batch.data(), kGenBatch);
                }
                if (n == 0)
                    break;
                generated.insert(generated.end(), batch.begin(),
                                 batch.begin() + long(n));
            }
        }
        records += generated.size();

        // trace: encode the pre-generated records, then drain them.
        MemoryTrace memory(std::move(generated), cell.profile.name);
        std::deque<MaterializedTrace> traces;
        {
            ScopedSpan span(&spans, "trace.build", id, root.id());
            traces.push_back(MaterializedTrace::build(memory));
        }
        const MaterializedTrace &trace = traces.front();
        encodedBytes += trace.encodedBytes();
        {
            MaterializedCursor cursor(trace);
            std::vector<TraceRun> runs(kRunBatch);
            Count covered = 0;
            ScopedSpan span(&spans, "trace.nextRuns", id, root.id());
            while (std::size_t n = cursor.nextRuns(runs.data(), kRunBatch))
                for (std::size_t k = 0; k < n; ++k)
                    covered += runs[k].nonMemBefore + 1;
            if (covered != trace.size())
                wbsim_fatal("layer replay: decoded ", covered,
                            " records of ", trace.size());
        }

        // sim: warmup and measured run on one core of the machine.
        MachineConfig solo = cell.machine;
        solo.cores = 1;
        Simulator simulator(solo);
        MaterializedCursor cursor(trace);
        {
            ScopedSpan span(&spans, "sim.consume", id, root.id());
            warmupInstructions += simulator.consume(cursor, cell.warmup);
        }
        simulator.resetStats();
        SimResults single;
        {
            ScopedSpan span(&spans, "sim.run", id, root.id());
            single = simulator.run(cursor);
        }
        runInstructions += single.instructions;

        // sim: the whole machine through MultiCoreSystem (one core
        // on a single-core cell: the solo-bus path).
        MultiCoreSystem system(cell.machine);
        {
            ScopedSpan span(&spans, "bench.mc_inputs", id, root.id());
            for (unsigned k = 1; k < system.cores(); ++k) {
                SyntheticSource source(cell.profile, length,
                                       cell.seed + k);
                traces.push_back(MaterializedTrace::build(source));
            }
        }
        std::vector<std::unique_ptr<MaterializedCursor>> cursors;
        std::vector<TraceSource *> sources;
        for (const MaterializedTrace &t : traces) {
            cursors.push_back(std::make_unique<MaterializedCursor>(t));
            sources.push_back(cursors.back().get());
        }
        MultiCoreResults mc;
        {
            ScopedSpan span(&spans, "sim.mc_run", id, root.id());
            mc = system.run(sources, cell.warmup);
        }
        mcInstructions += Count(system.cores()) * length;

        // obs: render the cell's result document.
        const SimResults &result =
            cell.machine.cores > 1 ? mc.aggregate() : single;
        obs::Provenance provenance = provenanceOf(
            cell, obs::Provenance::defaultBuildFlags());
        std::ostringstream bytes;
        {
            ScopedSpan span(&spans, "obs.writeSimResultsJson", id,
                            root.id());
            obs::writeSimResultsJson(bytes, result, provenance);
        }

        // harness: cached runOne, after one call fills the caches.
        RunnerOptions cached;
        cached.instructions = cell.instructions;
        cached.warmup = cell.warmup;
        cached.threads = 1;
        cached.seed = cell.seed;
        {
            ScopedSpan span(&spans, "bench.fill_caches", id, root.id());
            runOne(cell.profile, cell.machine, cached, cell.seed);
        }
        SimResults viaHarness;
        {
            ScopedSpan span(&spans, "harness.runOne", id, root.id());
            viaHarness =
                runOne(cell.profile, cell.machine, cached, cell.seed);
        }
        std::ostringstream harnessBytes;
        obs::writeSimResultsJson(harnessBytes, viaHarness, provenance);
        if (harnessBytes.str() != bytes.str()) {
            ++mismatches;
            log += "layer replay of " + cell.profile.name + " "
                   + cell.machine.describe()
                   + " differs from cached runOne\n";
        }
    }

    // serve: the servable sample cells as sweep requests over raw
    // frames, each request sent twice (a miss, then a store read on
    // a fresh server). Stats come from the workload's own server
    // before the replay touches it, or from the replay server.
    std::vector<std::vector<serve::CellSpec>> requests(1);
    std::vector<std::vector<const Cell *>> requestCells(1);
    for (const Cell &cell : cells) {
        if (!spec92::isBenchmark(cell.profile.name))
            continue;
        if (requests.back().size() == kRequestCells) {
            requests.emplace_back();
            requestCells.emplace_back();
        }
        requests.back().push_back({cell.profile.name, cell.seed,
                                   cell.instructions, cell.warmup,
                                   cell.machine});
        requestCells.back().push_back(&cell);
    }
    std::unique_ptr<serve::ServeServer> replayServer;
    if (port == 0) {
        serve::ServeConfig config;
        config.workers = 1;
        replayServer = std::make_unique<serve::ServeServer>(config);
        std::string error;
        if (!replayServer->start(error))
            wbsim_fatal("layer replay: server start failed: ", error);
        port = replayServer->port();
    }
    auto fetchStats = [port]() {
        serve::ServeClient client;
        std::string json;
        std::string error;
        if (!client.connectTcp(port, error)
            || !client.stats(json, error))
            wbsim_fatal("layer replay: stats request failed: ", error);
        return obs::JsonValue::parse(json);
    };
    obs::JsonValue before = fetchStats();
    {
        Socket socket(port);
        for (int round = 0; round < 2; ++round)
            for (std::size_t r = 0; r < requests.size(); ++r) {
                if (requests[r].empty())
                    continue;
                serve::Request request;
                request.type = serve::RequestType::Sweep;
                request.cells = requests[r];
                const long id = long(round * 1000 + r);
                serve::Response response;
                do {
                    ScopedSpan root(&spans, "bench.request", id);
                    std::string payload;
                    {
                        ScopedSpan span(&spans, "serve.encodeRequest",
                                        id, root.id());
                        payload = serve::encodeRequest(request);
                    }
                    {
                        ScopedSpan span(&spans, "serve.exchange", id,
                                        root.id());
                        if (!serve::writeFrame(socket.fd(), payload)
                            || serve::readFrame(socket.fd(), payload)
                                   != serve::FrameResult::Ok)
                            wbsim_fatal("layer replay: frame I/O failed");
                    }
                    {
                        std::string error;
                        ScopedSpan span(&spans, "serve.decodeResponse",
                                        id, root.id());
                        response = serve::Response{};
                        if (!serve::decodeResponse(payload, response,
                                                   error))
                            wbsim_fatal("layer replay: ", error);
                    }
                    if (response.type == serve::ResponseType::RetryAfter)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(
                                response.retryAfterMs));
                } while (response.type == serve::ResponseType::RetryAfter);
                if (response.type != serve::ResponseType::Results
                    || response.cells.size() != requests[r].size())
                    wbsim_fatal("layer replay: sweep failed: ",
                                response.error);
                for (std::size_t k = 0; k < response.cells.size(); ++k) {
                    const Cell &cell = *requestCells[r][k];
                    SimResults local =
                        runOne(cell.profile, cell.machine,
                               cell.instructions, cell.seed, cell.warmup);
                    if (response.cells[k].resultJson
                        != resultBytes(local, cell,
                                       obs::Provenance::
                                           defaultBuildFlags())) {
                        ++mismatches;
                        log += "served replay of " + cell.profile.name
                               + " differs from the local run\n";
                    }
                }
            }
    }
    obs::JsonValue after = fetchStats();
    if (replayServer)
        replayServer->stop();
    const obs::JsonValue &counters = replayServer ? after : before;

    // Host nanoseconds per unit of work over every span named @p name.
    auto nsPer = [&spans](const std::string &name, Count units) {
        double total = 0.0;
        for (double d : spans.durations(name))
            total += d;
        return units ? total * 1e9 / double(units) : 0.0;
    };
    std::vector<double> json =
        scaled(spans.durations("obs.writeSimResultsJson"), 1e6);
    std::vector<double> cellMs =
        scaled(spans.durations("harness.runOne"), 1e3);
    std::vector<double> encodeUs =
        scaled(spans.durations("serve.encodeRequest"), 1e6);
    std::vector<double> decodeUs =
        scaled(spans.durations("serve.decodeResponse"), 1e6);

    const std::string n = std::to_string(records) + " records";
    addMetric(out, "workloads.gen_ns_per_rec", nsPer("workloads.nextBatch", records), "ns/rec",
         std::size_t(records),
         "SyntheticSource::nextBatch over " + n);
    addMetric(out, "trace.encode_ns_per_rec", nsPer("trace.build", records), "ns/rec",
         std::size_t(records),
         "MaterializedTrace::build over pre-generated " + n);
    addMetric(out, "trace.decode_ns_per_rec", nsPer("trace.nextRuns", records), "ns/rec",
         std::size_t(records), "draining MaterializedCursor::nextRuns");
    addMetric(out, "trace.bytes_per_rec",
         records ? double(encodedBytes) / double(records) : 0.0,
         "B/rec", 1,
         "exact: " + std::to_string(encodedBytes) + " encoded bytes / "
             + n);
    addMetric(out, "sim.warmup_ns_per_instr", nsPer("sim.consume", warmupInstructions), "ns/instr",
         std::size_t(warmupInstructions), "Simulator::consume");
    addMetric(out, "sim.run_ns_per_instr", nsPer("sim.run", runInstructions), "ns/instr",
         std::size_t(runInstructions),
         "Simulator::run; self time includes core and mem");
    addMetric(out, "sim.mc_ns_per_instr", nsPer("sim.mc_run", mcInstructions), "ns/instr",
         std::size_t(mcInstructions),
         "MultiCoreSystem::run, per core instruction incl. warmup");
    addMetric(out, "obs.json_us_per_cell", quantile(json, 0.5), "us",
         json.size(), "median writeSimResultsJson per cell");
    addMetric(out, "harness.cell_ms_p50", quantile(cellMs, 0.5), "ms",
         cellMs.size(), "cached runOne (trace and checkpoint hits)");
    addMetric(out, "serve.encode_us_per_req", quantile(encodeUs, 0.5), "us",
         encodeUs.size(), "median encodeRequest, <= 4 cells");
    addMetric(out, "serve.decode_us_per_resp", quantile(decodeUs, 0.5), "us",
         decodeUs.size(), "median decodeResponse, <= 4 cells");

    const obs::JsonValue &store = counters.at("store");
    std::uint64_t hits = store.at("hits").uint();
    std::uint64_t lookups = hits + store.at("misses").uint();
    addMetric(out, "serve.store_hit_ratio",
         lookups ? double(hits) / double(lookups) : 0.0, "ratio",
         std::size_t(lookups),
         std::to_string(hits) + " hits / " + std::to_string(lookups)
             + " lookups"
             + (replayServer ? " on the replay server" : ""));
    const obs::JsonValue &queue = counters.at("queue");
    addMetric(out, "serve.queue_rejected",
         double(queue.at("rejected").uint()), "count", 1,
         "DispatchQueueStats::rejected");
    addMetric(out, "serve.queue_high_water",
         double(queue.at("high_water").uint()), "cells", 1,
         "DispatchQueueStats::highWater; depends on timing");
    for (const obs::JsonValue &metric : after.at("metrics").array()) {
        if (metric.at("name").string() != "serve.cell_micros")
            continue;
        std::size_t samples = std::size_t(metric.at("n").uint());
        const std::string source =
            replayServer ? "replay server's" : "server's";
        addMetric(out, "serve.cell_ms_p50", metric.at("p50").number() * 1e-3,
             "ms", samples, source + " serve.cell_micros histogram");
        addMetric(out, "serve.cell_ms_p99", metric.at("p99").number() * 1e-3,
             "ms", samples, source + " serve.cell_micros histogram");
    }
    return mismatches;
}

} // namespace perfbench
