/**
 * @file
 * Design-space explorer: sweep any one write-buffer or cache
 * parameter over a list of values for a chosen benchmark and print
 * the stall breakdown per point - the tool a designer would use to
 * answer "how deep should my buffer be for this workload?".
 *
 * Usage examples:
 *   design_space_explorer --benchmark=fft --sweep=depth \
 *       --values=2,4,6,8,10,12
 *   design_space_explorer --benchmark=li --sweep=retire-at \
 *       --values=2,4,6,8 --depth=12 --hazard=read-from-WB
 *   design_space_explorer --benchmark=tomcatv --sweep=l2-latency \
 *       --values=3,6,10,20
 *
 * With --server=PORT (or --server=unix:PATH) the whole sweep is
 * shipped to a running wbsim_serve daemon as one batch and the
 * explorer becomes a thin client: no simulation happens in this
 * process, and repeated sweeps come straight out of the daemon's
 * result store.
 */

#include <iostream>
#include <sstream>

#include "harness/experiment.hh"
#include "serve/client.hh"
#include "sim/simulator.hh"
#include "workloads/generator.hh"
#include "harness/figures.hh"
#include "util/barchart.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workloads/spec92.hh"

using namespace wbsim;

namespace
{

std::vector<std::uint64_t>
parseValues(const std::string &text)
{
    std::vector<std::uint64_t> values;
    std::stringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ','))
        values.push_back(std::stoull(item));
    if (values.empty())
        wbsim_fatal("--values needs a comma-separated list");
    return values;
}

void
applySweep(MachineConfig &machine, const std::string &knob,
           std::uint64_t value)
{
    if (knob == "depth")
        machine.writeBuffer.depth = static_cast<unsigned>(value);
    else if (knob == "retire-at")
        machine.writeBuffer.highWaterMark =
            static_cast<unsigned>(value);
    else if (knob == "l1-kb")
        machine.l1d.sizeBytes = value * 1024;
    else if (knob == "l2-latency")
        machine.l2Latency = value;
    else if (knob == "l2-kb") {
        machine.perfectL2 = false;
        machine.l2.sizeBytes = value * 1024;
    } else if (knob == "mem-latency") {
        machine.perfectL2 = false;
        machine.memLatency = value;
    } else if (knob == "datapath")
        machine.l2DatapathBytes = static_cast<unsigned>(value);
    else if (knob == "issue-width")
        machine.issueWidth = static_cast<unsigned>(value);
    else if (knob == "cores")
        machine.cores = static_cast<unsigned>(value);
    else
        wbsim_fatal("unknown sweep knob '", knob,
                    "' (depth, retire-at, l1-kb, l2-latency, l2-kb, "
                    "mem-latency, datapath, issue-width, cores)");
}

/** Run every sweep point through a wbsim_serve daemon as one batch
 *  and decode the served payloads back into SimResults. @p target is
 *  a TCP port number or "unix:PATH". */
std::vector<SimResults>
runOnServer(const std::string &target, const std::string &benchmark,
            const std::vector<MachineConfig> &machines,
            Count instructions, Count warmup, std::uint64_t seed)
{
    serve::ServeClient client;
    std::string error;
    bool connected = false;
    if (target.rfind("unix:", 0) == 0)
        connected = client.connectUnix(target.substr(5), error);
    else
        connected = client.connectTcp(
            std::uint16_t(std::stoul(target)), error);
    if (!connected)
        wbsim_fatal("--server=", target, ": ", error);

    std::vector<serve::CellSpec> cells;
    cells.reserve(machines.size());
    for (const MachineConfig &machine : machines) {
        serve::CellSpec cell;
        cell.benchmark = benchmark;
        cell.seed = seed;
        cell.instructions = instructions;
        cell.warmup = warmup;
        cell.machine = machine;
        cells.push_back(std::move(cell));
    }

    serve::Response response;
    if (!client.sweepWithRetry(cells, /*priority=*/0,
                               /*maxAttempts=*/100, response, error))
        wbsim_fatal("--server sweep failed: ", error);
    if (response.type != serve::ResponseType::Results)
        wbsim_fatal("--server sweep rejected: ", response.error);

    std::vector<SimResults> results;
    results.reserve(response.cells.size());
    for (const serve::CellResult &cell : response.cells) {
        SimResults r;
        if (!serve::ServeClient::cellToResults(cell, r, error))
            wbsim_fatal("--server payload: ", error);
        results.push_back(r);
    }
    return results;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.declare("benchmark", "SPEC92 model", "compress");
    options.declare("sweep", "knob to sweep", "depth");
    options.declare("values", "comma-separated values",
                    "2,4,6,8,10,12");
    options.declare("depth", "fixed buffer depth", "4");
    options.declare("retire-at", "fixed high-water mark", "2");
    options.declare("hazard", "load-hazard policy", "flush-full");
    options.declare("instructions", "instructions per point",
                    "1000000");
    options.declare("seed", "workload seed", "1");
    options.declare("events", "dump the last N debug events of the "
                              "final run (0 = off)", "0");
    options.declare("server",
                    "run the sweep on a wbsim_serve daemon: a TCP "
                    "port or unix:PATH (empty = in-process)",
                    "");
    options.parse(argc, argv);

    const std::string benchmark = options.get("benchmark");
    const std::string knob = options.get("sweep");
    const Count instructions = options.getUint("instructions");
    const Count warmup = instructions / 2;
    const std::uint64_t seed = options.getUint("seed");

    MachineConfig base = figures::baselineMachine();
    base.writeBuffer.depth =
        static_cast<unsigned>(options.getUint("depth"));
    base.writeBuffer.highWaterMark =
        static_cast<unsigned>(options.getUint("retire-at"));
    base.writeBuffer.hazardPolicy =
        parseLoadHazardPolicy(options.get("hazard"));

    BenchmarkProfile profile = spec92::profile(benchmark);

    std::cout << "sweep of '" << knob << "' for " << benchmark
              << "\n\n";
    TextTable table;
    table.setHeader({knob, "config", "R%", "F%", "L%", "T%", "CPI"});
    BarChart chart({"L2-read-access", "buffer-full", "load-hazard"});
    chart.beginGroup(benchmark);

    const std::vector<std::uint64_t> values =
        parseValues(options.get("values"));
    std::vector<MachineConfig> machines;
    machines.reserve(values.size());
    for (std::uint64_t value : values) {
        MachineConfig machine = base;
        applySweep(machine, knob, value);
        machine.validate();
        machines.push_back(machine);
    }

    const std::string server = options.get("server");
    std::vector<SimResults> results;
    if (!server.empty()) {
        results = runOnServer(server, benchmark, machines,
                              instructions, warmup, seed);
    } else {
        results.reserve(machines.size());
        for (const MachineConfig &machine : machines)
            results.push_back(
                runOne(profile, machine, instructions, seed, warmup));
    }

    for (std::size_t i = 0; i < machines.size(); ++i) {
        const SimResults &r = results[i];
        double cpi = double(r.cycles) / double(r.instructions);
        table.addRow({std::to_string(values[i]),
                      machines[i].describe(),
                      formatPercent(r.pctL2ReadAccess()),
                      formatPercent(r.pctBufferFull()),
                      formatPercent(r.pctLoadHazard()),
                      formatPercent(r.pctTotalStalls()),
                      formatDouble(cpi, 3)});
        chart.addBar({std::to_string(values[i]),
                      {r.pctL2ReadAccess(), r.pctBufferFull(),
                       r.pctLoadHazard()}});
    }
    table.render(std::cout);
    std::cout << "\n";
    chart.render(std::cout);

    if (Count events = options.getUint("events"); events > 0) {
        // Replay the last sweep point with an event log attached and
        // show the tail of the microarchitectural story. Always
        // in-process: event logs never cross the wire.
        MachineConfig machine = machines.back();
        EventLog log(events);
        Simulator simulator(machine);
        simulator.attachObs(obs::ObsSink{.eventLog = &log});
        SyntheticSource source(profile, instructions, seed);
        simulator.run(source);
        std::cout << "\nlast " << log.size() << " events of the "
                  << values.back() << " run:\n";
        log.dump(std::cout);
    }
    return 0;
}
