#include "simop.hh"

#include "kernel/kernel.hh"
#include "trace/trace.hh"

namespace perfbench {

using namespace rtu;

SimRun
runSimulation(CoreKind core, const RtosUnitConfig &unit,
              const Workload &workload, Word timer_period,
              unsigned ctx_queue_entries, SpanLog *trace)
{
    const WorkloadInfo winfo = workload.info();

    KernelParams kparams;
    kparams.unit = unit;
    kparams.timerPeriodCycles = timer_period;
    kparams.usesExternalIrq = winfo.usesExternalIrq;
    kparams.usesDelayUntil = winfo.usesDelayUntil;
    KernelBuilder kb(kparams);
    workload.addTasks(kb);

    SimRun run;
    run.program = std::make_unique<Program>(
        inSpan(trace, "kernel.build", [&] { return kb.build(); }));

    SimConfig sconfig;
    sconfig.core = core;
    sconfig.unit = unit;
    sconfig.timerPeriodCycles = timer_period;
    sconfig.maxCycles = winfo.maxCycles;
    sconfig.naxCtxQueueEntries = ctx_queue_entries;
    inSpan(trace, "harness.install", [&] {
        run.sim = std::make_unique<Simulation>(sconfig, *run.program);
    });
    for (Cycle at : winfo.extIrqSchedule)
        run.sim->scheduleExtIrq(at);

    run.exited = inSpan(trace, "sim.run", [&] { return run.sim->run(); });
    return run;
}

RunResult
runResultOf(const SimRun &run, CoreKind core, const RtosUnitConfig &unit,
            const std::string &workload)
{
    Simulation &sim = *run.sim;
    RunResult res;
    res.core = core;
    res.unit = unit;
    res.workload = workload;
    res.ok = run.exited && sim.exitCode() == 0;
    res.exitCode = sim.exitCode();
    res.cycles = sim.now();
    res.status = sim.status();
    res.diagnostic = sim.statusDiagnostic();
    const SimKernelStats &ks = sim.kernelStats();
    res.throughput.cyclesTicked = ks.cyclesTicked;
    res.throughput.cyclesSkipped = ks.cyclesSkipped;
    res.throughput.fastForwards = ks.fastForwards;
    res.throughput.strideSkips = ks.strideSkips;
    res.throughput.blockRuns = ks.blockRuns;
    res.throughput.cyclesBlockExecuted = ks.cyclesBlockExecuted;
    res.switchLatency = sim.recorder().latencyStats(true);
    res.episodeLatency = sim.recorder().latencyStats(false);
    res.coreStats = sim.coreStats();
    res.activity.cycles = sim.now();
    res.activity.instret = res.coreStats.instret;
    res.activity.memOps = res.coreStats.memOps;
    res.activity.traps = res.coreStats.traps;
    if (RtosUnit *u = sim.unit()) {
        const RtosUnitStats &us = u->stats();
        res.activity.unitMemWords = us.storeWords + us.restoreWords +
                                    kCtxWords * us.preloadFetches;
        res.activity.sortPhases = u->readyList().stats().sortPhases +
                                  u->delayList().stats().sortPhases;
        res.activity.unitBusyCycles = us.busyCycles;
    } else if (Cv32rtUnit *c = sim.cv32rtUnit()) {
        res.activity.unitMemWords = c->stats().drainedWords;
        res.activity.unitBusyCycles = c->stats().drainedWords;
    }
    return res;
}

const char *
coreId(CoreKind core)
{
    switch (core) {
      case CoreKind::kCv32e40p: return "cv32e40p";
      case CoreKind::kCva6: return "cva6";
      case CoreKind::kNax: return "nax";
    }
    return "?";
}

void
addSimCounts(const SimRun &run, const RunResult &result,
             std::map<std::string, double> &counts)
{
    const RunThroughput &t = result.throughput;
    counts["sim.cycles_ticked"] += t.cyclesTicked;
    counts["sim.cycles_skipped"] += t.cyclesSkipped;
    counts["sim.cycles_block_executed"] += t.cyclesBlockExecuted;
    counts["sim.fast_forwards"] += t.fastForwards;
    counts["sim.stride_skips"] += t.strideSkips;
    counts["sim.block_runs"] += t.blockRuns;

    const CoreStats &c = result.coreStats;
    counts["cores.instret"] += c.instret;
    counts["cores.blocks_executed"] += c.blocksExecuted;
    counts["cores.block_fallbacks"] += c.blockFallbacks;
    counts["cores.stall_cycles"] += c.stallCycles;
    counts["cores.cache_misses"] += c.cacheMisses;
    counts["cores.branch_mispredicts"] += c.branchMispredicts;

    counts["rtosunit.busy_cycles"] += result.activity.unitBusyCycles;
    counts["rtosunit.mem_words"] += result.activity.unitMemWords;

    // Each phase runs from the latest earlier stamp the episode carries
    // to its own stamp, so the five phases of an episode add up to its
    // latency. Truncated (preempted) episodes have no real end point.
    static const char *const kPhase[] = {"entry", "store", "sched",
                                         "load", "exit"};
    const auto &records = run.sim->recorder().records();
    counts["trace.episodes"] += static_cast<double>(records.size());
    for (const SwitchRecord &r : records) {
        if (r.preempted)
            continue;
        const Cycle stamps[] = {r.assertCycle, r.entryCycle,
                                r.storeDoneCycle, r.schedDoneCycle,
                                r.loadDoneCycle, r.mretCycle};
        Cycle last = stamps[0];
        for (int p = 1; p < 6; ++p) {
            if (stamps[p] == kNoPhase)
                continue;
            const std::string key = std::string("trace.") + kPhase[p - 1];
            counts[key + "_sum"] += static_cast<double>(stamps[p]) -
                                    static_cast<double>(last);
            counts[key + "_n"] += 1;
            last = stamps[p];
        }
    }
}

} // namespace perfbench
