/**
 * Simulator-throughput benchmark: every requested (core x config x
 * workload) point runs twice — in the per-cycle reference mode (no
 * predecoded image, no block index, every fetch decoded from memory)
 * and in block mode (image, quiescence fast-forward and superblock
 * execution) — with episode traces captured. The two traces must be
 * byte-identical, and the mode-invariant core counters equal
 * (trace_identical; exit 1 otherwise), and every run must finish
 * (ok; exit 1 naming each point that ran into the cycle limit or
 * never exited); the report quantifies what block mode buys: skip
 * ratio (fraction of simulated cycles never ticked), guest MIPS and
 * the wall-clock speedup over the reference.
 *
 * Emits BENCH_sim_throughput.json with one record per point plus
 * per-core and overall aggregates. --min-skip-ratio gates the overall
 * skip ratio and --min-speedup the overall speedup of block mode over
 * the reference (exit 1 below the floor), so CI can assert that the
 * kernel actually fast-forwards on periodic workloads and that the
 * accelerated path actually pays on compute-bound ones.
 *
 * Usage: bench_throughput [--cores cv32e40p,cva6,nax]
 *                         [--configs vanilla,SLT,...]
 *                         [--workloads delay_wake,...]
 *                         [--iterations N]
 *                         [--timer-period CYCLES]
 *                         [--repeats N]
 *                         [--out BENCH_sim_throughput.json]
 *                         [--min-skip-ratio R]
 *                         [--min-speedup S]
 *
 * --repeats runs each mode of each point N times (at least once) and
 * keeps the minimum wall time (the runs are deterministic, so only
 * scheduling noise differs between them). Speedup gates in CI should
 * use --repeats 3 or more: single-shot wall times on millisecond-scale
 * runs swing tens of percent under host contention.
 *
 * --timer-period sets the preemption-timer period per point. The
 * default is 10000 cycles — a 10 kHz tick on a 100 MHz core, the
 * realistic regime where guests spend most cycles quiescent between
 * switches. The latency benches use 1000 to cram switches into short
 * runs; pass --timer-period 1000 to measure that (ISR-dominated)
 * regime instead.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace rtu;

namespace {

struct PointReport
{
    SweepPoint point;
    RunThroughput ff;  ///< block mode
    RunThroughput ref;
    Cycle cycles = 0;
    CoreStats core;  ///< of the block-mode (ff) run
    bool traceIdentical = false;
    bool ok = false;
};

/** @p run matches the reference run @p ref: same episode trace,
 *  cycle count, status and mode-invariant core counters. */
bool
sameAsReference(const SweepResult &run, const SweepResult &ref)
{
    if (run.trace != ref.trace || run.run.cycles != ref.run.cycles ||
        run.run.status != ref.run.status)
        return false;
    for (const auto &row : kCoreStatsTable) {
        if (row.modeInvariant &&
            run.run.coreStats.*row.member != ref.run.coreStats.*row.member)
            return false;
    }
    return true;
}

double
mips(std::uint64_t instret, double seconds)
{
    return seconds > 0.0
               ? static_cast<double>(instret) / seconds / 1e6
               : 0.0;
}

double
skipRatio(std::uint64_t skipped, std::uint64_t ticked)
{
    const double total = static_cast<double>(skipped + ticked);
    return total > 0.0 ? static_cast<double>(skipped) / total : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    std::vector<CoreKind> cores = {CoreKind::kCv32e40p, CoreKind::kCva6,
                                   CoreKind::kNax};
    std::vector<std::string> configs = {"vanilla", "SLT"};
    std::vector<std::string> workloads = {"delay_wake", "sem_pingpong",
                                          "round_robin"};
    unsigned iterations = 20;
    unsigned timer_period = 10000;
    unsigned repeats = 1;
    std::string out_path = "BENCH_sim_throughput.json";
    double min_skip_ratio = 0.0;
    double min_speedup = 0.0;

    std::string cores_arg, configs_arg, workloads_arg;
    ArgParser parser("Simulation throughput: per-cycle reference vs "
                     "block mode");
    parser.addString("--cores", &cores_arg,
                     "comma list: cv32e40p,cva6,nax");
    parser.addString("--configs", &configs_arg,
                     "comma list of RTOSUnit configurations");
    parser.addString("--workloads", &workloads_arg,
                     "comma list of workloads");
    parser.addUnsigned("--iterations", &iterations,
                       "workload iterations per run", 1);
    parser.addUnsigned("--timer-period", &timer_period,
                       "preemption timer period in cycles");
    parser.addUnsigned("--repeats", &repeats,
                       "timed runs per mode; min wall time kept", 1);
    parser.addString("--out", &out_path, "JSON report path");
    parser.addDouble("--min-skip-ratio", &min_skip_ratio,
                     "fail when the overall skip ratio is lower");
    parser.addDouble("--min-speedup", &min_speedup,
                     "fail when the overall speedup of block mode over "
                     "the reference is lower");
    parser.parse(argc, argv);

    if (!cores_arg.empty()) {
        cores.clear();
        for (const std::string &n : splitList(cores_arg))
            cores.push_back(coreKindFromName(n));
    }
    if (!configs_arg.empty())
        configs = splitList(configs_arg);
    if (!workloads_arg.empty())
        workloads = splitList(workloads_arg);
    if (cores.empty() || configs.empty() || workloads.empty())
        fatal("need at least one core, config and workload");

    std::vector<PointReport> reports;
    bool allIdentical = true;

    std::printf("%-9s %-8s %-16s %12s %10s %9s %9s %8s\n", "core",
                "config", "workload", "cycles", "skip", "ref-ms", "ff-ms",
                "speedup");
    for (CoreKind core : cores) {
        for (const std::string &cfg : configs) {
            for (const std::string &w : workloads) {
                SweepPoint p;
                p.core = core;
                p.unit = RtosUnitConfig::fromName(cfg);
                p.workload = w;
                p.iterations = iterations;
                p.timerPeriodCycles = timer_period;
                p.reseed();

                // Reference first, then block mode; traces captured
                // for the byte-identity check. Each mode runs
                // --repeats times keeping the minimum wall time.
                const auto bestOf = [&p, repeats](ExecMode mode) {
                    SweepResult best = runSweepPoint(p, true, mode);
                    for (unsigned k = 1; k < repeats; ++k) {
                        SweepResult r = runSweepPoint(p, true, mode);
                        if (r.run.throughput.wallSeconds <
                            best.run.throughput.wallSeconds)
                            best = std::move(r);
                    }
                    return best;
                };
                const SweepResult ref = bestOf(ExecMode::kReference);
                const SweepResult ff = bestOf(ExecMode::kBlock);

                PointReport r;
                r.point = p;
                r.ref = ref.run.throughput;
                r.ff = ff.run.throughput;
                r.cycles = ff.run.cycles;
                r.core = ff.run.coreStats;
                r.traceIdentical = sameAsReference(ff, ref);
                r.ok = ff.run.ok && ref.run.ok;
                allIdentical = allIdentical && r.traceIdentical;
                reports.push_back(r);

                const double speedup =
                    r.ff.wallSeconds > 0.0
                        ? r.ref.wallSeconds / r.ff.wallSeconds
                        : 0.0;
                std::printf(
                    "%-9s %-8s %-16s %12llu %9.1f%% %9.2f %9.2f "
                    "%7.2fx%s\n",
                    coreKindName(core), cfg.c_str(), w.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    100.0 * skipRatio(r.ff.cyclesSkipped,
                                      r.ff.cyclesTicked +
                                          r.ff.cyclesBlockExecuted),
                    r.ref.wallSeconds * 1e3, r.ff.wallSeconds * 1e3,
                    speedup, r.traceIdentical ? "" : "  TRACE MISMATCH");
            }
        }
    }

    // Aggregates: per core and overall. Block-executed cycles count
    // as executed (not skipped) in the skip ratio, so the ratio
    // measures the fast-forward alone.
    std::uint64_t totTicked = 0, totSkipped = 0, totInstret = 0;
    double totRefWall = 0, totFfWall = 0;
    std::ostringstream perCore;
    for (size_t ci = 0; ci < cores.size(); ++ci) {
        std::uint64_t ticked = 0, skipped = 0, instret = 0;
        double refWall = 0, ffWall = 0;
        for (const PointReport &r : reports) {
            if (r.point.core != cores[ci])
                continue;
            ticked += r.ff.cyclesTicked + r.ff.cyclesBlockExecuted;
            skipped += r.ff.cyclesSkipped;
            instret += r.core.instret;
            refWall += r.ref.wallSeconds;
            ffWall += r.ff.wallSeconds;
        }
        perCore << (ci ? "," : "") << "{\"core\":\""
                << jsonEscape(coreKindName(cores[ci]))
                << "\",\"skip_ratio\":"
                << csprintf("%.4f", skipRatio(skipped, ticked))
                << ",\"ff_mips\":" << csprintf("%.3f", mips(instret,
                                                            ffWall))
                << ",\"speedup\":"
                << csprintf("%.3f",
                            ffWall > 0.0 ? refWall / ffWall : 0.0)
                << "}";
        totTicked += ticked;
        totSkipped += skipped;
        totInstret += instret;
        totRefWall += refWall;
        totFfWall += ffWall;
    }

    const double overallSkip = skipRatio(totSkipped, totTicked);
    const double overallSpeedup =
        totFfWall > 0.0 ? totRefWall / totFfWall : 0.0;
    std::printf("\noverall: skip ratio %.1f%%, speedup %.2fx, "
                "%.2f MIPS (ref %.2f)\n",
                100.0 * overallSkip, overallSpeedup,
                mips(totInstret, totFfWall), mips(totInstret, totRefWall));

    std::ofstream os(out_path);
    if (!os)
        fatal("cannot open --out file '%s'", out_path.c_str());
    os << "{\"schema\":5,\"iterations\":" << iterations
       << ",\"timer_period\":" << timer_period
       << ",\"repeats\":" << repeats << ",\"results\":[";
    for (size_t i = 0; i < reports.size(); ++i) {
        const PointReport &r = reports[i];
        os << (i ? "," : "") << "{\"core\":\""
           << jsonEscape(coreKindName(r.point.core)) << "\",\"config\":\""
           << jsonEscape(r.point.unit.name()) << "\",\"workload\":\""
           << jsonEscape(r.point.workload)
           << "\",\"ok\":" << (r.ok ? "true" : "false")
           << ",\"trace_identical\":"
           << (r.traceIdentical ? "true" : "false")
           << ",\"cycles\":" << r.cycles;
        writeCounterFields(os, r.ff);
        os << ",\"skip_ratio\":"
           << csprintf("%.4f",
                       skipRatio(r.ff.cyclesSkipped,
                                 r.ff.cyclesTicked +
                                     r.ff.cyclesBlockExecuted));
        writeCounterFields(os, r.core);
        os << ",\"ref_wall_ms\":"
           << csprintf("%.3f", r.ref.wallSeconds * 1e3)
           << ",\"ff_wall_ms\":"
           << csprintf("%.3f", r.ff.wallSeconds * 1e3)
           << ",\"ref_mips\":"
           << csprintf("%.3f", mips(r.core.instret, r.ref.wallSeconds))
           << ",\"ff_mips\":"
           << csprintf("%.3f", mips(r.core.instret, r.ff.wallSeconds))
           << ",\"speedup\":"
           << csprintf("%.3f", r.ff.wallSeconds > 0.0
                                   ? r.ref.wallSeconds / r.ff.wallSeconds
                                   : 0.0)
           << "}";
    }
    os << "],\"per_core\":[" << perCore.str() << "]"
       << ",\"overall\":{\"skip_ratio\":"
       << csprintf("%.4f", overallSkip)
       << ",\"speedup\":" << csprintf("%.3f", overallSpeedup) << "}}\n";
    std::printf("json: %s\n", out_path.c_str());

    if (!allIdentical) {
        std::fprintf(stderr, "FAIL: block-mode and reference traces "
                             "or mode-invariant counters differ\n");
        return 1;
    }
    bool allOk = true;
    for (const PointReport &r : reports) {
        if (r.ok)
            continue;
        std::fprintf(stderr, "FAIL: %s/%s/%s did not finish (ok: false)\n",
                     coreKindName(r.point.core),
                     r.point.unit.name().c_str(), r.point.workload.c_str());
        allOk = false;
    }
    if (!allOk)
        return 1;
    if (min_skip_ratio > 0.0 && overallSkip < min_skip_ratio) {
        std::fprintf(stderr,
                     "FAIL: overall skip ratio %.4f below the "
                     "--min-skip-ratio floor %.4f\n",
                     overallSkip, min_skip_ratio);
        return 1;
    }
    if (min_speedup > 0.0 && overallSpeedup < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: overall speedup %.3f below the "
                     "--min-speedup floor %.3f\n",
                     overallSpeedup, min_speedup);
        return 1;
    }
    return 0;
}
