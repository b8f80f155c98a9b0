/**
 * @file
 * rtu_perfbench: the repository benchmark.
 *
 *   rtu_perfbench --workload <paper-sweep|sched-campaign|absint-lint>
 *                 [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
 *
 * Set-up is repeated and timed; then, after one untimed warm-up pass,
 * whole passes over the workload's ops run until --seconds have
 * passed. With --trace 0 it prints the end-to-end metrics of those
 * untraced passes, with host times scaled by the host-speed probe run
 * before each pass (probe.hh). With --trace 1 it alternates untraced
 * and traced passes and prints the per-layer metrics of the traced
 * ones. Every op's output is checked; the last stdout line is one JSON
 * result object.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "probe.hh"
#include "runner.hh"
#include "workloads/workloads.hh"

using namespace perfbench;

namespace {

/**
 * Set-up repeats: at least kSetupMin of them and on until kSetupBudgetS
 * seconds have gone, but at most kSetupMax. setup_s is their minimum:
 * on a shared host the median of a short set-up moved by up to 2x
 * between runs, the minimum by a few percent. A traced run sets up
 * once, inside spans.
 */
constexpr int kSetupMin = 5;
constexpr int kSetupMax = 200;
constexpr double kSetupBudgetS = 1.0;

/**
 * Peak resident memory of this process image, from VmHWM. Not
 * getrusage(): its ru_maxrss keeps the high-water mark of the process
 * that exec'd this one (the Python launcher).
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    return 0.0;
}

/** Per-layer metrics of the traced passes. */
std::vector<Metric>
perLayer(const BenchWorkload &w, const Measured &untraced,
         const Measured &traced, const std::vector<SpanLog> &logs,
         const SpanLog &setup_log)
{
    const size_t n = w.ops();
    const double passes = static_cast<double>(traced.passes());

    // Self time by span name, and by "<span>.<group>" for op groups.
    std::map<std::string, std::int64_t> self;
    std::map<std::string, double> groupOps;
    for (size_t i = 0; i < n; ++i)
        for (const std::string &g : w.groups(i))
            groupOps[g] += 1;
    for (const SpanLog &log : logs) {
        const std::vector<std::int64_t> st = selfTimesNs(log.spans());
        // Every traced op's log starts with its root "op" span.
        const auto groups =
            w.groups(static_cast<size_t>(log.spans().front().op));
        for (size_t s = 0; s < st.size(); ++s) {
            const std::string &name = log.spans()[s].name;
            self[name] += st[s];
            for (const std::string &g : groups)
                self[name + "." + g] += st[s];
        }
    }
    std::map<std::string, std::int64_t> setupSelf;
    addSelfTimes(setup_log.spans(), setupSelf);

    std::map<std::string, double> c;
    for (const OpResult &r : traced.first.ops)
        for (const auto &[k, v] : r.counts)
            c[k] += v;

    auto msPerOp = [&](const std::string &span, double ops) {
        return ratio(self[span] / 1e6, ops * passes);
    };
    std::vector<Metric> out;
    auto ms = [&](const char *name, const char *span) {
        out.push_back({name, msPerOp(span, n), "ms"});
    };
    auto count = [&](const char *name, const char *unit = "count") {
        out.push_back({name, c[name], unit});
    };

    ms("kernel.build_ms", "kernel.build");
    ms("harness.install_ms", "harness.install");
    ms("sim.run_ms", "sim.run");
    std::vector<std::string> groups = {"cv32e40p", "cva6", "nax"};
    for (const std::string &wl : rtu::standardWorkloadNames())
        groups.push_back(wl);
    for (const std::string &g : groups)
        out.push_back({"sim.run_ms." + g,
                       msPerOp("sim.run." + g, groupOps[g]), "ms"});
    const double runS = self["sim.run"] / 1e9;
    const double executed =
        c["sim.cycles_ticked"] + c["sim.cycles_block_executed"];
    out.push_back({"sim.mips",
                   ratio(c["cores.instret"] * passes, runS) / 1e6, "MIPS"});
    out.push_back({"sim.ns_per_executed_cycle",
                   ratio(runS * 1e9, executed * passes), "ns"});
    count("sim.cycles_ticked", "cyc");
    count("sim.cycles_skipped", "cyc");
    count("sim.cycles_block_executed", "cyc");
    count("sim.fast_forwards");
    count("sim.stride_skips");
    count("sim.block_runs");
    out.push_back({"sim.skip_ratio",
                   ratio(c["sim.cycles_skipped"],
                         executed + c["sim.cycles_skipped"]),
                   "frac"});
    count("cores.instret");
    count("cores.blocks_executed");
    count("cores.block_fallbacks");
    out.push_back({"cores.block_fallback_ratio",
                   ratio(c["cores.block_fallbacks"],
                         c["cores.blocks_executed"] +
                             c["cores.block_fallbacks"]),
                   "frac"});
    count("cores.stall_cycles", "cyc");
    count("cores.cache_misses");
    count("cores.branch_mispredicts");
    count("rtosunit.busy_cycles", "cyc");
    count("rtosunit.mem_words");
    count("trace.episodes");
    for (const char *phase : {"entry", "store", "sched", "load", "exit"}) {
        const std::string key = std::string("trace.") + phase;
        out.push_back({key + "_cyc", ratio(c[key + "_sum"], c[key + "_n"]),
                       "cyc"});
    }
    ms("trace.write_ms", "trace.write");
    ms("sweep.write_ms", "sweep.write");
    out.push_back({"sweep.worker_idle_frac",
                   ratio(traced.idleSum, passes), "frac"});
    ms("analyze.cfg_ms", "analyze.cfg");
    ms("analyze.context_ms", "analyze.context");
    ms("analyze.abi_ms", "analyze.abi");
    ms("analyze.stack_ms", "analyze.stack");
    ms("analyze.soundness_ms", "analyze.soundness");
    ms("analyze.absint_ms", "analyze.absint");
    count("analyze.diagnostics");
    out.push_back({"sched.measure_ms", setupSelf["sched.measure"] / 1e6,
                   "ms"});
    ms("sched.taskset_ms", "sched.taskset");
    ms("sched.rta_ms", "sched.rta");
    ms("sched.lower_ms", "sched.lower");
    ms("sched.deadline_ms", "sched.deadline");
    count("sched.jobs_done");
    count("sched.deadline_misses");
    out.push_back({"bench.tracing_overhead_frac",
                   ratio(median(traced.passWallNs),
                         median(untraced.passWallNs)) - 1.0,
                   "frac"});
    return out;
}

/** Every model_* metric, zero where the workload has no such result. */
std::vector<Metric>
allModelMetrics(const BenchWorkload &w, const PassResult &pass)
{
    std::vector<Metric> out = {{"model_switch_mean_cyc", 0.0, "cyc"},
                               {"model_jitter_cyc", 0.0, "cyc"},
                               {"model_rta_schedulable_frac", 0.0, "frac"}};
    for (const Metric &m : w.modelMetrics(pass.ops))
        for (Metric &o : out)
            if (o.name == m.name)
                o.value = m.value;
    return out;
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    rtu::setQuiet(true);

    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned traceMode = 0;
    std::string spansPath;
    rtu::ArgParser parser("Repository benchmark: one workload per run");
    parser.addString("--workload", &name,
                     "paper-sweep | sched-campaign | absint-lint");
    parser.addU64("--seed", &seed, "input seed (sched-campaign tasksets)");
    parser.addDouble("--seconds", &seconds, "length of the measured phase");
    parser.addUnsigned("--trace", &traceMode,
                       "0: end-to-end metrics, 1: per-layer metrics");
    parser.addString("--spans", &spansPath,
                     "with --trace 1: write the spans here as JSONL");
    parser.parse(argc, argv);
    const bool traced = traceMode != 0;

    if (!makeBenchWorkload(name)) {
        std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
        return 2;
    }
    const unsigned workers =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    // The probe's rings are allocated first and stay resident, so they
    // add a constant to the process's peak memory that is taken off.
    std::optional<SpeedProbe> probe;
    if (!traced)
        probe.emplace(workers);
    double probeNs = std::numeric_limits<double>::infinity();

    // Set-up; the last instance is the one the passes run. Each repeat
    // runs on a fresh thread so that the repeats spread over the host's
    // CPUs: on a shared host the CPU the main thread lands on can stay
    // fast or slow for the whole run.
    std::unique_ptr<BenchWorkload> w;
    std::vector<double> setupS;
    double setupTotal = 0.0;
    SpanLog setupLog;
    do {
        std::thread([&] {
            w = makeBenchWorkload(name);
            const std::int64_t t0 = nowNs();
            w->setup(seed, traced ? &setupLog : nullptr);
            setupS.push_back((nowNs() - t0) / 1e9);
        }).join();
        setupTotal += setupS.back();
    } while (!traced && setupS.size() < kSetupMax &&
             (setupS.size() < kSetupMin || setupTotal < kSetupBudgetS));
    const size_t nOps = w->ops();

    // One untimed pass first, so that lazy initialisation and cold
    // caches do not land in the first timed pass. Then whole passes
    // until the time is up; a traced run alternates untraced and
    // traced passes so that drift cancels out of the tracing overhead.
    runPass(*w, workers, false);
    Measured plain, withSpans;
    std::vector<SpanLog> logs;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    do {
        if (probe)
            probeNs = std::min(probeNs, probe->run());
        plain.record(runPass(*w, workers, false), workers, nullptr);
        if (traced)
            withSpans.record(runPass(*w, workers, true), workers, &logs);
    } while (nowNs() < deadline);

    // Checks, outside the timed phase.
    std::vector<std::string> errors;
    for (const OpResult &r : plain.first.ops)
        if (r.failed && errors.size() < 8)
            errors.push_back("op failed: " + r.error);
    const std::uint64_t digest = plain.digests.front();
    if (std::count(plain.digests.begin(), plain.digests.end(), digest) !=
        static_cast<std::ptrdiff_t>(plain.digests.size()))
        errors.push_back("untraced passes disagree on the digest");
    if (std::count(withSpans.digests.begin(), withSpans.digests.end(),
                   digest) !=
        static_cast<std::ptrdiff_t>(withSpans.digests.size()))
        errors.push_back("a traced pass digest differs from the untraced");
    for (const std::string &e : w->verify(plain.first.ops))
        errors.push_back(e);
    const std::vector<Metric> model = allModelMetrics(*w, plain.first);
    if (traced) {
        const std::vector<Metric> tracedModel =
            allModelMetrics(*w, withSpans.first);
        for (size_t i = 0; i < model.size(); ++i)
            if (model[i].value != tracedModel[i].value)
                errors.push_back("traced " + model[i].name + " differs");
    }
    const Measured &reported = traced ? withSpans : plain;
    std::printf("workload %s  seed %" PRIu64 "  workers %u  ops %zu\n",
                name.c_str(), seed, workers, nOps);
    std::printf("set-up s: %zu runs, min %.6g  median %.6g  max %.6g\n",
                setupS.size(),
                *std::min_element(setupS.begin(), setupS.end()),
                median(setupS),
                *std::max_element(setupS.begin(), setupS.end()));
    std::printf("passes: %zu untraced, %zu traced; digest %016" PRIx64
                "\n",
                plain.passes(), withSpans.passes(), digest);
    std::printf("measured pass throughput %.1f ops/s; pass wall ms: "
                "min %.1f  median %.1f  max %.1f\n",
                ratio(static_cast<double>(plain.attempted),
                      plain.wallNs / 1e9),
                *std::min_element(plain.passWallNs.begin(),
                                  plain.passWallNs.end()) / 1e6,
                median(plain.passWallNs) / 1e6,
                *std::max_element(plain.passWallNs.begin(),
                                  plain.passWallNs.end()) / 1e6);
    std::printf("ops_failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                reported.failedFraction(), reported.failed,
                reported.attempted);

    std::vector<Metric> metrics;
    if (!traced) {
        std::optional<Tail> tail;
        const double scale = kProbeReferenceNs / probeNs;
        metrics = endToEndMetrics(
            plain, workers, scale,
            *std::min_element(setupS.begin(), setupS.end()),
            peakRssMb() - probe->bytes() / 1048576.0, tail);
        std::printf("host-speed probe: best %.3f ms, reference %.3f ms, "
                    "scale %.4f\n",
                    probeNs / 1e6, kProbeReferenceNs / 1e6, scale);
        if (tail)
            std::printf("op_tail_ms at p%.2f of %zu per-op best times\n",
                        tail->percentile, nOps);
        else
            errors.push_back("too few ops for a tail percentile");
        std::printf("end-to-end (host time x scale):\n");
        printMetrics(metrics);
        std::printf("modelled (simulated time):\n");
        printMetrics(w->modelMetrics(plain.first.ops));
    } else {
        metrics = perLayer(*w, plain, withSpans, logs, setupLog);
        for (const Metric &m : model)
            metrics.push_back(m);
        std::printf("per-layer (traced passes):\n");
        printMetrics(metrics);
        if (!spansPath.empty()) {
            std::ofstream os(spansPath);
            std::int64_t id = 0;
            writeSpansJsonl(os, setupLog.spans(), id);
            for (const SpanLog &log : logs)
                writeSpansJsonl(os, log.spans(), id);
            if (!os)
                errors.push_back("could not write " + spansPath);
        }
    }

    for (const std::string &e : errors)
        std::fprintf(stderr, "check: %s\n", e.c_str());
    const bool correct = errors.empty() && reported.failed == 0;
    std::fflush(stdout);
    writeResultJson(std::cout, correct, reported.attempted, reported.failed,
                    metrics);
    std::cout.flush();
    return 0;
}
