/**
 * @file
 * sched-campaign: the bench_sched grid, CV32E40P x {vanilla, S, SLT} x
 * 6 utilisations, with 48 tasksets per utilisation and the taskset
 * seed taken from the command line. Set-up measures the RTA overheads
 * of each configuration; one op is one taskset point, built from the
 * library's public calls in both the traced and the untraced run.
 */

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "runner.hh"
#include "sched/campaign.hh"
#include "simop.hh"

namespace perfbench {

using namespace rtu;

namespace {

/**
 * Four times bench_sched's default of 12. An op's cost follows its
 * taskset's longest period (the run lasts four of them), so with 12
 * tasksets the median op time moved by up to a third from one seed to
 * the next; 48 averages that out.
 */
constexpr unsigned kTasksetsPerUtil = 48;

class SchedCampaign : public BenchWorkload
{
  public:
    void
    setup(std::uint64_t seed, SpanLog *trace) override
    {
        spec_ = SchedCampaignSpec{};
        spec_.configs = {RtosUnitConfig::fromName("vanilla"),
                         RtosUnitConfig::fromName("S"),
                         RtosUnitConfig::fromName("SLT")};
        spec_.seed = seed;
        spec_.tasksetsPerUtil = kTasksetsPerUtil;
        spec_.threads =
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
        overheads_.clear();
        for (CoreKind core : spec_.cores) {
            for (const RtosUnitConfig &unit : spec_.configs) {
                overheads_.push_back(inSpan(trace, "sched.measure", [&] {
                    return measureOverheads(core, unit, spec_);
                }));
            }
        }
    }

    std::size_t
    ops() const override
    {
        return spec_.cores.size() * spec_.configs.size() *
               perPair();
    }

    OpResult
    runOp(std::size_t idx, SpanLog *trace) const override
    {
        const size_t nSet = spec_.tasksetsPerUtil;
        const size_t pair = idx / perPair();
        const CoreKind core = spec_.cores[pair / spec_.configs.size()];
        const RtosUnitConfig &unit =
            spec_.configs[pair % spec_.configs.size()];
        const unsigned ui = static_cast<unsigned>((idx % perPair()) / nSet);
        const unsigned ti = static_cast<unsigned>(idx % nSet);
        const OverheadMeasurement &m = overheads_[pair];
        const LowerParams &lower = spec_.lower;

        TasksetParams tparams = spec_.taskset;
        tparams.totalUtil = spec_.utilGrid[ui];
        const Taskset ts = inSpan(trace, "sched.taskset", [&] {
            return makeTaskset(tasksetSeed(spec_.seed, ui, ti), tparams);
        });

        const bool schedulable = inSpan(trace, "sched.rta", [&] {
            // The solver bounds the calibrated job cost, the same
            // iteration counts the lowered taskset runs.
            const double clk = lower.timerPeriodCycles;
            std::vector<RtaTask> tasks;
            for (const SchedTask &t : ts.tasks) {
                RtaTask rt;
                rt.periodCycles = t.periodTicks * clk;
                rt.deadlineCycles = t.deadlineTicks * clk;
                rt.execCycles = effectiveExecCycles(
                    m.busy, busyItersFor(m.busy, t.util * rt.periodCycles));
                tasks.push_back(rt);
            }
            return responseTimeAnalysis(tasks, m.rta).schedulable;
        });

        const auto workload = inSpan(trace, "sched.lower", [&] {
            return lowerTaskset(ts, lower, m.busy,
                                csprintf("sched_u%u_s%u", ui, ti));
        });
        const SimRun run = runSimulation(core, unit, *workload,
                                         lower.timerPeriodCycles, 8, trace);
        const bool ok = run.exited && run.sim->exitCode() == 0;
        const DeadlineReport report = inSpan(trace, "sched.deadline", [&] {
            return checkDeadlines(run.sim->hostIo().events(), ts, lower,
                                  horizonTicksFor(ts, lower));
        });

        OpResult out;
        if (schedulable && (!ok || report.misses > 0)) {
            out.failed = true;
            out.error = csprintf(
                "%s u%u s%u: RTA-schedulable but %s with %u misses",
                unit.name().c_str(), ui, ti,
                runStatusName(run.sim->status()), report.misses);
        }
        out.digest = fnv1a(csprintf("rta=%d jobs=%u misses=%u",
                                    schedulable ? 1 : 0, report.jobsDone,
                                    report.misses));
        out.model["rta"] = schedulable ? 1 : 0;
        out.model["ok"] = ok ? 1 : 0;
        out.model["jobs"] = report.jobsDone;
        out.model["misses"] = report.misses;
        if (trace) {
            const RunResult rr =
                runResultOf(run, core, unit, workload->info().name);
            addSimCounts(run, rr, out.counts);
            out.counts["sched.jobs_done"] += report.jobsDone;
            out.counts["sched.deadline_misses"] += report.misses;
        }
        return out;
    }

    std::vector<std::string>
    groups(std::size_t idx) const override
    {
        return {coreId(spec_.cores[idx / perPair() / spec_.configs.size()])};
    }

    std::vector<Metric>
    modelMetrics(const std::vector<OpResult> &pass) const override
    {
        double schedulable = 0.0;
        for (const OpResult &r : pass)
            schedulable += r.model.count("rta") ? r.model.at("rta") : 0.0;
        return {{"model_rta_schedulable_frac",
                 pass.empty() ? 0.0 : schedulable / pass.size(), "frac"}};
    }

    /** Verdicts must match the library's runSchedCampaign. */
    std::vector<std::string>
    verify(const std::vector<OpResult> &pass) const override
    {
        std::vector<std::string> errors;
        const SchedCampaignResult ref = runSchedCampaign(spec_);
        if (ref.points.size() != pass.size()) {
            errors.push_back("runSchedCampaign grid size differs");
            return errors;
        }
        for (size_t i = 0; i < pass.size(); ++i) {
            const SchedPointResult &p = ref.points[i];
            const auto &m = pass[i].model;
            if (!m.count("rta") || m.at("rta") != p.rtaSchedulable ||
                m.at("ok") != p.simOk || m.at("jobs") != p.jobsDone ||
                m.at("misses") != p.misses) {
                errors.push_back(csprintf(
                    "point %zu (%s u%u s%u) differs from runSchedCampaign",
                    i, p.config.c_str(), p.utilIndex, p.tasksetIndex));
            }
        }
        return errors;
    }

  private:
    size_t
    perPair() const
    {
        return spec_.utilGrid.size() * spec_.tasksetsPerUtil;
    }

    SchedCampaignSpec spec_;
    std::vector<OverheadMeasurement> overheads_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeSchedCampaign()
{
    return std::make_unique<SchedCampaign>();
}

} // namespace perfbench
