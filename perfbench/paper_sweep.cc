/**
 * @file
 * paper-sweep: every core x the 12 paper configurations x the 7
 * RTOSBench workloads x timer periods {1000, 10000} cycles at 20
 * iterations, with episode traces captured. One op is one grid point.
 * It has no random inputs: the seed does not change it.
 */

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/rng.hh"
#include "runner.hh"
#include "simop.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"

namespace perfbench {

using namespace rtu;

namespace {

/** Fig. 9 mean / jitter at the 1000-cycle tick (EXPERIMENTS.md). */
struct Fig9Cell
{
    CoreKind core;
    const char *config;
    double mean;
    double jitter;
};

constexpr CoreKind kP = CoreKind::kCv32e40p;
constexpr CoreKind kC = CoreKind::kCva6;
constexpr CoreKind kN = CoreKind::kNax;

const Fig9Cell kFig9[] = {
    {kP, "vanilla", 152.0, 147}, {kC, "vanilla", 159.5, 182},
    {kN, "vanilla", 134.7, 176}, {kP, "CV32RT", 136.5, 147},
    {kC, "CV32RT", 144.1, 182},  {kN, "CV32RT", 128.0, 200},
    {kP, "S", 122.8, 147},       {kC, "S", 130.2, 185},
    {kN, "S", 112.9, 174},       {kP, "SL", 107.5, 179},
    {kC, "SL", 114.2, 162},      {kN, "SL", 107.3, 134},
    {kP, "T", 109.5, 33},        {kC, "T", 114.6, 83},
    {kN, "T", 93.4, 38},         {kP, "ST", 78.1, 31},
    {kC, "ST", 81.7, 76},        {kN, "ST", 83.1, 43},
    {kP, "SLT", 71.3, 17},       {kC, "SLT", 73.2, 49},
    {kN, "SLT", 85.0, 81},       {kP, "SDLO", 107.6, 179},
    {kC, "SDLO", 114.1, 162},    {kN, "SDLO", 101.0, 177},
    {kP, "SDLOT", 57.6, 33},     {kC, "SDLOT", 60.5, 84},
    {kN, "SDLOT", 64.2, 66},     {kP, "SPLIT", 63.3, 47},
    {kC, "SPLIT", 67.0, 68},     {kN, "SPLIT", 80.1, 123},
};

/** Per-(core, config, period) cell of merged switch latencies. */
struct Cell
{
    double sum = 0.0;
    double count = 0.0;
    double min = INFINITY;
    double max = -INFINITY;
};

std::string
cellKey(const SweepPoint &p)
{
    return std::string(coreId(p.core)) + "/" + p.unit.name() + "/tp" +
           std::to_string(p.timerPeriodCycles);
}

/** FNV-1a over cycles, instret, switch samples and the trace JSONL. */
std::uint64_t
opDigest(const RunResult &run, const std::string &trace)
{
    std::string buf;
    buf.reserve(trace.size() + 64 + 8 * run.switchLatency.count());
    buf += "cycles=" + std::to_string(run.cycles) +
           " instret=" + std::to_string(run.coreStats.instret) + " sw=";
    for (double v : run.switchLatency.samples())
        buf += std::to_string(static_cast<std::uint64_t>(v)) + ",";
    buf += "\n";
    buf += trace;
    return fnv1a(buf);
}

class PaperSweep : public BenchWorkload
{
  public:
    void
    setup(std::uint64_t, SpanLog *) override
    {
        SweepSpec spec;
        spec.cores = {kP, kC, kN};
        spec.units = RtosUnitConfig::paperConfigs();
        spec.workloads = standardWorkloadNames();
        spec.timerPeriods = {1000, 10000};
        spec.iterations = 20;
        points_ = spec.points();
    }

    std::size_t ops() const override { return points_.size(); }

    OpResult
    runOp(std::size_t i, SpanLog *trace) const override
    {
        const SweepPoint &pt = points_[i];
        OpResult out;
        SweepResult res;
        if (!trace) {
            res = runSweepPoint(pt, true);
        } else {
            res.point = pt;
            const auto workload = makeWorkload(pt.workload, pt.iterations);
            const SimRun run = runSimulation(
                pt.core, pt.unit, *workload, pt.timerPeriodCycles,
                pt.naxCtxQueueEntries, trace);
            res.run = runResultOf(run, pt.core, pt.unit, pt.workload);
            res.trace = trace->span("trace.write", [&] {
                std::ostringstream os;
                JsonlTraceSink sink(os);
                TraceRunLabel label;
                label.core = coreKindName(pt.core);
                label.config = pt.unit.name();
                label.workload = res.run.workload;
                label.seed = pt.seed;
                sink.beginRun(label);
                for (const SwitchRecord &r : run.sim->recorder().records())
                    sink.episode(r.toTrace());
                sink.endRun();
                return os.str();
            });
            addSimCounts(run, res.run, out.counts);
        }
        std::ostringstream line;
        inSpan(trace, "sweep.write",
               [&] { writeResultsJsonl(line, {res}); });

        if (!res.run.ok) {
            out.failed = true;
            out.error = pt.key() + ": guest exit code " +
                        std::to_string(res.run.exitCode) + ", status " +
                        runStatusName(res.run.status);
        }
        out.digest = opDigest(res.run, res.trace);
        const SampleStats &s = res.run.switchLatency;
        out.model["switches"] = static_cast<double>(s.count());
        if (!s.empty()) {
            double sum = 0.0;
            for (double v : s.samples())
                sum += v;
            out.model["sum"] = sum;
            out.model["min"] = s.min();
            out.model["max"] = s.max();
        }
        return out;
    }

    std::vector<std::string>
    groups(std::size_t i) const override
    {
        return {coreId(points_[i].core), points_[i].workload};
    }

    std::vector<Metric>
    modelMetrics(const std::vector<OpResult> &pass) const override
    {
        double sum = 0.0, count = 0.0, jitter = 0.0;
        const std::map<std::string, Cell> cells = merge(pass);
        for (const auto &[key, c] : cells) {
            sum += c.sum;
            count += c.count;
            jitter += c.max - c.min;
        }
        return {{"model_switch_mean_cyc", count > 0 ? sum / count : 0.0,
                 "cyc"},
                {"model_jitter_cyc",
                 cells.empty() ? 0.0 : jitter / cells.size(), "cyc"}};
    }

    std::vector<std::string>
    verify(const std::vector<OpResult> &pass) const override
    {
        std::vector<std::string> errors;
        const std::map<std::string, Cell> cells = merge(pass);
        for (const Fig9Cell &want : kFig9) {
            SweepPoint p;
            p.core = want.core;
            p.unit = RtosUnitConfig::fromName(want.config);
            p.timerPeriodCycles = 1000;
            const auto it = cells.find(cellKey(p));
            if (it == cells.end()) {
                errors.push_back("no switches in Fig. 9 cell " + cellKey(p));
                continue;
            }
            const Cell &c = it->second;
            const double mean = c.sum / c.count;
            if (std::fabs(mean - want.mean) > 0.05 + 1e-9 ||
                c.max - c.min != want.jitter) {
                char msg[160];
                std::snprintf(msg, sizeof(msg),
                              "Fig. 9 cell %s: mean %.2f jitter %.0f, "
                              "expected %.1f / %.0f",
                              cellKey(p).c_str(), mean, c.max - c.min,
                              want.mean, want.jitter);
                errors.push_back(msg);
            }
        }
        return errors;
    }

  private:
    std::map<std::string, Cell>
    merge(const std::vector<OpResult> &pass) const
    {
        std::map<std::string, Cell> cells;
        for (size_t i = 0; i < pass.size(); ++i) {
            const auto &m = pass[i].model;
            const auto n = m.find("switches");
            if (n == m.end() || n->second == 0)
                continue;
            Cell &c = cells[cellKey(points_[i])];
            c.sum += m.at("sum");
            c.count += n->second;
            c.min = std::min(c.min, m.at("min"));
            c.max = std::max(c.max, m.at("max"));
        }
        return cells;
    }

    std::vector<SweepPoint> points_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makePaperSweep()
{
    return std::make_unique<PaperSweep>();
}

} // namespace perfbench
