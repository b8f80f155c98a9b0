#include "runner.hh"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "common/rng.hh"
#include "sweep/sweep.hh"

namespace perfbench {

std::unique_ptr<BenchWorkload> makePaperSweep();
std::unique_ptr<BenchWorkload> makeSchedCampaign();
std::unique_ptr<BenchWorkload> makeAbsintLint();

const std::vector<std::string> &
benchWorkloadNames()
{
    static const std::vector<std::string> names = {
        "paper-sweep", "sched-campaign", "absint-lint"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name)
{
    if (name == "paper-sweep")
        return makePaperSweep();
    if (name == "sched-campaign")
        return makeSchedCampaign();
    if (name == "absint-lint")
        return makeAbsintLint();
    return nullptr;
}

std::uint64_t
PassResult::failed() const
{
    std::uint64_t n = 0;
    for (const OpResult &r : ops)
        n += r.failed ? 1 : 0;
    return n;
}

std::uint64_t
PassResult::digest() const
{
    std::string all;
    char hex[24];
    for (const OpResult &r : ops) {
        std::snprintf(hex, sizeof(hex), "%016llx;",
                      static_cast<unsigned long long>(r.digest));
        all += hex;
    }
    return rtu::fnv1a(all);
}

double
PassResult::idleFraction(unsigned workers) const
{
    if (wallNs <= 0 || workers == 0)
        return 0.0;
    double busy = 0.0;
    for (std::int64_t ns : opNs)
        busy += static_cast<double>(ns);
    return 1.0 - busy / (static_cast<double>(workers) *
                         static_cast<double>(wallNs));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
Measured::failedFraction() const
{
    return ratio(static_cast<double>(failed),
                 static_cast<double>(attempted));
}

void
Measured::record(PassResult pass, unsigned workers,
                 std::vector<SpanLog> *logs)
{
    wallNs += pass.wallNs;
    passWallNs.push_back(static_cast<double>(pass.wallNs));
    attempted += pass.ops.size();
    failed += pass.failed();
    digests.push_back(pass.digest());
    idleSum += pass.idleFraction(workers);
    opNs.push_back(pass.opNs);
    if (logs) {
        for (SpanLog &l : pass.logs)
            logs->push_back(std::move(l));
        pass.logs.clear();
    }
    if (passes() == 1)
        first = std::move(pass);
}

std::vector<double>
bestOpNs(const Measured &m)
{
    std::vector<double> best(m.first.ops.size(), 0.0);
    for (size_t i = 0; i < best.size(); ++i) {
        best[i] = static_cast<double>(m.opNs.front()[i]);
        for (const auto &pass : m.opNs)
            best[i] = std::min(best[i], static_cast<double>(pass[i]));
    }
    return best;
}

double
poolMakespan(const std::vector<double> &op_ns, unsigned workers)
{
    // forEachIndex hands the next index to whichever worker is free
    // first, so each op starts on the worker that finishes earliest.
    std::vector<double> freeAt(std::max(workers, 1u), 0.0);
    for (double ns : op_ns)
        *std::min_element(freeAt.begin(), freeAt.end()) += ns;
    return *std::max_element(freeAt.begin(), freeAt.end());
}

std::vector<Metric>
endToEndMetrics(const Measured &m, unsigned workers, double scale,
                double setup_s, double peak_rss_mb,
                std::optional<Tail> &tail)
{
    std::vector<double> best = bestOpNs(m);
    std::vector<double> bestMs;
    for (double &ns : best) {
        ns *= scale;
        bestMs.push_back(ns / 1e6);
    }
    tail = tailPercentile(bestMs);
    return {
        {"ops_per_s",
         ratio(static_cast<double>(best.size()),
               poolMakespan(best, workers) / 1e9),
         "1/s"},
        {"op_p50_ms", median(bestMs), "ms"},
        {"op_tail_ms", tail ? tail->value : 0.0, "ms"},
        {"setup_s", setup_s * scale, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ops_ok_frac", 1.0 - m.failedFraction(), "frac"},
    };
}

PassResult
runPass(const BenchWorkload &w, unsigned workers, bool traced)
{
    const size_t n = w.ops();
    PassResult pass;
    pass.ops.resize(n);
    pass.opNs.resize(n);
    if (traced) {
        pass.logs.reserve(n);
        for (size_t i = 0; i < n; ++i)
            pass.logs.emplace_back(static_cast<std::int64_t>(i));
    }

    const rtu::SweepRunner runner(workers);
    const std::int64_t start = nowNs();
    runner.forEachIndex(n, [&](std::size_t i) {
        SpanLog *log = traced ? &pass.logs[i] : nullptr;
        const std::int64_t t0 = nowNs();
        try {
            pass.ops[i] = inSpan(log, "op", [&] { return w.runOp(i, log); });
        } catch (const std::exception &e) {
            pass.ops[i] = OpResult{};
            pass.ops[i].failed = true;
            pass.ops[i].error = e.what();
        }
        pass.opNs[i] = nowNs() - t0;
    });
    pass.wallNs = nowNs() - start;
    return pass;
}

} // namespace perfbench
