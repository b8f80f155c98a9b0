/**
 * @file
 * absint-lint: lintProgram with abstract interpretation on, over the
 * 105 programs of forEachGeneratedProgram (12 paper configurations
 * plus 3 hardware-sync configurations, x 7 workloads). Set-up builds
 * the programs; one op lints one program. It has no random inputs:
 * the seed does not change it.
 */

#include <string>

#include "analyze/linter.hh"
#include "common/rng.hh"
#include "runner.hh"

namespace perfbench {

using namespace rtu;

namespace {

class AbsintLint : public BenchWorkload
{
  public:
    void
    setup(std::uint64_t, SpanLog *) override
    {
        points_.clear();
        forEachGeneratedProgram(
            [&](const LintPoint &p) { points_.push_back(p); });
        options_.absint = true;
    }

    std::size_t ops() const override { return points_.size(); }

    OpResult
    runOp(std::size_t i, SpanLog *trace) const override
    {
        const LintPoint &p = points_[i];
        LintResult lint;
        if (!trace) {
            lint = lintProgram(p.program, p.unit, options_);
        } else {
            // lintProgram's passes, one span each.
            std::vector<Diagnostic> &d = lint.diags;
            const Cfg cfg =
                trace->span("analyze.cfg", [&] { return Cfg(p.program); });
            trace->span("analyze.context", [&] {
                checkContextIntegrity(cfg, p.unit, options_, d);
            });
            trace->span("analyze.abi",
                        [&] { checkCalleeSaved(cfg, options_, d); });
            trace->span("analyze.stack",
                        [&] { checkStackDiscipline(cfg, options_, d); });
            trace->span("analyze.soundness",
                        [&] { checkCfgSoundness(cfg, options_, d); });
            trace->span("analyze.absint",
                        [&] { checkAbsint(p.program, options_, d); });
        }

        OpResult out;
        std::string jsonl;
        for (const Diagnostic &d : lint.diags)
            jsonl += diagToJson(d) + "\n";
        out.digest = fnv1a(jsonl);
        if (lint.errors() > 0) {
            out.failed = true;
            out.error = p.unit.name() + "/" + p.workload + ": " +
                        std::to_string(lint.errors()) + " lint errors";
        }
        if (trace)
            out.counts["analyze.diagnostics"] += lint.diags.size();
        return out;
    }

    std::vector<std::string>
    groups(std::size_t i) const override
    {
        return {points_[i].workload};
    }

  private:
    std::vector<LintPoint> points_;
    LintOptions options_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeAbsintLint()
{
    return std::make_unique<AbsintLint>();
}

} // namespace perfbench
