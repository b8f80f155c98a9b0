/**
 * @file
 * The stack-pointer walk: pass 3's findings and call-graph-composed
 * worst-case stack usage.
 */

#include <algorithm>
#include <optional>
#include <utility>

#include "analyze/absint/wcsu.hh"
#include "analyze/linter.hh"
#include "common/logging.hh"

namespace rtu {

/** One function's walk: its worst entry-relative depth, and pass 3's
 *  checks along the way. */
class WcsuAnalyzer::SpWalk : public WalkPolicy<SpState>
{
  public:
    explicit SpWalk(WcsuAnalyzer &owner) : a_(owner) {}

    unsigned depth = 0;

    void
    arrive(Addr leader, const SpState &st)
    {
        // Two values in the same mode disagree outright. Mixed modes
        // are incomparable statically, and unknown carries no
        // obligation (context-restore paths load the next task's sp
        // legitimately and end in mret, which pass 1 owns).
        if (st.mode == SpState::kUnknown)
            return;
        const auto [it, fresh] =
            firstSeen_.try_emplace({leader, st.mode}, st.value);
        if (!fresh && it->second != st.value) {
            report("stack-imbalance", leader,
                   csprintf("block entered with conflicting sp values "
                            "(%s vs %s): paths disagree on the frame "
                            "size",
                            SpState{st.mode, it->second}.describe().c_str(),
                            st.describe().c_str()));
        }
    }

    void
    step(Addr pc, const DecodedInsn &d, SpState &st)
    {
        const InsnClass cls = classOf(d.op);
        if ((cls == InsnClass::kLoad || cls == InsnClass::kStore) &&
            d.rs1 == SP && d.imm < 0) {
            report("stack-below-sp", pc,
                   csprintf("memory access at %d below sp: the region "
                            "below the stack pointer is dead and "
                            "interrupts may overwrite it", d.imm));
        }
        if (st.apply(pc, d))
            a_.touch(st, 0, depth);
    }

    std::optional<Addr>
    call(const BasicBlock &bb, SpState &st)
    {
        // Charge the callee below the current sp, then continue
        // balanced (the callee's own walk checks its sp).
        a_.touch(st, a_.depthOf(bb.takenTarget), depth);
        return bb.end;
    }

    void
    leave(Addr target, const SpState &st)
    {
        // Tail jump out of the function: charge the target like a call.
        if (a_.cfg_.contains(target))
            a_.touch(st, a_.depthOf(target), depth);
    }

    std::optional<Addr>
    ret(Addr pc, SpState &st)
    {
        if (st.mode == SpState::kEntryRel && st.value != 0) {
            report("stack-ret-imbalance", pc,
                   csprintf("ret with sp offset %d from the entry "
                            "value: frame not fully popped",
                            static_cast<int>(st.value)));
        } else if (st.mode == SpState::kAbsolute) {
            report("stack-ret-imbalance", pc,
                   csprintf("ret with sp rebased to %s: the caller's "
                            "frame is abandoned", st.describe().c_str()));
        }
        return std::nullopt;
    }

  private:
    void
    report(const char *code, Addr pc, const std::string &message)
    {
        a_.walker_.report(Severity::kError, code, pc, message);
    }

    WcsuAnalyzer &a_;
    /** First sp value per (leader, mode) on this walk. */
    std::map<std::pair<Addr, SpState::Mode>, std::int64_t> firstSeen_;
};

WcsuAnalyzer::WcsuAnalyzer(const Cfg &cfg, unsigned state_budget)
    : cfg_(cfg), program_(cfg.program()),
      walker_(cfg, "stack-pointer", state_budget, diags_)
{
    for (const auto &[name, addr] : program_.symbols) {
        const bool task_stack =
            name.rfind("k_stack_", 0) == 0 &&
            name.size() >= 4 && name.substr(name.size() - 4) != "_top";
        if (!task_stack && name != "k_isr_stack")
            continue;
        auto top = program_.symbols.find(name + "_top");
        if (top == program_.symbols.end() || top->second <= addr)
            continue;
        regions_.push_back({name, addr, top->second});
    }
}

void
WcsuAnalyzer::run()
{
    for (const auto &[name, range] : program_.functions)
        if (range.second > range.first && cfg_.contains(range.first))
            depthOf(range.first);
}

unsigned
WcsuAnalyzer::entryDepth(const std::string &fn) const
{
    auto it = program_.functions.find(fn);
    if (it == program_.functions.end())
        return 0;
    auto dit = depths_.find(it->second.first);
    return dit != depths_.end() ? dit->second : 0;
}

unsigned
WcsuAnalyzer::isrAddOn() const
{
    return entryDepth("k_isr") + unknownExtra_;
}

unsigned
WcsuAnalyzer::depthOf(Addr entry)
{
    const auto it = depths_.find(entry);
    if (it != depths_.end())
        return it->second;
    if (!inProgress_.insert(entry).second) {
        // Recursion: the depth is unbounded. Report it and continue
        // with 0 so the rest of the program still gets analyzed (the
        // error already fails the gate).
        walker_.report(Severity::kError, "wcsu-recursion", entry,
                       "recursive call cycle: worst-case stack usage "
                       "is unbounded");
        return 0;
    }

    Addr end = entry;
    const auto fit = program_.functions.find(program_.functionAt(entry));
    if (fit != program_.functions.end())
        end = fit->second.second;
    else if (const BasicBlock *bb = cfg_.blockContaining(entry))
        end = bb->end;

    SpWalk walk(*this);
    walker_.walk(walk, entry, SpState{}, entry, end);
    inProgress_.erase(entry);
    depths_[entry] = walk.depth;
    return walk.depth;
}

void
WcsuAnalyzer::touch(const SpState &st, std::int64_t extra,
                    unsigned &depth)
{
    switch (st.mode) {
      case SpState::kEntryRel: {
        const std::int64_t cur = -st.value + extra;
        if (cur > 0)
            depth = std::max(depth, static_cast<unsigned>(cur));
        return;
      }
      case SpState::kAbsolute:
        for (const StackRegion &r : regions_) {
            if (st.value < static_cast<std::int64_t>(r.base) ||
                st.value > static_cast<std::int64_t>(r.top))
                continue;
            const std::int64_t used =
                static_cast<std::int64_t>(r.top) - st.value + extra;
            if (used > 0) {
                unsigned &u = regionUsage_[r.name];
                u = std::max(u, static_cast<unsigned>(used));
            }
            return;
        }
        return;
      case SpState::kUnknown: {
        const std::int64_t cur = -st.value + extra;
        if (cur > 0)
            unknownExtra_ =
                std::max(unknownExtra_, static_cast<unsigned>(cur));
        return;
      }
    }
}

void
WcsuAnalyzer::checkOverflow(std::vector<Diagnostic> &out) const
{
    if (!converged()) {
        Diagnostic d;
        d.severity = Severity::kWarning;
        d.code = "lint-budget-exceeded";
        d.message = "stack-pointer walk exceeded the state budget; "
                    "overflow checking skipped";
        out.push_back(std::move(d));
        return;
    }

    // Worst task depth vs the smallest task-stack capacity. Every
    // task must additionally absorb the ISR add-on.
    unsigned worst = 0;
    std::string worstFn;
    for (const auto &[name, range] : program_.functions) {
        if (name.rfind("k_task_", 0) != 0)
            continue;
        const unsigned dep = entryDepth(name);
        if (dep >= worst) {
            worst = dep;
            worstFn = name;
        }
    }
    unsigned minCap = 0;
    std::string minRegion;
    for (const StackRegion &r : regions_) {
        if (r.name == "k_isr_stack")
            continue;
        if (minRegion.empty() || r.capacity() < minCap) {
            minCap = r.capacity();
            minRegion = r.name;
        }
    }
    if (!worstFn.empty() && !minRegion.empty() &&
        worst + isrAddOn() > minCap) {
        Diagnostic d;
        d.severity = Severity::kError;
        d.code = "stack-overflow-risk";
        d.function = worstFn;
        d.message = csprintf(
            "worst-case stack usage %u bytes (task depth %u + isr "
            "add-on %u) exceeds the %u-byte capacity of %s",
            worst + isrAddOn(), worst, isrAddOn(), minCap,
            minRegion.c_str());
        out.push_back(std::move(d));
    }

    for (const StackRegion &r : regions_) {
        auto it = regionUsage_.find(r.name);
        if (it == regionUsage_.end() || it->second <= r.capacity())
            continue;
        Diagnostic d;
        d.severity = Severity::kError;
        d.code = "stack-overflow-risk";
        d.message = csprintf(
            "rebased stack usage %u bytes exceeds the %u-byte "
            "capacity of %s", it->second, r.capacity(),
            r.name.c_str());
        out.push_back(std::move(d));
    }
}

void
checkStackDiscipline(const Cfg &cfg, const LintOptions &options,
                     std::vector<Diagnostic> &out)
{
    WcsuAnalyzer walk(cfg, options.stateBudget);
    walk.run();
    out.insert(out.end(), walk.diags().begin(), walk.diags().end());
}

} // namespace rtu
