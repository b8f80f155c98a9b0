/**
 * @file
 * The one path walker under lint passes 1-3 and the worst-case stack
 * usage (WCSU) walk.
 *
 * A walk steps Cfg blocks and follows each block's terminator
 * (BasicBlock::term and takenTarget), so every symbolic walker rests
 * on cfg.cc's call / return / branch classification. A pass supplies
 * a state type, its transfer function (step) and its call policy (a
 * WalkPolicy); the walker owns the rest:
 *
 *  - a depth-first worklist of (block leader, state);
 *  - a per-walk memo of the states seen at each leader;
 *  - one state budget per pass run (LintOptions::stateBudget). On
 *    exhaustion the run emits a single "lint-budget-exceeded" warning
 *    and every further path stops: results are partial;
 *  - one DiagReporter, which also serves the WCET analyzer.
 *
 * SpState is the one stack-pointer domain: pass 2's slot matching,
 * pass 3 and WCSU all track sp with it.
 */

#ifndef RTU_ANALYZE_WALK_HH
#define RTU_ANALYZE_WALK_HH

#include <compare>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cfg.hh"
#include "common/logging.hh"
#include "diag.hh"

namespace rtu {

/** Leader states a pass run may explore (LintOptions::stateBudget). */
constexpr unsigned kDefaultStateBudget = 200'000;

/**
 * Diagnostic sink anchored to a Cfg: reports each (code, pc) once and
 * fills the enclosing function and the disassembly at pc.
 */
class DiagReporter
{
  public:
    DiagReporter(const Cfg &cfg, std::vector<Diagnostic> &out)
        : cfg_(cfg), out_(out)
    {
    }

    void report(Severity severity, const std::string &code, Addr pc,
                const std::string &message);

  private:
    const Cfg &cfg_;
    std::vector<Diagnostic> &out_;
    std::set<std::pair<std::string, Addr>> seen_;
};

/**
 * Symbolic stack pointer: a known delta from the walk's entry sp, a
 * known address after a `lui`/`auipc` rebase (`la sp, <region>_top`
 * stays precise through its `addi`), or unknown after any other sp
 * write. In unknown mode `value` counts the delta since the unknown
 * rebase, which WCSU charges to the ISR add-on.
 */
struct SpState
{
    enum Mode : std::uint8_t { kEntryRel, kAbsolute, kUnknown };
    Mode mode = kEntryRel;
    std::int64_t value = 0;

    auto operator<=>(const SpState &) const = default;

    /** Apply @p d at @p pc; true if it wrote sp. SWITCH_RF counts:
     *  sp then belongs to the other register bank. */
    bool apply(Addr pc, const DecodedInsn &d);

    /** "entry-16", "0x00008000" or "unknown". */
    std::string describe() const;
};

/**
 * Default hooks of a walk. A policy derives from this, defines its
 * transfer function `void step(Addr pc, const DecodedInsn &d,
 * State &st)`, called on every instruction of a block including the
 * terminator, and overrides the hooks it needs.
 */
template <typename State>
struct WalkPolicy
{
    /** Every arrival at a leader, before the memo. */
    void arrive(Addr, const State &) {}
    /** A call: the pc to continue at. Default: the callee is balanced
     *  and the path resumes after the call. */
    std::optional<Addr> call(const BasicBlock &bb, State &)
    {
        return bb.end;
    }
    /** A `ret`: the pc to continue at, if the path goes on. */
    std::optional<Addr> ret(Addr, State &) { return std::nullopt; }
    /** An `mret`: the path ends. */
    void trapReturn(Addr, const State &) {}
    /** A jump to @p target outside the walked range: the path ends. */
    void leave(Addr, const State &) {}
};

template <typename State>
class PathWalker
{
  public:
    /** @p pass names the pass in the budget warning. */
    PathWalker(const Cfg &cfg, const char *pass, unsigned budget,
               std::vector<Diagnostic> &out)
        : cfg_(cfg), reporter_(cfg, out), pass_(pass), budget_(budget)
    {
    }

    void
    report(Severity severity, const std::string &code, Addr pc,
           const std::string &message)
    {
        reporter_.report(severity, code, pc, message);
    }

    /** True once this run's budget ran out. */
    bool exhausted() const { return exhausted_; }

    /** Walk every path from the leader @p entry that stays inside
     *  [@p begin, @p end). */
    template <typename Policy>
    void
    walk(Policy &policy, Addr entry, State init, Addr begin, Addr end)
    {
        const auto inRange = [&](Addr pc) {
            return pc >= begin && pc < end && cfg_.contains(pc);
        };
        std::set<std::pair<Addr, State>> seen;
        std::vector<std::pair<Addr, State>> work;
        work.emplace_back(entry, std::move(init));
        while (!work.empty()) {
            std::optional<Addr> pc = work.back().first;
            State st = std::move(work.back().second);
            work.pop_back();
            // Every in-text target and continuation is a leader.
            while (pc && inRange(*pc) && enter(policy, *pc, st, seen))
                pc = stepBlock(policy, cfg_.blockAt(*pc), st, inRange,
                               work);
        }
    }

  private:
    template <typename Policy>
    bool
    enter(Policy &policy, Addr leader, const State &st,
          std::set<std::pair<Addr, State>> &seen)
    {
        policy.arrive(leader, st);
        if (statesSeen_ >= budget_) {
            if (!exhausted_) {
                report(Severity::kWarning, "lint-budget-exceeded", leader,
                       csprintf("%s exploration exceeded the state "
                                "budget; results are partial", pass_));
            }
            exhausted_ = true;
            return false;
        }
        if (!seen.emplace(leader, st).second)
            return false;
        ++statesSeen_;
        return true;
    }

    /** Run one block; the leader the path continues at, if any. */
    template <typename Policy, typename InRange>
    std::optional<Addr>
    stepBlock(Policy &policy, const BasicBlock &bb, State &st,
              const InRange &inRange,
              std::vector<std::pair<Addr, State>> &work)
    {
        for (Addr pc = bb.begin; pc < bb.end; pc += 4) {
            if (!inRange(pc))
                return std::nullopt;  // block runs past the range
            const DecodedInsn &d = cfg_.insnAt(pc);
            if (d.op == Op::kInvalid)
                return std::nullopt;  // pass 4 reports it
            policy.step(pc, d, st);
        }
        switch (bb.term) {
          case TermKind::kFallThrough:
            return bb.end;
          case TermKind::kBranch:
            if (inRange(bb.takenTarget))
                work.emplace_back(bb.takenTarget, st);
            return bb.end;
          case TermKind::kJump:
            if (inRange(bb.takenTarget))
                return bb.takenTarget;
            policy.leave(bb.takenTarget, st);
            return std::nullopt;
          case TermKind::kCall:
            return policy.call(bb, st);
          case TermKind::kReturn:
            return policy.ret(bb.termPc(), st);
          case TermKind::kTrapReturn:
            policy.trapReturn(bb.termPc(), st);
            return std::nullopt;
          case TermKind::kIndirect:
            return std::nullopt;  // no static successor; pass 4's job
          case TermKind::kFallOffText:
            // A branch in the last text word keeps its taken edge.
            for (Addr succ : bb.succs) {
                if (inRange(succ))
                    work.emplace_back(succ, st);
            }
            return std::nullopt;
        }
        return std::nullopt;
    }

    const Cfg &cfg_;
    DiagReporter reporter_;
    const char *pass_;
    unsigned budget_;
    unsigned statesSeen_ = 0;
    bool exhausted_ = false;
};

} // namespace rtu

#endif // RTU_ANALYZE_WALK_HH
