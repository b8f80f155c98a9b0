/**
 * @file
 * The stack-pointer walk: lint pass 3 (stack discipline) and
 * whole-program worst-case stack usage (WCSU) in one.
 *
 * One walk per function entry tracks sp as an SpState (analyze/
 * walk.hh: entry-relative delta, absolute after an `la sp,
 * <region>_top` rebase, unknown after a frame switch or SWITCH_RF)
 * along every path and charges callee depths at every call site and
 * tail jump. The walks yield:
 *
 *  - pass 3's findings: joining paths must agree on sp
 *    ("stack-imbalance"), `ret` must see the entry sp
 *    ("stack-ret-imbalance"; returning with a rebased sp abandons the
 *    caller's frame), no load or store below sp ("stack-below-sp":
 *    an interrupt may clobber that region at any instruction), and
 *    recursion, which makes depths unbounded ("wcsu-recursion");
 *  - per task entry function, the worst number of bytes ever live
 *    below its entry stack pointer -- including the ISR add-on (the
 *    trap handler's own entry-relative depth, which lands on whatever
 *    stack the interrupted task was running on);
 *  - per stack region, the worst absolute usage reached through
 *    rebases (the ISR stack under the store-to-context
 *    configurations, plus boot).
 *
 * Consumers:
 *  - checkStackDiscipline (pass 3) reports diags();
 *  - the linter's pass 5 compares usage against the generated region
 *    capacities ("stack-overflow-risk").
 */

#ifndef RTU_ANALYZE_ABSINT_WCSU_HH
#define RTU_ANALYZE_ABSINT_WCSU_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/cfg.hh"
#include "analyze/diag.hh"
#include "analyze/walk.hh"

namespace rtu {

class WcsuAnalyzer
{
  public:
    explicit WcsuAnalyzer(const Cfg &cfg,
                          unsigned state_budget = kDefaultStateBudget);

    /** Analyze every declared function. Call once. */
    void run();

    /** False when the state budget was exhausted; results are then
     *  partial and the overflow check is skipped. */
    bool converged() const { return !walker_.exhausted(); }

    /**
     * Worst bytes live below the entry stack pointer of @p fn,
     * including everything it calls. 0 for unknown functions.
     */
    unsigned entryDepth(const std::string &fn) const;

    /**
     * Bytes every task stack must reserve on top of the task's own
     * depth: the trap handler's entry-relative depth (its frame lands
     * on the interrupted stack) plus any depth consumed below an
     * unresolvable stack-pointer rebase.
     */
    unsigned isrAddOn() const;

    /** A generated stack region ("k_stack_3", "k_isr_stack"). */
    struct StackRegion
    {
        std::string name;
        Addr base = 0;
        Addr top = 0;  ///< address of the <name>_top word

        unsigned capacity() const
        {
            return static_cast<unsigned>(top - base);
        }
    };
    const std::vector<StackRegion> &stackRegions() const
    {
        return regions_;
    }

    /** Worst absolute usage per region reached through `la sp`
     *  rebases (bytes below the region top). */
    const std::map<std::string, unsigned> &regionUsage() const
    {
        return regionUsage_;
    }

    /** Pass 3's findings, recursion and the budget warning. */
    const std::vector<Diagnostic> &diags() const { return diags_; }

    /**
     * Compare every task's worst depth (entry depth of its
     * k_task_* function plus the ISR add-on) against the smallest
     * task-stack capacity, and rebase usage against each region's
     * capacity; append "stack-overflow-risk" errors to @p out.
     */
    void checkOverflow(std::vector<Diagnostic> &out) const;

  private:
    class SpWalk;  // one function's walk

    unsigned depthOf(Addr entry);
    void touch(const SpState &st, std::int64_t extra, unsigned &depth);

    const Cfg &cfg_;
    const Program &program_;

    std::vector<StackRegion> regions_;
    std::map<Addr, unsigned> depths_;  ///< finished entry-relative depths
    std::set<Addr> inProgress_;
    std::map<std::string, unsigned> regionUsage_;
    unsigned unknownExtra_ = 0;
    std::vector<Diagnostic> diags_;
    PathWalker<SpState> walker_;
};

} // namespace rtu

#endif // RTU_ANALYZE_ABSINT_WCSU_HH
