/**
 * @file
 * Abstract-interpretation engine over the shared Cfg.
 *
 * Per-function flow-sensitive interval/value-set analysis of the RV32
 * register file, composed with a flow-insensitive abstract data
 * memory: every data-section word is a cell whose abstract value is
 * the join of its image initializer and everything ever stored to it.
 * The engine iterates (register analysis -> recorded stores -> wider
 * memory -> register analysis ...) to a global fixpoint, with
 * threshold widening on both layers so divergent counters stabilize.
 *
 * Interprocedural precision comes from three channels:
 *  - call-site entry joins: a callee's entry state is the join of the
 *    caller states at every discovered call site (root functions --
 *    boot, trap handler, task bodies -- start from an unconstrained
 *    state);
 *  - a0 return-value summaries joined over every `ret` of the callee;
 *  - the verified kernel ABI (lint pass 2): callee-saved registers
 *    and sp survive calls, everything else is clobbered to top.
 *
 * Environment assumptions, each backed by a runtime oracle or a
 * companion lint pass and enforced by the lint gate over the whole
 * generated matrix (see DESIGN.md):
 *  - address 0 is never dereferenced (null members are stripped from
 *    dereferenced pointer sets);
 *  - stores whose address is a non-singleton interval intersecting a
 *    stack region target the stack (kernel data cells are only ever
 *    addressed exactly or through small pointer sets);
 *  - sp at a root entry points into some generated stack region;
 *  - the hardware scheduler only returns task ids previously inserted
 *    via rtu.addready / rtu.setctxid;
 *  - computed (multi-member) pointer sets only address multi-word
 *    data objects (list nodes, TCBs, arrays, stacks). Scalar header
 *    cells -- one-word symbols like k_current_tcb -- are only ever
 *    addressed through a direct `la`; a scalar or out-of-image member
 *    inside a computed set is an index-underflow artifact of the
 *    abstraction (the select scan's prio-below-zero member) and is
 *    dropped at the dereference;
 *  - indexed addressing stays inside the addressed object: the
 *    result of `add base, index` with a symbol-exact base lands in
 *    that symbol's extent (array bounds; the generated scheduler
 *    indexes k_ready_lists and k_task_table only with in-range
 *    priorities/ids, checked by the kernel-invariant runtime oracles);
 *  - the ready-priority scalar k_top_ready_prio holds a small
 *    non-negative index (the idle task keeps priority 0 occupied, so
 *    the select scan never commits an underflowed priority).
 *
 * Functions that are never called and are not generator entry points
 * (_start, the trap handlers, task bodies) are dead code in the
 * image: their regions are skipped entirely rather than analyzed from
 * an unconstrained entry state, which would poison the
 * flow-insensitive memory with stores that cannot execute.
 */

#ifndef RTU_ANALYZE_ABSINT_ENGINE_HH
#define RTU_ANALYZE_ABSINT_ENGINE_HH

#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyze/cfg.hh"
#include "asm/program.hh"
#include "common/types.hh"
#include "interval.hh"

namespace rtu {

/** Register-file state: x0..x31 plus mscratch (the only CSR the
 *  generated kernels use to carry a value). */
struct RegState
{
    static constexpr unsigned kNumSlots = 33;
    static constexpr unsigned kMscratchSlot = 32;

    bool live = false;  ///< false = unreachable (bottom state)
    std::array<AbsVal, kNumSlots> v;

    AbsVal &reg(unsigned i) { return v[i]; }
    const AbsVal &reg(unsigned i) const { return v[i]; }

    bool operator==(const RegState &o) const;

    static RegState join(const RegState &a, const RegState &b);
    static RegState widen(const RegState &prev, const RegState &next);
};

/**
 * Branch decision over full abstract values: set-pointwise when both
 * operands carry small sets (disjoint pointer sets decide equality
 * where the interval hulls cannot), interval decision otherwise.
 */
std::optional<bool> absDecide(Op op, const AbsVal &a, const AbsVal &b);

class AbsintEngine
{
  public:
    explicit AbsintEngine(const Program &program);

    /** Run to fixpoint. Call once; queries below are valid after. */
    void run();

    const Cfg &cfg() const { return cfg_; }
    const Program &program() const { return program_; }

    /** False when a budget/round cap was hit; derived facts are then
     *  discarded by the clients (conservative, never wrong). */
    bool converged() const { return converged_; }

    /** A maximal single-entry code region: a declared function, or a
     *  synthesized gap region for code outside any declared one. */
    struct Region
    {
        std::string name;
        Addr begin = 0;
        Addr end = 0;
        bool root = false;      ///< never called: entered unconstrained
        bool analyzed = true;   ///< false: dead code, no states exist
    };
    const std::vector<Region> &regions() const { return regions_; }

    // ---- final-pass state queries (loop-bound inference etc.) ------

    /** Register state on entry to the block at @p leader, or nullptr
     *  if the block was never reached. */
    const RegState *blockEntry(Addr leader) const;

    /** State at the block's terminator (operands of a branch). */
    const RegState *termState(Addr leader) const;

    /** Post-refinement state along the edge @p from -> @p to. */
    const RegState *edgeState(Addr from, Addr to) const;

    /** Abstract value of the data cell at word address @p addr. */
    AbsVal cellValue(Addr addr) const;

    /** Abstract load through an abstract word address. */
    AbsVal loadWord(const AbsVal &addr) const;

    /** Branch pcs with a statically refuted edge. */
    const std::set<Addr> &infeasibleTaken() const
    {
        return infeasibleTaken_;
    }
    const std::set<Addr> &infeasibleFall() const { return infeasibleFall_; }

    bool inData(Addr a) const;
    bool inStack(Addr a) const;

  private:
    struct FnState;  // per-region intra-procedural scratch

    void buildRegions();
    void buildStackRanges();
    void buildDataObjects();
    RegState rootEntry() const;

    /** Extent of the data symbol containing @p a, or bottom. */
    Interval objectExtent(Addr a) const;

    void analyzeRegion(const Region &region, bool record);
    void transferBlock(const BasicBlock &bb, RegState &st,
                       const Region &region, bool record);
    void applyInsn(Addr pc, const DecodedInsn &d, RegState &st);
    AbsVal value(const RegState &st, unsigned reg) const;

    AbsVal loadSized(const AbsVal &addr, Op op) const;
    void storeWord(const AbsVal &addr, const AbsVal &val);
    void joinCell(Addr cell, const AbsVal &val);
    void recordCallEntry(Addr target, const RegState &st);
    void recordJumpEntry(Addr target, const RegState &st);

    const Region *regionContaining(Addr pc) const;

    const Program &program_;
    Cfg cfg_;

    Addr dataBase_ = 0;
    Addr dataEnd_ = 0;
    std::vector<std::pair<Addr, Addr>> stackRanges_;
    Interval stackWindow_ = Interval::bottom();
    /** Sorted [begin, end) extents of the named data objects. */
    std::vector<std::pair<Addr, Addr>> dataObjects_;
    /** Cells of one-word symbols: never computed-addressed. */
    std::set<Addr> scalarCells_;
    /** Kernel-invariant value clamps, by cell (assumption list). */
    std::map<Addr, Interval> invariantCells_;

    std::vector<Region> regions_;
    std::set<Addr> callTargets_;

    // Outer-fixpoint state.
    unsigned round_ = 0;
    bool changed_ = false;
    bool converged_ = false;
    std::unordered_map<Addr, AbsVal> cells_;
    std::vector<std::pair<Addr, Addr>> havocRanges_;
    std::map<Addr, RegState> entryStates_;
    std::map<Addr, AbsVal> returnValues_;  ///< region begin -> a0
    AbsVal hwListIds_ = AbsVal::bottom();

    // Final recorded pass.
    std::map<Addr, RegState> blockEntries_;
    std::map<Addr, RegState> termStates_;
    std::map<std::pair<Addr, Addr>, RegState> edgeStates_;
    std::set<Addr> infeasibleTaken_;
    std::set<Addr> infeasibleFall_;
};

} // namespace rtu

#endif // RTU_ANALYZE_ABSINT_ENGINE_HH
