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
 * The outer rounds are incremental: each region records the shared
 * state it read (entry state, loaded cells, havoc ranges, callee
 * return values, the hardware-list id set) and is re-analysed only
 * when one of those changed after its last analysis started. That is
 * exact because shared state only grows and join/widen return an
 * operand the other adds nothing to unchanged, so a re-analysis on
 * unchanged inputs would change nothing (DESIGN.md).
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
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
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

    /** this := join(this, @p src), widened slotwise against the old
     *  value when @p widen; true when this changed. An unreachable
     *  operand is the identity. */
    bool absorb(const RegState &src, bool widen);
};

static_assert(std::is_trivially_copyable_v<RegState>);

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

    /** Branch pcs with a statically refuted edge. */
    const std::set<Addr> &infeasibleTaken() const
    {
        return infeasibleTaken_;
    }
    const std::set<Addr> &infeasibleFall() const { return infeasibleFall_; }

    bool inData(Addr a) const;
    bool inStack(Addr a) const;

    /** Outer-round region analyses run and skipped because none of
     *  the region's inputs had changed (the recording pass is not
     *  counted). */
    unsigned regionsAnalyzed() const { return analyzed_; }
    unsigned regionsSkipped() const { return skipped_; }

  private:
    /**
     * What one region's last outer-round analysis read from the
     * shared state. Every key carries a change stamp on the engine's
     * clock; the region is re-analysed only when some key changed
     * after `started`.
     */
    struct RegionReads
    {
        std::uint64_t started = 0;  ///< 0: never analysed
        bool memory = false;        ///< loaded a cell (so reads havoc)
        bool hwIds = false;         ///< ran GET_HW_SCHED
        std::vector<std::uint32_t> cells;    ///< data-word indices
        std::vector<std::uint32_t> callees;  ///< return values used
    };

    /** Static layout of one region's blocks: global block indices
     *  [first, first + count), in address order. */
    struct RegionBlocks
    {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
    };

    /** Intra-region successors of a block (global block indices, -1
     *  when the edge leaves the region or does not exist). Edge slot 0
     *  holds the taken target, slot 1 the fall-through/continuation,
     *  or slot 0 too when both name the same block. */
    struct BlockSuccs
    {
        std::int32_t taken = -1;
        std::int32_t fall = -1;
        unsigned fallSlot() const { return fall == taken ? 0 : 1; }
    };

    void buildRegions();
    void buildBlocks();
    void buildStackRanges();
    void buildDataObjects();
    RegState rootEntry() const;

    /** Extent of the data symbol containing @p a, or bottom. */
    Interval objectExtent(Addr a) const;

    bool needsAnalysis(unsigned region) const;
    void analyzeRegion(unsigned region, bool record);
    void applyInsn(Addr pc, const DecodedInsn &d, RegState &st);
    AbsVal value(const RegState &st, unsigned reg) const;

    /** Abstract load through an abstract word address. */
    AbsVal loadWord(const AbsVal &addr);
    /** cellValue(), noted as an input of the region being analysed. */
    AbsVal readCell(Addr a);
    AbsVal loadSized(const AbsVal &addr, Op op);
    void storeWord(const AbsVal &addr, const AbsVal &val);
    void joinCell(Addr cell, const AbsVal &val);
    void recordCallEntry(Addr target, const RegState &st);
    /** Marks a shared-state change; returns its stamp. */
    std::uint64_t touch();

    /** Index of the region containing @p pc, or -1. */
    int regionContaining(Addr pc) const;
    /** Global index of the block led by @p pc, or -1. */
    int blockIndex(Addr pc) const;
    /** Index into cells_ of the word at @p a, or -1 outside the data
     *  image and on stacks. */
    int cellSlot(Addr a) const;

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

    // Block layout: blocks_ in address order; leaderIndex_ maps each
    // text word to its block's global index when it leads one.
    std::vector<const BasicBlock *> blocks_;
    std::vector<std::int32_t> leaderIndex_;
    std::vector<RegionBlocks> regionBlocks_;
    std::vector<BlockSuccs> succs_;
    /** In-region predecessors of each block, ascending. */
    std::vector<std::vector<std::uint32_t>> preds_;
    std::vector<bool> loopHead_;

    // Outer-fixpoint state, by region and by cell.
    unsigned round_ = 0;
    bool changed_ = false;
    bool converged_ = false;
    std::vector<std::int32_t> cellSlot_;  ///< by data word
    std::vector<AbsVal> cells_;
    std::vector<std::pair<Addr, Addr>> havocRanges_;
    std::vector<RegState> entryStates_;
    std::vector<AbsVal> returnValues_;  ///< a0 joined over `ret`s
    AbsVal hwListIds_ = AbsVal::bottom();

    // Change stamps and per-region read sets.
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> cellStamp_;
    std::vector<std::uint64_t> entryStamp_;
    std::vector<std::uint64_t> returnStamp_;
    std::uint64_t havocStamp_ = 0;
    std::uint64_t hwStamp_ = 0;
    std::vector<RegionReads> reads_;
    RegionReads *reading_ = nullptr;  ///< region being analysed
    std::vector<std::uint64_t> cellSeen_;  ///< started stamp per cell
    unsigned analyzed_ = 0;
    unsigned skipped_ = 0;

    // Per-region scratch, by local block index (edges: 2 per block).
    std::vector<RegState> in_;
    std::vector<RegState> term_;
    std::vector<RegState> edgeOut_;
    std::vector<unsigned> visits_;
    std::vector<bool> queued_;

    // Final recorded pass: indices into recorded_ by global block
    // index (edges: 2 slots per block), -1 when never reached.
    std::deque<RegState> recorded_;
    std::vector<std::int32_t> entryAt_;
    std::vector<std::int32_t> termAt_;
    std::vector<std::int32_t> edgeAt_;
    std::set<Addr> infeasibleTaken_;
    std::set<Addr> infeasibleFall_;
};

} // namespace rtu

#endif // RTU_ANALYZE_ABSINT_ENGINE_HH
