/**
 * @file
 * Abstract core timing model. Concrete models (CV32E40P, CVA6,
 * NaxRiscv) decide when instructions execute; the shared Executor
 * applies their semantics.
 */

#ifndef RTU_CORES_CORE_HH
#define RTU_CORES_CORE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "arch_state.hh"
#include "asm/decode.hh"
#include "common/counters.hh"
#include "executor.hh"
#include "sim/clint.hh"
#include "sim/irq.hh"
#include "sim/kernel.hh"
#include "sim/mem.hh"
#include "sim/memmap.hh"
#include "sim/predecode.hh"

namespace rtu {

/** Simulation-side observer of trap boundaries (latency recording). */
class CoreListener
{
  public:
    virtual ~CoreListener() = default;
    /** An interrupt/exception was taken at @p entry_cycle. */
    virtual void trapTaken(Word cause, Cycle entry_cycle) = 0;
    /** An mret completed (the paper's latency end point). */
    virtual void mretCompleted(Cycle cycle) = 0;
};

struct CoreStats
{
    std::uint64_t instret = 0;
    std::uint64_t traps = 0;
    std::uint64_t mrets = 0;
    std::uint64_t wfiCycles = 0;
    std::uint64_t memOps = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t cacheMisses = 0;
    /** Front-end: fetches served from the predecoded image. */
    std::uint64_t fetchPredecoded = 0;
    /** Front-end: fetches through the memory system (reference mode, wild
     *  jump out of text, or misaligned pc). */
    std::uint64_t fetchSlowPath = 0;
    /** Text-range writes that re-decoded image words. Accounted at
     *  the simulation level (the image is shared, not per-core). */
    std::uint64_t textInvalidations = 0;
    /** Superblocks executed through the block fast path (straight-line
     *  runs completed inside blockRun()). */
    std::uint64_t blocksExecuted = 0;
    /** blockRun() entries or runs that bailed to the per-instruction
     *  path (stop instruction, unsafe memory access, uncovered pc). */
    std::uint64_t blockFallbacks = 0;
};

/** CoreStats' counter table. The first eight rows are the
 *  architectural and timing-model counters every ExecMode must agree
 *  on; the front-end split and the block counters depend on the mode. */
inline constexpr CounterRow<CoreStats> kCoreStatsTable[] = {
    {"instret", &CoreStats::instret, true},
    {"traps", &CoreStats::traps, true},
    {"mrets", &CoreStats::mrets, true},
    {"wfi_cycles", &CoreStats::wfiCycles, true},
    {"mem_ops", &CoreStats::memOps, true},
    {"stall_cycles", &CoreStats::stallCycles, true},
    {"branch_mispredicts", &CoreStats::branchMispredicts, true},
    {"cache_misses", &CoreStats::cacheMisses, true},
    {"fetch_predecoded", &CoreStats::fetchPredecoded, false},
    {"fetch_slow_path", &CoreStats::fetchSlowPath, false},
    {"text_invalidations", &CoreStats::textInvalidations, false},
    {"blocks_executed", &CoreStats::blocksExecuted, false},
    {"block_fallbacks", &CoreStats::blockFallbacks, false},
};
static_assert(coversEveryField(kCoreStatsTable),
              "every CoreStats field needs exactly one kCoreStatsTable row");

constexpr std::span<const CounterRow<CoreStats>>
counterRows(const CoreStats &)
{
    return kCoreStatsTable;
}

/**
 * Bimodal branch predictor (CVA6, NaxRiscv): one 2-bit saturating
 * counter per entry, indexed by word address modulo the power-of-two
 * entry count, every counter starting weakly not-taken.
 */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries) : ctr_(entries, 1) {}

    /** Predicted direction of the branch at @p pc. */
    bool predictTaken(Addr pc) const { return ctr_[index(pc)] >= 2; }

    /** Train on the resolved direction; true on a misprediction. */
    bool
    resolve(Addr pc, bool taken)
    {
        std::uint8_t &ctr = ctr_[index(pc)];
        const bool miss = (ctr >= 2) != taken;
        if (taken) {
            if (ctr < 3)
                ++ctr;
        } else if (ctr > 0) {
            --ctr;
        }
        return miss;
    }

  private:
    std::size_t index(Addr pc) const { return (pc >> 2) & (ctr_.size() - 1); }

    std::vector<std::uint8_t> ctr_;
};

/** Every rule the three timing models share, written once; each core
 *  adds only its own timing model. */
class Core : public Clocked
{
  public:
    struct Env
    {
        ArchState *state = nullptr;
        Executor *exec = nullptr;
        MemSystem *mem = nullptr;
        IrqLines *irq = nullptr;
        /** The core's memory port (CV32E40P DMEM, CVA6 bus, NaxRiscv
         *  D$), shared at lower priority with the RTOSUnit. */
        SharedPort *port = nullptr;
        Clint *clint = nullptr;
        /** Decode-once text image; nullptr = always fetch via mem and
         *  never run in-block (the reference installs none). */
        const PredecodedImage *predecode = nullptr;
    };

    explicit Core(const Env &env)
        : state_(*env.state), exec_(*env.exec), mem_(*env.mem),
          irq_(*env.irq), port_(*env.port), clint_(*env.clint),
          predecode_(env.predecode)
    {}
    virtual ~Core() = default;

    /** Advance one clock cycle. */
    void tick(Cycle now) override = 0;

    virtual const char *name() const = 0;

    void setListener(CoreListener *l) { listener_ = l; }

    const CoreStats &stats() const { return stats_; }

  protected:
    /**
     * Fetch and decode the instruction at @p pc (Harvard I-side).
     * Text-segment fetches hit the predecoded image — one bounds
     * check and an array load instead of a MemSystem dispatch plus a
     * field decode per retired instruction. Anything else (image
     * disabled, wild jump out of text, misaligned pc) takes the
     * decode-from-memory slow path.
     */
    DecodedInsn
    fetch(Addr pc)
    {
        if (predecode_ && predecode_->covers(pc)) {
            ++stats_.fetchPredecoded;
            return predecode_->at(pc);
        }
        ++stats_.fetchSlowPath;
        // A wild jump (e.g. from a fault-corrupted context) is the
        // guest's architectural error, not a simulator bug: raise the
        // typed fault so Simulation::run ends the run as kGuestFault.
        if (!mem_.deviceAt(pc))
            guest_fault("fetch at unmapped address 0x%08x", pc);
        return decode(mem_.read32(pc));
    }

    /**
     * Apply trap semantics: timer auto-reset notification, CSR
     * updates, redirect, RTOSUnit entry hook, listener event.
     */
    void
    functionalTrap(Word cause, Addr epc, Cycle now)
    {
        if (cause == mcause::kMachineTimer)
            clint_.timerTaken();
        exec_.takeTrap(cause, epc);
        ++stats_.traps;
        if (listener_)
            listener_->trapTaken(cause, now);
    }

    /** True while the RTOSUnit holds @p insn back (a custom
     *  instruction or mret waiting on a unit FSM). */
    bool
    stalledByUnit(const DecodedInsn &insn) const
    {
        RtosUnitPort *unit = exec_.unit();
        if (!unit)
            return false;
        switch (insn.op) {
          case Op::kSwitchRf: return unit->switchRfStall();
          case Op::kGetHwSched: return unit->getHwSchedStall();
          case Op::kMret: return unit->mretStall();
          case Op::kSemTake:
          case Op::kSemGive:
            return unit->semOpStall();
          default: return false;
        }
    }

    /** An mret issued; its completion (the paper's latency end point)
     *  fires at the first tick at or after @p done. */
    void
    mretIssued(Cycle done)
    {
        ++stats_.mrets;
        mretPending_ = true;
        mretDoneAt_ = done;
    }

    /** The top of every tick(), after the port reset: fire a due mret
     *  completion, then wake from wfi on a pending enabled interrupt.
     *  True when the core sleeps through this cycle. */
    bool
    protocolTick(Cycle now)
    {
        if (mretPending_ && now >= mretDoneAt_) {
            mretPending_ = false;
            if (listener_)
                listener_->mretCompleted(now);
        }
        if (!sleeping_)
            return false;
        if (exec_.pendingEnabledIrqs() != 0) {
            sleeping_ = false;
            return false;
        }
        ++stats_.wfiCycles;
        return true;
    }

    /** The start of every nextEventAt(): while an mret completion or a
     *  wfi sleep is pending, it alone decides the next event, stored
     *  in @p at. */
    bool
    protocolEventAt(Cycle now, Cycle &at) const
    {
        if (mretPending_)
            at = std::max(now, mretDoneAt_);
        else if (sleeping_)
            at = exec_.pendingEnabledIrqs() != 0 ? now : kNoEvent;
        else
            return false;
        return true;
    }

    /** blockRun() may start: there is an image to run from, and no
     *  mret completion, wfi wake-up or interrupt is due. */
    bool
    blockEntryOpen() const
    {
        return predecode_ != nullptr && !mretPending_ && !sleeping_ &&
               !exec_.interruptReady();
    }

    /** Significant dividend bits of the divide @p insn (at least one),
     *  the data-dependent part of every divider's latency. Read before
     *  the divide executes: rd may alias rs1. */
    unsigned
    divOperandBits(const DecodedInsn &insn) const
    {
        return 32 - std::countl_zero(state_.reg(insn.rs1) | 1);
    }

    /**
     * True if the in-block data access [@p ea, @p ea + @p size) is
     * contained in plain SRAM (imem or dmem). Anything else — CLINT,
     * host I/O, unmapped, device-straddling — must take the
     * per-instruction path, which owns the exact device and fault
     * semantics.
     */
    bool
    blockSafeAccess(Addr ea, unsigned size) const
    {
        return memmap::inImem(ea, size) || memmap::inDmem(ea, size);
    }

    /** Effective address of a load/store, from the current registers
     *  (exact for in-order in-block execution: every older instruction
     *  has already executed). */
    Addr
    effectiveAddr(const DecodedInsn &insn) const
    {
        return state_.reg(insn.rs1) + static_cast<Word>(insn.imm);
    }

    /** @p insn, about to run in-block, is not a load/store whose
     *  access leaves plain SRAM. */
    bool
    blockSafe(const DecodedInsn &insn) const
    {
        return (insn.cls != InsnClass::kLoad &&
                insn.cls != InsnClass::kStore) ||
               blockSafeAccess(effectiveAddr(insn), accessSize(insn.op));
    }

    /** Every pre-validation for the word at @p pc, straight from the
     *  image (which re-decodes text writes, so this is never stale):
     *  its pre-decoded instruction, or nullptr if the per-instruction
     *  path must run it. A bail has no effects, so the caller's cycle
     *  stays wholly unconsumed. */
    const DecodedInsn *
    blockInsnAt(Addr pc) const
    {
        if (!predecode_->covers(pc))
            return nullptr;
        const DecodedInsn &insn = predecode_->at(pc);
        return blockRunnable(insn) && blockSafe(insn) ? &insn : nullptr;
    }

    /** Superblock bookkeeping of one blockRun() call. */
    struct BlockTally
    {
        /** Retired since the last control transfer. */
        std::uint32_t sinceBoundary = 0;
        /** The run ended at a word the per-instruction path must run. */
        bool bailed = false;
    };

    /** Count one in-block retirement: a control transfer closes a
     *  superblock. */
    void
    blockRetired(BlockTally &tally, InsnClass cls)
    {
        if (cls == InsnClass::kBranch || cls == InsnClass::kJump) {
            ++stats_.blocksExecuted;
            tally.sinceBoundary = 0;
        } else {
            ++tally.sinceBoundary;
        }
    }

    /** Close a blockRun() call that advanced from @p now to @p t;
     *  returns the cycles consumed. */
    Cycle
    blockClose(const BlockTally &tally, Cycle now, Cycle t)
    {
        if (tally.sinceBoundary > 0)
            ++stats_.blocksExecuted;  // partial run up to the exit point
        if (tally.bailed)
            ++stats_.blockFallbacks;
        return t - now;
    }

    static unsigned
    accessSize(Op op)
    {
        switch (op) {
          case Op::kLb:
          case Op::kLbu:
          case Op::kSb:
            return 1;
          case Op::kLh:
          case Op::kLhu:
          case Op::kSh:
            return 2;
          default:
            return 4;
        }
    }

    ArchState &state_;
    Executor &exec_;
    MemSystem &mem_;
    IrqLines &irq_;
    SharedPort &port_;
    Clint &clint_;
    const PredecodedImage *predecode_;
    CoreListener *listener_ = nullptr;
    CoreStats stats_;
    /** Sleeping in wfi. */
    bool sleeping_ = false;
    /** An issued mret completes at the first tick >= mretDoneAt_. */
    bool mretPending_ = false;
    Cycle mretDoneAt_ = 0;
};

} // namespace rtu

#endif // RTU_CORES_CORE_HH
