/**
 * @file
 * Abstract core timing model. Concrete models (CV32E40P, CVA6,
 * NaxRiscv) decide when instructions execute; the shared Executor
 * applies their semantics.
 */

#ifndef RTU_CORES_CORE_HH
#define RTU_CORES_CORE_HH

#include <cstdint>

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

class Core : public Clocked
{
  public:
    struct Env
    {
        ArchState *state = nullptr;
        Executor *exec = nullptr;
        MemSystem *mem = nullptr;
        IrqLines *irq = nullptr;
        SharedPort *dmemPort = nullptr;
        Clint *clint = nullptr;
        /** Decode-once text image; nullptr = always fetch via mem and
         *  never run in-block (the reference installs none). */
        const PredecodedImage *predecode = nullptr;
    };

    explicit Core(const Env &env)
        : state_(*env.state), exec_(*env.exec), mem_(*env.mem),
          irq_(*env.irq), dmemPort_(*env.dmemPort), clint_(*env.clint),
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
        return (ea >= memmap::kImemBase &&
                ea + size <= memmap::kImemBase + memmap::kImemSize) ||
               (ea >= memmap::kDmemBase &&
                ea + size <= memmap::kDmemBase + memmap::kDmemSize);
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
    SharedPort &dmemPort_;
    Clint &clint_;
    const PredecodedImage *predecode_;
    CoreListener *listener_ = nullptr;
    CoreStats stats_;
};

} // namespace rtu

#endif // RTU_CORES_CORE_HH
