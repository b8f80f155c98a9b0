/**
 * @file
 * The functional executor: the golden architectural model that applies
 * instruction semantics. Core timing models decide *when* to call it;
 * the executor decides *what* happens.
 */

#ifndef RTU_CORES_EXECUTOR_HH
#define RTU_CORES_EXECUTOR_HH

#include <array>

#include "arch_state.hh"
#include "asm/insn.hh"
#include "common/types.hh"
#include "rtosunit/config.hh"
#include "rtosunit_port.hh"
#include "sim/irq.hh"
#include "sim/mem.hh"

namespace rtu {

/** Outcome of executing one instruction (consumed by timing models). */
struct ExecResult
{
    Addr nextPc = 0;
    bool branchTaken = false;  ///< conditional branch taken
    bool memAccess = false;
    bool memIsStore = false;
    Addr memAddr = 0;
    bool isMret = false;
    bool isWfi = false;
    bool trap = false;         ///< synchronous trap raised (ecall)
    Word trapCause = 0;
};

class Executor
{
  public:
    Executor(ArchState &state, MemSystem &mem, IrqLines &irq)
        : state_(state), mem_(mem), irq_(irq)
    {}

    /** Attach the RTOSUnit of @p config. A custom instruction the
     *  configuration does not implement is illegal (a guest fault). */
    void
    setUnit(RtosUnitPort *unit, const RtosUnitConfig &config)
    {
        unit_ = unit;
        unitConfig_ = config;
    }
    RtosUnitPort *unit() const { return unit_; }

    /** Clock source for the mcycle CSR. */
    void setClock(const Cycle *now) { now_ = now; }

    /**
     * Apply the semantics of @p insn located at @p pc. Stall conditions
     * (SWITCH_RF / GET_HW_SCHED / mret) must already be resolved by
     * the caller. Dispatch is a per-opcode handler-table load (one
     * handler per op family), so together with the predecoded image
     * the decode -> dispatch path is two indexed loads.
     */
    ExecResult
    execute(const DecodedInsn &insn, Addr pc)
    {
        ExecResult res;
        res.nextPc = pc + 4;
        handlers()[static_cast<std::size_t>(insn.op)](*this, insn, pc,
                                                      res);
        if (res.branchTaken)
            res.nextPc = pc + static_cast<Word>(insn.imm);
        return res;
    }

    /**
     * Take a trap: save pc into mepc, update mstatus/mcause, redirect
     * to mtvec, and notify the RTOSUnit (interrupt entries only).
     */
    void takeTrap(Word cause, Addr epc);

    Word readCsr(std::uint16_t addr) const;
    void writeCsr(std::uint16_t addr, Word value);

    /** Machine-level interrupts both pending and enabled. */
    Word
    pendingEnabledIrqs() const
    {
        return irq_.pending() & state_.csrs.mie;
    }

    /** True if an interrupt should be taken (MIE set + pending). */
    bool
    interruptReady() const
    {
        return (state_.csrs.mstatus & mstatus::kMie) &&
               pendingEnabledIrqs() != 0;
    }

    /**
     * Highest-priority pending interrupt cause (external > software >
     * timer, the RISC-V privileged order MEI > MSI > MTI).
     */
    Word pendingCause() const;

    /**
     * Conditional-branch direction for operand values @p rs1 / @p rs2.
     * The single source of branch semantics: execute() resolves taken
     * branches through it, and the cores' block fast paths use it to
     * pre-compute a branch target without executing the instruction.
     */
    static bool evalBranch(Op op, Word rs1, Word rs2);

  private:
    /** One entry per Op; applies the op family's semantics in place. */
    using Handler = void (*)(Executor &, const DecodedInsn &, Addr,
                             ExecResult &);
    using HandlerTable = std::array<Handler, kNumOps>;

    /** The dispatch table, populated once at startup. */
    static const HandlerTable &handlers();

    // Per-family handlers (static so they sit in a flat table; they
    // reach the executor's state through the explicit receiver).
    static void execUpper(Executor &, const DecodedInsn &, Addr,
                          ExecResult &);
    static void execJump(Executor &, const DecodedInsn &, Addr,
                         ExecResult &);
    static void execBranch(Executor &, const DecodedInsn &, Addr,
                           ExecResult &);
    static void execLoad(Executor &, const DecodedInsn &, Addr,
                         ExecResult &);
    static void execStore(Executor &, const DecodedInsn &, Addr,
                          ExecResult &);
    static void execAluImm(Executor &, const DecodedInsn &, Addr,
                           ExecResult &);
    static void execAluReg(Executor &, const DecodedInsn &, Addr,
                           ExecResult &);
    static void execMulDiv(Executor &, const DecodedInsn &, Addr,
                           ExecResult &);
    static void execSystem(Executor &, const DecodedInsn &, Addr,
                           ExecResult &);
    static void execCsr(Executor &, const DecodedInsn &, Addr,
                        ExecResult &);
    static void execCustom(Executor &, const DecodedInsn &, Addr,
                           ExecResult &);
    static void execInvalid(Executor &, const DecodedInsn &, Addr,
                            ExecResult &);

    ArchState &state_;
    MemSystem &mem_;
    IrqLines &irq_;
    RtosUnitPort *unit_ = nullptr;
    RtosUnitConfig unitConfig_;  ///< vanilla: no custom instructions
    const Cycle *now_ = nullptr;
};

} // namespace rtu

#endif // RTU_CORES_EXECUTOR_HH
