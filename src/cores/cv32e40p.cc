#include "cv32e40p.hh"

namespace rtu {

unsigned
Cv32e40pCore::costOf(const DecodedInsn &insn, const ExecResult &res,
                     unsigned div_bits) const
{
    switch (insn.cls) {
      case InsnClass::kJump:
        return params_.jumpCycles;
      case InsnClass::kBranch:
        return res.branchTaken ? params_.takenBranchCycles : 1;
      case InsnClass::kDiv:
        // Iterative divider: latency scales with dividend magnitude.
        return params_.divBaseCycles + div_bits;
      case InsnClass::kSystem:
        if (insn.op == Op::kMret)
            return params_.mretCycles;
        return 1;
      default:
        return 1;
    }
}

Cycle
Cv32e40pCore::nextEventAt(Cycle now) const
{
    Cycle at;
    if (protocolEventAt(now, at))
        return at;
    // A stall is pure up to the next issue, unless it is abortable and
    // collapses the moment an interrupt is ready.
    if (remaining_ > 0 && !(abortable_ && exec_.interruptReady()))
        return now + remaining_;
    return now;
}

void
Cv32e40pCore::skipTo(Cycle now, Cycle target)
{
    const Cycle delta = target - now;
    if (sleeping_) {
        stats_.wfiCycles += delta;
        return;
    }
    rtu_assert(delta <= remaining_, "skip across a stall boundary");
    remaining_ -= static_cast<unsigned>(delta);
    stats_.stallCycles += delta;
}

// Inlined into both callers: the block loop below is the simulator's
// hottest path, and tick() runs it for every instruction it issues.
[[gnu::always_inline]] inline void
Cv32e40pCore::issue(const DecodedInsn &insn, Addr pc, Cycle now)
{
    const InsnClass cls = insn.cls;

    // Load-use hazard from the *dynamic* previous instruction: one
    // bubble when it was a load whose destination this one consumes.
    unsigned extra = 0;
    if (lastWasLoad_ && lastLoadRd_ != 0) {
        const bool uses =
            (insn.useRs1 && insn.rs1 == lastLoadRd_) ||
            (insn.useRs2 && insn.rs2 == lastLoadRd_);
        if (uses)
            extra = params_.loadUseStall;
    }

    const unsigned div_bits =
        cls == InsnClass::kDiv ? divOperandBits(insn) : 0;
    const ExecResult res = exec_.execute(insn, pc);

    if (res.trap) {
        functionalTrap(res.trapCause, pc, now);
        remaining_ = params_.trapEntryCycles - 1;
        return;
    }

    state_.setPc(res.nextPc);
    ++stats_.instret;

    if (res.memAccess) {
        port_.claim();
        ++stats_.memOps;
    }

    if (res.isWfi)
        sleeping_ = true;

    const unsigned cost = costOf(insn, res, div_bits) + extra;
    remaining_ = cost - 1;
    abortable_ =
        remaining_ > 0 && (cls == InsnClass::kDiv || cls == InsnClass::kMul);

    // The mret completes on its last pipeline-refill cycle.
    if (insn.op == Op::kMret)
        mretIssued(now + remaining_);

    lastWasLoad_ = cls == InsnClass::kLoad;
    lastLoadRd_ = insn.rd;
}

void
Cv32e40pCore::tick(Cycle now)
{
    port_.beginCycle();
    if (protocolTick(now))
        return;

    if (remaining_ > 0) {
        // CV32E40P kills in-flight multi-cycle ALU operations so the
        // interrupt is taken with constant latency.
        if (abortable_ && exec_.interruptReady()) {
            remaining_ = 0;
            abortable_ = false;
        } else {
            --remaining_;
            ++stats_.stallCycles;
            return;
        }
    }

    if (exec_.interruptReady()) {
        const Word cause = exec_.pendingCause();
        functionalTrap(cause, state_.pc(), now);
        remaining_ = params_.trapEntryCycles - 1;
        abortable_ = false;
        lastWasLoad_ = false;
        return;
    }

    const Addr pc = state_.pc();
    const DecodedInsn insn = fetch(pc);

    if (stalledByUnit(insn)) {
        ++stats_.stallCycles;
        return;
    }

    issue(insn, pc, now);
}

Cycle
Cv32e40pCore::blockRun(Cycle now, Cycle bound)
{
    if (remaining_ > 0 || !blockEntryOpen())
        return 0;

    // tick()'s other gates cannot fire in here: stop words (CSR,
    // system, custom) never run in-block and no interrupt is ready
    // before the bound. So every step is issue() followed by its
    // stall, advanced in closed form.
    Cycle t = now;
    BlockTally tally;
    while (t < bound) {
        const Addr pc = state_.pc();
        const DecodedInsn *next = blockInsnAt(pc);
        if (!next) {
            tally.bailed = true;
            break;
        }
        // A copy, as tick() fetches one: a store may re-decode the
        // very word it executes from.
        const DecodedInsn insn = *next;
        // tick() resets the port every cycle; here only the cycles
        // that may claim it need the reset.
        if (insn.cls == InsnClass::kLoad || insn.cls == InsnClass::kStore)
            port_.beginCycle();
        ++stats_.fetchPredecoded;
        issue(insn, pc, t);
        blockRetired(tally, insn.cls);

        if (t + 1 + remaining_ > bound) {
            // The issue cycle and bound-t-1 stall cycles land inside
            // the window; the in-flight remainder resumes per-cycle,
            // exactly the reference state at the bound.
            const Cycle inside = bound - t - 1;
            stats_.stallCycles += inside;
            remaining_ -= static_cast<unsigned>(inside);
            t = bound;
            break;
        }
        stats_.stallCycles += remaining_;
        t += 1 + remaining_;
        remaining_ = 0;
    }
    return blockClose(tally, now, t);
}

} // namespace rtu
