#include "cv32e40p.hh"

#include <bit>

namespace rtu {

bool
Cv32e40pCore::stalledByUnit(const DecodedInsn &insn) const
{
    RtosUnitPort *unit = exec_.unit();
    if (!unit)
        return false;
    switch (insn.op) {
      case Op::kSwitchRf:
        return unit->switchRfStall();
      case Op::kGetHwSched:
        return unit->getHwSchedStall();
      case Op::kMret:
        return unit->mretStall();
      case Op::kSemTake:
      case Op::kSemGive:
        return unit->semOpStall();
      default:
        return false;
    }
}

unsigned
Cv32e40pCore::costOf(const DecodedInsn &insn, const ExecResult &res) const
{
    switch (insn.cls) {
      case InsnClass::kJump:
        return params_.jumpCycles;
      case InsnClass::kBranch:
        return res.branchTaken ? params_.takenBranchCycles : 1;
      case InsnClass::kDiv:
        // Iterative divider: latency scales with dividend magnitude.
        return params_.divBaseCycles + divOperandBits_;
      case InsnClass::kSystem:
        if (insn.op == Op::kMret)
            return params_.mretCycles;
        return 1;
      default:
        return 1;
    }
}

namespace {

/** Instruction classes whose execution touches nothing outside the
 *  register file: safe inside a provably-periodic loop. Memory ops are
 *  excluded deliberately — the RTOSUnit FSMs can rewrite data memory
 *  without the core noticing, which would silently break periodicity. */
bool
stridePure(InsnClass cls)
{
    switch (cls) {
      case InsnClass::kAlu:
      case InsnClass::kMul:
      case InsnClass::kDiv:
      case InsnClass::kBranch:
      case InsnClass::kJump:
        return true;
      default:
        return false;
    }
}

CoreStats
statsDelta(const CoreStats &a, const CoreStats &b)
{
    CoreStats d;
    for (const auto &row : kCoreStatsTable)
        d.*row.member = a.*row.member - b.*row.member;
    return d;
}

void
statsAccumulate(CoreStats &s, const CoreStats &d, std::uint64_t k)
{
    for (const auto &row : kCoreStatsTable)
        s.*row.member += k * d.*row.member;
}

} // namespace

Cv32e40pCore::CoreSnapshot
Cv32e40pCore::captureSnapshot() const
{
    CoreSnapshot s;
    for (unsigned bank = 0; bank < 2; ++bank) {
        s.banks[bank][0] = 0;
        for (RegIndex r = 1; r < 32; ++r)
            s.banks[bank][r] = state_.bankReg(bank, r);
    }
    for (RegIndex r = 0; r < 32; ++r)
        s.dirty[r] = state_.regDirty(r);
    s.activeBank = state_.activeBank();
    s.pc = state_.pc();
    s.csrs = state_.csrs;
    s.lastWasLoad = lastWasLoad_;
    s.lastLoadRd = lastLoadRd_;
    s.divOperandBits = divOperandBits_;
    return s;
}

const Cv32e40pCore::StrideSlot *
Cv32e40pCore::findSlot(Addr target) const
{
    for (const StrideSlot &slot : slots_) {
        if (slot.valid && slot.target == target)
            return &slot;
    }
    return nullptr;
}

Cv32e40pCore::StrideSlot *
Cv32e40pCore::findSlot(Addr target)
{
    for (StrideSlot &slot : slots_) {
        if (slot.valid && slot.target == target)
            return &slot;
    }
    return nullptr;
}

void
Cv32e40pCore::strideAnchor(Addr target, Cycle now)
{
    if (StrideSlot *slot = findSlot(target)) {
        slot->lastTouch = now;
        return;
    }
    StrideSlot *victim = &slots_[0];
    for (StrideSlot &slot : slots_) {
        if (!slot.valid) {
            victim = &slot;
            break;
        }
        if (slot.lastTouch < victim->lastTouch)
            victim = &slot;
    }
    *victim = StrideSlot{};
    victim->valid = true;
    victim->target = target;
    victim->lastTouch = now;
}

void
Cv32e40pCore::strideVisit(Addr pc, Cycle now)
{
    StrideSlot *slot = findSlot(pc);
    if (!slot || slot->dead)
        return;
    slot->lastTouch = now;
    // Cheap pre-check: an iteration that bumped the purity epoch can
    // never confirm — count the miss without paying for a snapshot.
    if (slot->armed && slot->epoch != strideEpoch_ &&
        ++slot->misses >= kStrideMaxMisses) {
        slot->dead = true;
        return;
    }
    CoreSnapshot snap = captureSnapshot();
    if (slot->armed && slot->epoch == strideEpoch_ && snap == slot->snap) {
        // A full loop period replayed the exact machine state with only
        // pure instructions in between: execution from here is periodic
        // until the next impure op or external input.
        slot->confirmed = true;
        slot->period = now - slot->cycle;
        slot->delta = statsDelta(stats_, slot->statsAt);
        slot->misses = 0;
    } else {
        // Pure but non-recurring state (a counting loop) also misses:
        // one re-arm is expected (dirty bits stabilizing), endless
        // re-arming means the state is monotonic and never recurs.
        if (slot->armed && slot->epoch == strideEpoch_ &&
            ++slot->misses >= kStrideMaxMisses) {
            slot->dead = true;
            return;
        }
        slot->armed = true;
        slot->confirmed = false;
        slot->epoch = strideEpoch_;
        slot->snap = snap;
    }
    slot->cycle = now;
    slot->statsAt = stats_;
}

Cycle
Cv32e40pCore::stridePeriod(Cycle now) const
{
    (void)now;
    if (remaining_ > 0 || sleeping_ || exec_.interruptReady())
        return 0;
    const StrideSlot *slot = findSlot(state_.pc());
    if (!slot || !slot->confirmed || slot->epoch != strideEpoch_ ||
        slot->period == 0) {
        return 0;
    }
    // Re-verify the full state here rather than trusting the stale
    // confirmation: anything that mutated the register banks since
    // (e.g. an RTOSUnit restore FSM) voids the periodicity proof.
    if (!(captureSnapshot() == slot->snap))
        return 0;
    return slot->period;
}

void
Cv32e40pCore::applyStride(Cycle now, std::uint64_t periods)
{
    const StrideSlot *slot = findSlot(state_.pc());
    rtu_assert(slot && slot->confirmed, "stride apply without confirmation");
    statsAccumulate(stats_, slot->delta, periods);
    // The architectural state is unchanged by definition of the
    // period; only the visit bookkeeping moves forward.
    StrideSlot *mut = findSlot(state_.pc());
    mut->cycle = now + periods * mut->period;
    mut->lastTouch = mut->cycle;
    mut->statsAt = stats_;
}

Cycle
Cv32e40pCore::nextEventAt(Cycle now) const
{
    if (remaining_ > 0) {
        // An abortable stall collapses the moment an interrupt is
        // ready; otherwise the countdown is pure until the tick that
        // retires it (which may fire the mret listener).
        if (abortable_ && exec_.interruptReady())
            return now;
        return now + remaining_ - 1;
    }
    if (sleeping_)
        return exec_.pendingEnabledIrqs() != 0 ? now : kNoEvent;
    return now;
}

void
Cv32e40pCore::skipTo(Cycle now, Cycle target)
{
    const Cycle delta = target - now;
    if (remaining_ > 0) {
        rtu_assert(delta < remaining_, "skip across a stall boundary");
        remaining_ -= static_cast<unsigned>(delta);
        stats_.stallCycles += delta;
        return;
    }
    if (sleeping_)
        stats_.wfiCycles += delta;
}

// Inlined into both callers: the block loop below is the simulator's
// hottest path, and tick() runs it for every instruction it issues.
[[gnu::always_inline]] inline void
Cv32e40pCore::issue(const DecodedInsn &insn, Addr pc, Cycle now)
{
    const InsnClass cls = insn.cls;
    if (!stridePure(cls))
        strideImpure();

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

    // Capture the dividend before execution mutates the register file
    // (rd may alias rs1).
    divOperandBits_ = 0;
    if (cls == InsnClass::kDiv) {
        const Word dividend = state_.reg(insn.rs1);
        divOperandBits_ = 32 - std::countl_zero(dividend | 1);
    }

    const ExecResult res = exec_.execute(insn, pc);

    if (res.trap) {
        functionalTrap(res.trapCause, pc, now);
        remaining_ = params_.trapEntryCycles - 1;
        strideImpure();
        return;
    }

    state_.setPc(res.nextPc);
    ++stats_.instret;

    if (res.memAccess) {
        dmemPort_.claim();
        ++stats_.memOps;
    }

    if (res.isWfi)
        sleeping_ = true;

    const unsigned cost = costOf(insn, res) + extra;
    remaining_ = cost - 1;
    abortable_ =
        remaining_ > 0 && (cls == InsnClass::kDiv || cls == InsnClass::kMul);

    if (insn.op == Op::kMret) {
        ++stats_.mrets;
        if (remaining_ == 0) {
            if (listener_)
                listener_->mretCompleted(now);
        } else {
            mretInFlight_ = true;
        }
    }

    // A retiring backward control transfer marks a loop top worth
    // watching for periodicity.
    if ((res.branchTaken || cls == InsnClass::kJump) && res.nextPc < pc)
        strideAnchor(res.nextPc, now);

    lastWasLoad_ = cls == InsnClass::kLoad;
    lastLoadRd_ = insn.rd;
}

void
Cv32e40pCore::tick(Cycle now)
{
    if (remaining_ > 0) {
        // CV32E40P kills in-flight multi-cycle ALU operations so the
        // interrupt is taken with constant latency.
        if (abortable_ && exec_.interruptReady()) {
            remaining_ = 0;
            abortable_ = false;
            strideImpure();
        } else {
            --remaining_;
            ++stats_.stallCycles;
            if (remaining_ == 0 && mretInFlight_) {
                mretInFlight_ = false;
                if (listener_)
                    listener_->mretCompleted(now);
            }
            return;
        }
    }

    if (sleeping_) {
        if (exec_.pendingEnabledIrqs() != 0) {
            sleeping_ = false;
            strideImpure();
        } else {
            ++stats_.wfiCycles;
            return;
        }
    }

    if (exec_.interruptReady()) {
        const Word cause = exec_.pendingCause();
        functionalTrap(cause, state_.pc(), now);
        remaining_ = params_.trapEntryCycles - 1;
        abortable_ = false;
        lastWasLoad_ = false;
        strideImpure();
        return;
    }

    const Addr pc = state_.pc();
    const DecodedInsn insn = fetch(pc);

    if (stalledByUnit(insn)) {
        ++stats_.stallCycles;
        strideImpure();
        return;
    }

    // This is an issue cycle: if pc is a known loop top, try to prove
    // (or extend) periodicity before the instruction executes.
    strideVisit(pc, now);
    issue(insn, pc, now);
}

bool
Cv32e40pCore::strideSlotLive(Addr pc) const
{
    for (const StrideSlot &slot : slots_) {
        if (slot.valid && !slot.dead && slot.target == pc)
            return true;
    }
    return false;
}

bool
Cv32e40pCore::strideSlotLiveInRange(Addr pc, std::uint32_t words) const
{
    for (const StrideSlot &slot : slots_) {
        if (slot.valid && !slot.dead && slot.target - pc < 4u * words)
            return true;
    }
    return false;
}

Cycle
Cv32e40pCore::blockRun(Cycle now, Cycle bound)
{
    if (blockindex_ == nullptr || remaining_ > 0 || sleeping_ ||
        exec_.interruptReady()) {
        return 0;
    }

    // tick()'s other gates cannot fire in here: stop words (CSR,
    // system, custom) never run in-block, no interrupt is ready before
    // the bound, and a live stride anchor bails below. So every step
    // is issue() followed by its stall, advanced in closed form.
    Cycle t = now;
    BlockTally tally;
    while (t < bound && !tally.bailed) {
        const Addr head = state_.pc();
        if (!blockCovers(head) || strideSlotLive(head)) {
            // A live anchor: the per-cycle path must visit it or the
            // loop can never confirm (and stride skips would starve).
            // Written-off anchors flow through freely.
            tally.bailed = true;
            break;
        }
        // Block-entry fast path: a store-free run whose worst-case cost
        // (plus one inherited load-use stall of margin) fits the
        // horizon needs no per-word re-validation. Otherwise step one
        // word at a time: a store may re-form the very block being
        // executed, and the bound may land mid-instruction.
        const std::uint32_t run = blockindex_->runLenAt(head);
        const bool whole =
            !(blockindex_->flagsAt(head) & BlockIndex::kSuffixStore) &&
            t + blockindex_->worstCyclesAt(head) + params_.loadUseStall <=
                bound &&
            !strideSlotLiveInRange(head, run);

        for (std::uint32_t i = whole ? run : 1; i > 0; --i) {
            const Addr pc = state_.pc();
            // A copy, as tick() fetches one: a store may re-decode the
            // very word it executes from.
            const DecodedInsn insn = predecode_->at(pc);
            if (!blockSafe(insn)) {
                tally.bailed = true;
                break;
            }
            // The port-reset component is not ticking while we run.
            if (insn.cls == InsnClass::kLoad ||
                insn.cls == InsnClass::kStore)
                dmemPort_.beginCycle();
            ++stats_.fetchPredecoded;
            issue(insn, pc, t);
            blockRetired(tally, insn.cls);

            if (t + 1 + remaining_ > bound) {
                // The issue cycle and bound-t-1 stall cycles land
                // inside the window; the in-flight remainder resumes
                // per-cycle, exactly the reference state at the bound.
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
    }
    return blockClose(tally, now, t);
}

} // namespace rtu
