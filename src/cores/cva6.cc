#include "cva6.hh"

namespace rtu {

Cva6Core::Cva6Core(const Env &env, const Cva6Params &params)
    : Core(env), params_(params), dcache_(params.cache),
      predictor_(params.predictorEntries)
{}

Cycle
Cva6Core::nextEventAt(Cycle now) const
{
    // The background store-buffer drain is pure: the bus claims are
    // unobservable while every other port user is quiescent (the
    // kernel's precondition for skipping) and the occupancy decrement
    // is replicated closed-form by skipTo().
    Cycle at;
    if (protocolEventAt(now, at))
        return at;
    if (now < issueReadyAt_)
        return issueReadyAt_;  // interrupts sampled at issue boundaries
    if (exec_.interruptReady())
        return now < drainAt_ ? drainAt_ : now;
    return now;
}

void
Cva6Core::skipTo(Cycle now, Cycle target)
{
    const Cycle delta = target - now;
    // Closed-form store-buffer drain: one entry per cycle the bus is
    // not held by a refill.
    const Cycle busyEnd = std::min(std::max(busBusyUntil_, now), target);
    const Cycle freeCycles = target - busyEnd;
    const unsigned drained =
        static_cast<unsigned>(std::min<Cycle>(storeBuf_, freeCycles));
    storeBuf_ -= drained;

    if (sleeping_)
        stats_.wfiCycles += delta;
    else
        stats_.stallCycles += delta;
}

void
Cva6Core::busCycle(Cycle now)
{
    port_.beginCycle();
    // An in-flight refill owns the bus; otherwise the write-through
    // store buffer drains one entry per free cycle.
    if (now < busBusyUntil_) {
        port_.claim();
    } else if (storeBuf_ > 0) {
        port_.claim();
        --storeBuf_;
    }
}

void
Cva6Core::tick(Cycle now)
{
    busCycle(now);
    if (protocolTick(now))
        return;

    if (now < issueReadyAt_) {
        ++stats_.stallCycles;
        return;
    }

    if (exec_.interruptReady() && !mretPending_) {
        if (now < drainAt_) {
            // Variable-latency drain of in-flight operations: the
            // modelled source of CVA6's residual entry jitter.
            ++stats_.stallCycles;
            return;
        }
        const Word cause = exec_.pendingCause();
        functionalTrap(cause, state_.pc(), now);
        issueReadyAt_ = now + params_.trapEntryBase;
        regReadyAt_.fill(now);
        return;
    }

    issue(now);
}

void
Cva6Core::issue(Cycle now)
{
    const Addr pc = state_.pc();
    const DecodedInsn insn = fetch(pc);

    if (stalledByUnit(insn)) {
        ++stats_.stallCycles;
        issueReadyAt_ = now + 1;
        return;
    }

    // Scoreboard RAW check: sources must have completed.
    Cycle ops_ready = now;
    if (insn.useRs1)
        ops_ready = std::max(ops_ready, regReadyAt_[insn.rs1]);
    if (insn.useRs2)
        ops_ready = std::max(ops_ready, regReadyAt_[insn.rs2]);
    if (ops_ready > now) {
        // Only this attempt's cycle: tick()/skipTo() count the rest
        // while now < issueReadyAt_.
        issueReadyAt_ = ops_ready;
        ++stats_.stallCycles;
        return;
    }

    const InsnClass cls = insn.cls;

    // Structural: a full write-through buffer blocks further stores.
    if (cls == InsnClass::kStore && storeBuf_ >= params_.storeBufferDepth) {
        issueReadyAt_ = now + 1;
        ++stats_.stallCycles;
        return;
    }

    const unsigned div_bits =
        cls == InsnClass::kDiv ? divOperandBits(insn) : 0;
    const ExecResult res = exec_.execute(insn, pc);
    if (res.trap) {
        functionalTrap(res.trapCause, pc, now);
        issueReadyAt_ = now + params_.trapEntryBase;
        regReadyAt_.fill(now);
        return;
    }
    state_.setPc(res.nextPc);
    ++stats_.instret;

    Cycle complete = now + 1;
    Cycle issue_next = now + 1;

    switch (cls) {
      case InsnClass::kMul:
        complete = now + params_.mulLatency;
        break;
      case InsnClass::kDiv:
        complete = now + params_.divBaseLatency + div_bits;
        break;
      case InsnClass::kLoad: {
        ++stats_.memOps;
        if (memmap::inDmem(res.memAddr)) {
            const auto acc = dcache_.access(res.memAddr, false);
            if (acc.hit) {
                complete = now + params_.loadHitLatency;
            } else {
                ++stats_.cacheMisses;
                complete = now + params_.loadHitLatency +
                           params_.missPenalty;
                busBusyUntil_ = std::max(busBusyUntil_, now) +
                                params_.missPenalty;
            }
        } else {
            // Uncached device access occupies the bus for one beat.
            complete = now + params_.loadHitLatency + 1;
            busBusyUntil_ = std::max(busBusyUntil_, now + 1);
        }
        break;
      }
      case InsnClass::kStore: {
        ++stats_.memOps;
        if (memmap::inDmem(res.memAddr))
            dcache_.access(res.memAddr, true);
        ++storeBuf_;  // drains through the bus in the background
        break;
      }
      case InsnClass::kBranch:
        if (predictor_.resolve(pc, res.branchTaken)) {
            ++stats_.branchMispredicts;
            issue_next = now + 1 + params_.mispredictPenalty;
        }
        break;
      case InsnClass::kJump:
        issue_next = now + (insn.op == Op::kJal ? params_.jalCycles
                                                : params_.jalrCycles);
        break;
      case InsnClass::kSystem:
        if (insn.op == Op::kMret) {
            issue_next = now + params_.mretCycles;
            mretIssued(issue_next - 1);
        } else if (res.isWfi) {
            sleeping_ = true;
        }
        break;
      default:
        break;
    }

    if (insn.hasRd && insn.rd != 0)
        regReadyAt_[insn.rd] = complete;
    drainAt_ = std::max(drainAt_, complete);
    issueReadyAt_ = std::max(issue_next, now + 1);
}

Cycle
Cva6Core::blockRun(Cycle now, Cycle bound)
{
    if (!blockEntryOpen())
        return 0;

    Cycle t = now;
    BlockTally tally;
    while (t < bound) {
        if (t < issueReadyAt_) {
            // Committed stall cycles up to the issue boundary; nothing
            // in-block sleeps, traps or returns, so skipTo() is exact.
            const Cycle adv = std::min(issueReadyAt_, bound);
            skipTo(t, adv);
            t = adv;
            continue;
        }

        // Pre-validate before applying any cycle-t effect, so a bail
        // leaves cycle t wholly unconsumed for the per-cycle path.
        // Re-checked every word: an in-block store to text may have
        // re-decoded the very word about to run.
        const DecodedInsn *insn = blockInsnAt(state_.pc());
        if (!insn) {
            tally.bailed = true;
            break;
        }
        const InsnClass cls = insn->cls;

        // Cycle t is committed.
        busCycle(t);

        // issue() applies RAW / store-buffer-full stalls by itself; a
        // stalled attempt retires nothing and is retried next cycle,
        // exactly as tick() would.
        const std::uint64_t before = stats_.instret;
        issue(t);
        if (stats_.instret != before)
            blockRetired(tally, cls);
        t += 1;
    }
    return blockClose(tally, now, t);
}

} // namespace rtu
