#include "nax.hh"

namespace rtu {

// ---- ctxQueue port -------------------------------------------------------

void
NaxCtxQueuePort::pushRead(Addr addr)
{
    rtu_assert(canAccept(), "ctxQueue overflow");
    queue_.push_back({true, addr, 0});
    ++stats_.reads;
}

void
NaxCtxQueuePort::pushWrite(Addr addr, Word data)
{
    rtu_assert(canAccept(), "ctxQueue overflow");
    queue_.push_back({false, addr, data});
    ++stats_.writes;
}

bool
NaxCtxQueuePort::popResponse(Word *data)
{
    if (responses_.empty())
        return false;
    *data = responses_.front();
    responses_.pop_front();
    return true;
}

bool
NaxCtxQueuePort::idle() const
{
    return queue_.empty() && responses_.empty();
}

void
NaxCtxQueuePort::tick()
{
    ++now_;
    if (queue_.empty())
        return;

    // Issue the oldest unserviced entry into the pipelined cache:
    // one issue per cycle on a free D$ port (the core's LSU has
    // priority); a miss blocks further issues until the refill is
    // done. Deeper queues therefore cover the cache's hit latency —
    // the mechanism behind the paper's Pareto-optimal depth of 8.
    Entry *next = nullptr;
    for (Entry &e : queue_) {
        if (!e.serviced) {
            next = &e;
            break;
        }
    }
    if (next && now_ >= pipeBlockedUntil_) {
        if (cachePort_.tryUse()) {
            const auto acc = dcache_.access(next->addr, !next->isRead);
            unsigned lat = params_.loadHitLatency;
            if (!acc.hit) {
                lat += params_.missPenalty;
                pipeBlockedUntil_ = now_ + params_.missPenalty;
            }
            if (acc.writeback) {
                lat += params_.writebackPenalty;
                pipeBlockedUntil_ =
                    std::max(pipeBlockedUntil_, now_) +
                    params_.writebackPenalty;
            }
            next->serviced = true;
            next->doneAt = now_ + lat;
        } else {
            ++stats_.rejectCycles;
        }
    }

    // Complete strictly in order.
    while (!queue_.empty() && queue_.front().serviced &&
           queue_.front().doneAt <= now_) {
        Entry &head = queue_.front();
        if (head.isRead)
            responses_.push_back(mem_.read32(head.addr));
        else
            mem_.write32(head.addr, head.data);
        queue_.pop_front();
    }
}

// ---- core ------------------------------------------------------------------

NaxCore::NaxCore(const Env &env, const NaxParams &params)
    : Core(env), params_(params), dcache_(params.cache),
      ctxPort_(*env.mem, dcache_, port_, params_),
      predictor_(params.predictorEntries)
{}

void
NaxCore::retire(Cycle now)
{
    while (!rob_.empty() && rob_.front() <= now)
        rob_.pop_front();
}

Cycle
NaxCore::nextEventAt(Cycle now) const
{
    // The per-cycle port_.beginCycle()/claim() bookkeeping is
    // unobservable while the ctxQueue (the only other port user) is
    // quiescent — the kernel's precondition for skipping.
    Cycle at;
    if (protocolEventAt(now, at))
        return at;
    if (exec_.interruptReady()) {
        // Taken at the first commit boundary; until then the core only
        // burns stall cycles (and deliberately does not retire).
        if (!rob_.empty() && rob_.front() > now)
            return rob_.front();
        return now;
    }
    if (now < dispatchBlockedUntil_)
        return dispatchBlockedUntil_;
    return now;
}

void
NaxCore::skipTo(Cycle now, Cycle target)
{
    const Cycle delta = target - now;
    if (mretPending_) {
        retire(target - 1);
        stats_.stallCycles += delta;
        return;
    }
    if (sleeping_) {
        stats_.wfiCycles += delta;
        return;
    }
    if (exec_.interruptReady()) {
        // Waiting for the commit boundary: the reference path returns
        // before retire(), so the ROB must stay put here too.
        stats_.stallCycles += delta;
        return;
    }
    retire(target - 1);
    stats_.stallCycles += delta;
}

void
NaxCore::portCycle(Cycle now)
{
    port_.beginCycle();
    // A refill in flight owns the D$ port.
    if (now < cacheBusyUntil_)
        port_.claim();
}

void
NaxCore::tick(Cycle now)
{
    portCycle(now);
    if (protocolTick(now))
        return;

    // Interrupts redirect the front-end themselves, so a pending
    // branch/mret redirect (dispatchBlockedUntil_) does not delay
    // entry. The interrupt is taken at the *first* commit boundary:
    // the oldest in-flight instruction completes (its latency — a
    // divide, a missing load — is the modelled source of NaxRiscv's
    // residual entry jitter) and everything younger is squashed.
    // This check runs before retire() so the boundary is observed,
    // not consumed.
    if (exec_.interruptReady() && !mretPending_) {
        if (!rob_.empty() && rob_.front() > now) {
            ++stats_.stallCycles;
            return;
        }
        rob_.clear();
        const Word cause = exec_.pendingCause();
        functionalTrap(cause, state_.pc(), now);
        dispatchBlockedUntil_ = now + params_.trapEntryPenalty;
        regReadyAt_.fill(now);
        aluFreeAt_.fill(now);
        mulDivFreeAt_ = now;
        lsuFreeAt_ = now;
        drainAt_ = now;
        lastCommitAt_ = now;
        commitsAtLast_ = 0;
        return;
    }

    retire(now);

    if (now < dispatchBlockedUntil_) {
        ++stats_.stallCycles;
        return;
    }

    for (unsigned slot = 0; slot < kDispatchWidth; ++slot) {
        if (!dispatchOne(now))
            break;
    }
}

bool
NaxCore::dispatchOne(Cycle now)
{
    if (rob_.size() >= params_.robEntries) {
        ++stats_.stallCycles;
        return false;
    }

    const Addr pc = state_.pc();
    const DecodedInsn insn = fetch(pc);

    if (stalledByUnit(insn)) {
        ++stats_.stallCycles;
        return false;
    }

    // Operand readiness via renamed dataflow (RAW only).
    Cycle ops_ready = now;
    if (insn.useRs1)
        ops_ready = std::max(ops_ready, regReadyAt_[insn.rs1]);
    if (insn.useRs2)
        ops_ready = std::max(ops_ready, regReadyAt_[insn.rs2]);

    const InsnClass cls = insn.cls;

    const unsigned div_bits =
        cls == InsnClass::kDiv ? divOperandBits(insn) : 0;
    const ExecResult res = exec_.execute(insn, pc);
    if (res.trap) {
        functionalTrap(res.trapCause, pc, now);
        dispatchBlockedUntil_ = now + params_.trapEntryPenalty;
        return false;
    }
    state_.setPc(res.nextPc);
    ++stats_.instret;

    Cycle complete;
    bool block_group = false;

    switch (cls) {
      case InsnClass::kMul: {
        const Cycle start = std::max(ops_ready, mulDivFreeAt_);
        mulDivFreeAt_ = start + 1;  // pipelined
        complete = start + params_.mulLatency;
        break;
      }
      case InsnClass::kDiv: {
        const Cycle start = std::max(ops_ready, mulDivFreeAt_);
        const unsigned lat = params_.divBaseLatency + div_bits;
        mulDivFreeAt_ = start + lat;  // iterative, not pipelined
        complete = start + lat;
        break;
      }
      case InsnClass::kLoad: {
        ++stats_.memOps;
        const Cycle start = std::max(ops_ready, lsuFreeAt_);
        lsuFreeAt_ = start + 1;
        if (!port_.claimed())
            port_.claim();
        unsigned lat = params_.loadHitLatency;
        if (memmap::inDmem(res.memAddr)) {
            const auto acc = dcache_.access(res.memAddr, false);
            if (!acc.hit) {
                ++stats_.cacheMisses;
                lat += params_.missPenalty;
                cacheBusyUntil_ = std::max(cacheBusyUntil_, start) +
                                  params_.missPenalty;
            }
            if (acc.writeback) {
                lat += params_.writebackPenalty;
                cacheBusyUntil_ += params_.writebackPenalty;
            }
        } else {
            lat += 2;  // uncached device access
        }
        complete = start + lat;
        break;
      }
      case InsnClass::kStore: {
        ++stats_.memOps;
        const Cycle start = std::max(ops_ready, lsuFreeAt_);
        lsuFreeAt_ = start + 1;
        if (!port_.claimed())
            port_.claim();
        if (memmap::inDmem(res.memAddr)) {
            const auto acc = dcache_.access(res.memAddr, true);
            if (!acc.hit) {
                ++stats_.cacheMisses;
                cacheBusyUntil_ = std::max(cacheBusyUntil_, start) +
                                  params_.missPenalty;
            }
            if (acc.writeback)
                cacheBusyUntil_ += params_.writebackPenalty;
        }
        complete = start + 1;
        break;
      }
      case InsnClass::kBranch: {
        const Cycle start = std::max(
            ops_ready, std::min(aluFreeAt_[0], aluFreeAt_[1]));
        auto &fu = aluFreeAt_[aluFreeAt_[0] <= aluFreeAt_[1] ? 0 : 1];
        fu = start + 1;
        complete = start + 1;
        if (predictor_.resolve(pc, res.branchTaken)) {
            ++stats_.branchMispredicts;
            // Front-end redirect after the branch resolves.
            dispatchBlockedUntil_ = complete + params_.redirectPenalty;
            block_group = true;
        }
        break;
      }
      case InsnClass::kJump: {
        complete = now + 1;
        if (insn.op == Op::kJalr) {
            // Indirect target resolves at execute; short redirect.
            dispatchBlockedUntil_ = std::max(ops_ready, now) + 2;
            block_group = true;
        }
        break;
      }
      case InsnClass::kSystem: {
        complete = std::max(ops_ready, now) + 1;
        if (insn.op == Op::kMret) {
            const Cycle done = std::max(drainAt_, complete) +
                               params_.mretPenalty;
            dispatchBlockedUntil_ = done;
            mretIssued(done - 1);
            block_group = true;
        } else if (res.isWfi) {
            sleeping_ = true;
            block_group = true;
        }
        break;
      }
      default: {
        // ALU / CSR / custom through an ALU pipe.
        const Cycle start = std::max(
            ops_ready, std::min(aluFreeAt_[0], aluFreeAt_[1]));
        auto &fu = aluFreeAt_[aluFreeAt_[0] <= aluFreeAt_[1] ? 0 : 1];
        fu = start + 1;
        complete = start + 1;
        break;
      }
    }

    // In-order commit, up to kDispatchWidth per cycle.
    Cycle commit = std::max(complete, lastCommitAt_);
    if (commit == lastCommitAt_ && commitsAtLast_ >= kDispatchWidth)
        commit += 1;
    if (commit == lastCommitAt_) {
        ++commitsAtLast_;
    } else {
        lastCommitAt_ = commit;
        commitsAtLast_ = 1;
    }
    rob_.push_back(commit);
    drainAt_ = commit;

    if (insn.hasRd && insn.rd != 0)
        regReadyAt_[insn.rd] = complete;

    return !block_group;
}

Cycle
NaxCore::blockRun(Cycle now, Cycle bound)
{
    if (!blockEntryOpen())
        return 0;

    Cycle t = now;
    BlockTally tally;
    while (t < bound) {
        if (t < dispatchBlockedUntil_) {
            // Committed redirect/trap-shadow stall cycles; nothing
            // in-block sleeps, traps or returns, so skipTo() is exact.
            const Cycle adv = std::min(dispatchBlockedUntil_, bound);
            skipTo(t, adv);
            t = adv;
            continue;
        }

        // Cycle-t prelude, as tick() runs it with no interrupt ready.
        // Re-running it after a bail at this cycle is harmless:
        // beginCycle/claim are unobservable while the ctxQueue is
        // quiescent, retire() is idempotent for a fixed cycle.
        portCycle(t);
        retire(t);

        if (rob_.size() >= params_.robEntries) {
            ++stats_.stallCycles;  // slot 0 stalls, the group breaks
            t += 1;
            continue;
        }

        // ---- group pre-verification (no effects until it passes) ----
        const Addr pc0 = state_.pc();
        const DecodedInsn *insn0 = blockInsnAt(pc0);
        if (!insn0) {
            tally.bailed = true;
            break;
        }
        const InsnClass cls0 = insn0->cls;

        // Resolve slot 0's control flow without executing it, to learn
        // the group width and slot 1's pc.
        bool one_wide = false;
        Addr pc1 = pc0 + 4;
        if (cls0 == InsnClass::kBranch) {
            const bool taken = Executor::evalBranch(
                insn0->op, state_.reg(insn0->rs1), state_.reg(insn0->rs2));
            if (predictor_.predictTaken(pc0) != taken)
                one_wide = true;  // mispredict redirects the front-end
            if (taken)
                pc1 = pc0 + static_cast<Word>(insn0->imm);
        } else if (cls0 == InsnClass::kJump) {
            if (insn0->op == Op::kJal)
                pc1 = pc0 + static_cast<Word>(insn0->imm);
            else
                one_wide = true;  // jalr resolves at execute: redirect
        }

        InsnClass cls1 = InsnClass::kAlu;
        if (!one_wide) {
            const DecodedInsn *insn1 = blockInsnAt(pc1);
            // Slot 0's result may feed slot 1's address register; the
            // address can't be checked before slot 0 runs.
            const bool mem1 = insn1 && (insn1->cls == InsnClass::kLoad ||
                                        insn1->cls == InsnClass::kStore);
            if (!insn1 || (mem1 && insn0->hasRd && insn0->rd != 0 &&
                           insn1->useRs1 && insn1->rs1 == insn0->rd)) {
                tally.bailed = true;
                break;
            }
            // A slot-0 store that lands on slot 1's instruction word
            // re-decodes it before the per-cycle path would fetch it;
            // the pre-verification above would be stale.
            if (cls0 == InsnClass::kStore) {
                const Addr ea0 = effectiveAddr(*insn0);
                if (ea0 < pc1 + 4 && ea0 + accessSize(insn0->op) > pc1) {
                    tally.bailed = true;
                    break;
                }
            }
            cls1 = insn1->cls;
        }

        // ---- dispatch, exactly tick()'s slot loop ----
        std::uint64_t before = stats_.instret;
        const bool cont = dispatchOne(t);
        if (stats_.instret != before)
            blockRetired(tally, cls0);
        if (cont && !one_wide) {
            before = stats_.instret;
            dispatchOne(t);  // may stall on a full ROB, as tick() would
            if (stats_.instret != before)
                blockRetired(tally, cls1);
        }
        t += 1;
    }
    return blockClose(tally, now, t);
}

} // namespace rtu
