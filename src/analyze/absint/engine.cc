#include "engine.hh"

#include <algorithm>
#include <deque>

#include "common/logging.hh"

namespace rtu {

namespace {

// Caller-saved registers under the kernel convention verified by lint
// pass 2: t0-t2, t3-t6, a0-a7. ra is handled explicitly at calls.
constexpr unsigned kCallerSaved[] = {5, 6, 7, 10, 11, 12, 13, 14,
                                     15, 16, 17, 28, 29, 30, 31};

constexpr unsigned kSpReg = 2;
constexpr unsigned kRaReg = 1;
constexpr unsigned kA0Reg = 10;

/** Outer (memory / entry-state) fixpoint round cap. */
constexpr unsigned kMaxOuterRounds = 24;
/** Round at which memory/entry joins switch to widening. */
constexpr unsigned kWidenRound = 4;
/** Loop-head visits before register widening kicks in. */
constexpr unsigned kWideningDelay = 2;
/** Descending (narrowing) sweeps after the widened fixpoint. */
constexpr unsigned kNarrowSweeps = 2;
/** Block-transfer budget per function fixpoint (safety valve). */
constexpr unsigned kBlockVisitBudget = 20'000;


/** Exact predicate on two concrete words. */
bool
concretePred(Op op, std::int64_t x, std::int64_t y)
{
    const auto a = static_cast<std::uint32_t>(x);
    const auto b = static_cast<std::uint32_t>(y);
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    switch (op) {
      case Op::kBeq: return a == b;
      case Op::kBne: return a != b;
      case Op::kBlt: return sa < sb;
      case Op::kBge: return sa >= sb;
      case Op::kBltu: return a < b;
      case Op::kBgeu: return a >= b;
      default:
        panic("not a branch predicate: %s", opName(op));
    }
}

/** Predicate outcome when both operands are the same register. */
bool
predOnEqualOperands(Op op)
{
    switch (op) {
      case Op::kBeq: case Op::kBge: case Op::kBgeu: return true;
      case Op::kBne: case Op::kBlt: case Op::kBltu: return false;
      default:
        panic("not a branch predicate: %s", opName(op));
    }
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // namespace

// ---- RegState --------------------------------------------------------------

bool
RegState::operator==(const RegState &o) const
{
    if (live != o.live)
        return false;
    if (!live)
        return true;
    return v == o.v;
}

RegState
RegState::join(const RegState &a, const RegState &b)
{
    if (!a.live)
        return b;
    if (!b.live)
        return a;
    RegState out;
    out.live = true;
    for (unsigned i = 0; i < kNumSlots; ++i)
        out.v[i] = AbsVal::join(a.v[i], b.v[i]);
    return out;
}

RegState
RegState::widen(const RegState &prev, const RegState &next)
{
    if (!prev.live)
        return next;
    if (!next.live)
        return prev;
    RegState out;
    out.live = true;
    for (unsigned i = 0; i < kNumSlots; ++i)
        out.v[i] = AbsVal::widen(prev.v[i], next.v[i]);
    return out;
}

// ---- decisions -------------------------------------------------------------

std::optional<bool>
absDecide(Op op, const AbsVal &a, const AbsVal &b)
{
    if (a.isBottom() || b.isBottom())
        return std::nullopt;
    if (a.hasSet && b.hasSet &&
        a.consts.size() * b.consts.size() <= 4 * AbsVal::kMaxConsts) {
        bool sawTrue = false, sawFalse = false;
        for (std::int64_t x : a.consts) {
            for (std::int64_t y : b.consts) {
                (concretePred(op, x, y) ? sawTrue : sawFalse) = true;
                if (sawTrue && sawFalse)
                    return std::nullopt;
            }
        }
        return sawTrue;
    }
    return Interval::decide(op, a.iv, b.iv);
}

// ---- engine ----------------------------------------------------------------

AbsintEngine::AbsintEngine(const Program &program)
    : program_(program), cfg_(program)
{
    dataBase_ = program.dataBase;
    dataEnd_ = program.dataBase +
               static_cast<Addr>(program.data.size()) * 4;
    buildStackRanges();
    buildDataObjects();
    buildRegions();
}

void
AbsintEngine::buildDataObjects()
{
    std::vector<Addr> starts;
    for (const auto &[name, addr] : program_.symbols)
        if (addr >= dataBase_ && addr < dataEnd_)
            starts.push_back(addr);
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()),
                 starts.end());
    for (size_t i = 0; i < starts.size(); ++i) {
        const Addr begin = starts[i];
        const Addr end =
            i + 1 < starts.size() ? starts[i + 1] : dataEnd_;
        dataObjects_.emplace_back(begin, end);
        // One-word objects are scalars: the generators only ever
        // address them through a direct `la` (assumption list).
        if (end - begin <= 4)
            scalarCells_.insert(begin);
    }
    // Kernel-invariant clamp: the ready-priority index scalar stays a
    // valid k_ready_lists index (idle keeps priority 0 occupied, and
    // the runtime oracles check every list access in range), so the
    // select scan's abstract underflow cannot accumulate in the cell
    // and diverge the whole priority domain. List heads are 32-byte
    // nodes, the same generator layout contract that names them.
    const auto prio = program_.symbols.find("k_top_ready_prio");
    if (prio != program_.symbols.end()) {
        std::int64_t maxPrio = 31;
        const auto lists = program_.symbols.find("k_ready_lists");
        if (lists != program_.symbols.end()) {
            const Interval ext = objectExtent(lists->second);
            if (!ext.isBottom())
                maxPrio = (ext.hi + 1 - ext.lo) / 32 - 1;
        }
        invariantCells_[prio->second] = Interval::range(0, maxPrio);
    }
}

Interval
AbsintEngine::objectExtent(Addr a) const
{
    auto it = std::upper_bound(
        dataObjects_.begin(), dataObjects_.end(), a,
        [](Addr v, const std::pair<Addr, Addr> &o) {
            return v < o.first;
        });
    if (it == dataObjects_.begin())
        return Interval::bottom();
    --it;
    if (a >= it->second)
        return Interval::bottom();
    return Interval::range(it->first,
                           static_cast<std::int64_t>(it->second) - 1);
}

void
AbsintEngine::buildStackRanges()
{
    // Stack regions by the generator's naming contract: an array
    // symbol "X" paired with a top-marker symbol "X_top" immediately
    // after it, for X in {k_stack_<i>, k_isr_stack}. Programs without
    // these symbols (unit fixtures) simply have no stack window.
    for (const auto &[name, addr] : program_.symbols) {
        if (name != "k_isr_stack" && !(startsWith(name, "k_stack_") &&
                                       name.find("_top") == std::string::npos))
            continue;
        const auto top = program_.symbols.find(name + "_top");
        if (top == program_.symbols.end() || top->second <= addr)
            continue;
        stackRanges_.emplace_back(addr, top->second);
    }
    std::sort(stackRanges_.begin(), stackRanges_.end());
    for (const auto &[lo, hi] : stackRanges_)
        stackWindow_ = Interval::join(stackWindow_,
                                      Interval::range(lo, hi));
}

void
AbsintEngine::buildRegions()
{
    const Addr textEnd =
        program_.textBase + static_cast<Addr>(program_.text.size()) * 4;
    std::vector<Region> fns;
    for (const auto &[name, range] : program_.functions)
        fns.push_back({name, range.first, range.second, false});
    std::sort(fns.begin(), fns.end(),
              [](const Region &a, const Region &b) {
                  return a.begin < b.begin;
              });
    // Synthesize gap regions so fixture code outside any fnBegin()
    // still gets analyzed (rooted at the gap start).
    Addr cursor = program_.textBase;
    for (const Region &f : fns) {
        if (f.begin > cursor)
            regions_.push_back({"", cursor, f.begin, false});
        regions_.push_back(f);
        cursor = std::max(cursor, f.end);
    }
    if (cursor < textEnd)
        regions_.push_back({"", cursor, textEnd, false});

    for (const auto &[leader, bb] : cfg_.blocks())
        if (bb.term == TermKind::kCall)
            callTargets_.insert(bb.takenTarget);
    // A named region that is never called and is not a generator
    // entry point is dead code: skip it instead of analyzing it from
    // an unconstrained entry, which would poison the shared memory
    // with stores no execution performs. Nameless gap regions (unit
    // fixtures without fnBegin) always stay live.
    const auto entryPoint = [](const std::string &name) {
        return name == "_start" || name == "k_isr" ||
               name == "k_fatal_sync" || startsWith(name, "k_task_");
    };
    // Cross-region jumps (trap dispatch, shared tails) keep their
    // target live even without a call site.
    std::set<Addr> jumpEntries;
    for (const auto &[leader, bb] : cfg_.blocks()) {
        if (bb.term != TermKind::kJump && bb.term != TermKind::kBranch)
            continue;
        const Region *src = regionContaining(leader);
        const Region *dst = regionContaining(bb.takenTarget);
        if (src && dst && src != dst)
            jumpEntries.insert(dst->begin);
    }
    for (Region &r : regions_) {
        r.root = !callTargets_.count(r.begin);
        if (r.root && !r.name.empty() && !entryPoint(r.name) &&
            !jumpEntries.count(r.begin))
            r.analyzed = false;
    }
}

RegState
AbsintEngine::rootEntry() const
{
    RegState st;
    st.live = true;
    st.v[0] = AbsVal::constant(0);
    // Root code (boot, trap entry, task bodies) runs with sp inside
    // some generated stack region; see the header's assumption list.
    if (!stackWindow_.isBottom())
        st.v[kSpReg] = AbsVal::fromInterval(stackWindow_);
    return st;
}

const AbsintEngine::Region *
AbsintEngine::regionContaining(Addr pc) const
{
    for (const Region &r : regions_)
        if (pc >= r.begin && pc < r.end)
            return &r;
    return nullptr;
}

bool
AbsintEngine::inData(Addr a) const
{
    return a >= dataBase_ && a < dataEnd_;
}

bool
AbsintEngine::inStack(Addr a) const
{
    for (const auto &[lo, hi] : stackRanges_) {
        if (a < lo)
            return false;
        if (a < hi)
            return true;
    }
    return false;
}

AbsVal
AbsintEngine::cellValue(Addr addr) const
{
    const Addr a = addr & ~Addr{3};
    if (!inData(a) || inStack(a))
        return AbsVal::top();
    for (const auto &[lo, hi] : havocRanges_)
        if (a >= lo && a <= hi)
            return AbsVal::top();
    const auto it = cells_.find(a);
    if (it != cells_.end())
        return it->second;
    const Word init = program_.data[(a - dataBase_) / 4];
    return AbsVal::constant(static_cast<std::int32_t>(init));
}

void
AbsintEngine::joinCell(Addr cell, const AbsVal &val)
{
    AbsVal v = val;
    // Kernel-invariant clamp (assumption list): values outside the
    // documented invariant cannot be committed to the cell at runtime.
    const auto inv = invariantCells_.find(cell);
    if (inv != invariantCells_.end()) {
        v = v.refined(inv->second);
        if (v.isBottom())
            return;
    }
    const AbsVal cur = cellValue(cell);
    AbsVal next = AbsVal::join(cur, v);
    if (round_ >= kWidenRound)
        next = AbsVal::widen(cur, next);
    if (!(next == cur)) {
        cells_[cell] = next;
        changed_ = true;
    }
}

AbsVal
AbsintEngine::loadWord(const AbsVal &addr) const
{
    if (addr.isBottom())
        return AbsVal::bottom();
    if (addr.hasSet) {
        const bool computed = addr.consts.size() > 1;
        AbsVal acc = AbsVal::bottom();
        for (std::int64_t c : addr.consts) {
            if (c == 0)
                continue;  // null is never dereferenced (assumption)
            const Addr a = static_cast<Addr>(c);
            if (computed &&
                (!inData(a) || (a & 3) || scalarCells_.count(a))) {
                // Computed pointer sets only address multi-word data
                // objects (assumption list): a scalar, misaligned, or
                // out-of-image member is an index-underflow artifact
                // of the abstraction and cannot be the runtime
                // address -- drop it instead of degrading to top.
                continue;
            }
            if (!inData(a) || inStack(a) || (a & 3)) {
                acc = AbsVal::join(acc, AbsVal::top());
                continue;
            }
            acc = AbsVal::join(acc, cellValue(a));
        }
        return acc.isBottom() ? AbsVal::top() : acc;
    }
    const Interval &iv = addr.iv;
    const Interval data = Interval::range(dataBase_,
                                          static_cast<std::int64_t>(dataEnd_) - 1);
    const Interval m = Interval::meet(iv, data);
    if (m.isBottom())
        return AbsVal::top();  // device / csr-mapped read
    if (!(iv.lo >= data.lo && iv.hi <= data.hi))
        return AbsVal::top();  // partially outside the data image
    for (const auto &[lo, hi] : stackRanges_)
        if (!(iv.hi < static_cast<std::int64_t>(lo) ||
              iv.lo >= static_cast<std::int64_t>(hi)))
            return AbsVal::top();  // may read the stack
    const Addr first = static_cast<Addr>(m.lo) & ~Addr{3};
    const Addr last = static_cast<Addr>(m.hi) & ~Addr{3};
    // A word-multiple congruence on the address skips the cells the
    // access provably cannot touch (e.g. one struct field per array
    // element instead of every word of the array).
    const Addr step = addr.stride > 4 && addr.stride % 4 == 0
                          ? static_cast<Addr>(addr.stride)
                          : 4;
    if ((last - first) / step + 1 > 64)
        return AbsVal::top();
    AbsVal acc = AbsVal::bottom();
    for (Addr a = first; a <= last; a += step)
        acc = AbsVal::join(acc, cellValue(a));
    return acc.isBottom() ? AbsVal::top() : acc;
}

AbsVal
AbsintEngine::loadSized(const AbsVal &addr, Op op) const
{
    switch (op) {
      case Op::kLw:
        return loadWord(addr);
      case Op::kLb:
        return AbsVal::fromInterval(Interval::range(-128, 127));
      case Op::kLbu:
        return AbsVal::fromInterval(Interval::range(0, 255));
      case Op::kLh:
        return AbsVal::fromInterval(Interval::range(-32768, 32767));
      case Op::kLhu:
        return AbsVal::fromInterval(Interval::range(0, 65535));
      default:
        return AbsVal::top();
    }
}

void
AbsintEngine::storeWord(const AbsVal &addr, const AbsVal &val)
{
    if (addr.isBottom() || val.isBottom())
        return;  // unreachable store
    if (addr.hasSet) {
        const bool computed = addr.consts.size() > 1;
        for (std::int64_t c : addr.consts) {
            if (c == 0)
                continue;
            const Addr a = static_cast<Addr>(c);
            if (!inData(a) || inStack(a))
                continue;  // device write or stack summary
            if (computed && scalarCells_.count(a))
                continue;  // underflow artifact (assumption list)
            joinCell(a, val);
        }
        return;
    }
    const Interval &iv = addr.iv;
    // A non-singleton interval address that may point into a stack
    // region is a stack pointer by the engine's environment
    // assumptions; kernel data cells are addressed exactly.
    for (const auto &[lo, hi] : stackRanges_)
        if (!(iv.hi < static_cast<std::int64_t>(lo) ||
              iv.lo >= static_cast<std::int64_t>(hi)))
            return;
    const Interval data = Interval::range(dataBase_,
                                          static_cast<std::int64_t>(dataEnd_) - 1);
    const Interval m = Interval::meet(iv, data);
    if (m.isBottom())
        return;
    std::int64_t lo = m.lo;
    Addr step = 4;
    if (addr.stride > 4 && addr.stride % 4 == 0) {
        // Re-align the clipped bound to the address congruence so the
        // stride walk below starts on a reachable cell.
        step = static_cast<Addr>(addr.stride);
        const std::int64_t off = (iv.lo - lo) % addr.stride;
        lo += (off + addr.stride) % addr.stride;
        if (lo > m.hi)
            return;
    }
    const Addr first = static_cast<Addr>(lo) & ~Addr{3};
    const Addr last = static_cast<Addr>(m.hi) & ~Addr{3};
    if ((last - first) / step + 1 <= 64) {
        for (Addr a = first; a <= last; a += step)
            joinCell(a, val);
        return;
    }
    // Wide unresolved store: havoc the whole range once.
    for (const auto &[lo, hi] : havocRanges_)
        if (first >= lo && last <= hi)
            return;
    havocRanges_.emplace_back(first, last);
    changed_ = true;
}

AbsVal
AbsintEngine::value(const RegState &st, unsigned reg) const
{
    if (reg == 0)
        return AbsVal::constant(0);
    return st.v[reg];
}

void
AbsintEngine::applyInsn(Addr pc, const DecodedInsn &d, RegState &st)
{
    const auto setRd = [&](const AbsVal &v) {
        if (d.rd != 0)
            st.v[d.rd] = v;
    };
    switch (d.op) {
      case Op::kLui:
        setRd(AbsVal::constant(static_cast<std::int32_t>(
            static_cast<Word>(d.imm) << 12)));
        return;
      case Op::kAuipc:
        setRd(AbsVal::constant(static_cast<std::int32_t>(
            pc + (static_cast<Word>(d.imm) << 12))));
        return;
      case Op::kLb: case Op::kLh: case Op::kLw:
      case Op::kLbu: case Op::kLhu: {
        const AbsVal addr = absEval(Op::kAdd, value(st, d.rs1),
                                    AbsVal::constant(d.imm));
        setRd(loadSized(addr, d.op));
        return;
      }
      case Op::kSb: case Op::kSh: case Op::kSw: {
        const AbsVal addr = absEval(Op::kAdd, value(st, d.rs1),
                                    AbsVal::constant(d.imm));
        // Sub-word stores degrade the containing cell.
        storeWord(addr, d.op == Op::kSw ? value(st, d.rs2)
                                        : AbsVal::top());
        return;
      }
      case Op::kAddi: case Op::kSlti: case Op::kSltiu:
      case Op::kXori: case Op::kOri: case Op::kAndi:
      case Op::kSlli: case Op::kSrli: case Op::kSrai:
        setRd(absEval(d.op, value(st, d.rs1), AbsVal::constant(d.imm)));
        return;
      case Op::kAdd: case Op::kSub: case Op::kSll: case Op::kSlt:
      case Op::kSltu: case Op::kXor: case Op::kSrl: case Op::kSra:
      case Op::kOr: case Op::kAnd:
      case Op::kMul: case Op::kMulh: case Op::kMulhsu: case Op::kMulhu:
      case Op::kDiv: case Op::kDivu: case Op::kRem: case Op::kRemu: {
        const AbsVal a = value(st, d.rs1);
        const AbsVal b = value(st, d.rs2);
        AbsVal r = absEval(d.op, a, b);
        // Indexed addressing stays inside the addressed object
        // (assumption list): when exactly one operand of an `add` is
        // a data-symbol base, clamp the result to that symbol's
        // extent -- interval results are met with the extent, set
        // results have their underflowed members filtered -- so a
        // diverged index cannot alias the neighbouring objects.
        if (d.op == Op::kAdd && !r.isBottom()) {
            const AbsVal *base = nullptr;
            if (a.isConst() && !b.isConst() &&
                inData(static_cast<Addr>(a.constValue())))
                base = &a;
            else if (b.isConst() && !a.isConst() &&
                     inData(static_cast<Addr>(b.constValue())))
                base = &b;
            if (base) {
                const Interval ext =
                    objectExtent(static_cast<Addr>(base->constValue()));
                const AbsVal clamped =
                    ext.isBottom() ? AbsVal::bottom() : r.refined(ext);
                if (!clamped.isBottom())
                    r = clamped;
            }
        }
        setRd(r);
        return;
      }
      case Op::kCsrrw: {
        const AbsVal old = d.csr == csr::kMscratch
                               ? st.v[RegState::kMscratchSlot]
                               : AbsVal::top();
        if (d.csr == csr::kMscratch)
            st.v[RegState::kMscratchSlot] = value(st, d.rs1);
        setRd(old);
        return;
      }
      case Op::kCsrrs: case Op::kCsrrc: {
        const AbsVal old = d.csr == csr::kMscratch
                               ? st.v[RegState::kMscratchSlot]
                               : AbsVal::top();
        if (d.csr == csr::kMscratch && d.rs1 != 0)
            st.v[RegState::kMscratchSlot] = AbsVal::top();
        setRd(old);
        return;
      }
      case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
        if (d.csr == csr::kMscratch)
            st.v[RegState::kMscratchSlot] = AbsVal::top();
        setRd(AbsVal::top());
        return;
      case Op::kGetHwSched:
        // Only ids previously inserted into the hardware lists can
        // come back out (assumption list in the header).
        setRd(hwListIds_);
        return;
      case Op::kSetContextId:
      case Op::kAddReady: {
        const AbsVal next = AbsVal::join(hwListIds_, value(st, d.rs1));
        if (!(next == hwListIds_)) {
            hwListIds_ = round_ >= kWidenRound
                             ? AbsVal::widen(hwListIds_, next)
                             : next;
            changed_ = true;
        }
        return;
      }
      case Op::kSemTake: case Op::kSemGive:
        setRd(AbsVal::fromInterval(Interval::range(0, 1)));
        return;
      case Op::kSwitchRf: {
        // The hardware swaps in another task's register file.
        RegState fresh = rootEntry();
        fresh.v[RegState::kMscratchSlot] = st.v[RegState::kMscratchSlot];
        st = fresh;
        return;
      }
      case Op::kAddDelay: case Op::kRmTask:
      case Op::kFence: case Op::kEcall: case Op::kEbreak:
      case Op::kWfi: case Op::kMret:
        return;
      default:
        // jal/jalr are block terminators, handled by transferBlock.
        return;
    }
}

void
AbsintEngine::recordCallEntry(Addr target, const RegState &st)
{
    const Region *r = regionContaining(target);
    if (!r || r->begin != target)
        return;  // call into a region interior: no model
    auto &cur = entryStates_[target];
    RegState next = RegState::join(cur, st);
    if (round_ >= kWidenRound)
        next = RegState::widen(cur, next);
    if (!(next == cur)) {
        cur = next;
        changed_ = true;
    }
}

void
AbsintEngine::recordJumpEntry(Addr target, const RegState &st)
{
    recordCallEntry(target, st);
}

void
AbsintEngine::analyzeRegion(const Region &region, bool record)
{
    const auto eit = entryStates_.find(region.begin);
    if (eit == entryStates_.end() || !eit->second.live)
        return;
    const RegState entry = eit->second;

    // Region blocks and loop heads (targets of intra-region back
    // edges), for widening placement.
    std::vector<Addr> leaders;
    std::set<Addr> heads;
    for (auto it = cfg_.blocks().lower_bound(region.begin);
         it != cfg_.blocks().end() && it->first < region.end; ++it) {
        leaders.push_back(it->first);
        for (Addr s : it->second.succs)
            if (s <= it->first && s >= region.begin)
                heads.insert(s);
    }

    std::map<Addr, RegState> in;
    std::map<std::pair<Addr, Addr>, RegState> edgeOut;
    std::map<Addr, RegState> term;
    std::map<Addr, unsigned> visits;

    in[region.begin] = entry;

    // One block transfer: returns successor edge states; applies
    // global side effects (stores, call entries, return values).
    const auto transfer =
        [&](Addr leader, const RegState &inState,
            std::vector<std::pair<Addr, RegState>> &outs) {
        const BasicBlock &bb = cfg_.blockAt(leader);
        RegState st = inState;
        const bool bodyIncludesLast = bb.term == TermKind::kFallThrough ||
                                      bb.term == TermKind::kFallOffText;
        const Addr bodyEnd = bodyIncludesLast ? bb.end : bb.termPc();
        for (Addr pc = bb.begin; pc < bodyEnd; pc += 4)
            applyInsn(pc, cfg_.insnAt(pc), st);
        term[leader] = st;

        const auto emit = [&](Addr target, const RegState &out) {
            if (target >= region.begin && target < region.end &&
                cfg_.blockContaining(target))
                outs.emplace_back(target, out);
            else
                recordJumpEntry(target, out);
        };

        switch (bb.term) {
          case TermKind::kFallThrough:
            emit(bb.end, st);
            break;
          case TermKind::kBranch: {
            const Addr tpc = bb.termPc();
            const DecodedInsn &d = cfg_.insnAt(tpc);
            std::optional<bool> dec;
            if (d.rs1 == d.rs2)
                dec = predOnEqualOperands(d.op);
            else
                dec = absDecide(d.op, value(st, d.rs1), value(st, d.rs2));
            if (dec.value_or(true)) {  // taken edge not refuted
                RegState ts = st;
                if (d.rs1 != d.rs2) {
                    AbsVal a = value(ts, d.rs1), b = value(ts, d.rs2);
                    refineByBranch(d.op, true, a, b);
                    if (a.isBottom() || b.isBottom()) {
                        dec = false;
                    } else {
                        if (d.rs1 != 0)
                            ts.v[d.rs1] = a;
                        if (d.rs2 != 0)
                            ts.v[d.rs2] = b;
                    }
                }
                if (dec.value_or(true))
                    emit(bb.takenTarget, ts);
            }
            if (!dec.value_or(false)) {  // fall-through not refuted
                RegState fs = st;
                if (d.rs1 != d.rs2) {
                    AbsVal a = value(fs, d.rs1), b = value(fs, d.rs2);
                    refineByBranch(d.op, false, a, b);
                    if (a.isBottom() || b.isBottom()) {
                        dec = true;
                    } else {
                        if (d.rs1 != 0)
                            fs.v[d.rs1] = a;
                        if (d.rs2 != 0)
                            fs.v[d.rs2] = b;
                    }
                }
                if (!dec.value_or(false))
                    emit(bb.end, fs);
            }
            if (record) {
                // Overwrite, never accumulate: early worklist visits
                // see pre-fixpoint states (a loop's first iterate can
                // "refute" its own exit); only the verdict of the
                // final visit — the converged input — is a fact.
                infeasibleFall_.erase(tpc);
                infeasibleTaken_.erase(tpc);
                if (dec && *dec)
                    infeasibleFall_.insert(tpc);
                else if (dec && !*dec)
                    infeasibleTaken_.insert(tpc);
            }
            break;
          }
          case TermKind::kJump:
            emit(bb.takenTarget, st);
            break;
          case TermKind::kCall: {
            const Addr tpc = bb.termPc();
            RegState callee = st;
            callee.v[kRaReg] = AbsVal::constant(tpc + 4);
            recordCallEntry(bb.takenTarget, callee);

            RegState cont = st;
            for (unsigned r : kCallerSaved)
                cont.v[r] = AbsVal::top();
            cont.v[RegState::kMscratchSlot] = AbsVal::top();
            cont.v[kRaReg] = AbsVal::constant(tpc + 4);
            const Region *cr = regionContaining(bb.takenTarget);
            const auto rv = cr ? returnValues_.find(cr->begin)
                               : returnValues_.end();
            // No recorded `ret` yet means the callee (so far) never
            // returns; the continuation stays unreachable until a
            // later round proves otherwise.
            cont.v[kA0Reg] = rv != returnValues_.end()
                                 ? rv->second
                                 : AbsVal::bottom();
            if (!cont.v[kA0Reg].isBottom())
                emit(bb.end, cont);
            break;
          }
          case TermKind::kReturn: {
            // First `ret` seen for the region: start the summary from
            // bottom (a default AbsVal is top, which would pin the
            // monotone summary there forever).
            auto ins = returnValues_.try_emplace(region.begin,
                                                 AbsVal::bottom());
            AbsVal &rv = ins.first->second;
            const AbsVal next = AbsVal::join(rv, value(st, kA0Reg));
            if (!(next == rv)) {
                rv = round_ >= kWidenRound
                         ? AbsVal::widen(rv, next)
                         : next;
                changed_ = true;
            }
            break;
          }
          case TermKind::kTrapReturn:
          case TermKind::kIndirect:
          case TermKind::kFallOffText:
            break;
        }
    };

    // Phase 1: ascending worklist iteration with widening at heads.
    std::deque<Addr> work{region.begin};
    std::set<Addr> queued{region.begin};
    unsigned budget = kBlockVisitBudget;
    while (!work.empty()) {
        if (budget-- == 0) {
            converged_ = false;
            break;
        }
        const Addr leader = work.front();
        work.pop_front();
        queued.erase(leader);
        std::vector<std::pair<Addr, RegState>> outs;
        transfer(leader, in[leader], outs);
        for (auto &[succ, os] : outs) {
            edgeOut[{leader, succ}] = os;
            auto prevIt = in.find(succ);
            const RegState prev =
                prevIt != in.end() ? prevIt->second : RegState{};
            RegState next = RegState::join(prev, os);
            if (heads.count(succ) &&
                ++visits[succ] > kWideningDelay)
                next = RegState::widen(prev, next);
            if (!(next == prev)) {
                in[succ] = next;
                if (queued.insert(succ).second)
                    work.push_back(succ);
            }
        }
    }

    // Phase 2: bounded descending sweeps (narrowing) recomputing each
    // reachable block's entry from its predecessor edges.
    for (unsigned sweep = 0; sweep < kNarrowSweeps; ++sweep) {
        for (Addr leader : leaders) {
            RegState newIn =
                leader == region.begin ? entry : RegState{};
            for (const auto &[edge, os] : edgeOut)
                if (edge.second == leader)
                    newIn = RegState::join(newIn, os);
            if (!newIn.live)
                continue;
            in[leader] = newIn;
            std::vector<std::pair<Addr, RegState>> outs;
            // Drop stale edges from this block before re-emitting.
            for (auto it = edgeOut.lower_bound({leader, 0});
                 it != edgeOut.end() && it->first.first == leader;)
                it = edgeOut.erase(it);
            transfer(leader, newIn, outs);
            for (auto &[succ, os] : outs)
                edgeOut[{leader, succ}] = os;
        }
    }

    if (record) {
        for (auto &[leader, st] : in)
            if (st.live)
                blockEntries_[leader] = st;
        for (auto &[leader, st] : term)
            termStates_[leader] = st;
        for (auto &[edge, st] : edgeOut)
            edgeStates_[edge] = st;
    }
}

void
AbsintEngine::run()
{
    converged_ = true;
    for (const Region &r : regions_)
        if (r.root && r.analyzed)
            entryStates_[r.begin] = rootEntry();

    unsigned round = 0;
    for (; round < kMaxOuterRounds; ++round) {
        round_ = round;
        changed_ = false;
        for (const Region &r : regions_)
            if (r.analyzed)
                analyzeRegion(r, false);
        if (!changed_)
            break;
    }
    if (round == kMaxOuterRounds)
        converged_ = false;

    // Final recording pass over the converged global state. Branch
    // infeasibility is only trusted from this pass (and only when the
    // outer fixpoint converged).
    for (const Region &r : regions_)
        if (r.analyzed)
            analyzeRegion(r, true);
    if (!converged_) {
        infeasibleTaken_.clear();
        infeasibleFall_.clear();
    }
}

const RegState *
AbsintEngine::blockEntry(Addr leader) const
{
    const auto it = blockEntries_.find(leader);
    return it != blockEntries_.end() ? &it->second : nullptr;
}

const RegState *
AbsintEngine::termState(Addr leader) const
{
    const auto it = termStates_.find(leader);
    return it != termStates_.end() ? &it->second : nullptr;
}

const RegState *
AbsintEngine::edgeState(Addr from, Addr to) const
{
    const auto it = edgeStates_.find({from, to});
    return it != edgeStates_.end() ? &it->second : nullptr;
}

} // namespace rtu
