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

bool
RegState::absorb(const RegState &src, bool widen)
{
    if (!src.live || *this == src)
        return false;
    if (!live) {
        *this = src;
        return true;
    }
    bool changed = false;
    for (unsigned i = 0; i < kNumSlots; ++i) {
        AbsVal next = AbsVal::join(v[i], src.v[i]);
        if (widen)
            next = AbsVal::widen(v[i], next);
        if (!(next == v[i])) {
            v[i] = next;
            changed = true;
        }
    }
    return changed;
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
    buildBlocks();

    // Stack words are never cells (their loads read top), so only the
    // other data words get a slot.
    cellSlot_.assign(program.data.size(), -1);
    for (size_t i = 0; i < program.data.size(); ++i) {
        if (inStack(dataBase_ + 4 * static_cast<Addr>(i)))
            continue;
        cellSlot_[i] = static_cast<std::int32_t>(cells_.size());
        cells_.push_back(
            AbsVal::constant(static_cast<std::int32_t>(program.data[i])));
    }
    cellStamp_.assign(cells_.size(), 0);
    cellSeen_.assign(cells_.size(), 0);
    entryStates_.resize(regions_.size());
    returnValues_.assign(regions_.size(), AbsVal::bottom());
    entryStamp_.assign(regions_.size(), 0);
    returnStamp_.assign(regions_.size(), 0);
    reads_.resize(regions_.size());
}

void
AbsintEngine::buildBlocks()
{
    leaderIndex_.assign(program_.text.size(), -1);
    for (const auto &[leader, bb] : cfg_.blocks()) {
        leaderIndex_[(leader - program_.textBase) / 4] =
            static_cast<std::int32_t>(blocks_.size());
        blocks_.push_back(&bb);
    }
    succs_.resize(blocks_.size());
    preds_.resize(blocks_.size());
    loopHead_.assign(blocks_.size(), false);
    entryAt_.assign(blocks_.size(), -1);
    termAt_.assign(blocks_.size(), -1);
    edgeAt_.assign(2 * blocks_.size(), -1);

    std::uint32_t largest = 0;
    for (const Region &region : regions_) {
        // The region's first block is the first leader at or after
        // its entry.
        RegionBlocks rb;
        rb.first = static_cast<std::uint32_t>(blocks_.size());
        for (Addr w = (region.begin - program_.textBase) / 4;
             w < leaderIndex_.size(); ++w) {
            if (leaderIndex_[w] >= 0) {
                rb.first = static_cast<std::uint32_t>(leaderIndex_[w]);
                break;
            }
        }
        while (rb.first + rb.count < blocks_.size() &&
               blocks_[rb.first + rb.count]->begin < region.end)
            ++rb.count;
        regionBlocks_.push_back(rb);
        largest = std::max(largest, rb.count);

        // Targets inside the region are block leaders (the Cfg splits
        // at every in-text control target and after every control
        // insn), so an intra-region edge always lands on a block.
        const auto local = [&](Addr target) {
            return target >= region.begin && target < region.end
                       ? blockIndex(target)
                       : -1;
        };
        for (std::uint32_t b = rb.first; b < rb.first + rb.count; ++b) {
            const BasicBlock &bb = *blocks_[b];
            BlockSuccs &s = succs_[b];
            switch (bb.term) {
              case TermKind::kBranch:
                s.taken = local(bb.takenTarget);
                s.fall = local(bb.end);
                break;
              case TermKind::kJump:
                s.taken = local(bb.takenTarget);
                break;
              case TermKind::kFallThrough:
              case TermKind::kCall:
                s.fall = local(bb.end);
                break;
              default:
                break;
            }
            for (std::int32_t t : {s.taken, s.fall})
                if (t >= 0 && (preds_[t].empty() || preds_[t].back() != b))
                    preds_[t].push_back(b);
            // Loop heads: targets of intra-region back edges, for
            // widening placement.
            for (Addr succ : bb.succs)
                if (succ <= bb.begin && succ >= region.begin)
                    if (const int h = blockIndex(succ); h >= 0)
                        loopHead_[h] = true;
        }
    }
    in_.resize(largest);
    term_.resize(largest);
    edgeOut_.resize(2 * largest);
    visits_.resize(largest);
    queued_.resize(largest);
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
    // By begin, then end: an empty function sorts before a region
    // starting at the same address, which keeps region ends ordered.
    std::sort(fns.begin(), fns.end(),
              [](const Region &a, const Region &b) {
                  return std::pair(a.begin, a.end) <
                         std::pair(b.begin, b.end);
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
        const int src = regionContaining(leader);
        const int dst = regionContaining(bb.takenTarget);
        if (src >= 0 && dst >= 0 && src != dst)
            jumpEntries.insert(regions_[dst].begin);
    }
    for (Region &r : regions_) {
        r.root = !callTargets_.count(r.begin);
        if (r.root && !r.name.empty() && !entryPoint(r.name) &&
            !jumpEntries.count(r.begin))
            r.analyzed = false;
        // An empty function holds no code to analyze.
        if (r.begin == r.end)
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

int
AbsintEngine::regionContaining(Addr pc) const
{
    // Non-empty regions are disjoint and sorted, so their ends are
    // ordered too: the first region ending past pc is the only
    // candidate.
    const auto it = std::partition_point(
        regions_.begin(), regions_.end(),
        [pc](const Region &r) { return r.end <= pc; });
    if (it == regions_.end() || it->begin > pc)
        return -1;
    return static_cast<int>(it - regions_.begin());
}

int
AbsintEngine::blockIndex(Addr pc) const
{
    if (pc < program_.textBase || (pc - program_.textBase) % 4)
        return -1;
    const Addr word = (pc - program_.textBase) / 4;
    return word < leaderIndex_.size() ? leaderIndex_[word] : -1;
}

int
AbsintEngine::cellSlot(Addr a) const
{
    a &= ~Addr{3};
    return inData(a) ? cellSlot_[(a - dataBase_) / 4] : -1;
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
    const int slot = cellSlot(a);
    if (slot < 0)
        return AbsVal::top();
    for (const auto &[lo, hi] : havocRanges_)
        if (a >= lo && a <= hi)
            return AbsVal::top();
    return cells_[slot];
}

std::uint64_t
AbsintEngine::touch()
{
    changed_ = true;
    return ++clock_;
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
        const int slot = cellSlot(cell);
        cells_[slot] = next;
        cellStamp_[slot] = touch();
    }
}

AbsVal
AbsintEngine::readCell(Addr a)
{
    // Note the read: the cell's value (and the havoc ranges, which
    // override it) are inputs of the region being analysed.
    if (const int i = cellSlot(a); reading_ && i >= 0) {
        reading_->memory = true;
        if (cellSeen_[i] != reading_->started) {
            cellSeen_[i] = reading_->started;
            reading_->cells.push_back(i);
        }
    }
    return cellValue(a);
}

AbsVal
AbsintEngine::loadWord(const AbsVal &addr)
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
            acc = AbsVal::join(acc, readCell(a));
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
        acc = AbsVal::join(acc, readCell(a));
    return acc.isBottom() ? AbsVal::top() : acc;
}

AbsVal
AbsintEngine::loadSized(const AbsVal &addr, Op op)
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
    havocStamp_ = touch();
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
        if (reading_)
            reading_->hwIds = true;
        setRd(hwListIds_);
        return;
      case Op::kSetContextId:
      case Op::kAddReady: {
        const AbsVal next = AbsVal::join(hwListIds_, value(st, d.rs1));
        if (!(next == hwListIds_)) {
            hwListIds_ = round_ >= kWidenRound
                             ? AbsVal::widen(hwListIds_, next)
                             : next;
            hwStamp_ = touch();
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
    const int r = regionContaining(target);
    if (r < 0 || regions_[r].begin != target)
        return;  // call into a region interior: no model
    if (entryStates_[r].absorb(st, round_ >= kWidenRound))
        entryStamp_[r] = touch();
}

bool
AbsintEngine::needsAnalysis(unsigned region) const
{
    const RegionReads &rd = reads_[region];
    const auto after = [&](std::uint64_t stamp) {
        return stamp > rd.started;
    };
    if (rd.started == 0 || after(entryStamp_[region]) ||
        (rd.memory && after(havocStamp_)) || (rd.hwIds && after(hwStamp_)))
        return true;
    for (std::uint32_t c : rd.cells)
        if (after(cellStamp_[c]))
            return true;
    for (std::uint32_t q : rd.callees)
        if (after(returnStamp_[q]))
            return true;
    return false;
}

void
AbsintEngine::analyzeRegion(unsigned ri, bool record)
{
    const Region &region = regions_[ri];
    RegionReads &rd = reads_[ri];
    if (!record) {
        rd.started = ++clock_;
        rd.memory = rd.hwIds = false;
        rd.cells.clear();
        rd.callees.clear();
    }
    reading_ = record ? nullptr : &rd;

    if (!entryStates_[ri].live)
        return;
    // A copy: a recursive call may grow the stored entry meanwhile.
    const RegState entry = entryStates_[ri];

    // Local block i is global block first + i; edge slot s of local
    // block i lives at edgeOut_[2 * i + s].
    const RegionBlocks rb = regionBlocks_[ri];
    const int entryBlock = blockIndex(region.begin);
    if (entryBlock < 0)
        panic("no block at %#x", region.begin);
    const std::uint32_t start = entryBlock - rb.first;
    for (std::uint32_t i = 0; i < rb.count; ++i) {
        in_[i].live = false;
        term_[i].live = false;
        edgeOut_[2 * i].live = false;
        edgeOut_[2 * i + 1].live = false;
        visits_[i] = 0;
        queued_[i] = false;
    }
    in_[start] = entry;

    // One block transfer: hands each intra-region successor edge state
    // to onEdge(local successor, slot, state); applies global side
    // effects (stores, call entries, return values).
    const auto transfer = [&](std::uint32_t i, const RegState &inState,
                              auto &&onEdge) {
        const std::uint32_t b = rb.first + i;
        const BasicBlock &bb = *blocks_[b];
        const BlockSuccs &succ = succs_[b];
        RegState st = inState;
        const bool bodyIncludesLast = bb.term == TermKind::kFallThrough ||
                                      bb.term == TermKind::kFallOffText;
        const Addr bodyEnd = bodyIncludesLast ? bb.end : bb.termPc();
        for (Addr pc = bb.begin; pc < bodyEnd; pc += 4)
            applyInsn(pc, cfg_.insnAt(pc), st);
        term_[i] = st;

        const auto emit = [&](Addr target, std::int32_t local,
                              unsigned slot, const RegState &out) {
            if (local >= 0)
                onEdge(local - rb.first, slot, out);
            else
                recordCallEntry(target, out);
        };

        switch (bb.term) {
          case TermKind::kFallThrough:
            emit(bb.end, succ.fall, succ.fallSlot(), st);
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
                    emit(bb.takenTarget, succ.taken, 0, ts);
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
                    emit(bb.end, succ.fall, succ.fallSlot(), fs);
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
            emit(bb.takenTarget, succ.taken, 0, st);
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
            // No recorded `ret` yet (bottom) means the callee (so far)
            // never returns; the continuation stays unreachable until
            // a later round proves otherwise.
            const int cr = regionContaining(bb.takenTarget);
            cont.v[kA0Reg] = AbsVal::bottom();
            if (cr >= 0) {
                cont.v[kA0Reg] = returnValues_[cr];
                if (reading_ &&
                    std::find(reading_->callees.begin(),
                              reading_->callees.end(),
                              static_cast<std::uint32_t>(cr)) ==
                        reading_->callees.end())
                    reading_->callees.push_back(cr);
            }
            if (!cont.v[kA0Reg].isBottom())
                emit(bb.end, succ.fall, succ.fallSlot(), cont);
            break;
          }
          case TermKind::kReturn: {
            AbsVal &rv = returnValues_[ri];
            const AbsVal next = AbsVal::join(rv, value(st, kA0Reg));
            if (!(next == rv)) {
                rv = round_ >= kWidenRound
                         ? AbsVal::widen(rv, next)
                         : next;
                returnStamp_[ri] = touch();
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
    std::deque<std::uint32_t> work{start};
    queued_[start] = true;
    unsigned budget = kBlockVisitBudget;
    while (!work.empty()) {
        if (budget-- == 0) {
            converged_ = false;
            break;
        }
        const std::uint32_t i = work.front();
        work.pop_front();
        queued_[i] = false;
        transfer(i, in_[i], [&](std::uint32_t j, unsigned slot,
                                const RegState &os) {
            edgeOut_[2 * i + slot] = os;
            const bool widen =
                loopHead_[rb.first + j] && ++visits_[j] > kWideningDelay;
            if (in_[j].absorb(os, widen) && !queued_[j]) {
                queued_[j] = true;
                work.push_back(j);
            }
        });
    }

    // Phase 2: bounded descending sweeps (narrowing) recomputing each
    // reachable block's entry from its predecessor edges, joined in
    // ascending predecessor order.
    RegState newIn;
    for (unsigned sweep = 0; sweep < kNarrowSweeps; ++sweep) {
        for (std::uint32_t i = 0; i < rb.count; ++i) {
            newIn.live = false;
            if (i == start)
                newIn = entry;
            for (std::uint32_t p : preds_[rb.first + i]) {
                const BlockSuccs &ps = succs_[p];
                const unsigned slot =
                    ps.taken == static_cast<std::int32_t>(rb.first + i)
                        ? 0
                        : ps.fallSlot();
                newIn.absorb(edgeOut_[2 * (p - rb.first) + slot], false);
            }
            if (!newIn.live)
                continue;
            in_[i] = newIn;
            // Drop stale edges from this block before re-emitting.
            edgeOut_[2 * i].live = false;
            edgeOut_[2 * i + 1].live = false;
            transfer(i, newIn, [&](std::uint32_t, unsigned slot,
                                   const RegState &os) {
                edgeOut_[2 * i + slot] = os;
            });
        }
    }

    if (record) {
        const auto keep = [&](std::int32_t &at, const RegState &st) {
            if (!st.live)
                return;
            at = static_cast<std::int32_t>(recorded_.size());
            recorded_.push_back(st);
        };
        for (std::uint32_t i = 0; i < rb.count; ++i) {
            const std::uint32_t b = rb.first + i;
            keep(entryAt_[b], in_[i]);
            keep(termAt_[b], term_[i]);
            keep(edgeAt_[2 * b], edgeOut_[2 * i]);
            keep(edgeAt_[2 * b + 1], edgeOut_[2 * i + 1]);
        }
    }
}

void
AbsintEngine::run()
{
    converged_ = true;
    for (unsigned r = 0; r < regions_.size(); ++r)
        if (regions_[r].root && regions_[r].analyzed)
            entryStates_[r] = rootEntry();

    // Outer rounds re-analyse only regions with a changed input; see
    // the file comment for why skipping the others is exact.
    unsigned round = 0;
    for (; round < kMaxOuterRounds; ++round) {
        round_ = round;
        changed_ = false;
        for (unsigned r = 0; r < regions_.size(); ++r) {
            if (!regions_[r].analyzed)
                continue;
            if (needsAnalysis(r)) {
                ++analyzed_;
                analyzeRegion(r, false);
            } else {
                ++skipped_;
            }
        }
        if (!changed_)
            break;
    }
    if (round == kMaxOuterRounds)
        converged_ = false;

    // Final recording pass over the converged global state. Branch
    // infeasibility is only trusted from this pass (and only when the
    // outer fixpoint converged).
    for (unsigned r = 0; r < regions_.size(); ++r)
        if (regions_[r].analyzed)
            analyzeRegion(r, true);
    reading_ = nullptr;
    if (!converged_) {
        infeasibleTaken_.clear();
        infeasibleFall_.clear();
    }
}

const RegState *
AbsintEngine::blockEntry(Addr leader) const
{
    const int b = blockIndex(leader);
    return b >= 0 && entryAt_[b] >= 0 ? &recorded_[entryAt_[b]] : nullptr;
}

const RegState *
AbsintEngine::termState(Addr leader) const
{
    const int b = blockIndex(leader);
    return b >= 0 && termAt_[b] >= 0 ? &recorded_[termAt_[b]] : nullptr;
}

const RegState *
AbsintEngine::edgeState(Addr from, Addr to) const
{
    const int b = blockIndex(from);
    const int t = blockIndex(to);
    if (b < 0 || t < 0)
        return nullptr;
    const BlockSuccs &s = succs_[b];
    const unsigned slot = s.taken == t ? 0 : s.fall == t ? s.fallSlot() : 2;
    if (slot == 2 || edgeAt_[2 * b + slot] < 0)
        return nullptr;
    return &recorded_[edgeAt_[2 * b + slot]];
}

} // namespace rtu
