/**
 * @file
 * CV32E40P-class timing model: a microcontroller-grade 4-stage
 * in-order pipeline (paper Section 5.1).
 *
 * Key properties reproduced:
 *  - single issue, one instruction in execution at a time;
 *  - tightly-coupled single-cycle instruction and data SRAM
 *    (no caches), so loads/stores occupy the shared DMEM port for
 *    exactly one cycle;
 *  - deterministic interrupt entry: in-flight multi-cycle operations
 *    (div) are killed so the trap is taken with constant latency —
 *    the property that lets the (SLT) configuration eliminate jitter
 *    entirely (paper Section 6.1);
 *  - data-dependent divider latency, taken-branch and jump penalties,
 *    load-use hazard stall.
 */

#ifndef RTU_CORES_CV32E40P_HH
#define RTU_CORES_CV32E40P_HH

#include <array>
#include <cstdint>

#include "core.hh"

namespace rtu {

struct Cv32e40pParams
{
    unsigned trapEntryCycles = 4;   ///< constant interrupt entry
    unsigned mretCycles = 5;        ///< pipeline refill on return
    unsigned takenBranchCycles = 3; ///< branch resolved in EX
    unsigned jumpCycles = 2;
    unsigned loadUseStall = 1;
    unsigned divBaseCycles = 3;     ///< plus one per significant bit
};

class Cv32e40pCore final : public Core
{
  public:
    Cv32e40pCore(const Env &env, const Cv32e40pParams &params = {})
        : Core(env), params_(params)
    {}

    void tick(Cycle now) override;

    /** Earliest cycle the core can change observable state. */
    Cycle nextEventAt(Cycle now) const override;

    /** Bulk-advance a fixed-latency stall or wfi sleep. */
    void skipTo(Cycle now, Cycle target) override;

    /** Confirmed loop period if the core provably spins in a pure
     *  register-only loop starting exactly at the current state. */
    Cycle stridePeriod(Cycle now) const override;

    /** Account @p periods whole loop iterations' worth of stats. */
    void applyStride(Cycle now, std::uint64_t periods) override;

    /** Superblock fast path: execute straight-line runs up to the
     *  event horizon with one bound check per block. */
    Cycle blockRun(Cycle now, Cycle bound) override;

    const char *name() const override { return "cv32e40p"; }

  private:
    /**
     * Idle/busy-loop stride detection. An anchor slot is allocated per
     * backward control-transfer target; when the loop top is revisited
     * with a bit-identical machine state and no impure instruction
     * (memory, CSR, system, custom, unit stall, trap) executed in
     * between, the loop is provably periodic: every iteration replays
     * the same pure register-only computation. Multiple slots are kept
     * because nested busy loops would otherwise thrash one anchor —
     * the periodic loop the skipper wants is the *outer* one.
     */
    struct CoreSnapshot
    {
        std::array<std::array<Word, 32>, 2> banks;
        std::array<bool, 32> dirty;
        unsigned activeBank = 0;
        Addr pc = 0;
        Csrs csrs;
        bool lastWasLoad = false;
        RegIndex lastLoadRd = 0;
        unsigned divOperandBits = 0;

        bool operator==(const CoreSnapshot &) const = default;
    };

    struct StrideSlot
    {
        bool valid = false;
        bool armed = false;       ///< snapshot captured, awaiting revisit
        bool confirmed = false;
        /** Loop proved impure repeatedly; stop re-probing it. A loop's
         *  instruction mix is static, so one that keeps bumping the
         *  purity epoch (loads, stores, CSR ops...) can never confirm
         *  — snapshotting it on every backedge is pure overhead. */
        bool dead = false;
        std::uint8_t misses = 0;  ///< consecutive failed confirmations
        Addr target = 0;          ///< loop-top PC (backedge target)
        std::uint64_t epoch = 0;  ///< purity epoch at arm time
        Cycle cycle = 0;          ///< cycle of the last loop-top visit
        Cycle lastTouch = 0;      ///< for LRU replacement
        Cycle period = 0;
        CoreSnapshot snap;
        CoreStats statsAt;        ///< stats at the last visit
        CoreStats delta;          ///< per-period stats delta
    };

    static constexpr std::size_t kStrideSlots = 4;
    /** Failed confirmations before a slot is written off as impure. */
    static constexpr std::uint8_t kStrideMaxMisses = 4;

    /** Cycles the instruction at hand occupies the pipeline. */
    unsigned costOf(const DecodedInsn &insn, const ExecResult &res) const;

    /** True while a custom-instruction / mret stall condition holds. */
    bool stalledByUnit(const DecodedInsn &insn) const;

    CoreSnapshot captureSnapshot() const;
    const StrideSlot *findSlot(Addr target) const;
    StrideSlot *findSlot(Addr target);

    /** Issue @p insn at @p pc: execute it, retire it (or take its
     *  trap) and leave its remaining pipeline occupancy in
     *  remaining_. The one issue path of tick() and blockRun(). */
    void issue(const DecodedInsn &insn, Addr pc, Cycle now);
    /** A valid, not-written-off stride anchor sits at @p pc: the
     *  per-cycle path must run it so the loop can confirm. */
    bool strideSlotLive(Addr pc) const;
    bool strideSlotLiveInRange(Addr pc, std::uint32_t words) const;
    /** Any impure operation breaks all pending/confirmed periodicity. */
    void strideImpure() { ++strideEpoch_; }
    void strideVisit(Addr pc, Cycle now);
    void strideAnchor(Addr target, Cycle now);

    Cv32e40pParams params_;

    std::array<StrideSlot, kStrideSlots> slots_;
    std::uint64_t strideEpoch_ = 0;

    /** Remaining busy cycles of the instruction in flight. */
    unsigned remaining_ = 0;
    /** The in-flight op may be killed by an interrupt (mul/div). */
    bool abortable_ = false;
    /** Pending mret-completion notification at the end of the stall. */
    bool mretInFlight_ = false;
    /** Destination of the most recent load (load-use hazard). */
    RegIndex lastLoadRd_ = 0;
    bool lastWasLoad_ = false;
    /** Sleeping in wfi. */
    bool sleeping_ = false;
    /** Significant dividend bits of the div in flight (latency). */
    unsigned divOperandBits_ = 0;
};

} // namespace rtu

#endif // RTU_CORES_CV32E40P_HH
