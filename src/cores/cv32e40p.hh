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

    /** Superblock fast path: execute straight-line runs up to the
     *  event horizon, validating each word from the predecoded image
     *  and advancing its stall in closed form. */
    Cycle blockRun(Cycle now, Cycle bound) override;

    const char *name() const override { return "cv32e40p"; }

  private:
    /** Cycles the instruction at hand occupies the pipeline; a divide
     *  takes @p div_bits extra. */
    unsigned costOf(const DecodedInsn &insn, const ExecResult &res,
                    unsigned div_bits) const;

    /** Issue @p insn at @p pc: execute it, retire it (or take its
     *  trap) and leave its remaining pipeline occupancy in
     *  remaining_. The one issue path of tick() and blockRun(). */
    void issue(const DecodedInsn &insn, Addr pc, Cycle now);

    Cv32e40pParams params_;

    /** Remaining busy cycles of the instruction in flight. */
    unsigned remaining_ = 0;
    /** The in-flight op may be killed by an interrupt (mul/div). */
    bool abortable_ = false;
    /** Destination of the most recent load (load-use hazard). */
    RegIndex lastLoadRd_ = 0;
    bool lastWasLoad_ = false;
};

} // namespace rtu

#endif // RTU_CORES_CV32E40P_HH
