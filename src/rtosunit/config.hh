/**
 * @file
 * RTOSUnit feature configuration (paper Section 4).
 *
 * Features compose with the validity rules the paper states:
 *  - context Loading (L) only works in conjunction with Storing (S);
 *  - load Omission (O) requires L;
 *  - Dirty bits (D) require S (fixed per-task context region);
 *  - Preloading (P) requires S, L and T, and is incompatible with D
 *    (lockstep store/overwrite needs the full store sequence).
 *
 * The evaluated permutations in the paper: vanilla, CV32RT, S, SD,
 * SL, SDLO, T, ST, SDT, SLT, SDLOT, SPLIT.
 */

#ifndef RTU_RTOSUNIT_CONFIG_HH
#define RTU_RTOSUNIT_CONFIG_HH

#include <string>
#include <vector>

#include "asm/insn.hh"
#include "common/types.hh"

namespace rtu {

struct RtosUnitConfig
{
    bool store = false;    ///< (S) hardware context storing
    bool load = false;     ///< (L) hardware context loading
    bool sched = false;    ///< (T) hardware ready/delay lists
    bool dirty = false;    ///< (D) dirty bits
    bool omit = false;     ///< (O) load omission
    bool preload = false;  ///< (P) speculative context preloading

    /**
     * Hardware counting semaphores ("+HS"): the paper's future-work
     * extension (Section 7). Requires (T): blocking removes the task
     * from the hardware ready list, waking re-inserts it.
     */
    bool hwsync = false;

    /** The CV32RT comparison baseline (Balas et al.). Exclusive. */
    bool cv32rt = false;

    /** Slots in each hardware list (paper default: 8). */
    unsigned listSlots = 8;

    /** Hardware semaphore slots (with hwsync). */
    unsigned semSlots = 4;

    /** Any hardware assistance present at all? */
    bool
    anyHardware() const
    {
        return store || load || sched || hwsync || cv32rt;
    }

    bool isVanilla() const { return !anyHardware(); }

    /**
     * Does this configuration implement the custom instruction @p op?
     * The executor raises an illegal-instruction guest fault for the
     * rest. SET_CONTEXT_ID needs (S) or (L); the list instructions
     * need (T); SWITCH_RF needs (S), or CV32RT, whose kernel uses it
     * as the drain barrier; the semaphore instructions need +HS.
     */
    bool
    implements(Op op) const
    {
        switch (op) {
          case Op::kSetContextId:
            return store || load;
          case Op::kGetHwSched:
          case Op::kAddReady:
          case Op::kAddDelay:
          case Op::kRmTask:
            return sched;
          case Op::kSwitchRf:
            return store || cv32rt;
          case Op::kSemTake:
          case Op::kSemGive:
            return hwsync;
          default:
            return false;
        }
    }

    /** Check the composition rules; returns false and fills @p why. */
    bool validate(std::string *why = nullptr) const;

    /** Paper-style display name: "vanilla", "S", "SDLOT", "SPLIT"... */
    std::string name() const;

    static RtosUnitConfig vanilla() { return {}; }

    /**
     * Parse a paper-style configuration name. Accepts "vanilla",
     * "CV32RT", "SPLIT" (the paper's stylized name for S+P+L+O+T) and
     * any letter combination of S/L/T/D/O/P. Fatal on invalid names
     * or rule violations (user-facing input).
     */
    static RtosUnitConfig fromName(const std::string &name);

    /** The twelve configurations evaluated in the paper, in order. */
    static std::vector<RtosUnitConfig> paperConfigs();

    /** The subset shown in Figure 9 (latency evaluation). */
    static std::vector<RtosUnitConfig> latencyConfigs();

    bool
    operator==(const RtosUnitConfig &o) const
    {
        return store == o.store && load == o.load && sched == o.sched &&
               dirty == o.dirty && omit == o.omit &&
               preload == o.preload && hwsync == o.hwsync &&
               cv32rt == o.cv32rt && listSlots == o.listSlots &&
               semSlots == o.semSlots;
    }
};

} // namespace rtu

#endif // RTU_RTOSUNIT_CONFIG_HH
