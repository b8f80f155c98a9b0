/**
 * @file
 * Pass 2: per-function callee-saved register discipline.
 *
 * Kernel convention (src/kernel/kernel.cc): t0..t6, a0..a7 and ra are
 * clobbered freely inside the kernel; task bodies follow the standard
 * calling convention. This pass verifies the standard-convention side:
 * every path of a function that reaches `ret` must leave s0..s11 with
 * their entry values and `ra` with the return address — either never
 * written, or spilled to a stack slot and reloaded from the same slot.
 *
 * Calls are not followed: callees are assumed s-preserving (each is
 * checked on its own) but clobber `ra`. Paths that leave the function
 * by a jump or end in `mret` / an indirect jump carry no obligation
 * here (the trap path is pass 1's job, cross-function jumps in the
 * generated kernel only reach non-returning code).
 */

#include <array>
#include <climits>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "linter.hh"
#include "walk.hh"

namespace rtu {

namespace {

constexpr int kNumTracked = 13;  ///< s0..s11 = 0..11, ra = 12
constexpr int kRaIndex = 12;
constexpr int kWildSlot = INT_MIN;  ///< saved at unknown sp offset

/** Tracked-register index of @p r, or -1. */
int
csIndexOf(RegIndex r)
{
    if (r == S0 || r == S1)
        return r - S0;  // x8, x9 -> 0, 1
    if (r >= S2 && r <= S11)
        return 2 + (r - S2);  // x18..x27 -> 2..11
    if (r == RA)
        return kRaIndex;
    return -1;
}

const char *
csName(int idx)
{
    static const char *names[kNumTracked] = {
        "s0", "s1", "s2", "s3", "s4",  "s5",  "s6",
        "s7", "s8", "s9", "s10", "s11", "ra",
    };
    return names[idx];
}

struct AbiState
{
    std::uint16_t clobbered = 0;
    std::uint16_t saved = 0;
    std::array<int, kNumTracked> slot{};
    SpState sp;

    auto operator<=>(const AbiState &) const = default;
};

/** Calls are balanced and s-preserving but clobber ra. */
class AbiPolicy : public WalkPolicy<AbiState>
{
  public:
    explicit AbiPolicy(PathWalker<AbiState> &walker) : walker_(walker) {}

    void
    step(Addr pc, const DecodedInsn &d, AbiState &st)
    {
        // Slots are only comparable while sp is entry-relative.
        const bool spKnown = st.sp.mode == SpState::kEntryRel;

        // Spill to a stack slot.
        if (d.op == Op::kSw && d.rs1 == SP) {
            const int idx = csIndexOf(d.rs2);
            if (idx >= 0) {
                st.saved |= 1u << idx;
                st.slot[idx] = spKnown
                                   ? static_cast<int>(st.sp.value) + d.imm
                                   : kWildSlot;
            }
        }

        // Reload from the matching slot restores the entry value.
        if (writesRd(d.op) && d.rd != Zero) {
            const int idx = csIndexOf(d.rd);
            if (idx >= 0) {
                const bool slotMatches =
                    (st.saved & (1u << idx)) != 0 &&
                    (st.slot[idx] == kWildSlot || !spKnown ||
                     st.slot[idx] == st.sp.value + d.imm);
                if (d.op == Op::kLw && d.rs1 == SP && slotMatches)
                    st.clobbered &= ~(1u << idx);
                else
                    st.clobbered |= 1u << idx;
            }
        }
        st.sp.apply(pc, d);
    }

    std::optional<Addr>
    ret(Addr pc, AbiState &st)
    {
        std::string bad;
        for (int i = 0; i < kRaIndex; ++i) {
            if (st.clobbered & (1u << i)) {
                if (!bad.empty())
                    bad += ", ";
                bad += csName(i);
            }
        }
        if (!bad.empty()) {
            walker_.report(Severity::kError, "abi-callee-saved", pc,
                           csprintf("callee-saved registers clobbered "
                                    "and not restored on a path "
                                    "reaching ret: %s", bad.c_str()));
        }
        if (st.clobbered & (1u << kRaIndex)) {
            walker_.report(Severity::kError, "abi-ra-clobbered", pc,
                           "ra overwritten (by a call or plain write) "
                           "and not restored before ret: returns to "
                           "the wrong address");
        }
        return std::nullopt;
    }

  private:
    PathWalker<AbiState> &walker_;
};

} // namespace

void
checkCalleeSaved(const Cfg &cfg, const LintOptions &options,
                 std::vector<Diagnostic> &out)
{
    PathWalker<AbiState> walker(cfg, "callee-saved", options.stateBudget,
                                out);
    AbiPolicy policy(walker);
    for (const auto &[name, range] : cfg.program().functions) {
        if (range.second > range.first && cfg.contains(range.first))
            walker.walk(policy, range.first, {}, range.first, range.second);
    }
}

} // namespace rtu
