/**
 * @file
 * The discrete-event simulation kernel.
 *
 * Clocked components register with a SimKernel; each reports, via
 * nextEventAt(), the earliest cycle at which it may change observable
 * state (interact with another component, raise an interrupt line,
 * fire a listener, sample an external input). On cycles where every
 * component's next event lies in the future the kernel fast-forwards
 * `now_` to the global minimum in one step instead of ticking
 * cycle-by-cycle; each component's skipTo() replicates exactly the
 * bulk per-cycle effects (counter increments, mtime advance, ROB
 * retirement) that the skipped reference ticks would have performed,
 * so a fast-forwarded run is byte-identical to the per-cycle one.
 *
 * When exactly one component is active (a core running a busy or idle
 * loop) the kernel asks it to execute superblocks up to the earliest
 * foreign event via blockRun(); the loop runs instruction by
 * instruction, so its phase — and therefore interrupt arrival phase
 * and jitter — stays bit-exact.
 */

#ifndef RTU_SIM_KERNEL_HH
#define RTU_SIM_KERNEL_HH

#include <cstdint>
#include <vector>

#include "common/counters.hh"
#include "common/types.hh"

namespace rtu {

/** Sentinel for "no future event": the component is fully quiescent
 *  until some other component acts on it. */
constexpr Cycle kNoEvent = ~Cycle{0};

/**
 * A clocked component. The contract:
 *  - tick(now) advances one cycle (legacy per-cycle semantics);
 *  - nextEventAt(now) returns the earliest cycle >= now at which the
 *    component may change observable state. Returning `now` ("always
 *    active") is always safe; kNoEvent means quiescent forever.
 *    Every tick in [now, nextEventAt(now)) must be *pure*: free of
 *    interaction with other components and exactly replicated by
 *    skipTo();
 *  - skipTo(now, target) applies the bulk effect of the pure ticks in
 *    [now, target), target <= the cycle reported by nextEventAt(now).
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance one clock cycle. */
    virtual void tick(Cycle now) = 0;

    /** Earliest cycle >= @p now at which observable state may change.
     *  Default: always active (conservative — never skipped). */
    virtual Cycle nextEventAt(Cycle now) const { return now; }

    /** Replicate the pure ticks in [@p now, @p target). */
    virtual void
    skipTo(Cycle now, Cycle target)
    {
        (void)now;
        (void)target;
    }

    /**
     * Superblock execution: when this is the only active component and
     * every foreign event lies at or beyond @p bound, execute forward
     * from @p now and return the number of cycles consumed (0 = no
     * block path available; fall back to per-cycle ticking). The
     * consumed cycles must not exceed @p bound - @p now, and the
     * component must end in exactly the state the per-cycle path would
     * reach at now + consumed — the other components are then advanced
     * with skipTo(), which their nextEventAt() >= bound guarantees is
     * pure over the consumed range.
     */
    virtual Cycle
    blockRun(Cycle now, Cycle bound)
    {
        (void)now;
        (void)bound;
        return 0;
    }
};

/** Throughput accounting (all fields deterministic). */
struct SimKernelStats
{
    std::uint64_t cyclesTicked = 0;    ///< cycles executed per-cycle
    std::uint64_t cyclesSkipped = 0;   ///< cycles fast-forwarded
    std::uint64_t fastForwards = 0;    ///< quiescent-gap skips
    /** Always 0: no component skips whole loop periods, blockRun()
     *  executes those loops. Kept so the schema-3 sweep line and the
     *  benchmark's `sim.stride_skips` keep their fields; both go at
     *  the next schema bump. */
    std::uint64_t strideSkips = 0;
    std::uint64_t strideCyclesSkipped = 0;
    std::uint64_t blockRuns = 0;       ///< successful blockRun() calls
    /** Cycles consumed inside blockRun() — these are executed, not
     *  skipped: ticked + skipped + blockExecuted is mode-invariant. */
    std::uint64_t cyclesBlockExecuted = 0;
};

/** SimKernelStats' counter table. Every row depends on the ExecMode
 *  (only ticked + skipped + block-executed is invariant). */
inline constexpr CounterRow<SimKernelStats> kSimKernelStatsTable[] = {
    {"cycles_ticked", &SimKernelStats::cyclesTicked, false},
    {"cycles_skipped", &SimKernelStats::cyclesSkipped, false},
    {"fast_forwards", &SimKernelStats::fastForwards, false},
    {"stride_skips", &SimKernelStats::strideSkips, false},
    {"stride_cycles_skipped", &SimKernelStats::strideCyclesSkipped, false},
    {"block_runs", &SimKernelStats::blockRuns, false},
    {"cycles_block_executed", &SimKernelStats::cyclesBlockExecuted, false},
};
static_assert(coversEveryField(kSimKernelStatsTable),
              "every SimKernelStats field needs exactly one "
              "kSimKernelStatsTable row");

constexpr std::span<const CounterRow<SimKernelStats>>
counterRows(const SimKernelStats &)
{
    return kSimKernelStatsTable;
}

class SimKernel
{
  public:
    /** Register a component. Ticks run in registration order — the
     *  order therefore defines intra-cycle sequencing, exactly like
     *  the statement order of a hand-written tick loop. */
    void add(Clocked *component);

    Cycle now() const { return now_; }

    /** Stable address of the cycle counter (for mcycle, tracing). */
    const Cycle *clockPtr() const { return &now_; }

    /**
     * Earliest cycle in [now, limit] at which any component may
     * change state: the min-reduction over nextEventAt(), clamped to
     * @p limit. Registration order cannot affect the result.
     */
    Cycle nextEventCycle(Cycle limit) const;

    /**
     * Attempt one fast-forward bounded by @p limit: if no component
     * is active now, skip to the earliest future event; if exactly one
     * is, let it blockRun() up to that event.
     * @return true if `now` advanced (no ticks were executed).
     *
     * Failed attempts back off exponentially (up to 32 cycles): the
     * min-reduction itself costs a virtual call per component per
     * cycle, which on busy stretches outweighs what skipping buys.
     * Deferring an attempt only means those cycles are ticked instead
     * of skipped — results stay byte-identical by the Clocked
     * contract; only the ticked/skipped split in the stats moves.
     */
    bool fastForward(Cycle limit);

    /** Tick every component at `now` (registration order), then
     *  advance one cycle. */
    void tickOne();

    const SimKernelStats &stats() const { return stats_; }

  private:
    std::vector<Clocked *> components_;
    Cycle now_ = 0;
    /** Next cycle worth probing for a skip, and the current penalty. */
    Cycle nextAttempt_ = 0;
    Cycle backoff_ = 1;
    SimKernelStats stats_;
};

} // namespace rtu

#endif // RTU_SIM_KERNEL_HH
