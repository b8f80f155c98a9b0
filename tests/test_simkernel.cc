/** SimKernel tests: next-event min-reduction, fast-forward and block-run
 *  arithmetic on fake components, skip bounds against the real CLINT
 *  and external-irq driver, block execution of a spinning guest, and
 *  the no-retire watchdog (mode-identical abort cycles). */

#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.hh"
#include "harness/simulation.hh"
#include "sim/clint.hh"
#include "sim/kernel.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

/** Scripted component: quiescent until a fixed event cycle, active
 *  (and thus un-skippable) from then on. */
class FakeClocked : public Clocked
{
  public:
    explicit FakeClocked(Cycle event) : event_(event) {}

    void
    tick(Cycle now) override
    {
        ++ticks;
        lastTickAt = now;
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        return event_ <= now ? now : event_;
    }

    void
    skipTo(Cycle now, Cycle target) override
    {
        ++skips;
        lastSkipFrom = now;
        lastSkipTo = target;
    }

    Cycle
    blockRun(Cycle now, Cycle bound) override
    {
        ++blockCalls;
        return std::min(blockCycles, bound - now);
    }

    Cycle event_;
    /** Cycles one blockRun() call may consume (0 = no block path). */
    Cycle blockCycles = 0;
    unsigned blockCalls = 0;
    unsigned ticks = 0;
    unsigned skips = 0;
    Cycle lastTickAt = 0;
    Cycle lastSkipFrom = 0;
    Cycle lastSkipTo = 0;
};

TEST(SimKernel, NextEventCycleIsMinReduction)
{
    SimKernel k;
    FakeClocked a(25), b(10), c(kNoEvent);
    k.add(&a);
    k.add(&b);
    k.add(&c);
    EXPECT_EQ(k.nextEventCycle(1000), 10u);
    EXPECT_EQ(k.nextEventCycle(7), 7u);  // clamped to the limit
}

TEST(SimKernel, RegistrationOrderDoesNotChangeNextEvent)
{
    FakeClocked a(25), b(10);
    SimKernel fwd, rev;
    fwd.add(&a);
    fwd.add(&b);
    rev.add(&b);
    rev.add(&a);
    EXPECT_EQ(fwd.nextEventCycle(1000), rev.nextEventCycle(1000));
}

TEST(SimKernel, FastForwardSkipsToEarliestEvent)
{
    SimKernel k;
    FakeClocked a(10), b(25);
    k.add(&a);
    k.add(&b);

    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 10u);
    EXPECT_EQ(a.skips, 1u);
    EXPECT_EQ(a.lastSkipFrom, 0u);
    EXPECT_EQ(a.lastSkipTo, 10u);
    EXPECT_EQ(b.skips, 1u);
    EXPECT_EQ(a.ticks, 0u);

    // `a` is active at cycle 10 and has no block path: no further skip.
    EXPECT_FALSE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 10u);

    const SimKernelStats &s = k.stats();
    EXPECT_EQ(s.cyclesSkipped, 10u);
    EXPECT_EQ(s.fastForwards, 1u);
    EXPECT_EQ(s.cyclesTicked, 0u);
}

TEST(SimKernel, ActiveComponentVetoesSkip)
{
    SimKernel k;
    FakeClocked busy(0), idle(50);
    k.add(&busy);
    k.add(&idle);
    EXPECT_FALSE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 0u);
    EXPECT_EQ(busy.skips, 0u);
    EXPECT_EQ(idle.skips, 0u);
}

TEST(SimKernel, AllQuiescentSkipsToTheLimit)
{
    SimKernel k;
    FakeClocked a(kNoEvent), b(kNoEvent);
    k.add(&a);
    k.add(&b);
    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 1000u);
    EXPECT_EQ(k.stats().cyclesSkipped, 1000u);
    // At the limit there is nothing left to fast-forward.
    EXPECT_FALSE(k.fastForward(1000));
}

TEST(SimKernel, SingleActiveComponentBlockRunsToTheHorizon)
{
    SimKernel k;
    FakeClocked busy(0), foreign(100);
    busy.blockCycles = 1000;
    k.add(&busy);
    k.add(&foreign);

    // The active component runs itself up to the foreign event, never
    // past it; the foreign component replicates the consumed cycles.
    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 100u);
    EXPECT_EQ(busy.blockCalls, 1u);
    EXPECT_EQ(busy.skips, 0u);
    EXPECT_EQ(foreign.skips, 1u);
    EXPECT_EQ(foreign.lastSkipFrom, 0u);
    EXPECT_EQ(foreign.lastSkipTo, 100u);
    EXPECT_EQ(k.stats().blockRuns, 1u);
    EXPECT_EQ(k.stats().cyclesBlockExecuted, 100u);
    EXPECT_EQ(k.stats().cyclesSkipped, 0u);
}

TEST(SimKernel, TwoActiveComponentsVetoBlockRun)
{
    SimKernel k;
    FakeClocked a(0), b(0);
    a.blockCycles = b.blockCycles = 5;
    k.add(&a);
    k.add(&b);
    EXPECT_FALSE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 0u);
    EXPECT_EQ(a.blockCalls, 0u);
    EXPECT_EQ(b.blockCalls, 0u);
    EXPECT_EQ(a.skips + b.skips, 0u);
}

TEST(SimKernel, TickOneRunsEveryComponentThenAdvances)
{
    SimKernel k;
    FakeClocked a(kNoEvent), b(kNoEvent);
    k.add(&a);
    k.add(&b);
    k.tickOne();
    EXPECT_EQ(k.now(), 1u);
    EXPECT_EQ(a.ticks, 1u);
    EXPECT_EQ(b.ticks, 1u);
    EXPECT_EQ(a.lastTickAt, 0u);
    EXPECT_EQ(k.stats().cyclesTicked, 1u);
}

TEST(SimKernel, NeverSkipsPastScheduledExtIrq)
{
    IrqLines irq;
    ExtIrqDriver ext(irq);
    ext.schedule(42);
    FakeClocked idle(kNoEvent);

    SimKernel k;
    k.add(&ext);
    k.add(&idle);

    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 42u);  // stopped exactly on the event
    EXPECT_EQ(irq.pending() & irq::kMei, 0u);  // skip raised nothing
    k.tickOne();
    EXPECT_NE(irq.pending() & irq::kMei, 0u);
    EXPECT_EQ(irq.assertCycle(mcause::kMachineExternal), 42u);
}

TEST(SimKernel, NeverSkipsPastClintExpiry)
{
    IrqLines irq;
    Clint clint(irq);
    clint.write(memmap::kClintMtimecmp, 10, MemSize::kWord);
    clint.write(memmap::kClintMtimecmpHi, 0, MemSize::kWord);
    FakeClocked idle(kNoEvent);

    SimKernel k;
    k.add(&clint);
    k.add(&idle);

    // The tick at cycle 9 moves mtime to 10 == mtimecmp and raises
    // MTIP; the skip must stop just before and replicate mtime.
    ASSERT_TRUE(k.fastForward(1000));
    EXPECT_EQ(k.now(), 9u);
    EXPECT_EQ(clint.mtime(), 9u);
    EXPECT_EQ(irq.pending() & irq::kMti, 0u);
    k.tickOne();
    EXPECT_NE(irq.pending() & irq::kMti, 0u);
    EXPECT_EQ(irq.assertCycle(mcause::kMachineTimer), 9u);
}

TEST(ClintNextEvent, ArithmeticCoversTheProtocol)
{
    IrqLines irq;
    Clint clint(irq);

    // Reset state: mtimecmp = ~0 is an unreachable deadline (either
    // the kNoEvent clamp or a deadline in the astronomically far
    // future, depending on `now`).
    EXPECT_GE(clint.nextEventAt(0), kNoEvent - 1);
    EXPECT_EQ(clint.nextEventAt(2), kNoEvent);

    // Future deadline: the raising tick is at cmp - mtime - 1.
    clint.write(memmap::kClintMtimecmp, 100, MemSize::kWord);
    clint.write(memmap::kClintMtimecmpHi, 0, MemSize::kWord);
    EXPECT_EQ(clint.nextEventAt(0), 99u);
    clint.tick(0);  // mtime = 1
    EXPECT_EQ(clint.nextEventAt(1), 99u);

    // Imminent deadline: the very next tick raises the line.
    clint.write(memmap::kClintMtimecmp, 2, MemSize::kWord);
    EXPECT_EQ(clint.nextEventAt(1), 1u);

    // Pending and cmp <= mtime + 1: the line stays raised forever
    // (mtime only grows), so the CLINT goes quiescent.
    clint.tick(1);  // mtime = 2 -> MTIP
    ASSERT_NE(irq.pending() & irq::kMti, 0u);
    EXPECT_EQ(clint.nextEventAt(2), kNoEvent);

    // Pending but cmp re-armed ahead (auto-reset): next tick clears.
    clint.enableAutoReset(100);
    clint.timerTaken();  // cmp = 102, line still raised
    ASSERT_NE(irq.pending() & irq::kMti, 0u);
    EXPECT_EQ(clint.nextEventAt(2), 2u);
}

/** Infinite pure spin whose architectural state recurs exactly each
 *  iteration: an idle loop that only block execution can speed up. */
Program
spinProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.label("spin");
    a.mv(A0, Zero);
    a.j("spin");
    return a.finish();
}

/** One retired instruction, then sleep with interrupts disabled. */
Program
hangProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.csrw(csr::kMie, Zero);
    a.wfi();
    a.label("end");
    a.j("end");
    return a.finish();
}

SimConfig
bareConfig(bool fast_forward)
{
    SimConfig cfg;
    cfg.core = CoreKind::kCv32e40p;
    cfg.unit = RtosUnitConfig::vanilla();
    cfg.mode = fast_forward ? ExecMode::kBlock : ExecMode::kReference;
    return cfg;
}

TEST(SimKernelGuest, BlockRunCarriesSpinAndPreservesState)
{
    const Program p = spinProgram();

    SimConfig ref = bareConfig(false);
    ref.maxCycles = 5000;
    ref.watchdogCycles = 0;  // a spin retires; keep the test focused
    Simulation refSim(ref, p);
    EXPECT_FALSE(refSim.run());

    SimConfig ff = bareConfig(true);
    ff.maxCycles = 5000;
    ff.watchdogCycles = 0;
    Simulation ffSim(ff, p);
    EXPECT_FALSE(ffSim.run());

    // Block execution must carry the loop...
    EXPECT_GT(ffSim.kernelStats().cyclesBlockExecuted, 0u);
    EXPECT_LT(ffSim.kernelStats().cyclesTicked, ref.maxCycles);
    // ...and reproduce the reference run bit-exactly.
    EXPECT_EQ(ffSim.now(), refSim.now());
    EXPECT_EQ(ffSim.status(), refSim.status());
    EXPECT_EQ(ffSim.coreStats().instret, refSim.coreStats().instret);
    EXPECT_EQ(ffSim.coreStats().stallCycles,
              refSim.coreStats().stallCycles);
    EXPECT_EQ(ffSim.archState().pc(), refSim.archState().pc());
    for (RegIndex r = 0; r < 32; ++r)
        EXPECT_EQ(ffSim.archState().reg(r), refSim.archState().reg(r))
            << "x" << unsigned(r);
}

TEST(SimKernelGuest, BlockRunStopsExactlyAtIrqDelivery)
{
    // Same spin, but an external interrupt arrives mid-run. With
    // interrupts disabled (reset state) delivery is just the MEIP
    // line rising — a block run still must not step over that cycle, so
    // the phase-sensitive state around it stays exact.
    const Program p = spinProgram();

    auto run = [&](bool fast_forward) {
        SimConfig cfg = bareConfig(fast_forward);
        cfg.maxCycles = 3000;
        cfg.watchdogCycles = 0;
        Simulation sim(cfg, p);
        sim.scheduleExtIrq(1777);
        EXPECT_FALSE(sim.run());
        return sim.coreStats().instret;
    };

    EXPECT_EQ(run(true), run(false));
}

TEST(SimKernelGuest, WatchdogAbortsIdenticallyInBothModes)
{
    const Program p = hangProgram();

    auto run = [&](bool fast_forward) {
        SimConfig cfg = bareConfig(fast_forward);
        cfg.maxCycles = 100000;
        cfg.watchdogCycles = 500;
        Simulation sim(cfg, p);
        EXPECT_FALSE(sim.run());
        EXPECT_EQ(sim.status(), RunStatus::kNoRetire);
        EXPECT_FALSE(sim.statusDiagnostic().empty());
        return sim.now();
    };

    const Cycle ffAbort = run(true);
    const Cycle refAbort = run(false);
    EXPECT_EQ(ffAbort, refAbort);
    EXPECT_LT(ffAbort, 100000u);  // well before the cycle limit
}

} // namespace
} // namespace rtu
