/** Cycle accounting across execution modes: the per-event core
 *  counters never claim more cycles than ran, and a block-execution
 *  bound that lands inside an instruction's stall hands the remainder
 *  to the per-cycle path exactly where the reference would be. */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "asm/assembler.hh"
#include "harness/simulation.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

/** A 31-bit divide whose result the next instruction consumes, in a
 *  loop: every iteration is one long divider/RAW stall. The external
 *  interrupt is enabled; its handler acknowledges it and counts in
 *  s1. */
Program
divUseLoop()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "handler");
    a.csrw(csr::kMtvec, T0);
    a.li(T0, static_cast<SWord>(irq::kMei));
    a.csrw(csr::kMie, T0);
    a.li(T0, static_cast<SWord>(mstatus::kMie));
    a.csrw(csr::kMstatus, T0);
    a.li(T1, 0x7fff'ffff);
    a.li(T2, 3);
    a.label("loop");
    a.div(T3, T1, T2);
    a.add(T4, T3, T3);
    a.addi(S0, S0, 1);
    a.j("loop");
    a.label("handler");
    a.li(T5, static_cast<SWord>(memmap::kHostExtAck));
    a.sw(Zero, 0, T5);
    a.addi(S1, S1, 1);
    a.mret();
    return a.finish();
}

SimConfig
bareConfig(CoreKind core, ExecMode mode, std::uint64_t cycles)
{
    SimConfig cfg;
    cfg.core = core;
    cfg.unit = RtosUnitConfig::vanilla();
    cfg.mode = mode;
    cfg.maxCycles = cycles;
    cfg.watchdogCycles = 0;
    return cfg;
}

TEST(CoreAccounting, RetiredStalledAndSleepingCyclesFitTheRun)
{
    // Single-issue cores retire, stall or sleep at most once a cycle
    // (NaxRiscv retires two a cycle, so it is left out).
    const Program p = divUseLoop();
    for (CoreKind core : {CoreKind::kCv32e40p, CoreKind::kCva6}) {
        for (ExecMode mode : {ExecMode::kReference, ExecMode::kBlock}) {
            Simulation sim(bareConfig(core, mode, 10000), p);
            EXPECT_FALSE(sim.run());
            const CoreStats &s = sim.coreStats();
            EXPECT_LE(s.instret + s.stallCycles + s.wfiCycles, sim.now())
                << coreKindName(core) << " [" << execModeName(mode)
                << "]: instret " << s.instret << ", stalls "
                << s.stallCycles << ", wfi " << s.wfiCycles;
        }
    }
}

std::unique_ptr<Simulation>
runWithIrq(const Program &p, CoreKind core, ExecMode mode, Cycle irq_at)
{
    auto sim =
        std::make_unique<Simulation>(bareConfig(core, mode, 400), p);
    sim->scheduleExtIrq(irq_at);
    EXPECT_FALSE(sim->run());
    return sim;
}

TEST(HorizonSplit, IrqAtEveryOffsetOfADivideStallMatchesTheReference)
{
    // The external interrupt is the block-execution bound. Sweeping it
    // over the first loop iterations lands the bound on every cycle of
    // a divide's stall, on all three cores.
    const Program p = divUseLoop();
    for (CoreKind core :
         {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax}) {
        std::uint64_t blockCycles = 0;
        for (Cycle at = 1; at <= 120; ++at) {
            const auto ref = runWithIrq(p, core, ExecMode::kReference, at);
            const auto blk = runWithIrq(p, core, ExecMode::kBlock, at);
            const std::string key = std::string(coreKindName(core)) +
                                    " irq@" + std::to_string(at);
            blockCycles += blk->kernelStats().cyclesBlockExecuted;

            EXPECT_EQ(blk->now(), ref->now()) << key;
            EXPECT_EQ(blk->status(), ref->status()) << key;
            EXPECT_EQ(blk->archState().pc(), ref->archState().pc()) << key;
            for (RegIndex r = 1; r < 32; ++r)
                EXPECT_EQ(blk->archState().reg(r), ref->archState().reg(r))
                    << key << " x" << unsigned(r);
            EXPECT_EQ(ref->archState().reg(S1), 1u) << key;

            const CoreStats &a = blk->coreStats();
            const CoreStats &b = ref->coreStats();
            for (const auto &row : kCoreStatsTable) {
                if (row.modeInvariant) {
                    EXPECT_EQ(a.*row.member, b.*row.member)
                        << key << " " << row.name;
                }
            }
            EXPECT_EQ(a.fetchPredecoded + a.fetchSlowPath,
                      b.fetchPredecoded + b.fetchSlowPath)
                << key;

            const auto &ra = blk->recorder().records();
            const auto &rb = ref->recorder().records();
            ASSERT_EQ(ra.size(), rb.size()) << key;
            for (std::size_t i = 0; i < ra.size(); ++i) {
                EXPECT_EQ(ra[i].assertCycle, rb[i].assertCycle) << key;
                EXPECT_EQ(ra[i].entryCycle, rb[i].entryCycle) << key;
                EXPECT_EQ(ra[i].mretCycle, rb[i].mretCycle) << key;
            }
        }
        EXPECT_GT(blockCycles, 0u) << coreKindName(core);
    }
}

} // namespace
} // namespace rtu
