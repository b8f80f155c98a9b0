/** Harness tests: workload registry, experiment driver, cross-core
 *  runs, activity counters, latency merging, and guest operands and
 *  device accesses that must end a run instead of aborting the host. */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/rng.hh"
#include "harness/experiment.hh"
#include "sim/memmap.hh"

namespace rtu {
namespace {

TEST(Workloads, SuiteHasSevenScenarios)
{
    const auto suite = standardSuite(5);
    EXPECT_EQ(suite.size(), 7u);
    std::set<std::string> names;
    for (const auto &w : suite)
        names.insert(w->info().name);
    EXPECT_EQ(names.size(), suite.size());
}

TEST(Workloads, RegistryFindsEveryName)
{
    for (const char *n :
         {"yield_pingpong", "round_robin", "mutex_workload",
          "delay_wake", "sem_pingpong", "priority_preempt",
          "ext_interrupt"}) {
        auto w = makeWorkload(n, 3);
        EXPECT_EQ(w->info().name, n);
    }
}

TEST(WorkloadsDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeWorkload("nope", 3),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Workloads, ExtInterruptSchedulesOneIrqPerIteration)
{
    auto w = makeExtInterrupt(7);
    const WorkloadInfo info = w->info();
    EXPECT_TRUE(info.usesExternalIrq);
    EXPECT_EQ(info.extIrqSchedule.size(), 7u);
    for (size_t i = 1; i < info.extIrqSchedule.size(); ++i)
        EXPECT_GT(info.extIrqSchedule[i], info.extIrqSchedule[i - 1]);
}

class CrossCore : public ::testing::TestWithParam<CoreKind>
{
};

TEST_P(CrossCore, VanillaAndSltRunEverywhere)
{
    for (const char *cfg : {"vanilla", "SLT"}) {
        auto w = makeYieldPingPong(5);
        const RunResult r =
            runWorkload(GetParam(), RtosUnitConfig::fromName(cfg), *w);
        EXPECT_TRUE(r.ok) << coreKindName(GetParam()) << "/" << cfg;
        EXPECT_GT(r.switchLatency.count(), 5u);
        EXPECT_GT(r.activity.instret, 100u);
        EXPECT_GT(r.activity.cycles, 100u);
    }
}

TEST_P(CrossCore, UnitActivityOnlyWithHardware)
{
    auto w1 = makeYieldPingPong(5);
    const RunResult vanilla =
        runWorkload(GetParam(), RtosUnitConfig::vanilla(), *w1);
    auto w2 = makeYieldPingPong(5);
    const RunResult slt = runWorkload(
        GetParam(), RtosUnitConfig::fromName("SLT"), *w2);
    EXPECT_EQ(vanilla.activity.unitMemWords, 0u);
    EXPECT_GT(slt.activity.unitMemWords, 100u);
    EXPECT_GT(slt.activity.sortPhases, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cores, CrossCore,
    ::testing::Values(CoreKind::kCv32e40p, CoreKind::kCva6,
                      CoreKind::kNax),
    [](const ::testing::TestParamInfo<CoreKind> &info) {
        return coreKindName(info.param);
    });

TEST(Experiment, MergeCombinesSamples)
{
    std::vector<RunResult> runs(2);
    runs[0].switchLatency.add(10);
    runs[0].switchLatency.add(20);
    runs[1].switchLatency.add(30);
    const SampleStats merged = mergeSwitchLatencies(runs);
    EXPECT_EQ(merged.count(), 3u);
    EXPECT_DOUBLE_EQ(merged.mean(), 20.0);
    EXPECT_DOUBLE_EQ(merged.jitter(), 20.0);
}

TEST(Experiment, SuiteRunProducesOneResultPerWorkload)
{
    const auto results =
        runSuite(CoreKind::kCv32e40p, RtosUnitConfig::fromName("T"), 3);
    EXPECT_EQ(results.size(), 7u);
    for (const RunResult &r : results)
        EXPECT_TRUE(r.ok) << r.workload;
}

TEST(Simulation, ReadSymbolWordSeesGuestState)
{
    auto w = makeYieldPingPong(3);
    KernelParams kp;
    kp.unit = RtosUnitConfig::vanilla();
    KernelBuilder kb(kp);
    w->addTasks(kb);
    const Program program = kb.build();
    SimConfig sc;
    sc.core = CoreKind::kCv32e40p;
    sc.unit = kp.unit;
    Simulation sim(sc, program);
    ASSERT_TRUE(sim.run());
    // Both tasks finished: the shared done counter reached 2.
    EXPECT_EQ(sim.readSymbolWord("w_done"), 2u);
    // The tick counter advanced with the 1000-cycle timer.
    EXPECT_GE(sim.readSymbolWord("k_tick_count"), sim.now() / 1000 - 1);
}

TEST(Simulation, SwitchRecordsCarryValidTaskIds)
{
    auto w = makeRoundRobin(3);
    const WorkloadInfo info = w->info();
    KernelParams kp;
    kp.unit = RtosUnitConfig::fromName("SLT");
    KernelBuilder kb(kp);
    w->addTasks(kb);
    const Program program = kb.build();
    SimConfig sc;
    sc.core = CoreKind::kCv32e40p;
    sc.unit = kp.unit;
    sc.maxCycles = info.maxCycles;
    Simulation sim(sc, program);
    ASSERT_TRUE(sim.run());
    for (const SwitchRecord &r : sim.recorder().records()) {
        EXPECT_LT(r.fromTask, 5u);  // idle + 4 workers
        EXPECT_LT(r.toTask, 5u);
        EXPECT_GE(r.entryCycle, r.assertCycle);
        EXPECT_GT(r.mretCycle, r.entryCycle);
    }
}

/** A one-shot guest: t0 = @p t0, then @p emit's instructions, then a
 *  self-loop. */
Program
guestProgram(SWord t0, void (*emit)(Assembler &))
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.li(T0, t0);
    emit(a);
    a.label("end");
    a.j("end");
    return a.finish();
}

/** Run @p program to its end: a guest fault whose diagnostic names
 *  @p what, never a host abort. */
void
expectFaultingRun(const Program &program, const RtosUnitConfig &unit,
                  const char *what)
{
    SimConfig sc;
    sc.core = CoreKind::kCv32e40p;
    sc.unit = unit;
    sc.maxCycles = 1000;
    Simulation sim(sc, program);
    EXPECT_FALSE(sim.run());
    EXPECT_EQ(sim.status(), RunStatus::kGuestFault) << what;
    EXPECT_NE(sim.statusDiagnostic().find(what), std::string::npos)
        << sim.statusDiagnostic();
}

/** Issue one RTOSUnit custom instruction whose id operand (t0) is far
 *  out of range — what a bit flip in a TCB hands the unit. */
void
expectGuestFault(void (*emit)(Assembler &), const char *op)
{
    RtosUnitConfig unit = RtosUnitConfig::fromName("SLT");
    unit.hwsync = true;
    const Program program = guestProgram(0x20'0001, emit);
    expectFaultingRun(program, unit, op);
}

TEST(GuestOperand, SetContextIdOutOfRangeIsAGuestFault)
{
    expectGuestFault([](Assembler &a) { a.rtuSetContextId(T0); },
                     "SET_CONTEXT_ID");
}

TEST(GuestOperand, AddReadyOutOfRangeIsAGuestFault)
{
    expectGuestFault([](Assembler &a) { a.rtuAddReady(T0, Zero); },
                     "ADD_READY");
}

TEST(GuestOperand, RmTaskOutOfRangeIsAGuestFault)
{
    expectGuestFault([](Assembler &a) { a.rtuRmTask(T0); }, "RM_TASK");
}

TEST(GuestOperand, SemTakeOutOfRangeIsAGuestFault)
{
    expectGuestFault([](Assembler &a) { a.rtuSemTake(T1, T0); },
                     "SEM_TAKE");
}

TEST(GuestOperand, SemGiveOutOfRangeIsAGuestFault)
{
    expectGuestFault([](Assembler &a) { a.rtuSemGive(T1, T0); },
                     "SEM_GIVE");
}

TEST(GuestOperand, CustomInsnMissingFromConfigIsAGuestFault)
{
    struct Case
    {
        const char *config;
        void (*emit)(Assembler &);
    };
    const Case cases[] = {
        {"vanilla", [](Assembler &a) { a.rtuSwitchRf(); }},
        {"S", [](Assembler &a) { a.rtuGetHwSched(T1); }},
        {"T", [](Assembler &a) { a.rtuSemTake(T1, Zero); }},
        {"CV32RT", [](Assembler &a) { a.rtuAddReady(Zero, Zero); }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.config);
        expectFaultingRun(guestProgram(0, c.emit),
                          RtosUnitConfig::fromName(c.config),
                          "illegal instruction");
    }
}

TEST(GuestOperand, ZeroTickAddDelayIsAGuestFault)
{
    expectFaultingRun(
        guestProgram(0, [](Assembler &a) { a.rtuAddDelay(Zero, T0); }),
        RtosUnitConfig::fromName("T"), "ADD_DELAY of zero ticks");
}

TEST(GuestOperand, HwListOverflowIsAGuestFault)
{
    // Nine entries into eight slots, through either list.
    expectFaultingRun(guestProgram(1,
                                   [](Assembler &a) {
                                       for (unsigned i = 0; i < 9; ++i)
                                           a.rtuAddReady(T0, T0);
                                   }),
                      RtosUnitConfig::fromName("T"),
                      "hardware list overflow (8 slots)");
    expectFaultingRun(guestProgram(1,
                                   [](Assembler &a) {
                                       for (unsigned i = 0; i < 9; ++i)
                                           a.rtuAddDelay(T0, T0);
                                   }),
                      RtosUnitConfig::fromName("T"),
                      "hardware list overflow (8 slots)");
}

TEST(GuestOperand, GetHwSchedOnEmptyReadyListIsAGuestFault)
{
    expectFaultingRun(
        guestProgram(0, [](Assembler &a) { a.rtuGetHwSched(T1); }),
        RtosUnitConfig::fromName("T"), "hardware ready list empty");
}

TEST(GuestOperand, SetContextIdDuringARestoreIsAGuestFault)
{
    expectFaultingRun(guestProgram(1,
                                   [](Assembler &a) {
                                       a.rtuSetContextId(T0);
                                       a.li(T0, 2);
                                       a.rtuSetContextId(T0);
                                   }),
                      RtosUnitConfig::fromName("SL"),
                      "context restore requested while one is running");
}

/** Set up a stack, trap to the label "isr" and enable MSIP. */
void
emitInterruptSetup(Assembler &a)
{
    a.dataWord("currentTaskId", 0);
    // CV32RT drains its snapshot into a frame below sp.
    a.dataArray("stack", 64);
    a.dataWord("stack_top");
    a.la(SP, "stack_top");
    a.la(T0, "isr");
    a.csrw(csr::kMtvec, T0);
    a.li(T0, static_cast<SWord>(irq::kMsi));
    a.csrw(csr::kMie, T0);
}

/** An ISR that re-enables interrupts while MSIP is still pending, so
 *  a second trap arrives while the unit still handles the first. */
Program
nestedTrapProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    emitInterruptSetup(a);
    a.li(T0, static_cast<SWord>(memmap::kClintMsip));
    a.li(T1, 1);
    a.sw(T1, 0, T0);
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.label("end");
    a.j("end");
    a.label("isr");
    a.csrrsi(Zero, csr::kMstatus, 8);
    a.mret();
    return a.finish();
}

TEST(GuestOperand, NestedTrapDuringTheStoreDrainIsAGuestFault)
{
    for (const char *config : {"S", "SLT"}) {
        SCOPED_TRACE(config);
        expectFaultingRun(nestedTrapProgram(),
                          RtosUnitConfig::fromName(config),
                          "trap taken while the context FSMs are busy");
    }
}

TEST(GuestOperand, NestedTrapDuringTheCv32rtDrainIsAGuestFault)
{
    expectFaultingRun(nestedTrapProgram(), RtosUnitConfig::fromName("CV32RT"),
                      "interrupt re-entered while the CV32RT drain");
}

/**
 * One fuzzed RTOSUnit operand: usually in [lo, hi] (a valid task id,
 * priority, tick count or semaphore id), one time in eight a wild
 * value — zero, small, the context-region edge, 0x101 or -1.
 */
SWord
fuzzOperand(SplitMix64 &rng, unsigned lo, unsigned hi)
{
    static constexpr SWord kWild[] = {0, 1, 2, 3, 4, 5, 6, 7, 8,
                                      31, 32, 0x101, -1};
    if (rng.next() % 8 == 0)
        return kWild[rng.next() % std::size(kWild)];
    return static_cast<SWord>(lo + rng.next() % (hi - lo + 1));
}

/**
 * A random sequence of all eight custom instructions with fuzzed
 * operands, interleaved with MSIP raises and MIE set/clear; the ISR
 * only acks MSIP. With @p boot_tasks, the unit's ready list first
 * holds 0..8 tasks, as after a kernel's boot, so that sequences reach
 * full lists as well as empty ones. Ends in a clean exit if nothing
 * faults.
 */
Program
fuzzProgram(std::uint64_t seed, bool boot_tasks)
{
    constexpr unsigned kSteps = 24;
    SplitMix64 rng(seed);
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    emitInterruptSetup(a);
    const unsigned booted = boot_tasks ? rng.next() % 9 : 0;
    for (unsigned i = 0; i < booted; ++i) {
        a.li(T0, static_cast<SWord>(i));
        a.li(T1, static_cast<SWord>(rng.next() % 8));
        a.rtuAddReady(T0, T1);
    }
    for (unsigned i = 0; i < kSteps; ++i) {
        const SWord id = fuzzOperand(rng, 0, 7);
        switch (rng.next() % 11) {
          case 0:
            a.li(T0, id);
            a.rtuSetContextId(T0);
            break;
          case 1: a.rtuGetHwSched(T2); break;
          case 2:
            a.li(T0, id);
            a.li(T1, fuzzOperand(rng, 0, 7));
            a.rtuAddReady(T0, T1);
            break;
          case 3:
            a.li(T0, fuzzOperand(rng, 0, 7));
            a.li(T1, fuzzOperand(rng, 1, 8));
            a.rtuAddDelay(T0, T1);
            break;
          case 4:
            a.li(T0, id);
            a.rtuRmTask(T0);
            break;
          case 5: a.rtuSwitchRf(); break;
          case 6:
            a.li(T0, fuzzOperand(rng, 0, 3));
            a.rtuSemTake(T2, T0);
            break;
          case 7:
            a.li(T0, fuzzOperand(rng, 0, 3));
            a.rtuSemGive(T2, T0);
            break;
          case 8:
            a.li(T3, static_cast<SWord>(memmap::kClintMsip));
            a.li(T4, 1);
            a.sw(T4, 0, T3);
            break;
          case 9: a.csrrsi(Zero, csr::kMstatus, 8); break;
          default: a.csrrci(Zero, csr::kMstatus, 8); break;
        }
    }
    a.li(T0, static_cast<SWord>(memmap::kHostExit));
    a.sw(Zero, 0, T0);
    a.label("end");
    a.j("end");
    a.label("isr");
    a.li(T5, static_cast<SWord>(memmap::kClintMsip));
    a.sw(Zero, 0, T5);
    a.mret();
    return a.finish();
}

TEST(OperandFuzz, EveryRunEndsInARunStatus)
{
    constexpr unsigned kSeeds = 200;
    std::vector<RtosUnitConfig> units = RtosUnitConfig::paperConfigs();
    for (const char *name : {"ST", "SDLOT", "SPLIT"}) {
        RtosUnitConfig u = RtosUnitConfig::fromName(name);
        u.hwsync = true;
        units.push_back(u);
    }

    // Reaching the counts at all is the property: a host abort ends
    // the test binary instead.
    std::map<RunStatus, unsigned> outcomes;
    for (CoreKind core :
         {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax}) {
        for (const RtosUnitConfig &unit : units) {
            for (unsigned seed = 0; seed < kSeeds; ++seed) {
                const Program program = fuzzProgram(seed, unit.sched);
                SimConfig sc;
                sc.core = core;
                sc.unit = unit;
                sc.maxCycles = 5000;
                Simulation sim(sc, program);
                sim.run();
                ++outcomes[sim.status()];
            }
        }
    }
    EXPECT_GT(outcomes[RunStatus::kExited], 0u);
    EXPECT_GT(outcomes[RunStatus::kGuestFault], 0u);
}

/** One load or store (through t0 = @p addr) that the device at
 *  @p addr does not implement: a wrong access size or an unmapped
 *  register offset inside the device window. */
void
expectMmioFault(Addr addr, void (*emit)(Assembler &), const char *what)
{
    const Program program = guestProgram(static_cast<SWord>(addr), emit);
    expectFaultingRun(program, RtosUnitConfig::vanilla(), what);
}

TEST(GuestMmio, ByteAccessToClintIsAGuestFault)
{
    expectMmioFault(memmap::kClintMtime,
                    [](Assembler &a) { a.lb(T1, 0, T0); },
                    "CLINT read at 0x0200bff8 requires word access");
    expectMmioFault(memmap::kClintMtimecmp,
                    [](Assembler &a) { a.sb(T1, 0, T0); },
                    "CLINT write at 0x02004000 requires word access");
}

TEST(GuestMmio, ClintUnsupportedOffsetIsAGuestFault)
{
    expectMmioFault(memmap::kClintBase + 0x100,
                    [](Assembler &a) { a.lw(T1, 0, T0); },
                    "CLINT read at unsupported offset 0x02000100");
    expectMmioFault(memmap::kClintBase + 0x100,
                    [](Assembler &a) { a.sw(T1, 0, T0); },
                    "CLINT write at unsupported offset 0x02000100");
}

TEST(GuestMmio, ByteAccessToHostIoIsAGuestFault)
{
    expectMmioFault(memmap::kHostCycleLo,
                    [](Assembler &a) { a.lb(T1, 0, T0); },
                    "host I/O read at 0x11000010 requires word access");
    expectMmioFault(memmap::kHostExit,
                    [](Assembler &a) { a.sb(T1, 0, T0); },
                    "host I/O write at 0x11000004 requires word access");

    // Byte writes to the console register stay legal.
    const Program program = guestProgram(
        static_cast<SWord>(memmap::kHostPutchar), [](Assembler &a) {
            a.li(T1, 'x');
            a.sb(T1, 0, T0);
            a.sw(Zero, memmap::kHostExit - memmap::kHostPutchar, T0);
        });
    SimConfig sc;
    sc.core = CoreKind::kCv32e40p;
    sc.unit = RtosUnitConfig::vanilla();
    sc.maxCycles = 1000;
    Simulation sim(sc, program);
    EXPECT_TRUE(sim.run());
    EXPECT_EQ(sim.hostIo().consoleOutput(), "x");
}

TEST(GuestMmio, HostIoUnsupportedOffsetIsAGuestFault)
{
    expectMmioFault(memmap::kHostBase + 0x40,
                    [](Assembler &a) { a.lw(T1, 0, T0); },
                    "host I/O read at unsupported offset 0x11000040");
    expectMmioFault(memmap::kHostBase + 0x40,
                    [](Assembler &a) { a.sw(T1, 0, T0); },
                    "host I/O write at unsupported offset 0x11000040");
}

} // namespace
} // namespace rtu
