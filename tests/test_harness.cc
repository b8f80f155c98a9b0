/** Harness tests: workload registry, experiment driver, cross-core
 *  runs, activity counters, latency merging, and guest operands and
 *  device accesses that must end a run instead of aborting the host. */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
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
