/** Generated-image pins: the kernel generator's output for every
 *  program the simulator runs is fixed byte for byte (text, data,
 *  symbols, loop-bound annotations, function ranges), so a refactor of
 *  the generator cannot silently change a trace, counter or lint
 *  result. */

#include <gtest/gtest.h>

#include <cstdint>

#include "analyze/linter.hh"
#include "kernel/kernel.hh"
#include "kernel/layout.hh"
#include "sched/lower.hh"
#include "workloads/workloads.hh"

namespace rtu {
namespace {

/** FNV-1a, fed word by word and string by string. */
class ImageHash
{
  public:
    void
    word(std::uint32_t w)
    {
        for (unsigned i = 0; i < 4; ++i)
            byte(static_cast<std::uint8_t>(w >> (8 * i)));
    }

    void
    str(const std::string &s)
    {
        for (unsigned char c : s)
            byte(c);
        byte(0);
    }

    void
    program(const Program &p)
    {
        word(p.textBase);
        word(static_cast<std::uint32_t>(p.text.size()));
        for (Word w : p.text)
            word(w);
        word(p.dataBase);
        word(static_cast<std::uint32_t>(p.data.size()));
        for (Word w : p.data)
            word(w);
        for (const auto &[name, addr] : p.symbols) {
            str(name);
            word(addr);
        }
        for (const auto &[addr, bound] : p.loopBounds) {
            word(addr);
            word(bound);
        }
        for (const auto &[name, range] : p.functions) {
            str(name);
            word(range.first);
            word(range.second);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001b3ull;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

Program
buildKernelImage(const RtosUnitConfig &unit, const Workload &workload)
{
    const WorkloadInfo info = workload.info();
    KernelParams kparams;
    kparams.unit = unit;
    kparams.usesExternalIrq = info.usesExternalIrq;
    kparams.usesDelayUntil = info.usesDelayUntil;
    KernelBuilder kb(kparams);
    workload.addTasks(kb);
    return kb.build();
}

TEST(KernelImage, EveryGeneratedProgramIsPinned)
{
    ImageHash h;
    unsigned points = 0;
    forEachGeneratedProgram([&](const LintPoint &point) {
        h.program(point.program);
        ++points;
    });
    EXPECT_EQ(points, 105u);
    EXPECT_EQ(h.value(), 0x2f14619cd783fef0ull);
}

TEST(KernelImage, DelayUntilKernelsArePinned)
{
    // Lowered sched tasksets are the only images with k_delay_until
    // (and, on hardware-scheduler configurations, the tick-count bump
    // in the timer ISR path).
    const Taskset ts = makeTaskset(1, TasksetParams{});
    const auto workload =
        lowerTaskset(ts, LowerParams{}, BusyCalibration{}, "pin");
    ASSERT_TRUE(workload->info().usesDelayUntil);
    ImageHash h;
    for (const RtosUnitConfig &unit : RtosUnitConfig::paperConfigs()) {
        const Program p = buildKernelImage(unit, *workload);
        EXPECT_TRUE(p.symbols.count("k_delay_until")) << unit.name();
        h.program(p);
    }
    EXPECT_EQ(h.value(), 0x4c655b40c26cab01ull);
}

TEST(KernelImage, FixedStackLayoutIsDeterministic)
{
    const auto w = makeWorkload("yield_pingpong", 3);
    const RtosUnitConfig unit = RtosUnitConfig::fromName("SLT");
    const Program fixed = buildKernelImage(unit, *w);
    const Program again = buildKernelImage(unit, *w);
    EXPECT_EQ(fixed.text, again.text);
    EXPECT_EQ(fixed.data, again.data);
    EXPECT_EQ(fixed.symbols, again.symbols);

    // Fixed-size layout: every task stack is exactly kTaskStackBytes.
    const Addr base = fixed.symbol("k_stack_0");
    const Addr top = fixed.symbol("k_stack_0_top");
    EXPECT_EQ(top - base, kernel::kTaskStackBytes);
}

} // namespace
} // namespace rtu
