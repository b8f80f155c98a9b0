/** Differential harness for the execution modes: every paper
 *  configuration (plus the +HS extension points) x every workload,
 *  and six CV32E40P spin-heavy points at the 10k-cycle timer, run in
 *  block mode (predecoded image, fast-forward, superblock execution)
 *  and in the per-cycle reference, which has none of those layers and
 *  decodes every fetch from memory. Episode traces, cycle counts,
 *  status and all semantic counters must be byte-identical, so one
 *  comparison covers every acceleration layer at once. This is the
 *  contract that makes the accelerated path trustworthy for the
 *  paper's latency/jitter numbers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <string>
#include <vector>

#include "rtosunit/config.hh"
#include "sweep/sweep.hh"

namespace rtu {
namespace {

/** paperConfigs() + the three +HS composition points — the same
 *  matrix the lint gate walks (see analyze/linter.cc). */
std::vector<RtosUnitConfig>
matrixConfigs()
{
    std::vector<RtosUnitConfig> units = RtosUnitConfig::paperConfigs();
    for (const char *name : {"ST", "SDLOT", "SPLIT"}) {
        RtosUnitConfig u = RtosUnitConfig::fromName(name);
        u.hwsync = true;
        units.push_back(u);
    }
    return units;
}

TEST(Differential, FastForwardMatchesReferenceAcrossTheMatrix)
{
    const std::vector<RtosUnitConfig> units = matrixConfigs();
    const std::array<const char *, 7> workloads = {
        "yield_pingpong", "round_robin",   "mutex_workload",
        "delay_wake",     "sem_pingpong",  "priority_preempt",
        "ext_interrupt"};
    const std::array<CoreKind, 3> cores = {
        CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax};

    // The comparison below covers exactly the counters the table
    // marks mode-invariant: the eight architectural and timing-model
    // ones. Un-marking one would silently shrink this test.
    const auto invariant = [](const auto &row) { return row.modeInvariant; };
    EXPECT_EQ(std::count_if(std::begin(kCoreStatsTable),
                            std::end(kCoreStatsTable), invariant),
              8);

    // Run one point in both modes and compare.
    const auto check = [&](const SweepPoint &p) {
        const SweepResult ref =
            runSweepPoint(p, true, ExecMode::kReference);
        const SweepResult ff = runSweepPoint(p, true, ExecMode::kBlock);
        const std::string key = p.key();

        // The reference never skips and never block-executes; every
        // reference cycle is accounted exactly once in block mode:
        // ticked, bulk-skipped, or block-executed.
        EXPECT_EQ(ref.run.throughput.cyclesSkipped, 0u) << key;
        EXPECT_EQ(ref.run.throughput.cyclesBlockExecuted, 0u) << key;
        EXPECT_EQ(ff.run.throughput.cyclesTicked +
                      ff.run.throughput.cyclesSkipped +
                      ff.run.throughput.cyclesBlockExecuted,
                  ref.run.throughput.cyclesTicked)
            << key;

        EXPECT_EQ(ff.run.ok, ref.run.ok) << key;
        EXPECT_EQ(ff.run.status, ref.run.status) << key;
        EXPECT_EQ(ff.run.exitCode, ref.run.exitCode) << key;
        EXPECT_EQ(ff.run.cycles, ref.run.cycles) << key;

        const CoreStats &a = ff.run.coreStats;
        const CoreStats &b = ref.run.coreStats;
        for (const auto &row : kCoreStatsTable) {
            if (row.modeInvariant) {
                EXPECT_EQ(a.*row.member, b.*row.member)
                    << key << " " << row.name;
            }
        }
        for (const auto &row : kActivityCountersTable) {
            if (row.modeInvariant) {
                EXPECT_EQ(ff.run.activity.*row.member,
                          ref.run.activity.*row.member)
                    << key << " " << row.name;
            }
        }
        // The front end total is the same instruction stream; only
        // the predecoded/slow-path split moves with the mode. No
        // kernel workload jumps out of text, so block mode fetches
        // everything from the image and the reference nothing.
        EXPECT_EQ(a.fetchPredecoded + a.fetchSlowPath,
                  b.fetchPredecoded + b.fetchSlowPath)
            << key;
        EXPECT_EQ(a.fetchSlowPath, 0u) << key;
        EXPECT_EQ(b.fetchPredecoded, 0u) << key;

        EXPECT_TRUE(ff.run.switchLatency.samples() ==
                    ref.run.switchLatency.samples())
            << key << ": switch-latency samples differ";
        EXPECT_TRUE(ff.run.episodeLatency.samples() ==
                    ref.run.episodeLatency.samples())
            << key << ": episode-latency samples differ";
        EXPECT_TRUE(ff.trace == ref.trace)
            << key << ": episode trace JSONL differs ("
            << ff.trace.size() << " vs " << ref.trace.size()
            << " bytes)";
    };

    size_t idx = 0;
    for (const RtosUnitConfig &unit : units) {
        for (const char *w : workloads) {
            SweepPoint p;
            // Round-robin the cores over the matrix: each core model
            // still sees every configuration and every workload.
            p.core = cores[idx % cores.size()];
            p.unit = unit;
            p.workload = w;
            p.iterations = 3;
            p.reseed();
            ++idx;
            check(p);
        }
    }
    EXPECT_EQ(idx, 105u);  // 15 configurations x 7 workloads

    // The 10k-cycle timer leaves the CV32E40P long stretches of a
    // background spin between interrupts: block execution carries
    // them up to each event horizon, so the interrupt lands at the
    // same loop phase in both modes.
    for (const char *name : {"vanilla", "SLT", "SPLIT"}) {
        for (const char *w : {"priority_preempt", "ext_interrupt"}) {
            SweepPoint p;
            p.core = CoreKind::kCv32e40p;
            p.unit = RtosUnitConfig::fromName(name);
            p.workload = w;
            p.iterations = 3;
            p.timerPeriodCycles = 10000;
            p.reseed();
            check(p);
        }
    }
}

} // namespace
} // namespace rtu
