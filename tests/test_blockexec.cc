/** Block-execution tests: the stop predicate that decides which
 *  decoded words may run in-block, and the end-to-end acceptance case:
 *  a mid-block bit flip written by the running guest is executed as
 *  flipped, identically in block mode and in the per-cycle reference.
 *  Counter plumbing through the sweep JSONL stream is checked last. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "asm/decode.hh"
#include "harness/simulation.hh"
#include "rtosunit/config.hh"
#include "sim/memmap.hh"
#include "sweep/sweep.hh"

namespace rtu {
namespace {

/** The stop predicate over every opcode: CSR, system and RTOSUnit
 *  custom ops never run in-block, nor does an invalid word; the
 *  RV32I ALU, load, store, branch and jump ops and RV32M may. */
TEST(Blockexec, StopPredicateRejectsCsrSystemCustomAndInvalidWords)
{
    for (std::size_t i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        DecodedInsn insn;
        insn.op = op;
        insn.cls = classOf(op);
        const bool runnable =
            op < Op::kFence || (op >= Op::kMul && op <= Op::kRemu);
        EXPECT_EQ(blockRunnable(insn), runnable) << opName(op);
    }

    // Decoded words: one of each accepted kind, then one of each
    // rejected kind, ending with an invalid encoding.
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.label("top");
    a.addi(A0, Zero, 1);
    a.div(A0, A0, A1);
    a.lw(T1, 0, T0);
    a.sw(A1, 0, T0);
    a.beq(A0, A1, "top");
    a.j("top");
    a.ecall();
    a.csrrw(A0, csr::kMscratch, A0);
    a.rtuSwitchRf();
    std::vector<Word> text = a.finish().text;
    text.push_back(0);
    ASSERT_FALSE(decode(text.back()).valid());
    for (std::size_t w = 0; w < text.size(); ++w)
        EXPECT_EQ(blockRunnable(decode(text[w])), w < 6) << "word " << w;
}

SimConfig
bareConfig(bool block_exec)
{
    SimConfig cfg;
    cfg.core = CoreKind::kCv32e40p;
    cfg.unit = RtosUnitConfig::vanilla();
    cfg.mode = block_exec ? ExecMode::kBlock : ExecMode::kReference;
    cfg.maxCycles = 5000;
    cfg.watchdogCycles = 0;
    return cfg;
}

/** Flip bit 20 of a later instruction in the same straight-line run —
 *  the immediate's LSB of "addi a0, x0, 0" — then fall through into
 *  it. The store and its target sit in one superblock, so this is the
 *  worst case for a stale decode: the flip must re-decode the word
 *  mid-run and the flipped instruction must execute. */
Program
midBlockFlipProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "patch");
    a.lw(T1, 0, T0);
    a.li(T2, 1 << 20);
    a.xor_(T1, T1, T2);
    a.sw(T1, 0, T0);
    a.label("patch");
    a.addi(A0, Zero, 0);  // becomes addi a0, x0, 1 after the flip
    a.label("spin");
    a.j("spin");
    return a.finish();
}

TEST(Blockexec, MidBlockBitFlipExecutesTheFlip)
{
    const Program p = midBlockFlipProgram();

    auto run = [&](bool block_exec) {
        Simulation sim(bareConfig(block_exec), p);
        EXPECT_FALSE(sim.run());  // spins to the cycle limit
        EXPECT_EQ(sim.archState().reg(A0), 1u)
            << "block_exec=" << block_exec
            << ": flipped instruction not executed";
        return sim.coreStats();
    };

    const CoreStats on = run(true);
    const CoreStats off = run(false);
    EXPECT_EQ(on.instret, off.instret);
    EXPECT_EQ(on.memOps, off.memOps);
    EXPECT_EQ(on.stallCycles, off.stallCycles);
    // The guest store re-decoded one text word; the reference never
    // installs the image.
    EXPECT_EQ(on.textInvalidations, 1u);
    EXPECT_GT(on.blocksExecuted, 0u);
    EXPECT_EQ(off.blocksExecuted, 0u);
}

/** A load whose effective address wraps past 2^32 (x0 - 2) is not
 *  plain SRAM: block mode must leave it to the per-instruction path,
 *  so its guest fault ends the run on the reference's cycle. */
TEST(Blockexec, WrappingLoadAddressFaultsOnTheReferenceCycle)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    for (int i = 0; i < 8; ++i)
        a.addi(A0, A0, 1);
    a.lw(A1, -2, Zero);
    a.label("spin");
    a.j("spin");
    const Program p = a.finish();

    for (CoreKind core :
         {CoreKind::kCv32e40p, CoreKind::kCva6, CoreKind::kNax}) {
        auto run = [&](bool block_exec) {
            SimConfig cfg = bareConfig(block_exec);
            cfg.core = core;
            Simulation sim(cfg, p);
            EXPECT_FALSE(sim.run());
            EXPECT_EQ(sim.status(), RunStatus::kGuestFault);
            return std::pair{sim.now(), sim.coreStats().instret};
        };
        EXPECT_EQ(run(true), run(false)) << coreKindName(core);
    }
}

TEST(Blockexec, CountersFlowThroughTheSweepJsonlStream)
{
    SweepPoint p;
    p.core = CoreKind::kCv32e40p;
    p.unit = RtosUnitConfig::vanilla();
    p.workload = "round_robin";
    p.iterations = 3;
    p.reseed();

    std::vector<SweepResult> on{runSweepPoint(p, false)};
    const std::vector<SweepResult> off{
        runSweepPoint(p, false, ExecMode::kReference)};

    EXPECT_GT(on[0].run.throughput.cyclesBlockExecuted, 0u);
    EXPECT_GT(on[0].run.coreStats.blocksExecuted, 0u);
    EXPECT_EQ(off[0].run.throughput.cyclesBlockExecuted, 0u);
    EXPECT_EQ(off[0].run.coreStats.blocksExecuted, 0u);
    EXPECT_EQ(off[0].run.coreStats.blockFallbacks, 0u);

    std::ostringstream os;
    writeResultsJsonl(os, on);
    const std::string line = os.str();
    const auto occurrences = [&line](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t at = line.find(needle); at != std::string::npos;
             at = line.find(needle, at + 1))
            ++n;
        return n;
    };
    // Every kernel and core counter appears exactly once, as
    // `"name":value` followed by the next field.
    const auto expectField = [&](const char *name, std::uint64_t value) {
        const std::string key = std::string("\"") + name + "\":";
        EXPECT_EQ(occurrences(key), 1u) << name << " in " << line;
        EXPECT_EQ(occurrences(key + std::to_string(value) + ","), 1u)
            << name << " in " << line;
    };
    for (const auto &row : kSimKernelStatsTable)
        expectField(row.name, on[0].run.throughput.*row.member);
    for (const auto &row : kCoreStatsTable)
        expectField(row.name, on[0].run.coreStats.*row.member);
}

} // namespace
} // namespace rtu
