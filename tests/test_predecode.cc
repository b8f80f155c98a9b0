/** Pre-decoded instruction store tests: image install/lookup and the
 *  write-invalidation contract (guest stores, sub-word and straddling
 *  writes, injected bit flips), wild-jump fetches ending the run as a
 *  typed guest fault, and self-modifying code behaving identically
 *  with the image on (block mode) and off (the reference). The
 *  matrix-wide image-on/off comparison is part of test_differential. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "asm/decode.hh"
#include "harness/simulation.hh"
#include "rtosunit/config.hh"
#include "sim/memmap.hh"
#include "sim/predecode.hh"

namespace rtu {
namespace {

/** "addi a0, x0, 42" — the patch word self-modifying tests store. */
constexpr Word kLiA042 = 0x02A00513;

struct ImageFixture
{
    Sram imem{"imem", memmap::kImemBase, memmap::kImemSize};
    MemSystem mem;
    PredecodedImage image;

    explicit ImageFixture(const std::vector<Word> &text)
    {
        mem.addDevice(&imem);
        imem.loadWords(memmap::kImemBase, text);
        image.install(mem, memmap::kImemBase, text.size());
    }
};

TEST(Predecode, InstallDecodesEveryTextWord)
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.li(A0, 42);
    a.mv(A1, A0);
    a.label("spin");
    a.j("spin");
    const Program p = a.finish();

    ImageFixture f(p.text);
    ASSERT_TRUE(f.image.installed());
    for (std::size_t i = 0; i < p.text.size(); ++i) {
        const Addr pc = memmap::kImemBase + 4 * static_cast<Addr>(i);
        ASSERT_TRUE(f.image.covers(pc)) << "pc 0x" << std::hex << pc;
        const DecodedInsn &d = f.image.at(pc);
        const DecodedInsn ref = decode(p.text[i]);
        EXPECT_EQ(d.op, ref.op);
        EXPECT_EQ(d.raw, ref.raw);
        EXPECT_EQ(d.imm, ref.imm);
    }
    EXPECT_EQ(f.image.invalidations(), 0u);
}

TEST(Predecode, CoversRejectsOutOfTextAndMisalignedPcs)
{
    ImageFixture f({0x00000013, 0x00000013});  // two nops
    const Addr base = memmap::kImemBase;
    EXPECT_TRUE(f.image.covers(base));
    EXPECT_TRUE(f.image.covers(base + 4));
    EXPECT_FALSE(f.image.covers(base + 8));   // one past the end
    EXPECT_FALSE(f.image.covers(base + 2));   // misaligned
    EXPECT_FALSE(f.image.covers(0xFFFF'FFF0));
    EXPECT_FALSE(f.image.covers(memmap::kDmemBase));
}

TEST(Predecode, WordWriteInTextRedecodes)
{
    ImageFixture f({0x00000013, 0x00000013});
    const Addr pc = memmap::kImemBase + 4;
    ASSERT_EQ(f.image.at(pc).op, Op::kAddi);  // nop = addi x0,x0,0

    f.mem.write32(pc, kLiA042);
    EXPECT_EQ(f.image.invalidations(), 1u);
    EXPECT_EQ(f.image.at(pc).op, Op::kAddi);
    EXPECT_EQ(f.image.at(pc).rd, A0);
    EXPECT_EQ(f.image.at(pc).imm, 42);
    EXPECT_EQ(f.image.at(pc).raw, kLiA042);
    // The untouched word keeps its decode.
    EXPECT_EQ(f.image.at(memmap::kImemBase).raw, 0x00000013u);
}

TEST(Predecode, SubWordWritesRedecodeTheContainingWord)
{
    ImageFixture f({kLiA042});
    const Addr pc = memmap::kImemBase;

    // Byte write into the immediate field: addi a0, x0, 43.
    f.mem.write(pc + 3, 0x02, MemSize::kByte);
    f.mem.write(pc + 2, 0xB0, MemSize::kByte);
    EXPECT_EQ(f.image.invalidations(), 2u);
    EXPECT_EQ(f.image.at(pc).imm, 43);

    // Half write over the low half changes rd to a1.
    f.mem.write(pc, 0x0593, MemSize::kHalf);
    EXPECT_EQ(f.image.invalidations(), 3u);
    EXPECT_EQ(f.image.at(pc).rd, A1);
}

TEST(Predecode, StraddlingWriteRedecodesBothWords)
{
    ImageFixture f({0x00000013, 0x00000013, 0x00000013});
    f.mem.write(memmap::kImemBase + 6, 0xDEADBEEF, MemSize::kWord);
    // Bytes 6..9 span words 1 and 2: both re-decode.
    EXPECT_EQ(f.image.invalidations(), 2u);
    EXPECT_NE(f.image.at(memmap::kImemBase + 4).raw, 0x00000013u);
    EXPECT_NE(f.image.at(memmap::kImemBase + 8).raw, 0x00000013u);
    EXPECT_EQ(f.image.at(memmap::kImemBase).raw, 0x00000013u);
}

TEST(Predecode, WritesOutsideTextDoNotInvalidate)
{
    ImageFixture f({0x00000013, 0x00000013});
    // Still imem, but past the image's two words.
    f.mem.write32(memmap::kImemBase + 64, 0x12345678);
    EXPECT_EQ(f.image.invalidations(), 0u);
}

TEST(Predecode, InjectedBitFlipRedecodesToTheFlippedInstruction)
{
    ImageFixture f({kLiA042});
    const Addr pc = memmap::kImemBase;

    // The fault campaign's flipWord: read, xor one bit, write back.
    const Word flipped = f.mem.read32(pc) ^ (1u << 20);
    f.mem.write32(pc, flipped);

    EXPECT_EQ(f.image.invalidations(), 1u);
    EXPECT_EQ(f.image.at(pc).raw, flipped);
    const DecodedInsn ref = decode(flipped);
    EXPECT_EQ(f.image.at(pc).op, ref.op);
    EXPECT_EQ(f.image.at(pc).imm, ref.imm);
}

SimConfig
bareConfig(bool predecode)
{
    SimConfig cfg;
    cfg.core = CoreKind::kCv32e40p;
    cfg.unit = RtosUnitConfig::vanilla();
    cfg.mode = predecode ? ExecMode::kBlock : ExecMode::kReference;
    cfg.maxCycles = 5000;
    cfg.watchdogCycles = 0;
    return cfg;
}

/** Jump straight into unmapped address space (a fault-corrupted
 *  return context does exactly this). */
Program
wildJumpProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.li(T0, 0x4000'0000);
    a.jalr(Zero, T0, 0);
    return a.finish();
}

TEST(Predecode, WildJumpEndsTheRunAsAGuestFault)
{
    const Program p = wildJumpProgram();
    for (bool predecode : {true, false}) {
        Simulation sim(bareConfig(predecode), p);
        EXPECT_FALSE(sim.run());
        EXPECT_EQ(sim.status(), RunStatus::kGuestFault)
            << "predecode=" << predecode;
        EXPECT_FALSE(sim.statusDiagnostic().empty());
        // The faulting fetch itself is the slow path.
        EXPECT_GE(sim.coreStats().fetchSlowPath, 1u);
    }
}

/** Store a new instruction over the patch site, then execute it. */
Program
selfModifyProgram()
{
    Assembler a(memmap::kImemBase, memmap::kDmemBase);
    a.dataWord("currentTaskId", 0);
    a.la(T0, "patch");
    a.li(T1, static_cast<SWord>(kLiA042));
    a.sw(T1, 0, T0);
    a.label("patch");
    a.mv(A0, Zero);  // overwritten before it executes
    a.label("spin");
    a.j("spin");
    return a.finish();
}

TEST(Predecode, SelfModifyingStoreIsObservedByTheImage)
{
    const Program p = selfModifyProgram();

    auto run = [&](bool predecode) {
        Simulation sim(bareConfig(predecode), p);
        EXPECT_FALSE(sim.run());  // spins to the cycle limit
        EXPECT_EQ(sim.archState().reg(A0), 42u)
            << "predecode=" << predecode
            << ": patched instruction not executed";
        return sim.coreStats();
    };

    const CoreStats on = run(true);
    const CoreStats off = run(false);
    EXPECT_EQ(on.instret, off.instret);
    EXPECT_EQ(on.memOps, off.memOps);
    // With the image on, every fetch hits it and the patch store
    // invalidated exactly one word; off, everything is slow path.
    EXPECT_GT(on.fetchPredecoded, 0u);
    EXPECT_EQ(on.fetchSlowPath, 0u);
    EXPECT_EQ(on.textInvalidations, 1u);
    EXPECT_EQ(off.fetchPredecoded, 0u);
    EXPECT_GT(off.fetchSlowPath, 0u);
    EXPECT_EQ(off.textInvalidations, 0u);
    // Fetch totals are mode-invariant: same instruction stream.
    EXPECT_EQ(on.fetchPredecoded + on.fetchSlowPath,
              off.fetchPredecoded + off.fetchSlowPath);
}

} // namespace
} // namespace rtu
