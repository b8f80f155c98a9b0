/**
 * @file
 * Guest physical memory map.
 *
 * Mirrors a typical small RISC-V SoC: tightly-coupled instruction and
 * data SRAM, a CLINT for timer/software interrupts, and a host-I/O
 * block the testbench uses for output and event signalling. The
 * RTOSUnit context region is a reserved slice of DMEM (paper
 * Section 4.2(3)): 32 words per task, addressed by task id.
 */

#ifndef RTU_SIM_MEMMAP_HH
#define RTU_SIM_MEMMAP_HH

#include "common/types.hh"

namespace rtu::memmap {

constexpr Addr kImemBase = 0x0000'0000;
constexpr Addr kImemSize = 256 * 1024;

constexpr Addr kDmemBase = 0x1000'0000;
constexpr Addr kDmemSize = 256 * 1024;

/** RTOSUnit context region: task id -> kCtxBase + (id << 7). */
constexpr Addr kCtxBase = 0x1003'0000;
constexpr unsigned kCtxShift = 7;          // 32 words = 128 bytes
constexpr unsigned kCtxWordsPerTask = 32;  // 31 used + 1 padding
constexpr unsigned kCtxMaxTasks = 32;
constexpr Addr kCtxSize = kCtxMaxTasks << kCtxShift;

/** [@p addr, @p addr + @p size) lies wholly in IMEM / DMEM (the
 *  unsigned difference also rejects addresses below the base). */
constexpr bool
inImem(Addr addr, Addr size = 1)
{
    return addr - kImemBase <= kImemSize - size;
}

constexpr bool
inDmem(Addr addr, Addr size = 1)
{
    return addr - kDmemBase <= kDmemSize - size;
}

static_assert(kCtxBase + kCtxSize <= kDmemBase + kDmemSize,
              "context region must sit inside DMEM");

constexpr Addr ctxAddr(TaskId id) { return kCtxBase + (Addr{id} << kCtxShift); }

/** CLINT (RISC-V platform standard offsets). */
constexpr Addr kClintBase = 0x0200'0000;
constexpr Addr kClintSize = 0x0001'0000;
constexpr Addr kClintMsip = kClintBase + 0x0000;
constexpr Addr kClintMtimecmp = kClintBase + 0x4000;
constexpr Addr kClintMtimecmpHi = kClintBase + 0x4004;
constexpr Addr kClintMtime = kClintBase + 0xBFF8;
constexpr Addr kClintMtimeHi = kClintBase + 0xBFFC;

/** Host I/O block (simulation testbench device). */
constexpr Addr kHostBase = 0x1100'0000;
constexpr Addr kHostSize = 0x100;
constexpr Addr kHostPutchar = kHostBase + 0x00;  ///< W: console byte
constexpr Addr kHostExit = kHostBase + 0x04;     ///< W: stop sim, code
constexpr Addr kHostTrace = kHostBase + 0x08;    ///< W: log (tag<<24|val)
constexpr Addr kHostCycleLo = kHostBase + 0x10;  ///< R: cycle counter
constexpr Addr kHostCycleHi = kHostBase + 0x14;
constexpr Addr kHostExtAck = kHostBase + 0x18;   ///< W: ack ext irq
constexpr Addr kHostRand = kHostBase + 0x1C;     ///< R: xorshift PRNG

} // namespace rtu::memmap

#endif // RTU_SIM_MEMMAP_HH
