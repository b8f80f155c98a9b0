/**
 * @file
 * Binary layout contract of the generated microFreeRTOS kernel:
 * TCB field offsets, stack-frame and context-region slot assignment,
 * and kernel sizing constants. Shared between the kernel generator,
 * the RTOSUnit (context word order), tests and the WCET analysis.
 */

#ifndef RTU_KERNEL_LAYOUT_HH
#define RTU_KERNEL_LAYOUT_HH

#include "common/types.hh"

namespace rtu::kernel {

/** Task control block field offsets (bytes). */
constexpr Word kTcbTop = 0;    ///< saved stack pointer (stack contexts)
constexpr Word kTcbId = 4;     ///< RTOSUnit task id
constexpr Word kTcbPrio = 8;
constexpr Word kTcbNext = 12;  ///< kernel-list linkage
constexpr Word kTcbPrev = 16;
constexpr Word kTcbWake = 20;  ///< wake tick while delayed
constexpr Word kTcbSize = 32;

/**
 * List sentinels are laid out like truncated TCBs so the linkage
 * offsets match: next at +12, prev at +16.
 */
constexpr Word kSentinelSize = 32;

/**
 * Software ISR stack frame (vanilla / CV32RT / T configurations):
 * 32 words below the interrupted stack pointer.
 *   slot 0  mepc
 *   slot 1  mstatus
 *   slots 2..13   x1, x5..x15   (software-saved half)
 *   slots 14..29  x16..x31      (CV32RT: hardware-drained half)
 * The stack pointer itself lives in the TCB (pxTopOfStack).
 */
constexpr Word kFrameBytes = 128;
constexpr Word kFrameMepc = 0;
constexpr Word kFrameMstatus = 4;
constexpr Word kFrameX1 = 8;
/** Frame slot byte offset of xN for N in [5, 31]. */
constexpr Word frameSlotOfReg(unsigned n) { return 12 + 4 * (n - 5); }

/**
 * RTOSUnit context-region slot assignment (fixed 32-word chunk per
 * task id): slot 0 mepc, slot 1 mstatus, slot 2 x1, slot 3 x2,
 * slots 4..30 x5..x31. Mirrors rtu::ctxReg().
 */
constexpr Word kCtxMepc = 0;
constexpr Word kCtxMstatus = 4;
constexpr Word kCtxX1 = 8;
constexpr Word kCtxX2 = 12;
constexpr Word ctxSlotOfReg(unsigned n) { return 16 + 4 * (n - 5); }

/** mstatus image for a freshly created task: MPIE | MPP = M. */
constexpr Word kInitialMstatus = 0x1880;

/** Kernel sizing. */
constexpr unsigned kNumPriorities = 8;
constexpr unsigned kMaxTasks = 8;       ///< matches 8-entry hw lists
constexpr unsigned kTaskStackBytes = 512;
constexpr unsigned kIsrStackBytes = 512;

/** Mutex object: word 0 = owner TCB (0 when free), sentinel at +4. */
constexpr Word kMutexOwner = 0;
constexpr Word kMutexSentinel = 4;
constexpr Word kMutexSize = 40;

/** Counting semaphore: word 0 = count, sentinel at +4. */
constexpr Word kSemCount = 0;
constexpr Word kSemSentinel = 4;
constexpr Word kSemSize = 40;

} // namespace rtu::kernel

#endif // RTU_KERNEL_LAYOUT_HH
