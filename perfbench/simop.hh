/**
 * @file
 * One simulated run split into the layer calls rtu::runWorkload makes:
 * kernel build, image install (the Simulation constructor: predecode
 * image and block index) and the run itself, each in its own span.
 */

#ifndef PERFBENCH_SIMOP_HH
#define PERFBENCH_SIMOP_HH

#include <map>
#include <memory>
#include <string>

#include "asm/program.hh"
#include "harness/experiment.hh"
#include "harness/simulation.hh"
#include "span.hh"
#include "workloads/workloads.hh"

namespace perfbench {

struct SimRun
{
    /** Owned on the heap: the Simulation keeps a reference to it. */
    std::unique_ptr<rtu::Program> program;
    std::unique_ptr<rtu::Simulation> sim;
    bool exited = false;
};

/** Build, install and run @p workload as runWorkload() would. */
SimRun runSimulation(rtu::CoreKind core, const rtu::RtosUnitConfig &unit,
                     const rtu::Workload &workload, rtu::Word timer_period,
                     unsigned ctx_queue_entries, SpanLog *trace);

/** The RunResult fields runWorkload() fills, from a finished run. */
rtu::RunResult runResultOf(const SimRun &run, rtu::CoreKind core,
                           const rtu::RtosUnitConfig &unit,
                           const std::string &workload);

/** Lower-case core id used in metric names (cv32e40p, cva6, nax). */
const char *coreId(rtu::CoreKind core);

/**
 * Add the exact per-layer counts of a finished run: simulation-kernel
 * and core counters, RTOSUnit activity and the episode phase sums
 * (trace.<phase>_sum / trace.<phase>_n).
 */
void addSimCounts(const SimRun &run, const rtu::RunResult &result,
                  std::map<std::string, double> &counts);

} // namespace perfbench

#endif // PERFBENCH_SIMOP_HH
