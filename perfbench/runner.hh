/**
 * @file
 * Benchmark workloads and the pass that runs their ops.
 *
 * A workload is a fixed list of independent ops built in set-up. One
 * pass runs every op once through SweepRunner::forEachIndex, writing
 * each op's outcome and host time into its own slot, so a pass gives
 * the same outcomes at any worker count. In a traced pass every op
 * records its layer calls into its own SpanLog.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "span.hh"
#include "summary.hh"

namespace perfbench {

/** What one op produced. */
struct OpResult
{
    bool failed = false;
    std::string error;          ///< why it failed (first reason)
    std::uint64_t digest = 0;   ///< FNV-1a over its deterministic output
    /** Exact per-layer counts, summed over a pass by metric name. */
    std::map<std::string, double> counts;
    /** Workload-private modelled values read by modelMetrics(). */
    std::map<std::string, double> model;
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Build the op list and its inputs; @p trace may be null. */
    virtual void setup(std::uint64_t seed, SpanLog *trace) = 0;
    virtual std::size_t ops() const = 0;

    /**
     * Run op @p i. Untraced (@p trace null) it goes through the
     * library's top-level entry point; traced it makes the same work's
     * layer calls one by one inside spans. Both must give the same
     * digest. Called concurrently for distinct @p i.
     */
    virtual OpResult runOp(std::size_t i, SpanLog *trace) const = 0;

    /** Labels op @p i belongs to (core, workload) for per-group
     *  layer times. */
    virtual std::vector<std::string>
    groups(std::size_t) const
    {
        return {};
    }

    /** Modelled results of one pass (simulated time, not host time). */
    virtual std::vector<Metric>
    modelMetrics(const std::vector<OpResult> &) const
    {
        return {};
    }

    /** Checks run once outside the timed phase; returns failures. */
    virtual std::vector<std::string>
    verify(const std::vector<OpResult> &) const
    {
        return {};
    }
};

/** The benchmark's workloads by name; nullptr for an unknown name. */
std::unique_ptr<BenchWorkload> makeBenchWorkload(const std::string &name);
const std::vector<std::string> &benchWorkloadNames();

/** One pass over every op. */
struct PassResult
{
    std::vector<OpResult> ops;
    std::vector<std::int64_t> opNs;   ///< host time per op
    std::int64_t wallNs = 0;          ///< whole pass, fan-out included
    std::vector<SpanLog> logs;        ///< per op; empty when untraced

    std::uint64_t failed() const;
    /** FNV-1a over the per-op digests in op order. */
    std::uint64_t digest() const;
    /** 1 - (op time summed) / (workers x wall time). */
    double idleFraction(unsigned workers) const;
};

/**
 * Run every op of @p w once on @p workers threads. An op that throws
 * counts as failed, with the exception's message as its error.
 */
PassResult runPass(const BenchWorkload &w, unsigned workers, bool traced);

/** The timed passes of one kind (traced or not) in one run. */
struct Measured
{
    PassResult first;  ///< kept whole for the output checks
    std::vector<std::vector<std::int64_t>> opNs;  ///< per pass, per op
    std::vector<double> passWallNs;
    std::int64_t wallNs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::uint64_t> digests;  ///< per pass
    double idleSum = 0.0;                ///< idleFraction() summed

    std::size_t passes() const { return opNs.size(); }
    double failedFraction() const;

    /** Fold in one pass; a traced pass hands its spans to @p logs. */
    void record(PassResult pass, unsigned workers,
                std::vector<SpanLog> *logs);
};

/** @p num / @p den, or 0 when @p den is 0. */
double ratio(double num, double den);

/** Each op's best (lowest) host time over the passes of @p m. */
std::vector<double> bestOpNs(const Measured &m);

/**
 * Wall time of one pass whose ops take @p op_ns each, handed out in
 * index order to the first free of @p workers workers, as
 * SweepRunner::forEachIndex does.
 */
double poolMakespan(const std::vector<double> &op_ns, unsigned workers);

/**
 * End-to-end metrics of untraced passes. Host times are each op's best
 * time over the run's passes (min-of-N), which drops the time lost to
 * other load on the host, multiplied by @p scale (see probe.hh):
 * op_p50_ms and op_tail_ms are the median and tail of those times
 * (@p tail gets the percentile), and ops_per_s is the op count over
 * the pool makespan of a pass made of them. Set-up time (also scaled),
 * peak memory and the share of ops that did not fail complete the set.
 */
std::vector<Metric> endToEndMetrics(const Measured &m, unsigned workers,
                                    double scale, double setup_s,
                                    double peak_rss_mb,
                                    std::optional<Tail> &tail);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
