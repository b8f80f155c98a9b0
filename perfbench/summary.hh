/**
 * @file
 * Order statistics and result formatting for the benchmark report.
 */

#ifndef PERFBENCH_SUMMARY_HH
#define PERFBENCH_SUMMARY_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count). */
double median(std::vector<double> values);

/** A tail reading: the value and the percentile it sits at. */
struct Tail
{
    double percentile = 0.0;  ///< 0..100
    double value = 0.0;
};

/**
 * The highest nearest-rank percentile that still has at least
 * @p beyond samples ranked above it: rank n - beyond of the sorted
 * samples. Empty when there are not more than @p beyond samples.
 */
std::optional<Tail> tailPercentile(std::vector<double> values,
                                   std::size_t beyond = 10);

/** One named, unit-carrying number of the report. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Shortest decimal text that reads back as exactly @p v. */
std::string formatNumber(double v);

/**
 * The result line: `{"correct":..,"attempted":..,"failed":..,
 * "metrics":{"<name>":{"value":..,"unit":".."},..}}`.
 */
void writeResultJson(std::ostream &os, bool correct,
                     std::uint64_t attempted, std::uint64_t failed,
                     const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_SUMMARY_HH
