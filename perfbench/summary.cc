#include "summary.hh"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<Tail>
tailPercentile(std::vector<double> values, std::size_t beyond)
{
    const size_t n = values.size();
    if (n <= beyond)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    const size_t rank = n - beyond;  // 1-based
    Tail t;
    t.percentile = 100.0 * static_cast<double>(rank) /
                   static_cast<double>(n);
    t.value = values[rank - 1];
    return t;
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void
writeResultJson(std::ostream &os, bool correct, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Metric> &metrics)
{
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << formatNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}\n";
}

} // namespace perfbench
