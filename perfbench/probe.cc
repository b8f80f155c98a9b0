#include "probe.hh"

#include <algorithm>
#include <utility>

#include "common/rng.hh"
#include "span.hh"
#include "sweep/sweep.hh"

namespace perfbench {

namespace {

constexpr std::size_t kRingEntries = std::size_t{1} << 22;  // 16 MiB
constexpr int kChaseSteps = 150'000;
constexpr int kChurnSteps = 10'000;

} // namespace

SpeedProbe::SpeedProbe(unsigned workers) : workers_(workers)
{
    for (unsigned k = 0; k < workers; ++k) {
        // Sattolo's shuffle: one random cycle through every entry, so
        // the chase never settles into a short, cached loop.
        std::vector<std::uint32_t> ring(kRingEntries);
        for (std::size_t i = 0; i < ring.size(); ++i)
            ring[i] = static_cast<std::uint32_t>(i);
        rtu::SplitMix64 rng(k + 1);
        for (std::size_t i = ring.size() - 1; i > 0; --i)
            std::swap(ring[i], ring[rng.below(i)]);
        rings_.push_back(std::move(ring));
    }
}

double
SpeedProbe::run() const
{
    std::vector<double> ns(workers_);
    const rtu::SweepRunner runner(workers_);
    runner.forEachIndex(workers_, [&](std::size_t k) {
        const std::int64_t t0 = nowNs();
        std::uint32_t at = 0;
        for (int i = 0; i < kChaseSteps; ++i)
            at = rings_[k][at];
        std::vector<std::vector<std::int64_t>> churn;
        std::int64_t sum = 0;
        for (int i = 0; i < kChurnSteps; ++i) {
            churn.emplace_back(i % 32 + 1, i);
            if (churn.size() > 64) {
                sum += churn.front().back();
                churn.erase(churn.begin());
            }
        }
        // The results feed the timing so the loops cannot be dropped.
        ns[k] = static_cast<double>(nowNs() - t0) +
                ((at ^ static_cast<std::uint32_t>(sum)) == 1u ? 1e-9 : 0.0);
    });
    return *std::min_element(ns.begin(), ns.end());
}

std::size_t
SpeedProbe::bytes() const
{
    return rings_.size() * kRingEntries * sizeof(std::uint32_t);
}

} // namespace perfbench
