/**
 * @file
 * Counter tables: each stats struct whose fields are all uint64_t
 * counters lists them once, as {JSON name, member pointer,
 * mode-invariant} rows next to its definition. Every copy, delta,
 * writer, reader and cross-mode comparison iterates that table
 * instead of naming fields, so adding a counter is one field plus one
 * row.
 */

#ifndef RTU_COMMON_COUNTERS_HH
#define RTU_COMMON_COUNTERS_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>

namespace rtu {

template <class Stats>
struct CounterRow
{
    /** JSON key (snake_case) in every stream the counter appears in. */
    const char *name;
    std::uint64_t Stats::*member;
    /** The value is the same in every ExecMode; only such counters may
     *  be compared across modes. */
    bool modeInvariant;
};

/**
 * True iff @p rows names every field of @p Stats exactly once: as many
 * rows as the struct has uint64_t slots, no member listed twice. Each
 * table is static_assert'ed with it, so a field added without a row
 * fails the build.
 */
template <class Stats, std::size_t N>
constexpr bool
coversEveryField(const CounterRow<Stats> (&rows)[N])
{
    if (sizeof(Stats) != N * sizeof(std::uint64_t))
        return false;
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = i + 1; j < N; ++j) {
            if (rows[i].member == rows[j].member)
                return false;
        }
    }
    return true;
}

/** Emit `,"name":value` for every row of @p stats's table. Each table
 *  comes with a `counterRows(const Stats &)` overload returning it,
 *  found here by argument-dependent lookup. */
template <class Stats>
void
writeCounterFields(std::ostream &os, const Stats &stats)
{
    for (const auto &row : counterRows(stats))
        os << ",\"" << row.name << "\":" << stats.*row.member;
}

} // namespace rtu

#endif // RTU_COMMON_COUNTERS_HH
