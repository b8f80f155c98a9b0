/**
 * @file
 * Host-time spans around the library calls a benchmark op makes.
 *
 * A SpanLog belongs to one op (or to the set-up phase) and is only ever
 * touched by the thread running it, so recording needs no locking. A
 * span records its name, start and end on the steady clock, the span
 * that was open when it began (its parent) and the op it belongs to.
 * Logs are kept in memory for the whole run and written out at exit.
 */

#ifndef PERFBENCH_SPAN_HH
#define PERFBENCH_SPAN_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since a process-wide origin (the first call). */
std::int64_t nowNs();

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;        ///< index into the same log, -1 for a root
    std::int64_t op = -1;   ///< op index, -1 for set-up
};

class SpanLog
{
  public:
    explicit SpanLog(std::int64_t op = -1) : op_(op) {}

    /** Run @p fn inside a span named @p name and return its result. */
    template <typename Fn>
    decltype(auto)
    span(const char *name, Fn &&fn)
    {
        const int id = open(name);
        struct Closer
        {
            SpanLog &log;
            int id;
            ~Closer() { log.close(id); }
        } closer{*this, id};
        return fn();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    int open(const char *name);
    void close(int id);

    std::int64_t op_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Run @p fn inside a span of @p log, or plainly when @p log is null. */
template <typename Fn>
decltype(auto)
inSpan(SpanLog *log, const char *name, Fn &&fn)
{
    if (log)
        return log->span(name, std::forward<Fn>(fn));
    return fn();
}

/**
 * Self time of every span in @p spans, in nanoseconds: its duration
 * minus the part of its interval covered by its direct children (the
 * children's union, clipped to the parent, so overlapping or
 * out-of-bounds children are not subtracted twice).
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Add each span's self time into @p totals under its name. */
void addSelfTimes(const std::vector<Span> &spans,
                  std::map<std::string, std::int64_t> &totals);

/**
 * One JSON object per span. Spans are numbered from @p next_id, which
 * is advanced past them, so parents stay unambiguous when several logs
 * go to one stream.
 */
void writeSpansJsonl(std::ostream &os, const std::vector<Span> &spans,
                     std::int64_t &next_id);

} // namespace perfbench

#endif // PERFBENCH_SPAN_HH
