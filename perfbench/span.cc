#include "span.hh"

#include <algorithm>
#include <utility>

namespace perfbench {

std::int64_t
nowNs()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

int
SpanLog::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    spans_[id].endNs = nowNs();
    stack_.pop_back();
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }

    std::vector<std::int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].startNs;
        const std::int64_t hi = spans[i].endNs;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t cursor = lo;  // end of the union so far
        for (auto [a, b] : kids) {
            a = std::max(a, cursor);
            b = std::min(b, hi);
            if (b > a) {
                covered += b - a;
                cursor = b;
            }
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

void
addSelfTimes(const std::vector<Span> &spans,
             std::map<std::string, std::int64_t> &totals)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    for (size_t i = 0; i < spans.size(); ++i)
        totals[spans[i].name] += self[i];
}

void
writeSpansJsonl(std::ostream &os, const std::vector<Span> &spans,
                std::int64_t &next_id)
{
    const std::int64_t base = next_id;
    for (const Span &s : spans) {
        os << "{\"id\":" << next_id++ << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << ",\"parent\":" << (s.parent < 0 ? -1 : base + s.parent)
           << ",\"op\":" << s.op << "}\n";
    }
}

} // namespace perfbench
