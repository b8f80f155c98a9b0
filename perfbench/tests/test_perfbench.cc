#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "probe.hh"
#include "runner.hh"
#include "span.hh"
#include "summary.hh"

using namespace perfbench;

namespace {

Span
mkSpan(const char *name, std::int64_t start, std::int64_t end, int parent)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

/** Twenty trivial ops; op 7 fails and op 11 throws. */
class FakeWorkload : public BenchWorkload
{
  public:
    void setup(std::uint64_t, SpanLog *) override {}
    std::size_t ops() const override { return 20; }

    OpResult
    runOp(std::size_t i, SpanLog *trace) const override
    {
        if (i == 11)
            throw std::runtime_error("op 11 threw");
        OpResult r;
        r.failed = i == 7;
        r.digest = i * 31;
        inSpan(trace, "inner", [] {});
        return r;
    }
};

} // namespace

TEST(SelfTime, SubtractsTheUnionOfDirectChildren)
{
    // root [0,100): children [10,40) and [50,70), [60,90) overlapping;
    // [10,40) holds a grandchild [20,30) that only it loses.
    const std::vector<Span> spans = {
        mkSpan("root", 0, 100, -1), mkSpan("a", 10, 40, 0),
        mkSpan("g", 20, 30, 1),     mkSpan("b", 50, 70, 0),
        mkSpan("c", 60, 90, 0),
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 30 - 40);  // union of a, b, c
    EXPECT_EQ(self[1], 30 - 10);
    EXPECT_EQ(self[2], 10);
    EXPECT_EQ(self[3], 20);
    EXPECT_EQ(self[4], 30);

    std::map<std::string, std::int64_t> totals;
    addSelfTimes(spans, totals);
    EXPECT_EQ(totals["root"] + totals["a"] + totals["g"] + totals["b"] +
                  totals["c"],
              110);  // overlapping siblings b and c each keep their time
}

TEST(SelfTime, ChildOutsideItsParentIsClipped)
{
    const std::vector<Span> spans = {mkSpan("p", 0, 10, -1),
                                     mkSpan("c", 5, 20, 0)};
    EXPECT_EQ(selfTimesNs(spans)[0], 5);
}

TEST(SpanLog, RecordsParentsAndOp)
{
    SpanLog log(3);
    const int v = log.span("a", [&] {
        log.span("b", [&] { log.span("c", [] {}); });
        log.span("d", [] {});
        return 42;
    });
    EXPECT_EQ(v, 42);
    const auto &s = log.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].parent, -1);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 1);
    EXPECT_EQ(s[3].parent, 0);
    for (const Span &x : s) {
        EXPECT_EQ(x.op, 3);
        EXPECT_LE(x.startNs, x.endNs);
    }
    EXPECT_LE(s[0].startNs, s[1].startNs);
    EXPECT_GE(s[0].endNs, s[3].endNs);
}

TEST(TailPercentile, KeepsTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 504; ++i)
        v.push_back(i);
    const auto t = tailPercentile(v);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->value, 494);  // 495..504 lie beyond
    EXPECT_DOUBLE_EQ(t->percentile, 100.0 * 494 / 504);
}

TEST(TailPercentile, SmallCounts)
{
    std::vector<double> v = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10};
    EXPECT_FALSE(tailPercentile(v));  // 10 samples: none has 10 beyond
    v.push_back(0);
    const auto t = tailPercentile(v);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->value, 0);  // rank 1 of 11
    EXPECT_DOUBLE_EQ(t->percentile, 100.0 / 11);
    EXPECT_FALSE(tailPercentile({}));
}

TEST(Median, OddAndEven)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(RunPass, FailedAndThrowingOpsAreCounted)
{
    FakeWorkload w;
    Measured m;
    for (int k = 0; k < 2; ++k) {
        PassResult pass = runPass(w, 4, false);
        EXPECT_EQ(pass.failed(), 2u);
        EXPECT_TRUE(pass.ops[7].failed);
        EXPECT_EQ(pass.ops[11].error, "op 11 threw");
        m.record(std::move(pass), 4, nullptr);
    }
    EXPECT_EQ(m.attempted, 40u);
    EXPECT_EQ(m.failed, 4u);
    EXPECT_DOUBLE_EQ(m.failedFraction(), 0.1);

    std::optional<Tail> tail;
    bool sawOk = false;
    for (const Metric &x : endToEndMetrics(m, 4, 1.0, 0.5, 10.0, tail)) {
        if (x.name == "ops_ok_frac") {
            EXPECT_DOUBLE_EQ(x.value, 0.9);
            sawOk = true;
        }
    }
    EXPECT_TRUE(sawOk);
    ASSERT_TRUE(tail);  // 20 ops: rank 10
    EXPECT_DOUBLE_EQ(tail->percentile, 50.0);
}

TEST(EndToEnd, ScaleAppliesToEveryHostTime)
{
    FakeWorkload w;
    Measured m;
    m.record(runPass(w, 1, false), 1, nullptr);
    m.opNs = {{2'000'000, 4'000'000, 6'000'000}};
    m.first.ops.resize(3);
    std::optional<Tail> tail;
    auto get = [&](double scale, const char *name) {
        for (const Metric &x : endToEndMetrics(m, 2, scale, 0.5, 7.0, tail))
            if (x.name == name)
                return x.value;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(get(1.0, "op_p50_ms"), 4.0);
    EXPECT_DOUBLE_EQ(get(2.0, "op_p50_ms"), 8.0);
    EXPECT_DOUBLE_EQ(get(2.0, "setup_s"), 1.0);
    EXPECT_DOUBLE_EQ(get(2.0, "ops_per_s"), get(1.0, "ops_per_s") / 2);
    EXPECT_DOUBLE_EQ(get(2.0, "peak_rss_mb"), 7.0);
}

TEST(SpeedProbe, TimesEveryWorker)
{
    const SpeedProbe probe(2);
    EXPECT_GT(probe.run(), 0.0);
    EXPECT_EQ(probe.bytes(), 2u * (std::size_t{1} << 24));
}

TEST(RunPass, TracedOpsGetARootSpan)
{
    FakeWorkload w;
    PassResult pass = runPass(w, 2, true);
    ASSERT_EQ(pass.logs.size(), 20u);
    const auto &s = pass.logs[3].spans();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].name, "op");
    EXPECT_EQ(s[1].name, "inner");
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[1].op, 3);
    EXPECT_EQ(pass.digest(), runPass(w, 1, false).digest());
}

TEST(PoolMakespan, FollowsTheFanOutOrder)
{
    // Two workers: op 0 (5) on w0, op 1 (1) on w1, op 2 (1) on w1,
    // op 3 (4) on w1 (free at 2) -> ends at 6.
    EXPECT_EQ(poolMakespan({5, 1, 1, 4}, 2), 6);
    EXPECT_EQ(poolMakespan({5, 1, 1, 4}, 1), 11);
    EXPECT_EQ(poolMakespan({}, 4), 0);
}

TEST(BestOpNs, TakesEachOpsMinimumOverPasses)
{
    FakeWorkload w;
    Measured m;
    m.record(runPass(w, 1, false), 1, nullptr);
    m.record(runPass(w, 1, false), 1, nullptr);
    m.opNs = {{5, 9, 2}, {7, 3, 2}};
    m.first.ops.resize(3);
    EXPECT_EQ(bestOpNs(m), (std::vector<double>{5, 3, 2}));
}

TEST(ResultJson, NumbersKeepAllDigits)
{
    std::ostringstream os;
    writeResultJson(os, true, 3, 0, {{"x_ms", 1.0 / 3.0, "ms"}});
    EXPECT_EQ(os.str(), "{\"correct\": true, \"attempted\": 3, \"failed\": "
                        "0, \"metrics\": {\"x_ms\": {\"value\": "
                        "0.3333333333333333, \"unit\": \"ms\"}}}\n");
}

/** Digests do not depend on the worker count or on tracing. */
class WorkloadDigest : public ::testing::TestWithParam<const char *>
{};

TEST_P(WorkloadDigest, SameAtOneAndFourWorkersAndTraced)
{
    auto w = makeBenchWorkload(GetParam());
    ASSERT_TRUE(w);
    w->setup(1, nullptr);
    const PassResult one = runPass(*w, 1, false);
    const PassResult four = runPass(*w, 4, false);
    EXPECT_EQ(one.failed(), 0u);
    EXPECT_EQ(one.digest(), four.digest());
    EXPECT_EQ(one.digest(), runPass(*w, 4, true).digest());
    EXPECT_TRUE(w->verify(four.ops).empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadDigest,
                         ::testing::Values("paper-sweep", "sched-campaign"));

TEST(Workloads, UnknownNameIsRejected)
{
    EXPECT_FALSE(makeBenchWorkload("no-such-workload"));
    for (const std::string &n : benchWorkloadNames())
        EXPECT_TRUE(makeBenchWorkload(n));
}
