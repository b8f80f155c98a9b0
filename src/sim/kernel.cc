#include "sim/kernel.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rtu {

void
SimKernel::add(Clocked *component)
{
    rtu_assert(component != nullptr, "SimKernel::add: null component");
    components_.push_back(component);
}

Cycle
SimKernel::nextEventCycle(Cycle limit) const
{
    Cycle earliest = kNoEvent;
    for (const Clocked *c : components_)
        earliest = std::min(earliest, c->nextEventAt(now_));
    return std::min(earliest, limit);
}

bool
SimKernel::fastForward(Cycle limit)
{
    if (now_ >= limit)
        return false;
    if (now_ < nextAttempt_)
        return false;

    // Min-reduction over the components' next events, tracking which
    // components are active *now* (event <= now) — those must tick
    // this cycle and veto any skip.
    Cycle bound = limit;
    Clocked *active = nullptr;
    int activeCount = 0;
    for (Clocked *c : components_) {
        Cycle e = c->nextEventAt(now_);
        if (e <= now_) {
            active = c;
            ++activeCount;
        } else {
            bound = std::min(bound, e);
        }
    }

    if (activeCount == 0) {
        // Everything is quiescent until `bound`: replicate the pure
        // ticks in [now_, bound) in bulk.
        Cycle delta = bound - now_;
        for (Clocked *c : components_)
            c->skipTo(now_, bound);
        now_ = bound;
        stats_.cyclesSkipped += delta;
        ++stats_.fastForwards;
        backoff_ = 1;
        return true;
    }

    if (activeCount == 1) {
        // Execute superblocks up to the event horizon. The active
        // component runs itself forward; every other component sees
        // only pure cycles (their next events are >= bound), so a bulk
        // skipTo() replicates them exactly.
        Cycle consumed = active->blockRun(now_, bound);
        if (consumed > 0) {
            rtu_assert(consumed <= bound - now_,
                       "blockRun overran the event horizon");
            Cycle target = now_ + consumed;
            for (Clocked *c : components_) {
                if (c != active)
                    c->skipTo(now_, target);
            }
            now_ = target;
            stats_.cyclesBlockExecuted += consumed;
            ++stats_.blockRuns;
            backoff_ = 1;
            return true;
        }
    }

    nextAttempt_ = now_ + backoff_;
    backoff_ = std::min<Cycle>(backoff_ * 2, 32);
    return false;
}

void
SimKernel::tickOne()
{
    for (Clocked *c : components_)
        c->tick(now_);
    ++now_;
    ++stats_.cyclesTicked;
}

} // namespace rtu
