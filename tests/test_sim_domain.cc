/**
 * @file
 * Tests for the window-barrier engine (docs/PDES.md). The delivery
 * contract: events the sequencer hook hands to SimEngine::deliver()
 * enter the target domain's queue exactly as immediate
 * EventQueue::scheduleDelivered calls at the barrier would have, for
 * every worker count, and a run cut by its cycle limit leaves
 * undelivered events pending in the queues. The guard: the barrier
 * loop evaluates the serial loop's watchdog and wall deadline over the
 * engine's totals, and a deadline past the clock's range never fires.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/log.hh"
#include "common/sim_domain.hh"

namespace mcmgpu {
namespace {

/** One delivery the sequencer hook makes after the first window. */
struct Drop
{
    Cycle when;
    Cycle sched;
    const char *label;
};

// One cycle, schedule stamps interleaving the target's local events
// (stamped 5 and 12), and an exact (when, sched) tie that call order
// must break.
const std::vector<Drop> kDrops = {
    {20, 8, "D8"}, {20, 3, "D3"}, {20, 5, "D5a"}, {20, 12, "D12"},
    {20, 5, "D5b"},
};

constexpr Cycle kLookahead = 10;

/** The target domain's local events: one at 5 that schedules two at
 *  20, one at 12 that schedules a third. */
void
seedLocal(EventQueue &q, std::vector<std::string> &order)
{
    q.schedule(5, [&q, &order] {
        order.push_back("@5");
        q.schedule(20, [&order] { order.push_back("L5a"); });
        q.schedule(20, [&order] { order.push_back("L5b"); });
    });
    q.schedule(12, [&q, &order] {
        order.push_back("@12");
        q.schedule(20, [&order] { order.push_back("L12"); });
    });
}

/** Reference: one queue, the deliveries made by direct
 *  scheduleDelivered calls after the first window [1, 11). */
std::vector<std::string>
directOrder()
{
    EventQueue q;
    std::vector<std::string> order;
    seedLocal(q, order);
    q.run(kLookahead);
    for (const Drop &d : kDrops) {
        q.scheduleDelivered(d.when, d.sched,
                            [&order, l = d.label] { order.push_back(l); });
    }
    q.run();
    return order;
}

/** The same population on domain 1 of a two-domain engine; domain 0's
 *  event at cycle 1 opens the first window at [1, 11). */
std::vector<std::string>
engineOrder(uint32_t threads)
{
    SimEngine engine;
    engine.activateParallel(2, threads, kLookahead);
    std::vector<std::string> order; // written by domain 1's events only
    seedLocal(engine.queue(1), order);
    engine.queue(0).schedule(1, [] {});
    bool delivered = false;
    engine.setSequencerHook([&] {
        if (delivered)
            return;
        delivered = true;
        for (const Drop &d : kDrops) {
            engine.deliver(1, d.when, d.sched,
                           [&order, l = d.label] { order.push_back(l); });
        }
        // Undelivered entries count as pending beside the event at 12
        // and L5a, L5b.
        EXPECT_EQ(engine.pending(), 3u + kDrops.size());
    });
    EXPECT_EQ(engine.run(), SimEngine::Outcome::Drained);
    EXPECT_TRUE(delivered);
    return order;
}

TEST(SimEngine, DeliveriesRunInDirectScheduleDeliveredOrder)
{
    const std::vector<std::string> want = directOrder();
    // The population really interleaves deliveries with local events.
    ASSERT_EQ(want, (std::vector<std::string>{"@5", "@12", "D3", "L5a",
                                              "L5b", "D5a", "D5b", "D8",
                                              "D12", "L12"}));
    EXPECT_EQ(engineOrder(1), want);
    EXPECT_EQ(engineOrder(2), want);
}

TEST(SimEngine, LimitHitLeavesDeliveriesPending)
{
    for (uint32_t threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        SimEngine engine;
        engine.activateParallel(2, threads, kLookahead);
        engine.queue(0).schedule(1, [] {});
        int ran = 0; // written by domain 1's events only
        bool delivered = false;
        engine.setSequencerHook([&] {
            if (delivered)
                return;
            delivered = true;
            engine.deliver(1, 50, 1, [&ran] { ++ran; });
            engine.deliver(1, 60, 1, [&ran] { ++ran; });
        });

        // Nothing but the two deliveries is left, both past the limit.
        EXPECT_EQ(engine.run(30), SimEngine::Outcome::LimitHit);
        EXPECT_EQ(engine.pending(), 2u);
        // Inserted before run() returned, as a direct delivery would be.
        EXPECT_EQ(engine.queue(1).size(), 2u);
        EXPECT_EQ(ran, 0);

        EXPECT_EQ(engine.run(), SimEngine::Outcome::Drained);
        EXPECT_EQ(ran, 2);
        EXPECT_EQ(engine.pending(), 0u);
        EXPECT_EQ(engine.now(), 60u);
    }
}

TEST(SimEngine, WatchdogMeasuresFromTheLastEventThatRan)
{
    // The first event lies a whole watchdog window past time 0, like a
    // kernel's launch delay. Nothing ran before it, so nothing stalled:
    // the watchdog measures from the last event that ran, as the serial
    // loop does, not from the event about to run.
    for (uint32_t threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        SimEngine engine;
        engine.activateParallel(2, threads, kLookahead);
        engine.setWatchdog(40, nullptr);
        EventQueue &q = engine.queue(1);
        q.schedule(300, [&q] { q.noteProgress(); });
        EXPECT_EQ(engine.run(), SimEngine::Outcome::Drained);
        EXPECT_EQ(engine.now(), 300u);
        EXPECT_EQ(engine.progressMarks(), 1u);
    }
}

TEST(SimEngine, StallReportsEngineTotals)
{
    // An advancing-time livelock on domain 1: events keep firing, one
    // per cycle, and none notes progress. Queue 0 runs nothing, so a
    // diagnostic built from its own counters would report zeros.
    setQuietLogging(true);
    for (uint32_t threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        SimEngine engine;
        engine.activateParallel(2, threads, kLookahead);
        engine.setWatchdog(40, [] { return std::string("machine dump\n"); });
        EventQueue &q = engine.queue(1);
        std::function<void()> spin = [&] {
            q.schedule(q.now() + 1, spin);
        };
        q.schedule(1, spin);
        try {
            engine.run();
            FAIL() << "the livelock must stall";
        } catch (const SimStall &stall) {
            EXPECT_GT(engine.executed(), 40u);
            const std::string totals =
                "  now " + std::to_string(engine.now()) + ", queue depth " +
                std::to_string(engine.pending()) + ", events executed " +
                std::to_string(engine.executed()) + ", progress marks 0\n";
            EXPECT_NE(stall.diagnostic().find(totals), std::string::npos)
                << stall.diagnostic();
            EXPECT_NE(stall.diagnostic().find("machine dump"),
                      std::string::npos);
        }
    }
}

TEST(SimEngine, ExpiredWallDeadlineRaisesSimTimeout)
{
    for (uint32_t threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        SimEngine engine;
        engine.activateParallel(2, threads, kLookahead);
        engine.setWallDeadline(1e-9); // already expired at the first check
        int ran = 0;
        engine.queue(1).schedule(5, [&ran] { ++ran; });
        EXPECT_THROW(engine.run(), SimTimeout);
        EXPECT_EQ(ran, 0);
        EXPECT_EQ(engine.pending(), 1u);
    }
}

TEST(SimEngine, UnrepresentableWallDeadlineNeverExpires)
{
    // The steady clock holds about 292 years of nanoseconds. A longer
    // budget, or an infinite one, can never expire and must not wrap to
    // a deadline in the past when cast into the clock. One thread is
    // the serial engine, two the parallel one.
    for (double seconds : {1e10, std::numeric_limits<double>::infinity()}) {
        for (uint32_t threads : {1u, 2u}) {
            SCOPED_TRACE(testing::Message()
                         << seconds << " s, " << threads << " threads");
            SimEngine engine;
            if (threads > 1)
                engine.activateParallel(2, threads, kLookahead);
            engine.setWallDeadline(seconds);
            std::vector<int> ran(engine.numDomains(), 0);
            for (uint32_t d = 0; d < engine.numDomains(); ++d)
                engine.queue(d).schedule(5 + d, [&ran, d] { ++ran[d]; });
            EXPECT_EQ(engine.run(), SimEngine::Outcome::Drained);
            for (int n : ran)
                EXPECT_EQ(n, 1);
        }
    }
}

} // namespace
} // namespace mcmgpu
