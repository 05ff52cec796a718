/**
 * @file
 * Tests for the window-barrier engine's delivery contract
 * (docs/PDES.md): events the sequencer hook hands to
 * SimEngine::deliver() enter the target domain's queue exactly as
 * immediate EventQueue::scheduleDelivered calls at the barrier would
 * have, for every worker count, and a run cut by its cycle limit
 * leaves undelivered events pending in the queues.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/event_queue.hh"
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

} // namespace
} // namespace mcmgpu
