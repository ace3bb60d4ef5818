#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace simty::sim {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule_at(at(2), [&] { seen.push_back(sim.now().seconds_f()); });
  sim.schedule_at(at(5), [&] { seen.push_back(sim.now().seconds_f()); });
  sim.run_all();
  EXPECT_EQ(seen, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(sim.now(), at(5));
}

TEST(Simulator, ScheduleAfterUsesRelativeDelay) {
  Simulator sim;
  TimePoint fired;
  sim.schedule_at(at(10), [&] {
    sim.schedule_after(Duration::seconds(3), [&] { fired = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired, at(13));
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(at(1), [&] { ++fired; });
  sim.schedule_at(at(100), [&] { ++fired; });
  sim.run_until(at(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), at(50));   // clock parked at horizon
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(at(200));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtHorizonIsIncluded) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(at(50), [&] { fired = true; });
  sim.run_until(at(50));
  EXPECT_TRUE(fired);
}

TEST(Simulator, CallbacksCanChainEventsRecursively) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) sim.schedule_after(Duration::seconds(1), tick);
  };
  sim.schedule_at(at(0), tick);
  sim.run_all();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), at(9));
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(Simulator, CancelPreventsCallback) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(at(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, SameInstantHigherPriorityEventFiresNext) {
  // A callback that schedules a higher-priority event at its own instant
  // sees it fire before the rest of that instant's lower-priority events.
  Simulator sim;
  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(
        at(7),
        [&sim, &order, i] {
          order.push_back("app" + std::to_string(i));
          if (i == 0) {
            sim.schedule_at(at(7), [&order] { order.push_back("hw"); },
                            EventPriority::kHardware);
          }
        },
        EventPriority::kApp);
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"app0", "hw", "app1", "app2"}));
}

TEST(Simulator, StepRunsExactlyOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(at(1), [&] { ++fired; });
  sim.schedule_at(at(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(at(5), [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(at(1), [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_after(-Duration::seconds(1), [] {}), std::logic_error);
  EXPECT_THROW(sim.run_until(at(1)), std::logic_error);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      sim.schedule_at(at(i % 5), [&order, i] { order.push_back(i); },
                      static_cast<EventPriority>(i % 3));
    }
    sim.run_all();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace simty::sim
