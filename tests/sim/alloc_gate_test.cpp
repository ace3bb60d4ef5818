// Allocation gate for the discrete-event hot path.
//
// A counting global operator new proves the "zero steady-state heap
// allocations" claim instead of asserting it in comments: once the queue's
// slab and heap have grown to their working size, a schedule/cancel/pop
// mix and the simulator's per-event step loop
// (the inner loop of a fleet shard's device run) must perform no heap
// allocation at all. The gate runs in its own test binary so the operator
// new replacement cannot distort other suites.
//
// Scope: the gate covers the event core (EventQueue, Simulator::step) and
// the device FSM's wake -> awake -> linger -> asleep cycle on a bare power
// bus (hw::Device), not whole experiment runs — run_experiment
// legitimately allocates for metrics, reports, and policy state outside
// the per-event path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "hw/device.hpp"
#include "hw/power_bus.hpp"
#include "hw/power_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting replacements for every operator new/delete form the toolchain
// emits. Only the allocation count is tracked; behavior is malloc/free.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace simty::sim {
namespace {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

// Mixed schedule/cancel/pop churn. Exercises every hot-path operation the
// gate covers; callbacks capture one pointer (trivially relocatable).
template <typename Queue>
void churn(Queue& q, Rng& rng, std::uint64_t* sink, std::size_t rounds) {
  std::int64_t now_us = 0;
  EventId last{};
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::int64_t when = now_us + 1 + static_cast<std::int64_t>(rng.next_below(1000));
    last = q.schedule(TimePoint::from_us(when),
                      static_cast<EventPriority>(rng.next_below(4)),
                      [sink] { ++*sink; }, "gate");
    if (i % 7 == 0) q.cancel(last);
    if (i % 3 == 0 && !q.empty()) {
      auto fired = q.pop();
      fired.callback();
      now_us = fired.when.us();
    }
  }
  while (!q.empty()) {
    auto fired = q.pop();
    fired.callback();
  }
}

TEST(AllocGateTest, WarmedEventQueueChurnsWithZeroAllocations) {
  EventQueue q;
  Rng rng(42);
  std::uint64_t sink = 0;
  // Warm-up grows the slab and heap array to steady-state capacity.
  churn(q, rng, &sink, 20'000);

  const std::uint64_t before = alloc_count();
  churn(q, rng, &sink, 20'000);
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state schedule/cancel/pop must not allocate";
  EXPECT_GT(sink, 0u);
}

TEST(AllocGateTest, ArenaBackedQueueChurnsWithZeroAllocationsAndZeroArenaGrowth) {
  common::Arena arena;
  std::uint64_t sink = 0;
  {
    EventQueue q(&arena);
    Rng rng(42);
    churn(q, rng, &sink, 20'000);

    const std::uint64_t before = alloc_count();
    const std::uint64_t blocks_before = arena.stats().block_allocs;
    churn(q, rng, &sink, 20'000);
    EXPECT_EQ(alloc_count() - before, 0u);
    EXPECT_EQ(arena.stats().block_allocs, blocks_before)
        << "warmed arena must not grow in steady state";
  }
  // The fleet shard pattern: reset and rebuild on the same arena. The
  // second life must reuse the retained blocks, not allocate new ones.
  arena.reset();
  const std::uint64_t blocks_before = arena.stats().block_allocs;
  {
    EventQueue q(&arena);
    Rng rng(42);
    churn(q, rng, &sink, 20'000);
  }
  EXPECT_EQ(arena.stats().block_allocs, blocks_before)
      << "arena reset must rewind, not free, its blocks";
}

TEST(AllocGateTest, WarmedSimulatorStepLoopRunsWithZeroAllocations) {
  // The inner loop of a fleet shard's device run: step() pops and invokes
  // one event; live device models reschedule themselves from inside
  // callbacks. A self-rescheduling ladder reproduces that shape.
  common::Arena arena;
  Simulator sim(&arena);
  std::uint64_t fired = 0;

  struct Ladder {
    Simulator* sim;
    std::uint64_t* fired;
    std::uint32_t remaining;
    void operator()() {
      ++*fired;
      if (remaining > 0) {
        sim->schedule_after(Duration::micros(100), Ladder{sim, fired, remaining - 1},
                            EventPriority::kFramework, "ladder");
      }
    }
  };
  for (int lane = 0; lane < 8; ++lane) {
    sim.schedule_after(Duration::micros(lane), Ladder{&sim, &fired, 2'000});
  }
  // Warm: run half the ladder.
  for (int i = 0; i < 5'000; ++i) ASSERT_TRUE(sim.step());

  const std::uint64_t before = alloc_count();
  std::uint64_t steps = 0;
  while (sim.step()) ++steps;
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state Simulator::step must not allocate";
  EXPECT_GT(steps, 5'000u);
  EXPECT_EQ(fired, 8u * 2'001u);
}

TEST(AllocGateTest, WarmedDeviceWakeCycleRunsWithZeroAllocations) {
  // Every alarm delivery drives this cycle: request_awake from asleep,
  // the wake-complete event running the queued callback, the idle-linger
  // timer, and the suspend.
  Simulator sim;
  hw::PowerBus bus;
  hw::Device device(sim, hw::PowerModel::nexus5(), bus);
  std::uint64_t cycles = 0;
  const auto cycle = [&] {
    device.request_awake(hw::WakeReason::kRtcAlarm, [] {});
    sim.run_all();
    ++cycles;
  };
  for (int i = 0; i < 100; ++i) cycle();

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 1'000; ++i) cycle();
  EXPECT_EQ(alloc_count() - before, 0u)
      << "a warmed device wake cycle must not allocate";
  EXPECT_EQ(device.wakeup_count(), cycles);
  EXPECT_TRUE(device.quiescent());
}

TEST(AllocGateTest, CountingHookSeesOrdinaryAllocations) {
  // Self-test: the gate is meaningless if the hook is not actually
  // counting. (A unique_ptr would be tidier but its deleter runs after the
  // measurement; a raw pair keeps the window explicit.)
  const std::uint64_t before = alloc_count();
  int* p = new int(7);
  EXPECT_GT(alloc_count(), before);
  delete p;
}

}  // namespace
}  // namespace simty::sim
