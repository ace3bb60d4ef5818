#include "sim/event_fn.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <utility>

namespace simty::sim {
namespace {

TEST(EventFn, DefaultIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, InvokesStoredCallable) {
  int calls = 0;
  EventFn fn([&] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, MoveTransfersOwnership) {
  int calls = 0;
  EventFn a([&] { ++calls; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);

  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, DestroysCaptureExactlyOnce) {
  const auto tracker = std::make_shared<int>(7);
  EXPECT_EQ(tracker.use_count(), 1);
  {
    EventFn fn([tracker] {});
    EXPECT_EQ(tracker.use_count(), 2);
    EventFn moved(std::move(fn));
    // A relocation must not duplicate the capture.
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(EventFn, ResetReleasesCapture) {
  const auto tracker = std::make_shared<int>(1);
  EventFn fn([tracker] {});
  EXPECT_EQ(tracker.use_count(), 2);
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(EventFn, MoveAssignDestroysPreviousCallable) {
  const auto old_capture = std::make_shared<int>(1);
  EventFn fn([old_capture] {});
  EXPECT_EQ(old_capture.use_count(), 2);
  int calls = 0;
  fn = EventFn([&calls] { ++calls; });
  EXPECT_EQ(old_capture.use_count(), 1);  // previous capture destroyed
  fn();
  EXPECT_EQ(calls, 1);
}

TEST(EventFn, HoldsCaptureAtInlineCapacity) {
  // A capture exactly at the inline limit must fit (the converting
  // constructor static_asserts this at compile time — instantiating it is
  // the test).
  struct Blob {
    unsigned char bytes[EventFn::kInlineBytes - sizeof(void*)];
  };
  Blob blob{};  // the lambda below captures Blob + a reference: exactly kInlineBytes
  blob.bytes[0] = 42;
  int out = 0;
  EventFn fn([blob, &out] { out = blob.bytes[0]; });
  fn();
  EXPECT_EQ(out, 42);
}

// A capture of exactly kInlineBytes that is not trivially relocatable (an
// owning string plus a pointer): it must take the relocate/destroy path,
// never the fixed-size copy, and each object must die exactly once.
struct Lifetimes {
  int constructed = 0;
  int destroyed = 0;
  int live() const { return constructed - destroyed; }
};

struct OwningCapture {
  std::string text;
  Lifetimes* counts;

  OwningCapture(std::string t, Lifetimes* c) : text(std::move(t)), counts(c) {
    ++counts->constructed;
  }
  OwningCapture(OwningCapture&& other) noexcept
      : text(std::move(other.text)), counts(other.counts) {
    ++counts->constructed;
  }
  OwningCapture(const OwningCapture&) = delete;
  ~OwningCapture() { ++counts->destroyed; }
  void operator()() const { EXPECT_EQ(text, "a string too long for the small buffer"); }
};
static_assert(sizeof(OwningCapture) == EventFn::kInlineBytes);
static_assert(!std::is_trivially_copyable_v<OwningCapture>);

TEST(EventFn, FullSizeOwningCaptureRelocatesAndDestroysExactlyOnce) {
  Lifetimes counts;
  {
    EventFn fn(OwningCapture("a string too long for the small buffer", &counts));
    EXPECT_EQ(counts.constructed, 2);  // the temporary, moved into the buffer
    EXPECT_EQ(counts.live(), 1);
    EventFn moved(std::move(fn));
    EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(counts.constructed, 3);  // one relocation, which destroyed its source
    EXPECT_EQ(counts.live(), 1);
    moved();
  }
  EXPECT_EQ(counts.constructed, 3);
  EXPECT_EQ(counts.destroyed, 3);
}

}  // namespace
}  // namespace simty::sim
