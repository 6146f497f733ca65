#include "common/timer_thread.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace ms {
namespace {

TEST(TimerThreadTest, PostsRunInOrderOnTheThread) {
  TimerThread t;
  t.start();
  std::vector<int> seen;  // written only on the timer thread
  std::atomic<bool> off_thread{false};
  for (int i = 0; i < 100; ++i) {
    t.post([&, i] {
      if (!t.on_thread()) off_thread.store(true);
      seen.push_back(i);
    });
  }
  std::promise<void> done;
  t.post([&done] { done.set_value(); });
  done.get_future().wait();
  t.stop();
  EXPECT_FALSE(off_thread.load());
  EXPECT_FALSE(t.on_thread());
  ASSERT_EQ(seen.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(TimerThreadTest, RunsByDueTime) {
  TimerThread t;
  t.start();
  std::mutex mu;
  std::vector<int> seen;
  std::promise<void> done;
  t.after(SimTime::millis(30), [&] {
    std::scoped_lock lk(mu);
    seen.push_back(2);
    done.set_value();
  });
  t.after(SimTime::millis(10), [&] {
    std::scoped_lock lk(mu);
    seen.push_back(1);
  });
  t.post([&] {
    std::scoped_lock lk(mu);
    seen.push_back(0);
  });
  done.get_future().wait();
  t.stop();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

TEST(TimerThreadTest, StopDropsPendingAndLaterCallbacks) {
  TimerThread t;
  std::atomic<int> ran{0};
  t.post([&ran] { ran.fetch_add(1); });  // not started: dropped
  t.start();
  t.after(SimTime::seconds(60), [&ran] { ran.fetch_add(1); });
  t.stop();
  t.post([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  // A stopped instance starts again.
  t.start();
  std::promise<void> done;
  t.post([&] {
    ran.fetch_add(1);
    done.set_value();
  });
  done.get_future().wait();
  t.stop();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace ms
