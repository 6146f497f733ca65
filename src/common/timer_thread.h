// One thread that runs callbacks one at a time, in due-time order. The due
// time is stamped under the heap lock and ties keep scheduling order, so
// post()s from any threads run in the order they were made. The real-threads
// engine runs one for operator timers; ft::RtRuntime runs one as its control
// thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/units.h"

namespace ms {

class TimerThread {
 public:
  TimerThread() = default;
  ~TimerThread() { stop(); }
  TimerThread(const TimerThread&) = delete;
  TimerThread& operator=(const TimerThread&) = delete;

  /// Start the thread; a stopped instance may start again.
  void start();
  /// Drop every pending callback, refuse new ones, and join the thread once
  /// the running callback (if any) returns.
  void stop();
  /// Run `fn` on the thread `delay` from now. Dropped unless started.
  void after(SimTime delay, std::function<void()> fn);
  void post(std::function<void()> fn) { after(SimTime::zero(), std::move(fn)); }
  bool on_thread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

 private:
  struct Timer {
    std::chrono::steady_clock::time_point at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  void loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Timer> heap_;  // min-heap on (at, seq)
  std::uint64_t seq_ = 0;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace ms
