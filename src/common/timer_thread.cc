#include "common/timer_thread.h"

#include <algorithm>

namespace ms {

void TimerThread::start() {
  std::scoped_lock lock(mu_);
  if (running_) return;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void TimerThread::stop() {
  {
    std::scoped_lock lock(mu_);
    running_ = false;
    heap_.clear();
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TimerThread::after(SimTime delay, std::function<void()> fn) {
  {
    std::scoped_lock lock(mu_);
    if (!running_) return;
    heap_.push_back(Timer{
        std::chrono::steady_clock::now() +
            std::chrono::nanoseconds(std::max<std::int64_t>(0, delay.ns())),
        seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  cv_.notify_all();
}

void TimerThread::loop() {
  std::unique_lock lock(mu_);
  while (running_) {
    if (heap_.empty()) {
      cv_.wait(lock, [this] { return !running_ || !heap_.empty(); });
      continue;
    }
    // Wakes early for a new (possibly earlier) timer or a stop; the loop
    // re-examines the heap top either way.
    const auto due = heap_.front().at;
    if (std::chrono::steady_clock::now() < due) {
      cv_.wait_until(lock, due);
      continue;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    Timer next = std::move(heap_.back());
    heap_.pop_back();
    // Run outside the lock; the callback may schedule more.
    lock.unlock();
    next.fn();
    lock.lock();
  }
}

}  // namespace ms
