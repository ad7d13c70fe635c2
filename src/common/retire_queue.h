// Hands objects back to the thread that owns them, for destruction there.
//
// The live path's shard workers allocate every closed session they emit, but
// the shared SessionStore evicts whichever session is oldest, on whichever
// worker's insert pushed it over budget. Freeing a victim on a thread other
// than the one that built it sends each of its blocks back across malloc
// arenas and makes the shards contend on the arena locks. A RetireQueue per
// owner turns that into a hand-off: any thread Pushes (one short lock, no
// free), and the owner Drains at a point of its choosing, destroying what it
// built on its own thread.
#ifndef SRC_COMMON_RETIRE_QUEUE_H_
#define SRC_COMMON_RETIRE_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace ts {

template <typename T>
class RetireQueue {
 public:
  // Any thread. Queues `value` for the owner and returns true, or returns
  // false without touching `value` once the queue is closed — the caller then
  // destroys it where it stands. Never blocks on anything but the queue's own
  // lock, so it is safe under another structure's lock.
  bool Push(T&& value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return false;
    }
    queue_.push_back(std::move(value));
    pending_.store(queue_.size(), std::memory_order_release);
    return true;
  }

  // Owner thread only. Destroys everything queued so far, outside the lock,
  // and returns how many. Does not take the lock when nothing is queued.
  size_t Drain() {
    if (pending_.load(std::memory_order_acquire) == 0) {
      return 0;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_.swap(queue_);
      pending_.store(0, std::memory_order_release);
    }
    const size_t n = draining_.size();
    draining_.clear();  // The frees, on the owner's thread.
    return n;
  }

  // Any thread, once the owner drains no more. Destroys what is left and
  // makes every later Push return false.
  void Close() {
    std::vector<T> left;  // Declared first, so it is freed after unlocking.
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    left.swap(queue_);
    pending_.store(0, std::memory_order_release);
  }

  // Queued, not yet destroyed. Any thread.
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::vector<T> queue_;     // Guarded by mu_.
  std::vector<T> draining_;  // Owner-only; swapped with queue_ to keep both
                             // buffers' capacity.
  std::atomic<size_t> pending_{0};
  bool closed_ = false;      // Guarded by mu_.
};

}  // namespace ts

#endif  // SRC_COMMON_RETIRE_QUEUE_H_
