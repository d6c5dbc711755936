#include "dtnsim/sweep/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "dtnsim/util/log.hpp"

namespace dtnsim::sweep {
namespace {

// Set on a thread while it is one of several running a batch: a shared-pool
// helper, or a caller draining a batch that fanned out. A parallel_for
// issued there runs inline. Inline runs leave it clear: they occupy no
// other core, so a call nested in one may fan out.
thread_local bool t_in_task = false;

// One parallel_for call. It lives on the caller's stack, and the caller
// returns only once no helper is inside it.
struct Batch {
  Batch(std::size_t n, const std::function<void(std::size_t)>& task, int helpers)
      : n(n), task(task), helper_slots(helpers) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& task;
  std::atomic<std::size_t> next{0};  // the next unclaimed index
  int helper_slots;    // helpers that may still join; guarded by SharedPool::mu_
  int helpers_in = 0;  // helpers inside drain(); guarded by SharedPool::mu_

  std::mutex error_mu;  // guards error_index and error
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;  // the lowest-index failure so far

  // Claims and runs indices until none is left.
  void drain() noexcept {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  }
};

// The process-wide helpers behind parallel_for: one per usable CPU but one,
// since the calling thread drains its own batch too. Started on first use,
// joined at exit.
class SharedPool {
 public:
  static SharedPool& instance() {
    static SharedPool pool(resolve_jobs(0) - 1);
    return pool;
  }

  ~SharedPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  SharedPool(const SharedPool&) = delete;
  SharedPool& operator=(const SharedPool&) = delete;

  int helpers() const { return static_cast<int>(threads_.size()); }

  // Offers `batch` to its helper slots, drains it here too, then waits
  // until every helper that joined has left it.
  void run(Batch& batch) {
    const int slots = batch.helper_slots;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_.push_back(&batch);
    }
    // Wake only as many helpers as may join: on a many-core host a small
    // batch would otherwise wake every helper for nothing.
    for (int k = 0; k < slots; ++k) work_cv_.notify_one();
    t_in_task = true;
    batch.drain();
    t_in_task = false;
    std::unique_lock<std::mutex> lock(mu_);
    std::erase(open_, &batch);
    done_cv_.wait(lock, [&batch] { return batch.helpers_in == 0; });
  }

 private:
  explicit SharedPool(int helpers) {
    threads_.reserve(static_cast<std::size_t>(helpers));
    try {
      for (int i = 0; i < helpers; ++i) threads_.emplace_back([this] { helper_loop(); });
    } catch (const std::system_error& e) {
      // A thread limit: run with the helpers that did start.
      log::warn("parallel_for: started %zu of %d pool threads (%s)", threads_.size(), helpers,
                e.what());
    }
  }

  void helper_loop() {
    t_in_task = true;
    while (true) {
      Batch* batch = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stopping_ || !open_.empty(); });
        if (stopping_) return;
        batch = open_.front();
        ++batch->helpers_in;
        if (--batch->helper_slots == 0) open_.pop_front();
      }
      batch->drain();
      const std::lock_guard<std::mutex> lock(mu_);
      if (--batch->helpers_in == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // helpers: a batch is open, or stopping
  std::condition_variable done_cv_;  // callers: a helper left a batch
  std::deque<Batch*> open_;          // guarded by mu_: batches with free slots
  bool stopping_ = false;            // guarded by mu_
  std::vector<std::thread> threads_;
};

int usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(CPU_COUNT(&set), 1);
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int resolve_jobs(int jobs) { return jobs == 0 ? usable_cpus() : std::max(jobs, 1); }

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& task) {
  const std::size_t threads =
      t_in_task || n < 2 ? 1 : std::min(static_cast<std::size_t>(resolve_jobs(jobs)), n);
  int helpers = 0;
  if (threads > 1) {
    helpers = std::min(static_cast<int>(threads - 1), SharedPool::instance().helpers());
  }
  Batch batch(n, task, helpers);
  if (helpers > 0) {
    SharedPool::instance().run(batch);
  } else {
    batch.drain();
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace dtnsim::sweep
