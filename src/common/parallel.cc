#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/flags.h"

namespace hsis::common {

int HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(int threads) {
  if (threads == 0) return HardwareConcurrency();
  return std::max(1, threads);
}

Result<int> ParseThreadsValue(std::string_view value, std::string_view flag) {
  HSIS_ASSIGN_OR_RETURN(int64_t threads,
                        ParseIntFlag(flag, value, 0, INT_MAX));
  return threads == 0 ? HardwareConcurrency() : static_cast<int>(threads);
}

Flag ThreadsFlag(int* threads) {
  return ParsedFlag("--threads", threads, [](std::string_view text) {
    return ParseThreadsValue(text);
  });
}

namespace {

/// One `ParallelFor` call in flight. It lives on the caller's stack; the
/// caller unlinks it from the pool and waits until `helpers` is zero
/// before returning, so no helper ever touches it afterwards.
struct Job {
  Job(const std::function<void(size_t)>& b, size_t count, int k)
      : body(&b), n(count), max_helpers(k - 1) {}

  const std::function<void(size_t)>* body;
  size_t n;
  int max_helpers;                // k - 1: pool workers 0 .. k - 2 may join
  std::atomic<size_t> next{0};    // next unclaimed index
  int helpers = 0;                // joined, not yet left (Pool::mu_)
  std::condition_variable left;   // signalled when `helpers` drops to 0
};

/// Claims and runs indices until none is left.
void Drain(Job& job) {
  for (size_t i = job.next.fetch_add(1, std::memory_order_relaxed); i < job.n;
       i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    (*job.body)(i);
  }
}

/// The process-wide worker set. Created on first use and never
/// destroyed: its idle workers outlive static destruction, so a
/// `ParallelFor` from any destructor stays safe.
class Pool {
 public:
  static Pool& Get() {
    static Pool* pool = new Pool;
    return *pool;
  }

  Pool(const Pool&) = delete;  // the workers hold its address
  Pool& operator=(const Pool&) = delete;

  void Run(int k, size_t n, const std::function<void(size_t)>& body) {
    Job job(body, n, k);
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (static_cast<int>(workers_.size()) < k - 1) {
        const int id = static_cast<int>(workers_.size());
        workers_.emplace_back([this, id] { WorkerLoop(id); });
      }
      open_.push_back(&job);
    }
    work_cv_.notify_all();
    Drain(job);
    std::unique_lock<std::mutex> lock(mu_);
    Close(job);
    job.left.wait(lock, [&] { return job.helpers == 0; });
  }

 private:
  Pool() = default;

  /// Unlinks an exhausted job so no further helper joins it. Requires mu_.
  void Close(Job& job) {
    auto it = std::find(open_.begin(), open_.end(), &job);
    if (it != open_.end()) open_.erase(it);
  }

  void WorkerLoop(int id) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Job* job = nullptr;
      work_cv_.wait(lock, [&] {
        for (Job* open : open_) {
          if (id < open->max_helpers) {
            job = open;
            return true;
          }
        }
        return false;
      });
      ++job->helpers;
      lock.unlock();
      Drain(*job);
      lock.lock();
      // The job is exhausted: unlink it so this worker cannot rejoin it.
      Close(*job);
      if (--job->helpers == 0) job->left.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<Job*> open_;  // jobs still accepting helpers, oldest first
  std::vector<std::thread> workers_;
};

}  // namespace

void ParallelFor(int threads, size_t n,
                 const std::function<void(size_t)>& body) {
  int k = ResolveThreadCount(threads);
  // Serial fallback when the range cannot occupy every participant:
  // helpers would claim single indices or nothing at all.
  if (k == 1 || n < static_cast<size_t>(k) || n <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  Pool::Get().Run(k, n, body);
}

void ParallelForTiles(int threads, size_t n, size_t tile_size,
                      const std::function<void(size_t, size_t)>& body) {
  const size_t tile = tile_size == 0 ? 1 : tile_size;
  const size_t tiles = (n + tile - 1) / tile;
  ParallelFor(threads, tiles, [&](size_t t) {
    const size_t lo = t * tile;
    body(lo, std::min(n, lo + tile));
  });
}

Status ParallelForWithStatus(int threads, size_t n,
                             const std::function<Status(size_t)>& body) {
  return ParallelForWithStatus(threads, n, /*batch_size=*/1, body);
}

Status ParallelForWithStatus(int threads, size_t n, size_t batch_size,
                             const std::function<Status(size_t)>& body) {
  std::mutex err_mu;
  size_t first_error_index = n;
  Status first_error = Status::OK();
  ParallelForTiles(threads, n, batch_size, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Status s = body(i);
      if (s.ok()) continue;
      std::lock_guard<std::mutex> lock(err_mu);
      if (i < first_error_index) {
        first_error_index = i;
        first_error = std::move(s);
      }
    }
  });
  return first_error;
}

}  // namespace hsis::common
