// Pluggable execution strategy for per-vertex loops.
//
// Round-based LOCAL algorithms spend nearly all their time in "for every
// vertex, compute something from the previous round's states" loops. An
// Executor abstracts how such a loop runs: SerialExecutor is the plain
// loop; ThreadPoolExecutor owns a persistent worker pool and splits the
// index range into contiguous chunks claimed dynamically by its workers
// and the calling thread. ThreadPoolExecutor is the one class in the
// library that starts worker threads for loops: ShardedExecutor
// (local/shard.h) and the chunked graph reader (io/io.cpp) run on it too.
// Because every strategy partitions the SAME index range and bodies write
// only to their own indices, results are bit-identical across executors —
// the engine tests assert this.
//
// APIs take `const Executor*` defaulted to nullptr, which means "serial";
// callers opt into parallelism by passing a ThreadPoolExecutor. Executors
// are stateless from the caller's perspective and safe to share across
// calls (not across concurrent calls for ThreadPoolExecutor, whose pool is
// not reentrant).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "scol/util/check.h"

namespace scol {

/// Minimum number of indices worth a parallel chunk: ThreadPoolExecutor's
/// default grain, so a loop narrower than this — ShardedExecutor's narrow
/// loops included — runs inline as one range.
inline constexpr std::size_t kDefaultGrain = 256;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Invokes body(begin, end) over disjoint ranges exactly covering
  /// [0, n), in unspecified order and possibly concurrently. The body must
  /// only write to state owned by its own indices.
  virtual void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const = 0;
};

class SerialExecutor final : public Executor {
 public:
  void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const override {
    if (n > 0) body(0, n);
  }
};

/// A persistent pool with a chunked parallel-for. One LOCAL round is an
/// embarrassingly parallel map over vertices, so a simple chunk-claiming
/// scheme — no work stealing, no per-task allocation — captures essentially
/// all the available speedup. Exceptions thrown by chunk bodies are
/// captured and the first one by chunk index is rethrown on the calling
/// thread, so failures are deterministic too.
class ThreadPoolExecutor final : public Executor {
 public:
  /// threads <= 0 selects hardware concurrency. Chunking follows
  /// `threads`, but at most hardware_concurrency() - 1 workers start
  /// (the calling thread is the last one), so a 1-thread pool starts none.
  /// `grain` is the minimum number of indices per parallel_ranges chunk;
  /// small loops stay effectively serial so the pool never costs more
  /// than it saves.
  explicit ThreadPoolExecutor(int threads = 0,
                              std::size_t grain = kDefaultGrain)
      : grain_(std::max<std::size_t>(grain, 1)) {
    static const int hw =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    num_threads_ = threads > 0 ? threads : hw;
    const int workers = std::min(num_threads_, hw) - 1;
    workers_.reserve(static_cast<std::size_t>(workers));
    try {
      for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
    } catch (...) {
      stop_workers();  // joinable threads must not be destroyed
      throw;
    }
  }

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  ~ThreadPoolExecutor() override { stop_workers(); }

  /// The requested thread count, which sets the chunking.
  int num_threads() const { return num_threads_; }

  /// Invokes chunk(i) for every i in [0, num_chunks), distributing chunks
  /// over the pool (calling thread included) and blocking until all are
  /// done. Chunks are claimed dynamically, so uneven chunk costs balance.
  /// One chunk, or a pool without workers, runs inline in index order.
  /// Not reentrant: chunk bodies must not call into this pool.
  void run_chunks(std::size_t num_chunks,
                  const std::function<void(std::size_t)>& chunk) const {
    if (num_chunks == 0) return;
    if (num_chunks == 1 || workers_.empty()) {
      for (std::size_t i = 0; i < num_chunks; ++i) chunk(i);
      return;
    }
    // The job lives on the heap and is shared with every worker that picks
    // it up, so a worker waking after completion only touches a dead (but
    // alive) job. `remaining` counts chunks not yet fully accounted for;
    // every participant merges its errors before subtracting, so when it
    // reaches zero all side effects of all chunks are visible.
    auto job = std::make_shared<Job>();
    job->chunk = &chunk;
    job->num_chunks = num_chunks;
    job->remaining = num_chunks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      SCOL_CHECK(job_ == nullptr,
                 + "ThreadPoolExecutor::run_chunks is not reentrant");
      job_ = job;
      ++generation_;
    }
    job_cv_.notify_all();
    work_on(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return job->remaining == 0; });
      job_ = nullptr;
    }
    if (job->first_error) std::rethrow_exception(job->first_error);
  }

  void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const override {
    if (n == 0) return;
    // 4 chunks per thread gives dynamic claiming room to balance uneven
    // per-vertex costs without shredding cache locality. Flooring the
    // chunk count at n / grain keeps every chunk >= grain indices, so
    // loops near the grain stay effectively serial.
    const std::size_t chunks = std::clamp<std::size_t>(
        n / grain_, 1, static_cast<std::size_t>(num_threads_) * 4);
    const std::size_t chunk_size = (n + chunks - 1) / chunks;
    run_chunks(chunks, [&](std::size_t i) {
      const std::size_t begin = i * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      if (begin < end) body(begin, end);
    });
  }

 private:
  struct Job {
    const std::function<void(std::size_t)>* chunk = nullptr;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::size_t remaining = 0;  // guarded by mu_ once published
    std::size_t error_chunk = 0;
    std::exception_ptr first_error;
  };

  // Claims and runs chunks until the job is exhausted; records the first
  // error by chunk index.
  void work_on(Job& job) const {
    std::size_t ran = 0;
    std::exception_ptr local_error;
    std::size_t local_error_chunk = 0;
    for (;;) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.num_chunks) break;
      ++ran;
      try {
        (*job.chunk)(i);
      } catch (...) {
        if (!local_error) {
          local_error = std::current_exception();
          local_error_chunk = i;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (local_error &&
        (!job.first_error || local_error_chunk < job.error_chunk)) {
      job.first_error = local_error;
      job.error_chunk = local_error_chunk;
    }
    job.remaining -= ran;
    if (job.remaining == 0) done_cv_.notify_all();
  }

  void worker_loop() const {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        job_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (job != nullptr) work_on(*job);
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int num_threads_ = 1;
  std::size_t grain_;
  mutable std::mutex mu_;  // guards the job slot and stop_
  mutable std::condition_variable job_cv_;
  mutable std::condition_variable done_cv_;
  mutable std::shared_ptr<Job> job_;
  mutable std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: workers use every member above
};

/// The process-wide serial executor ("no executor given").
inline const Executor& serial_executor() {
  static const SerialExecutor serial;
  return serial;
}

/// Resolves the `const Executor* exec = nullptr` API convention.
inline const Executor& resolve_executor(const Executor* exec) {
  return exec != nullptr ? *exec : serial_executor();
}

/// Convenience: runs body(i) for every i in [0, n) under `exec`.
template <typename Body>
void parallel_for_index(const Executor& exec, std::size_t n, Body&& body) {
  exec.parallel_ranges(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

/// Smallest index in [0, n) satisfying `pred`, or n if none — identical
/// under every executor (min-reduction across chunks; a chunk stops at its
/// first hit, since later indices in it cannot beat that one). `pred` must
/// be safe to invoke concurrently for distinct indices.
template <typename Pred>
std::size_t parallel_min_index(const Executor& exec, std::size_t n,
                               Pred&& pred) {
  std::atomic<std::size_t> best{n};
  exec.parallel_ranges(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (pred(i)) {
        std::size_t cur = best.load(std::memory_order_relaxed);
        while (i < cur && !best.compare_exchange_weak(
                              cur, i, std::memory_order_relaxed)) {
        }
        return;
      }
    }
  });
  return best.load(std::memory_order_relaxed);
}

}  // namespace scol
