#include "exec/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace pisa::exec {

// A Job lives on the stack of its parallel_for caller, which returns as
// soon as it sees remaining == 0. A task therefore finishes by decrementing
// and notifying while it holds `m`: the caller can only observe the zero
// after that lock is released, and the finishing task touches the Job no
// more once it has released it.
struct ThreadPool::Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::mutex m;
  std::condition_variable done_cv;
  std::size_t remaining = 0;  // tasks not yet finished; guarded by m
  std::exception_ptr error;   // first failure; guarded by m
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  std::size_t lanes = std::max<std::size_t>(num_threads, 1);
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    lanes_.push_back(std::make_unique<Lane>());
  workers_.reserve(lanes - 1);
  for (std::size_t i = 1; i < lanes; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk{work_m_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

bool ThreadPool::try_pop_local(std::size_t lane, Task& out) {
  Lane& l = *lanes_[lane];
  std::lock_guard lk{l.m};
  if (l.q.empty()) return false;
  out = l.q.back();  // LIFO on the own lane: cache-warm tail chunks
  l.q.pop_back();
  return true;
}

bool ThreadPool::try_steal(std::size_t thief_lane, Task& out) {
  for (std::size_t d = 1; d < lanes_.size(); ++d) {
    std::size_t victim = (thief_lane + d) % lanes_.size();
    Lane& l = *lanes_[victim];
    std::lock_guard lk{l.m};
    if (l.q.empty()) continue;
    out = l.q.front();  // FIFO steal: take the oldest, largest-grain work
    l.q.pop_front();
    return true;
  }
  return false;
}

void ThreadPool::run_task(const Task& t) {
  Job& job = *t.job;
  std::exception_ptr error;
  try {
    for (std::size_t i = t.lo; i < t.hi; ++i) (*job.body)(i);
  } catch (...) {
    error = std::current_exception();
  }
  std::lock_guard lk{job.m};
  if (error && !job.error) job.error = std::move(error);
  if (--job.remaining == 0) job.done_cv.notify_all();
}

void ThreadPool::worker_loop(std::size_t lane) {
  for (;;) {
    Task t;
    if (try_pop_local(lane, t) || try_steal(lane, t)) {
      {
        std::lock_guard lk{work_m_};
        --pending_tasks_;
      }
      run_task(t);
      continue;
    }
    std::unique_lock lk{work_m_};
    work_cv_.wait(lk, [this] { return pending_tasks_ > 0 || stop_; });
    if (stop_ && pending_tasks_ == 0) return;
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // Fine chunks (8 per lane) so stealing can even out the load when entry
  // costs vary (e.g. negate-vs-not in finish_request).
  const std::size_t lanes = lanes_.size();
  const std::size_t chunk = std::max<std::size_t>(1, n / (lanes * 8));
  const std::size_t num_tasks = (n + chunk - 1) / chunk;

  Job job;
  job.body = &body;
  job.remaining = num_tasks;

  std::size_t lo = begin;
  for (std::size_t t = 0; t < num_tasks; ++t) {
    std::size_t hi = std::min(end, lo + chunk);
    Lane& l = *lanes_[t % lanes];
    {
      std::lock_guard lk{l.m};
      l.q.push_back(Task{&job, lo, hi});
    }
    lo = hi;
  }
  {
    std::lock_guard lk{work_m_};
    pending_tasks_ += num_tasks;
  }
  work_cv_.notify_all();

  // The caller is lane 0: drain its own deque, then steal, then wait.
  for (;;) {
    Task t;
    if (try_pop_local(0, t) || try_steal(0, t)) {
      {
        std::lock_guard lk{work_m_};
        --pending_tasks_;
      }
      run_task(t);
      continue;
    }
    std::unique_lock lk{job.m};
    job.done_cv.wait(lk, [&job] { return job.remaining == 0; });
    break;
  }

  // Every task has finished and released job.m, so nothing else reads or
  // writes the Job from here on.
  if (job.error) std::rethrow_exception(job.error);
}

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->parallel_for(begin, end, body);
    return;
  }
  for (std::size_t i = begin; i < end; ++i) body(i);
}

}  // namespace pisa::exec
