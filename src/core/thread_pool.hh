/**
 * @file
 * Fixed-size worker pool used by the parallel study runner.
 *
 * Jobs are plain std::function<void()> drained from a FIFO queue by a
 * fixed set of worker threads — no work stealing between queues, so
 * there is exactly one shared queue to reason about. Parallelism is
 * across jobs only (whole studies, or the serving layer's requests);
 * nothing nests.
 *
 * Determinism: the pool never reorders *results*. The study runner
 * assembles outputs in submission order, so anything computed through
 * the pool is bit-identical to a serial run.
 */

#ifndef WSG_CORE_THREAD_POOL_HH
#define WSG_CORE_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsg::core
{

/** A fixed-size thread pool with a shared FIFO job queue. */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 picks hardwareThreads().
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; pending jobs are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue a job for asynchronous execution. */
    void submit(std::function<void()> job);

    /** Block until the queue is empty and every job has finished. */
    void waitIdle();

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable idleCv_;
    std::size_t inFlight_ = 0;
    bool stop_ = false;
};

} // namespace wsg::core

#endif // WSG_CORE_THREAD_POOL_HH
