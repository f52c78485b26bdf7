/**
 * @file
 * Unit tests for the worker pool: submit/waitIdle draining and the
 * destructor's drain of oversubscribed batches. These run under
 * ASan/UBSan and TSan in CI, so they double as the data-race smoke test
 * for the runner machinery.
 */

#include <atomic>

#include <gtest/gtest.h>

#include "core/thread_pool.hh"

using wsg::core::ThreadPool;

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, SubmitRunsEveryJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}
