#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/failpoint.h"

namespace genclus {
namespace {

TEST(ThreadPoolTest, RespectsRequestedThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitAndWaitRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForEachCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> touched(n);
  pool.ParallelForEach(n, [&](size_t i) { touched[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEachEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelForEach(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForEachPerIndexSlotsSumMatchesSerial) {
  ThreadPool pool(4);
  const size_t n = 100000;
  std::vector<double> slot(n, 0.0);
  pool.ParallelForEach(n, [&](size_t i) { slot[i] = static_cast<double>(i); });
  const double total = std::accumulate(slot.begin(), slot.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksBeforeJoining) {
  // The destructor must let workers finish every task already queued: it
  // sets shutdown_ first, but workers only exit once the queue is empty.
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1);
      });
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPoolTest, DestructorJoinsIdleWorkersPromptly) {
  // Shutdown of an idle pool must not deadlock on the condition variable:
  // notify_all after setting shutdown_ wakes every sleeping worker.
  const auto start = std::chrono::steady_clock::now();
  { ThreadPool pool(8); }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
}

TEST(ThreadPoolTest, SingleWorkerExecutesSubmittedTasksInFifoOrder) {
  // With one worker the queue is strictly FIFO, so tasks queued before
  // shutdown observe every earlier task's effect — the ordering guarantee
  // the destructor's drain relies on.
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, SingleWorkerParallelForEachRunsInlineOnCaller) {
  // A 1-thread pool must take the inline fast path: every index runs on
  // the calling thread, in ascending order.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelForEach(1000, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 1000u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, TinyRangeRunsInlineEvenWithManyWorkers) {
  // n < 2 * threads skips dispatch entirely — same thread, ascending order.
  ThreadPool pool(8);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelForEach(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, TaskExceptionRethrownFromWait) {
  // A throwing task must neither kill its worker (std::terminate) nor leak
  // the in-flight count (Wait would hang); the exception surfaces from the
  // next Wait.
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays fully usable afterwards.
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, FirstOfSeveralTaskExceptionsWins) {
  ThreadPool pool(1);  // FIFO: the first submitted throw is the first seen
  pool.Submit([] { throw std::runtime_error("first"); });
  pool.Submit([] { throw std::logic_error("second"); });
  try {
    pool.Wait();
    FAIL() << "Wait() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The second exception was dropped; Wait is clean again.
  pool.Wait();
}

TEST(ThreadPoolTest, PoolUsableFromInsideWaitCatchHandler) {
  // Wait() and ParallelForEach() move the stored exception out under the
  // lock and rethrow only after the MutexLock scope closes, making the lock
  // release explicit rather than a side effect of unwinding the lock
  // guard. The observable contract: the pool mutex is free inside the
  // catch handler, so the handler can immediately Submit/Wait/
  // ParallelForEach on the same pool.
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  bool caught = false;
  try {
    pool.Wait();
  } catch (const std::runtime_error&) {
    caught = true;
    std::atomic<int> counter{0};
    pool.Submit([&counter] { counter.fetch_add(1); });
    pool.Wait();  // re-entering Wait from the handler must not deadlock
    EXPECT_EQ(counter.load(), 1);
  }
  EXPECT_TRUE(caught);

  caught = false;
  try {
    pool.ParallelForEach(1000, [](size_t i) {
      if (i == 0) throw std::logic_error("index boom");
    });
  } catch (const std::logic_error&) {
    caught = true;
    std::atomic<int> count{0};
    pool.ParallelForEach(64, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 64);
  }
  EXPECT_TRUE(caught);
}

TEST(ThreadPoolTest, ParallelForEachRethrowsIndexException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelForEach(1000,
                                    [](size_t i) {
                                      if (i == 1) {
                                        throw std::runtime_error("index");
                                      }
                                    }),
               std::runtime_error);
  // Every task finished and the pool is reusable.
  std::atomic<int> count{0};
  pool.ParallelForEach(100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolReduceTest, MatchesSerialSum) {
  ThreadPool pool(4);
  const size_t n = 10000;
  const double total = ParallelForReduce<double>(
      &pool, n, 64, [] { return 0.0; },
      [](double& acc, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) acc += static_cast<double>(i);
      },
      [](double& into, double&& from) { into += from; });
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(ThreadPoolReduceTest, BitwiseInvariantToThreadCount) {
  // Summands of wildly different magnitudes make the result sensitive to
  // accumulation order; fixed blocks merged in block order must therefore
  // give bitwise identical results for every pool size (and no pool).
  const size_t n = 4099;
  const auto body = [](double& acc, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      acc += 1.0 / (1.0 + static_cast<double>((i * 2654435761u) % 9973));
    }
  };
  const auto merge = [](double& into, double&& from) { into += from; };
  const double serial = ParallelForReduce<double>(
      nullptr, n, 64, [] { return 0.0; }, body, merge);
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    const double parallel = ParallelForReduce<double>(
        &pool, n, 64, [] { return 0.0; }, body, merge);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ThreadPoolReduceTest, EmptyRangeReturnsIdentity) {
  ThreadPool pool(2);
  const double total = ParallelForReduce<double>(
      &pool, 0, 16, [] { return 42.0; },
      [](double&, size_t, size_t) { FAIL() << "body on empty range"; },
      [](double&, double&&) { FAIL() << "merge on empty range"; });
  EXPECT_EQ(total, 42.0);
}

TEST(ThreadPoolReduceTest, GrainLargerThanRangeIsSingleBlock) {
  ThreadPool pool(4);
  int body_calls = 0;
  const int total = ParallelForReduce<int>(
      &pool, 10, 1000, [] { return 0; },
      [&](int& acc, size_t begin, size_t end) {
        ++body_calls;
        acc += static_cast<int>(end - begin);
      },
      [](int& into, int&& from) { into += from; });
  EXPECT_EQ(total, 10);
  EXPECT_EQ(body_calls, 1);
}

TEST(ThreadPoolReduceTest, BodyExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelForReduce<int>(
                   &pool, 1000, 8, [] { return 0; },
                   [](int&, size_t begin, size_t) {
                     if (begin >= 500) throw std::runtime_error("boom");
                   },
                   [](int& into, int&& from) { into += from; }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ConcurrentParallelForEachBatchesStayIndependent) {
  // Multiple caller threads interleaving ParallelForEach on ONE pool: each
  // call's completion tracking is batch-local, so every caller must see
  // exactly its own range covered (the old pool-global Wait could return
  // early or late when batches interleaved).
  ThreadPool pool(4);
  constexpr size_t kCallers = 6;
  constexpr size_t kRounds = 50;
  std::vector<std::thread> callers;
  std::atomic<bool> ok{true};
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &ok, c] {
      const size_t n = 1000 + 97 * c;  // distinct ranges per caller
      for (size_t round = 0; round < kRounds; ++round) {
        std::atomic<size_t> covered{0};
        pool.ParallelForEach(n, [&covered](size_t) { covered.fetch_add(1); });
        if (covered.load() != n) ok.store(false);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, ConcurrentParallelForEachIsolatesExceptionsPerCall) {
  // An index throwing in one caller's batch must surface in THAT call only;
  // concurrent clean batches on the same pool finish normally.
  ThreadPool pool(4);
  std::atomic<int> clean_failures{0};
  std::atomic<int> rethrown{0};
  std::thread thrower([&pool, &rethrown] {
    for (int round = 0; round < 20; ++round) {
      try {
        pool.ParallelForEach(1000, [](size_t i) {
          if (i == 0) throw std::runtime_error("mine");
        });
      } catch (const std::runtime_error&) {
        rethrown.fetch_add(1);
      }
    }
  });
  std::thread clean([&pool, &clean_failures] {
    for (int round = 0; round < 20; ++round) {
      std::atomic<size_t> covered{0};
      try {
        pool.ParallelForEach(1000,
                             [&covered](size_t) { covered.fetch_add(1); });
      } catch (...) {
        clean_failures.fetch_add(1);
      }
      if (covered.load() != 1000) clean_failures.fetch_add(1);
    }
  });
  thrower.join();
  clean.join();
  EXPECT_EQ(rethrown.load(), 20);
  EXPECT_EQ(clean_failures.load(), 0);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.ParallelForEach(100, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(FixedGrainBlockTest, EveryBlockRunsExactlyOnceUnderRandomDelays) {
  // Blocks are claimed dynamically, so they finish in no fixed order; each
  // must still run exactly once, over exactly its fixed range.
  const size_t n = 997;  // last block is short
  const size_t grain = 7;
  const size_t num_blocks = (n + grain - 1) / grain;
  for (size_t threads = 2; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> runs(num_blocks);
    std::vector<std::atomic<int>> covered(n);
    std::atomic<bool> ranges_ok{true};
    ForEachFixedGrainBlock(&pool, n, grain,
                           [&](size_t b, size_t begin, size_t end) {
                             if (begin != b * grain ||
                                 end != std::min(n, (b + 1) * grain)) {
                               ranges_ok.store(false);
                             }
                             // Deterministic pseudo-random 0-199us delay.
                             const size_t us = (b * 2654435761u) % 200;
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(us));
                             runs[b].fetch_add(1);
                             for (size_t i = begin; i < end; ++i) {
                               covered[i].fetch_add(1);
                             }
                           });
    EXPECT_TRUE(ranges_ok.load()) << threads << " threads";
    for (size_t b = 0; b < num_blocks; ++b) {
      EXPECT_EQ(runs[b].load(), 1) << threads << " threads, block " << b;
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(covered[i].load(), 1) << threads << " threads, index " << i;
    }
  }
}

TEST(FixedGrainBlockTest, StragglerBlockDoesNotHoldBackTheRest) {
  // Block 0 does not finish until every other block has run. Contiguous
  // per-worker chunks would strand the rest of block 0's chunk behind it
  // (the wait below times out); with dynamic claiming the other workers
  // take every remaining block.
  ThreadPool pool(4);
  const size_t num_blocks = 64;
  std::atomic<size_t> others_done{0};
  bool timed_out = false;
  ForEachFixedGrainBlock(&pool, num_blocks, 1,
                         [&](size_t b, size_t, size_t) {
                           if (b != 0) {
                             others_done.fetch_add(1);
                             return;
                           }
                           const auto give_up =
                               std::chrono::steady_clock::now() +
                               std::chrono::seconds(2);
                           while (others_done.load() < num_blocks - 1) {
                             if (std::chrono::steady_clock::now() > give_up) {
                               timed_out = true;
                               return;
                             }
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(100));
                           }
                         });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(others_done.load(), num_blocks - 1);
}

TEST(FixedGrainBlockTest, FewerThanTwoBlocksPerThreadRunOnTheCaller) {
  // Under 2 x threads blocks the loop skips dispatch: every block runs on
  // the calling thread, in ascending order.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const size_t num_blocks = std::max<size_t>(1, 2 * threads - 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    ForEachFixedGrainBlock(&pool, num_blocks * 10, 10,
                           [&](size_t b, size_t, size_t) {
                             EXPECT_EQ(std::this_thread::get_id(), caller);
                             order.push_back(b);
                           });
    ASSERT_EQ(order.size(), num_blocks) << threads << " threads";
    for (size_t b = 0; b < num_blocks; ++b) EXPECT_EQ(order[b], b);
  }
}

TEST(FixedGrainBlockTest, ThrowingBlockPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(ForEachFixedGrainBlock(&pool, 1000, 10,
                                      [](size_t b, size_t, size_t) {
                                        if (b == 37) {
                                          throw std::runtime_error("block");
                                        }
                                      }),
               std::runtime_error);
  std::atomic<size_t> covered{0};
  ForEachFixedGrainBlock(&pool, 1000, 10, [&](size_t, size_t begin,
                                              size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 1000u);
}

#if defined(GENCLUS_FAILPOINTS)
TEST(ThreadPoolTest, TaskFailpointSurfacesFromWaitAndPoolKeepsServing) {
  // "thread_pool.task" throws inside the worker before the task body:
  // Wait() must rethrow it, and the pool must keep serving afterwards.
  ThreadPool pool(2);
  Failpoints::Arm("thread_pool.task", {.max_fires = 1});
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  Failpoints::DisarmAll();
  // The injected throw consumed exactly one task; the rest ran.
  EXPECT_EQ(ran.load(), 7);
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 8);
  // Batches run normally once the failpoint is disarmed.
  std::atomic<size_t> covered{0};
  pool.ParallelForEach(100, [&covered](size_t) { covered.fetch_add(1); });
  EXPECT_EQ(covered.load(), 100u);
}
#endif

}  // namespace
}  // namespace genclus
