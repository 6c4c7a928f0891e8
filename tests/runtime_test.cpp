/**
 * @file
 * Unit tests for the parallel runtime: ThreadPool task completion and
 * exception propagation, ParallelFor edge cases and determinism, and
 * the Engine's execution path (sessions over stage schedulers on the
 * pool) bit-identical to the serial AmcPipeline reference for every
 * depth and pool size, with failures contained and recoverable.
 *
 * Pools are constructed with explicit thread counts so the parallel
 * code paths are exercised even on single-core CI machines.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "cnn/model_zoo.h"
#include "eval/metrics.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

TEST(ThreadPool, CompletesAllSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<i64> sum{0};
    std::vector<std::future<void>> futures;
    for (i64 i = 1; i <= 100; ++i) {
        futures.push_back(pool.submit([&sum, i]() {
            sum.fetch_add(i);
        }));
    }
    for (std::future<void> &f : futures) {
        f.get();
    }
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, SubmitReturnsTaskValue)
{
    ThreadPool pool(2);
    std::future<i64> f = pool.submit([]() -> i64 { return 41 + 1; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    std::future<void> f = pool.submit([]() {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(f.get(), std::runtime_error);
    // The worker survives a throwing task.
    EXPECT_EQ(pool.submit([]() -> i64 { return 7; }).get(), 7);
}

TEST(ThreadPool, PendingTasksRunBeforeShutdown)
{
    std::atomic<i64> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            pool.enqueue_detached([&ran]() { ran.fetch_add(1); });
        }
    } // Destructor joins after draining the queue.
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, WorkerThreadsAreMarked)
{
    EXPECT_FALSE(ThreadPool::on_worker_thread());
    ThreadPool pool(1);
    EXPECT_TRUE(pool.submit([]() {
        return ThreadPool::on_worker_thread();
    }).get());
}

TEST(ParallelFor, EmptyRangeNeverCallsBody)
{
    ThreadPool pool(4);
    ParallelForOptions opts;
    opts.pool = &pool;
    std::atomic<i64> calls{0};
    parallel_for(0, 0, [&](i64) { calls.fetch_add(1); }, opts);
    parallel_for(5, 5, [&](i64) { calls.fetch_add(1); }, opts);
    parallel_for(7, 3, [&](i64) { calls.fetch_add(1); }, opts);
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, FewerItemsThanThreads)
{
    ThreadPool pool(8);
    ParallelForOptions opts;
    opts.pool = &pool;
    std::vector<i64> hits(3, 0);
    parallel_for(0, 3, [&](i64 i) {
        hits[static_cast<size_t>(i)] += 1;
    }, opts);
    EXPECT_EQ(hits, (std::vector<i64>{1, 1, 1}));
}

TEST(ParallelFor, EveryIndexProcessedExactlyOnce)
{
    ThreadPool pool(4);
    ParallelForOptions opts;
    opts.pool = &pool;
    const i64 n = 1000;
    std::vector<std::atomic<i64>> hits(n);
    parallel_for(3, 3 + n, [&](i64 i) {
        hits[static_cast<size_t>(i - 3)].fetch_add(1);
    }, opts);
    for (i64 i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "index " << i;
    }
}

TEST(ParallelFor, GrainLargerThanRange)
{
    ThreadPool pool(4);
    ParallelForOptions opts;
    opts.pool = &pool;
    opts.grain = 1000;
    std::atomic<i64> sum{0};
    parallel_for(0, 10, [&](i64 i) { sum.fetch_add(i); }, opts);
    EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, ExceptionRethrownOnCaller)
{
    ThreadPool pool(4);
    ParallelForOptions opts;
    opts.pool = &pool;
    EXPECT_THROW(
        parallel_for(0, 100, [](i64 i) {
            if (i == 57) {
                throw std::runtime_error("bad index");
            }
        }, opts),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallRunsSeriallyWithoutDeadlock)
{
    ThreadPool pool(2);
    ParallelForOptions opts;
    opts.pool = &pool;
    std::atomic<i64> inner_total{0};
    parallel_for(0, 8, [&](i64) {
        // Iterations land on pool workers (where the inner call must
        // degrade to an inline serial loop rather than re-enter the
        // busy pool) and on the participating caller thread (where it
        // may fan out again); either way it must complete correctly.
        parallel_for(0, 10, [&](i64 j) { inner_total.fetch_add(j); },
                     opts);
    }, opts);
    EXPECT_EQ(inner_total.load(), 8 * 45);
}

/**
 * Shared fixture data: a small network, a multi-stream workload, and
 * the serial AmcPipeline reference rows every engine shape must match.
 */
struct StreamFixture
{
    Network net;
    std::vector<Sequence> streams;

    StreamFixture()
        : net(build_scaled(alexnet_spec())),
          streams(multi_stream_set(/*seed=*/9, /*num_streams=*/3,
                                   /*frames_per_stream=*/4))
    {
    }

    EngineConfig
    config(i64 threads, i64 depth = 3) const
    {
        EngineConfig c;
        c.policy = "static:interval=2";
        c.num_threads = threads;
        c.pipeline_depth = depth;
        return c;
    }

    std::vector<StreamReport>
    reference() const
    {
        return reference_rows(net, config(1), streams);
    }
};

/** Row-by-row equality: names, counters, and digest chains. */
void
expect_rows_equal(const std::vector<StreamReport> &got,
                  const std::vector<StreamReport> &want,
                  const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, want[i].name) << label;
        EXPECT_EQ(got[i].frames, want[i].frames) << label;
        EXPECT_EQ(got[i].key_frames, want[i].key_frames) << label;
        EXPECT_EQ(got[i].me_add_ops, want[i].me_add_ops) << label;
        EXPECT_EQ(got[i].digest, want[i].digest)
            << label << ", stream " << want[i].name;
    }
}

TEST(EngineRun, PerFrameOutcomesMatchTheSerialPipeline)
{
    // Frame by frame, not only the chains: every outcome's key flag,
    // top-1, and output digest equals what AmcPipeline::process
    // computes for the same frame.
    StreamFixture fx;
    const EngineConfig config = fx.config(4);
    const StreamExecutorOptions opts = config.resolve(fx.net);
    Engine engine(fx.net, config);
    for (size_t s = 0; s < fx.streams.size(); ++s) {
        Session &cam = engine.session(fx.streams[s].name);
        const std::vector<FrameTicket> tickets =
            cam.submit_all(fx.streams[s]);
        AmcPipeline serial(fx.net,
                           opts.make_policy(static_cast<i64>(s)),
                           opts.amc);
        for (size_t f = 0; f < tickets.size(); ++f) {
            const AmcFrameResult want =
                serial.process(fx.streams[s].frames[f].image);
            const FrameOutcome got = cam.wait(tickets[f]);
            EXPECT_EQ(got.frame, static_cast<i64>(f));
            EXPECT_EQ(got.is_key, want.is_key);
            EXPECT_EQ(got.top1, top1(want.output));
            EXPECT_EQ(got.output_digest, tensor_digest(want.output))
                << "stream " << s << " frame " << f;
            EXPECT_EQ(got.me_add_ops, want.me_add_ops);
        }
    }
}

TEST(EngineRun, AggregationMatchesPerStreamRows)
{
    StreamFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport report = engine.run(fx.streams);

    EXPECT_EQ(report.frames, 3 * 4);
    i64 keys = 0;
    i64 ops = 0;
    for (const StreamReport &s : report.streams) {
        EXPECT_EQ(s.frames, 4);
        EXPECT_GE(s.key_frames, 1); // First frame is always key.
        keys += s.key_frames;
        ops += s.me_add_ops;
    }
    EXPECT_EQ(report.key_frames, keys);
    EXPECT_EQ(report.me_add_ops, ops);
    EXPECT_EQ(report.digest, chain_digest(report.streams));
    EXPECT_GT(report.key_fraction(), 0.0);
    EXPECT_LE(report.key_fraction(), 1.0);
    EXPECT_GT(report.wall_ms, 0.0);
    EXPECT_GT(report.frames_per_second(), 0.0);
}

/**
 * Arms one failure: the next frame any "test_fail_once" policy is
 * consulted on throws inside the front half, as an internal error
 * would, and every later consultation keys like every_frame.
 */
std::atomic<bool> g_fail_next{false};

class FailOncePolicy : public KeyFramePolicy
{
  public:
    bool
    is_key_frame(const FrameFeatures &) override
    {
        if (g_fail_next.exchange(false)) {
            throw std::runtime_error("injected policy failure");
        }
        return true;
    }

    std::string name() const override { return "test_fail_once"; }
};

/**
 * A stage that throws mid-run must surface from run() only after every
 * in-flight frame finished (no use-after-free of frames or pipelines),
 * poison just its stream until reset(), and leave the engine usable:
 * after the reset the same run reproduces the reference exactly.
 */
void
check_failure_recovery(i64 threads, i64 depth)
{
    PolicyRegistry::instance().add(
        "test_fail_once", [](const ComponentSpec &spec) {
            spec.allow_only({});
            return std::make_unique<FailOncePolicy>();
        });
    StreamFixture fx;
    EngineConfig config = fx.config(threads, depth);
    config.policy = "test_fail_once";
    Engine engine(fx.net, config);
    g_fail_next.store(true);
    EXPECT_THROW(engine.run(fx.streams), std::runtime_error);
    EXPECT_FALSE(g_fail_next.load()) << "the failure never fired";
    // Sticky until reset: the failed stream's chain is broken.
    EXPECT_THROW(engine.flush(), std::runtime_error);
    engine.reset();
    const RunReport report = engine.run(fx.streams);
    EXPECT_EQ(report.frames, 3 * 4);
    expect_rows_equal(report.streams,
                      reference_rows(fx.net, config, fx.streams),
                      "after recovery");
}

TEST(EngineRun, StreamFailurePropagatesWithoutCrashing)
{
    check_failure_recovery(/*threads=*/4, /*depth=*/1);
}

TEST(EngineRun, PipelinedFailurePropagatesAndEngineRecovers)
{
    check_failure_recovery(/*threads=*/4, /*depth=*/3);
}

TEST(EngineRun, BitIdenticalAcrossDepthsAndPools)
{
    // Every execution shape — frames pipelined across stages (fronts
    // serialized, suffixes fanned out, commits in order) or not, on
    // any pool size — must be bit-identical to the serial reference.
    // Run under TSan in CI, this is also the data-race gate for the
    // scheduler's synchronization.
    StreamFixture fx;
    const std::vector<StreamReport> want = fx.reference();
    for (const i64 depth : {1, 2, 3, 5}) {
        for (const i64 threads : {1, 2, 4}) {
            Engine engine(fx.net, fx.config(threads, depth));
            const RunReport got = engine.run(fx.streams);
            const std::string label = "depth " + std::to_string(depth) +
                                      ", threads " +
                                      std::to_string(threads);
            expect_rows_equal(got.streams, want, label);
            EXPECT_EQ(got.digest, chain_digest(want)) << label;
        }
    }
}

TEST(TensorDigest, SensitiveToValuesAndShape)
{
    Tensor a(1, 2, 2);
    Tensor b(1, 2, 2);
    EXPECT_EQ(tensor_digest(a), tensor_digest(b));
    b.at(0, 1, 1) = 1e-7f;
    EXPECT_NE(tensor_digest(a), tensor_digest(b));
    Tensor c(2, 2, 1); // Same element count, different shape.
    EXPECT_NE(tensor_digest(a), tensor_digest(c));
}

} // namespace
} // namespace eva2
