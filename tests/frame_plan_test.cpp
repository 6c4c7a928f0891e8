/**
 * @file
 * Tests for the compiled FramePlan stage graph and its pipelined
 * execution: stage-level parity with the serial AmcPipeline facade,
 * the digest-identity sweep over scenarios x policies x kernels
 * (pipelined Engine vs the serial AmcPipeline reference), motion
 * estimation skipped on schedule-forced key frames, and the
 * zero-allocation guarantee of the full submit-to-commit
 * predicted-frame path.
 */
#include <gtest/gtest.h>

#include "api/engine.h"
#include "api/registry.h"
#include "cnn/model_zoo.h"
#include "runtime/stage_scheduler.h"
#include "runtime/thread_pool.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

AmcOptions
small_options()
{
    AmcOptions opts;
    opts.search_radius = 10;
    return opts;
}

/** A small single-stream workload on the scaled AlexNet. */
struct PlanFixture
{
    Network net;
    std::vector<Sequence> streams;

    PlanFixture()
        : net(build_scaled(alexnet_spec(),
                           [] {
                               ScaledBuildOptions o;
                               o.input = Shape{1, 96, 96};
                               return o;
                           }()))
    {
        streams = multi_stream_set(/*seed=*/5, /*num_streams=*/1,
                                   /*frames_per_stream=*/4,
                                   /*size=*/96);
    }
};

TEST(FramePlan, StageHalvesMatchTheSerialFacade)
{
    PlanFixture fx;
    // Serial reference through the classic facade.
    AmcPipeline reference(fx.net,
                          std::make_unique<StaticRatePolicy>(2),
                          small_options());
    // The same frames through explicit front/suffix stage calls.
    AmcPipeline staged(fx.net, std::make_unique<StaticRatePolicy>(2),
                       small_options());
    FramePlan &plan = staged.frame_plan();
    plan.set_depth(2);
    ScratchArena arena;
    for (i64 f = 0; f < static_cast<i64>(fx.streams[0].size()); ++f) {
        const Tensor &frame = fx.streams[0][f].image;
        const AmcFrameResult expect = reference.process(frame);
        const FrontResult front =
            plan.run_front(frame, f % 2, arena, nullptr);
        const Tensor &out = plan.run_suffix(f % 2, arena, nullptr);
        EXPECT_EQ(front.is_key, expect.is_key) << "frame " << f;
        EXPECT_EQ(front.me_add_ops, expect.me_add_ops);
        EXPECT_DOUBLE_EQ(front.features.match_error,
                         expect.features.match_error);
        EXPECT_TRUE(out == expect.output) << "frame " << f;
        EXPECT_TRUE(plan.slot_activation(f % 2) ==
                    expect.target_activation)
            << "frame " << f;
    }
    EXPECT_EQ(plan.stats().frames, reference.stats().frames);
    EXPECT_EQ(plan.stats().key_frames, reference.stats().key_frames);
}

TEST(FramePlan, SlotRingRejectsOutOfDepthSlots)
{
    PlanFixture fx;
    AmcPipeline pipeline(fx.net, nullptr, small_options());
    FramePlan &plan = pipeline.frame_plan();
    ScratchArena arena;
    EXPECT_EQ(plan.depth(), 1);
    EXPECT_THROW(
        plan.run_front(fx.streams[0][0].image, 1, arena, nullptr),
        ConfigError);
    EXPECT_THROW(plan.set_depth(0), ConfigError);
    plan.set_depth(3);
    plan.run_front(fx.streams[0][0].image, 2, arena, nullptr);
    EXPECT_NO_THROW(plan.run_suffix(2, arena, nullptr));
    // Slots the front never wrote have no activation to read.
    EXPECT_THROW(plan.run_suffix(1, arena, nullptr), ConfigError);
}

TEST(FramePlan, ForcedPathsMatchFacadeForcedPaths)
{
    PlanFixture fx;
    AmcPipeline a(fx.net, nullptr, small_options());
    AmcPipeline b(fx.net, nullptr, small_options());
    ScratchArena arena;

    const Tensor key_out = a.run_key(fx.streams[0][0].image);
    b.frame_plan().run_front_key(fx.streams[0][0].image, 0, arena,
                                 nullptr);
    EXPECT_TRUE(key_out ==
                b.frame_plan().run_suffix(0, arena, nullptr));

    const AmcFrameResult pred = a.run_predicted(fx.streams[0][1].image);
    const FrontResult front = b.frame_plan().run_front_predicted(
        fx.streams[0][1].image, 0, arena, nullptr);
    EXPECT_FALSE(front.is_key);
    EXPECT_EQ(front.me_add_ops, pred.me_add_ops);
    EXPECT_TRUE(pred.output ==
                b.frame_plan().run_suffix(0, arena, nullptr));
}

/**
 * Motion estimation runs only when the policy can use it. Under each
 * scheduled policy (no adaptive key fires at th=1e9, so every key
 * after the first is forced every `period` frames), RFBME and the
 * policy call fire on exactly the predicted frames; each forced key
 * reports zero motion features and ops; and each key frame's output
 * equals a whole-network ExecutionPlan run on the frame, an oracle
 * outside FramePlan.
 */
TEST(FramePlanLazyMotion, ScheduleForcedKeysSkipMotionEstimation)
{
    PlanFixture fx;
    const Sequence seq = multi_stream_set(/*seed=*/17, 1, 12, 96)[0];
    const ExecutionPlan whole(fx.net);
    const std::vector<std::pair<std::string, i64>> policies = {
        {"every_frame", 1},
        {"static:interval=3", 3},
        {"adaptive_error:th=1e9,max_gap=4", 4},
        {"adaptive_motion:th=1e9,max_gap=4", 4},
    };
    for (const auto &[spec, period] : policies) {
        FramePlan plan(fx.net, PolicyRegistry::instance().make(spec),
                       small_options());
        StageTimings counts;
        ScratchArena arena;
        ScratchArena oracle_arena;
        for (i64 f = 0; f < seq.size(); ++f) {
            const i64 me_before = counts.calls(AmcStage::kMotionEstimation);
            const i64 policy_before = counts.calls(AmcStage::kPolicy);
            const FrontResult front =
                plan.run_front(seq[f].image, 0, arena, &counts);
            const bool me_ran =
                counts.calls(AmcStage::kMotionEstimation) > me_before;
            const bool policy_ran =
                counts.calls(AmcStage::kPolicy) > policy_before;
            const std::string where = spec + ", frame " + std::to_string(f);
            EXPECT_EQ(front.is_key, f % period == 0) << where;
            EXPECT_EQ(me_ran, !front.is_key) << where;
            EXPECT_EQ(policy_ran, !front.is_key) << where;
            if (front.is_key) {
                EXPECT_EQ(front.me_add_ops, 0) << where;
                EXPECT_EQ(front.features.match_error, 0.0) << where;
                EXPECT_EQ(front.features.motion_magnitude, 0.0) << where;
                EXPECT_EQ(front.features.frames_since_key,
                          f == 0 ? 0 : period)
                    << where;
                EXPECT_TRUE(plan.run_suffix(0, arena, nullptr) ==
                            whole.run(seq[f].image, oracle_arena))
                    << where;
            } else {
                EXPECT_GT(front.me_add_ops, 0) << where;
                EXPECT_EQ(front.features.frames_since_key, f % period)
                    << where;
            }
        }
    }
}

/** StaticRatePolicy(3) without the key_due override. */
class UnscheduledStaticPolicy : public KeyFramePolicy
{
  public:
    bool
    is_key_frame(const FrameFeatures &features) override
    {
        ++calls;
        return features.frames_since_key >= 3;
    }

    std::string name() const override { return "unscheduled_static"; }

    i64 calls = 0;
};

/**
 * A policy that does not override key_due is consulted as before:
 * RFBME and is_key_frame run on every non-first frame, keys included.
 * Its outputs equal those of StaticRatePolicy(3), which skips RFBME
 * on the same keys: the skipped motion field was never read.
 */
TEST(FramePlanLazyMotion, PoliciesWithoutKeyDueStillGetMotionFeatures)
{
    PlanFixture fx;
    const Sequence seq = multi_stream_set(/*seed=*/17, 1, 12, 96)[0];
    auto owned = std::make_unique<UnscheduledStaticPolicy>();
    const UnscheduledStaticPolicy *policy = owned.get();
    FramePlan plan(fx.net, std::move(owned), small_options());
    FramePlan lazy(fx.net, std::make_unique<StaticRatePolicy>(3),
                   small_options());
    StageTimings counts;
    ScratchArena arena;
    for (i64 f = 0; f < seq.size(); ++f) {
        const FrontResult front =
            plan.run_front(seq[f].image, 0, arena, &counts);
        const FrontResult skip =
            lazy.run_front(seq[f].image, 0, arena, nullptr);
        EXPECT_EQ(front.is_key, skip.is_key) << "frame " << f;
        if (f > 0) {
            EXPECT_GT(front.me_add_ops, 0) << "frame " << f;
        }
        const Tensor out = plan.run_suffix(0, arena, nullptr);
        EXPECT_TRUE(out == lazy.run_suffix(0, arena, nullptr))
            << "frame " << f;
    }
    EXPECT_EQ(counts.calls(AmcStage::kMotionEstimation), seq.size() - 1);
    EXPECT_EQ(counts.calls(AmcStage::kPolicy), seq.size() - 1);
    EXPECT_EQ(policy->calls, seq.size() - 1);
    EXPECT_EQ(plan.stats().key_frames, 4);
}

/** The small_options() shape as an engine config. */
EngineConfig
small_config(const std::string &policy, i64 depth, i64 threads)
{
    EngineConfig c;
    c.policy = policy;
    c.search_radius = 10;
    c.pipeline_depth = depth;
    c.num_threads = threads;
    return c;
}

/**
 * The acceptance sweep: for every scenario kind in the multi-stream
 * serving set and every key-frame policy, the pipelined Engine must
 * reproduce the serial AmcPipeline reference's per-stream digests bit
 * for bit.
 */
TEST(FramePlanSweep, PipelinedDigestsMatchSerialEverywhere)
{
    Network net = build_scaled(alexnet_spec(), [] {
        ScaledBuildOptions o;
        o.input = Shape{1, 96, 96};
        return o;
    }());
    // 5 streams cycle through all scenario kinds (objects, pan,
    // occlusion, static, chaotic).
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/7, /*num_streams=*/5,
                         /*frames_per_stream=*/4, /*size=*/96);

    const std::vector<std::string> policies = {
        "every_frame",
        "static:interval=3",
        "adaptive_error:th=0.05,max_gap=6",
        "adaptive_motion:th=60,max_gap=6",
    };
    for (const std::string &policy : policies) {
        const EngineConfig config = small_config(policy, 3, 4);
        Engine engine(net, config);
        const RunReport got = engine.run(streams);
        const std::vector<StreamReport> want =
            reference_rows(net, config, streams);
        ASSERT_EQ(got.streams.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got.streams[i].digest, want[i].digest)
                << "policy " << policy << ", stream " << want[i].name;
            EXPECT_EQ(got.streams[i].key_frames, want[i].key_frames);
            EXPECT_EQ(got.streams[i].me_add_ops, want[i].me_add_ops);
        }
        EXPECT_EQ(got.digest, chain_digest(want)) << "policy " << policy;
    }
}

TEST(FramePlanSweep, MemoizationModeMatchesToo)
{
    Network net = build_scaled(alexnet_spec(), [] {
        ScaledBuildOptions o;
        o.input = Shape{1, 96, 96};
        return o;
    }());
    const std::vector<Sequence> streams =
        classification_test_set(/*seed=*/11, /*num_sequences=*/2,
                                /*frames_per_sequence=*/4,
                                /*size=*/96);
    EngineConfig config = small_config("static:interval=3", 3, 4);
    config.motion = "memoization";
    Engine engine(net, config);
    EXPECT_EQ(engine.run(streams).digest,
              chain_digest(reference_rows(net, config, streams)));
}

/**
 * Submit `steady` to a warm inline session and count tensor-buffer
 * allocations from the first submit to the last commit. The frames
 * are built before the window opens and moved in, so the count is
 * the engine's own. Returns the window's allocations; `key_frames`
 * receives how many of the frames were key frames.
 */
u64
steady_state_allocations(Engine &engine, const Sequence &warmup,
                         const Sequence &steady, i64 *key_frames)
{
    Session &cam = engine.session("cam");
    cam.submit_all(warmup); // Key frame + slot/workspace growth.
    const StreamReport before = cam.report();
    std::vector<Tensor> frames;
    for (const LabeledFrame &frame : steady.frames) {
        frames.push_back(frame.image);
    }

    const u64 start = Tensor::buffer_allocations();
    for (Tensor &frame : frames) {
        cam.submit(std::move(frame));
    }
    cam.drain();
    const u64 stop = Tensor::buffer_allocations();

    const StreamReport after = cam.report();
    EXPECT_EQ(after.frames - before.frames, steady.size());
    *key_frames = after.key_frames - before.key_frames;
    return stop - start;
}

/**
 * The allocation acceptance bar: once warm, a predicted frame's whole
 * journey — submit, ingest, RFBME, motion-field build, warp, suffix,
 * digest, commit — performs zero tensor-buffer allocations.
 */
TEST(FramePlanAllocation, SteadyStatePredictedFramesAllocateNothing)
{
    Network net = build_scaled(alexnet_spec(), [] {
        ScaledBuildOptions o;
        o.input = Shape{1, 96, 96};
        return o;
    }());
    // A huge static interval: after the first key frame, everything
    // is a predicted frame. One thread: inline, so the global counter
    // stays ours.
    Engine engine(net, small_config("static:interval=1000", 3, 1));
    i64 keys = -1;
    const u64 allocations = steady_state_allocations(
        engine, multi_stream_set(/*seed=*/13, 1, 3, 96)[0],
        multi_stream_set(/*seed=*/13, 1, 6, 96)[0], &keys);
    EXPECT_EQ(keys, 0) << "steady-state run unexpectedly re-keyed";
    EXPECT_EQ(allocations, 0u)
        << "predicted frames allocated tensor buffers";
}

/**
 * The memoization short-circuit holds the same bar: re-serving the
 * stored key activation must alias the stored tensor (shared buffer),
 * not deep-copy it, so steady-state memoized frames allocate nothing.
 */
TEST(FramePlanAllocation, SteadyStateMemoizedFramesAllocateNothing)
{
    Network net = build_scaled(alexnet_spec(), [] {
        ScaledBuildOptions o;
        o.input = Shape{1, 96, 96};
        return o;
    }());
    EngineConfig config = small_config("static:interval=1000", 3, 1);
    config.motion = "memoization";
    Engine engine(net, config);
    i64 keys = -1;
    const u64 allocations = steady_state_allocations(
        engine, multi_stream_set(/*seed=*/13, 1, 3, 96)[0],
        multi_stream_set(/*seed=*/13, 1, 6, 96)[0], &keys);
    EXPECT_EQ(keys, 0) << "steady-state run unexpectedly re-keyed";
    EXPECT_EQ(allocations, 0u)
        << "memoized frames deep-copied the stored activation";
}

TEST(StageScheduler, CommitsInOrderAcrossDepths)
{
    PlanFixture fx;
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/21, 1, 8, 96);
    for (const i64 depth : {1, 2, 4}) {
        ThreadPool pool(3);
        AmcPipeline pipeline(fx.net,
                             std::make_unique<StaticRatePolicy>(3),
                             small_options());
        std::vector<i64> order;
        StageSchedulerOptions opts;
        opts.depth = depth;
        StageScheduler scheduler(
            pipeline, &pool, opts, [&order](FrameCommit commit) {
                order.push_back(commit.outcome.frame);
            });
        for (const LabeledFrame &frame : streams[0].frames) {
            scheduler.enqueue(frame.image);
        }
        scheduler.drain();
        ASSERT_EQ(order.size(), streams[0].frames.size());
        for (size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(order[i], static_cast<i64>(i))
                << "depth " << depth;
        }
        EXPECT_EQ(scheduler.committed(), scheduler.submitted());
    }
}

TEST(StageScheduler, BadFrameCommitsItsErrorAndTheStreamContinues)
{
    PlanFixture fx;
    ThreadPool pool(2);
    AmcPipeline pipeline(fx.net, nullptr, small_options());
    i64 failures = 0;
    i64 successes = 0;
    StageScheduler scheduler(pipeline, &pool, {},
                             [&](FrameCommit commit) {
                                 if (commit.error) {
                                     ++failures;
                                 } else {
                                     ++successes;
                                 }
                             });
    scheduler.enqueue(fx.streams[0][0].image);
    scheduler.enqueue(Tensor(1, 8, 8)); // Wrong shape: ingest throws.
    scheduler.enqueue(fx.streams[0][1].image);
    scheduler.drain();
    EXPECT_EQ(failures, 1);
    EXPECT_EQ(successes, 2);
}

} // namespace
} // namespace eva2
