/**
 * @file
 * Tests for the eva2::Engine serving API: spec parsing and the
 * string-keyed registries, EngineConfig validation, batch runs
 * matching the serial AmcPipeline reference bit-for-bit, frame-level
 * Session submission (including incremental feeding split across
 * bursts, run() and submit() mixed on the same sessions, and
 * concurrent multi-threaded submission), and RunReport
 * structure/JSON.
 *
 * The digest-identity tests are the API's core contract: no matter
 * how frames reach the engine — one batch, several chunked batches,
 * or frame-by-frame session submission from several threads — the
 * outputs must be bit-identical to the serial reference
 * (reference_rows).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "api/run_report.h"
#include "cnn/model_zoo.h"
#include "util/json.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

// --------------------------------------------------------------------
// Component spec parsing

TEST(ComponentSpec, ParsesKindAndParams)
{
    const ComponentSpec spec =
        parse_component_spec("adaptive_error:th=0.05,max_gap=8");
    EXPECT_EQ(spec.kind, "adaptive_error");
    ASSERT_EQ(spec.params.size(), 2u);
    EXPECT_DOUBLE_EQ(spec.number("th", -1.0), 0.05);
    EXPECT_EQ(spec.integer("max_gap", -1), 8);
    EXPECT_FALSE(spec.has("interval"));
    EXPECT_EQ(spec.integer("interval", 42), 42);
}

TEST(ComponentSpec, BareKindHasNoParams)
{
    const ComponentSpec spec = parse_component_spec("bilinear");
    EXPECT_EQ(spec.kind, "bilinear");
    EXPECT_TRUE(spec.params.empty());
}

TEST(ComponentSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parse_component_spec(""), ConfigError);
    EXPECT_THROW(parse_component_spec(":th=1"), ConfigError);
    EXPECT_THROW(parse_component_spec("static:"), ConfigError);
    EXPECT_THROW(parse_component_spec("static:interval"), ConfigError);
    EXPECT_THROW(parse_component_spec("static:=4"), ConfigError);
    EXPECT_THROW(parse_component_spec("static:interval=4,"),
                 ConfigError);
    EXPECT_THROW(parse_component_spec("static:interval=4,interval=5"),
                 ConfigError);
}

TEST(ComponentSpec, RejectsBadNumbers)
{
    const ComponentSpec spec = parse_component_spec("p:th=abc,n=1.5");
    EXPECT_THROW(spec.number("th", 0.0), ConfigError);
    EXPECT_THROW(spec.integer("n", 0), ConfigError);
    EXPECT_DOUBLE_EQ(spec.number("n", 0.0), 1.5);
}

TEST(ComponentSpec, RejectsIntegerOverflow)
{
    const ComponentSpec spec =
        parse_component_spec("static:interval=99999999999999999999");
    EXPECT_THROW(spec.integer("interval", 0), ConfigError);
    EXPECT_THROW(PolicyRegistry::instance().make(
                     "static:interval=99999999999999999999"),
                 ConfigError);
}

TEST(ComponentSpec, AllowOnlyCatchesTypos)
{
    const ComponentSpec spec =
        parse_component_spec("adaptive_error:threshold=0.05");
    EXPECT_THROW(spec.allow_only({"th", "max_gap"}), ConfigError);
}

// --------------------------------------------------------------------
// Registries

TEST(PolicyRegistry, BuildsBuiltInPolicies)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    EXPECT_EQ(reg.make("every_frame")->name(), "static(1)");
    EXPECT_EQ(reg.make("static:interval=4")->name(), "static(4)");
    EXPECT_EQ(reg.make("adaptive_error:th=0.05")->name(),
              reg.make("block_error:th=0.05")->name());
    EXPECT_NE(reg.make("adaptive_motion:th=10,max_gap=4"), nullptr);
}

TEST(PolicyRegistry, UnknownKindNamesAlternatives)
{
    try {
        PolicyRegistry::instance().make("no_such_policy");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_policy"), std::string::npos);
        EXPECT_NE(msg.find("adaptive_error"), std::string::npos);
    }
}

TEST(PolicyRegistry, FactoryValidatesEagerlyAndMintsFreshInstances)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    EXPECT_THROW(reg.factory("static:bogus=1"), ConfigError);
    auto make = reg.factory("static:interval=3");
    auto a = make();
    auto b = make();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), b->name());
}

TEST(PolicyRegistry, AcceptsCustomRegistrations)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    reg.add("test_always", [](const ComponentSpec &spec) {
        spec.allow_only({});
        return std::make_unique<StaticRatePolicy>(1);
    });
    EXPECT_TRUE(reg.contains("test_always"));
    EXPECT_NE(reg.make("test_always"), nullptr);
}

TEST(InterpRegistry, ResolvesModes)
{
    InterpRegistry &reg = InterpRegistry::instance();
    EXPECT_EQ(reg.resolve("bilinear"), InterpMode::kBilinear);
    EXPECT_EQ(reg.resolve("nearest"), InterpMode::kNearest);
    EXPECT_THROW(reg.resolve("cubic"), ConfigError);
}

TEST(CodecRegistry, AppliesStorageOptions)
{
    CodecRegistry &reg = CodecRegistry::instance();
    AmcOptions amc;
    reg.apply("rle_q88:prune=0.3", amc);
    EXPECT_TRUE(amc.quantize_storage);
    EXPECT_DOUBLE_EQ(amc.storage_prune_rel, 0.3);
    reg.apply("dense", amc);
    EXPECT_FALSE(amc.quantize_storage);
    EXPECT_DOUBLE_EQ(amc.storage_prune_rel, 0.0);
    EXPECT_THROW(reg.apply("zip", amc), ConfigError);
    EXPECT_THROW(reg.apply("rle_q88:prune=-1", amc), ConfigError);
}

// --------------------------------------------------------------------
// Option and config validation

TEST(AmcOptionsValidation, RejectsDegenerateSearchParameters)
{
    const Network net = build_scaled(alexnet_spec());
    AmcOptions opts;
    opts.search_stride = 0;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
    opts = AmcOptions{};
    opts.search_radius = -2;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
    opts = AmcOptions{};
    opts.storage_prune_rel = -0.1;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
    opts = AmcOptions{};
    opts.search_stride = opts.search_radius + 1;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
}

TEST(AmcOptionsValidation, RejectsExplicitTargetOutOfBounds)
{
    const Network net = build_scaled(alexnet_spec());
    AmcOptions opts;
    opts.target_choice = TargetChoice::kExplicit;
    opts.explicit_target = net.num_layers();
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
    opts.explicit_target = -1;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
}

TEST(EngineConfig, ValidatesOnConstruction)
{
    const Network net = build_scaled(alexnet_spec());
    {
        EngineConfig config;
        config.policy = "no_such_policy";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.interp = "cubic";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.codec = "zip";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.target = "layer:9999";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.target = "somewhere";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.motion = "teleport";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.search_stride = 0;
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.num_threads = -1;
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    EngineConfig ok;
    ok.policy = "adaptive_error:th=0.02,max_gap=8";
    ok.target = "early";
    EXPECT_NO_THROW(ok.validate(net));
}

// --------------------------------------------------------------------
// Engine behaviour

/** Shared fixture: a small network and a multi-stream workload. */
struct EngineFixture
{
    Network net;
    std::vector<Sequence> streams;

    EngineFixture()
        : net(build_scaled(alexnet_spec())),
          streams(multi_stream_set(/*seed=*/9, /*num_streams=*/3,
                                   /*frames_per_stream=*/4))
    {
    }

    EngineConfig
    config(i64 threads) const
    {
        EngineConfig c;
        c.policy = "static:interval=2";
        c.num_threads = threads;
        return c;
    }

    /** The serial reference rows for `seqs`. */
    std::vector<StreamReport>
    reference(const std::vector<Sequence> &seqs) const
    {
        return reference_rows(net, config(1), seqs);
    }

    u64
    reference_digest() const
    {
        return chain_digest(reference(streams));
    }

    /**
     * The serial chain over frames [from, end) of `seq`, with stream
     * state carried over from frame 0: a later chunk's reference row.
     */
    u64
    reference_tail(const Sequence &seq, i64 from) const
    {
        const StreamExecutorOptions opts = config(1).resolve(net);
        AmcPipeline pipeline(net, opts.make_policy(0), opts.amc);
        u64 chain = kDigestSeed;
        for (i64 i = 0; i < seq.size(); ++i) {
            const AmcFrameResult r = pipeline.process(seq[i].image);
            if (i >= from) {
                chain = digest_combine(chain, tensor_digest(r.output));
            }
        }
        return chain;
    }
};

/** Each stream's frames [begin, end), keeping its name. */
std::vector<Sequence>
chunk(const std::vector<Sequence> &streams, i64 begin, i64 end)
{
    std::vector<Sequence> out;
    for (const Sequence &seq : streams) {
        Sequence part;
        part.name = seq.name;
        for (i64 i = begin; i < end; ++i) {
            part.frames.push_back(seq[i]);
        }
        out.push_back(std::move(part));
    }
    return out;
}

TEST(Engine, BatchRunMatchesSerialReferenceBitForBit)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(4));
    const RunReport report = engine.run(fx.streams);
    EXPECT_EQ(report.digest, fx.reference_digest());
    EXPECT_EQ(report.frames, 3 * 4);
    ASSERT_EQ(report.streams.size(), 3u);
    for (const StreamReport &s : report.streams) {
        EXPECT_EQ(s.frames, 4);
        EXPECT_GE(s.key_frames, 1);
        EXPECT_GT(s.me_add_ops, 0);
    }
    EXPECT_GT(report.wall_ms, 0.0);
    EXPECT_GT(report.frames_per_second(), 0.0);
}

TEST(Engine, SessionSubmissionMatchesBatchBitForBit)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(4));
    for (const Sequence &seq : fx.streams) {
        engine.session(seq.name).submit_all(seq);
    }
    const RunReport report = engine.report();
    EXPECT_EQ(report.digest, fx.reference_digest());
    EXPECT_EQ(report.frames, 3 * 4);
    ASSERT_EQ(report.streams.size(), 3u);
    EXPECT_EQ(report.streams[0].name, fx.streams[0].name);
}

TEST(Engine, SerialEngineProcessesInline)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(1));
    EXPECT_EQ(engine.num_threads(), 1);
    Session &cam = engine.session("cam");
    const FrameTicket t = cam.submit(fx.streams[0].frames[0].image);
    // No worker pool: the frame completed on the submitting thread.
    const auto outcome = cam.poll(t);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(outcome->is_key);
    EXPECT_EQ(outcome->frame, 0);
}

TEST(Engine, IncrementalFeedingIsBitIdenticalToOneBatch)
{
    // Satellite: splitting each stream's frames across two
    // submissions must reproduce the one-shot digests exactly —
    // session state (stored key frame, RLE buffer, policy state)
    // persists across the split.
    EngineFixture fx;
    const u64 expected = fx.reference_digest();

    // Two engine.run() calls over chunked sequences: per-chunk rows
    // must match the serial reference over the same chunk, and stream
    // state must persist across the boundary (each run() restarts the
    // digest chain, so chunks compare chunk-to-chunk).
    {
        const std::vector<Sequence> first = chunk(fx.streams, 0, 2);
        const std::vector<Sequence> second = chunk(fx.streams, 2, 4);
        Engine engine(fx.net, fx.config(2));
        const RunReport r1 = engine.run(first);
        const RunReport r2 = engine.run(second);
        EXPECT_EQ(r1.digest, chain_digest(fx.reference(first)));
        ASSERT_EQ(r2.streams.size(), fx.streams.size());
        for (size_t s = 0; s < fx.streams.size(); ++s) {
            EXPECT_EQ(r2.streams[s].digest,
                      fx.reference_tail(fx.streams[s], 2));
        }
        EXPECT_EQ(r1.frames + r2.frames, 3 * 4);
        // The sessions' cumulative chains cover both chunks.
        EXPECT_EQ(engine.report().digest, expected);
    }

    // Session path: two submit bursts with a drain between them must
    // chain into exactly the one-batch digest.
    {
        Engine engine(fx.net, fx.config(2));
        for (const Sequence &seq : fx.streams) {
            Session &cam = engine.session(seq.name);
            for (i64 i = 0; i < seq.size() / 2; ++i) {
                cam.submit(seq[i]);
            }
        }
        engine.flush();
        for (const Sequence &seq : fx.streams) {
            Session &cam = engine.session(seq.name);
            for (i64 i = seq.size() / 2; i < seq.size(); ++i) {
                cam.submit(seq[i]);
            }
        }
        const RunReport report = engine.report();
        EXPECT_EQ(report.digest, expected);
        EXPECT_EQ(report.frames, 3 * 4);
        // Fewer key frames than a fresh-per-chunk run would need:
        // the split reused each stream's stored key frame.
        for (const StreamReport &s : report.streams) {
            EXPECT_EQ(s.frames, 4);
        }
    }
}

TEST(Engine, PerFrameOutcomesMatchBatchRecords)
{
    EngineFixture fx;
    // Frame-level submission: every outcome is numbered in order,
    // and the chain over them matches the serial reference row.
    Engine engine(fx.net, fx.config(2));
    Session &cam = engine.session(fx.streams[0].name);
    const std::vector<FrameTicket> tickets =
        cam.submit_all(fx.streams[0]);
    EXPECT_EQ(cam.submitted(), 4);
    for (size_t i = 0; i < tickets.size(); ++i) {
        const FrameOutcome outcome = cam.wait(tickets[i]);
        EXPECT_EQ(outcome.frame, static_cast<i64>(i));
        EXPECT_FALSE(outcome.failed);
    }
    EXPECT_EQ(cam.completed(), 4);
    EXPECT_EQ(cam.report().digest, fx.reference(fx.streams)[0].digest);
}

TEST(Engine, ConcurrentSubmissionFromManyThreads)
{
    // The TSan target: many ingest threads, one per camera, pushing
    // frames concurrently while the engine's pool drains the strands.
    EngineFixture fx;
    Engine engine(fx.net, fx.config(4));
    // Create sessions up front so indices match stream order.
    for (const Sequence &seq : fx.streams) {
        engine.session(seq.name);
    }
    std::vector<std::thread> ingest;
    std::atomic<i64> submitted{0};
    for (const Sequence &seq : fx.streams) {
        ingest.emplace_back([&engine, &seq, &submitted]() {
            Session &cam = engine.session(seq.name);
            for (const LabeledFrame &frame : seq.frames) {
                cam.submit(frame);
                submitted.fetch_add(1);
            }
        });
    }
    for (std::thread &t : ingest) {
        t.join();
    }
    const RunReport report = engine.report();
    EXPECT_EQ(submitted.load(), 3 * 4);
    EXPECT_EQ(report.frames, 3 * 4);
    EXPECT_EQ(report.digest, fx.reference_digest());
}

TEST(Engine, ResetReproducesFirstRun)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport first = engine.run(fx.streams);
    const RunReport second = engine.run(fx.streams);
    // State persisted: second run reuses stored key frames, and its
    // rows count only its own frames.
    EXPECT_EQ(second.frames, first.frames);
    for (const StreamReport &s : second.streams) {
        EXPECT_EQ(s.frames, 4);
    }
    engine.reset();
    const RunReport again = engine.run(fx.streams);
    EXPECT_EQ(first.digest, fx.reference_digest());
    EXPECT_EQ(again.digest, first.digest);
}

TEST(Engine, RunAndSessionsAreOnePath)
{
    // run() feeds the very sessions submit() feeds: half of each
    // stream through run(), the rest through Session::submit, and
    // every session's cumulative row is the one-shot serial reference.
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport half = engine.run(chunk(fx.streams, 0, 2));
    EXPECT_EQ(half.frames, 3 * 2);
    EXPECT_EQ(engine.num_sessions(), 3);
    for (const Sequence &seq : fx.streams) {
        Session &cam = engine.session(seq.name);
        EXPECT_EQ(cam.submitted(), 2);
        for (i64 i = 2; i < seq.size(); ++i) {
            cam.submit(seq[i]);
        }
    }
    const RunReport report = engine.report();
    const std::vector<StreamReport> want = fx.reference(fx.streams);
    ASSERT_EQ(report.streams.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(report.streams[i].name, want[i].name);
        EXPECT_EQ(report.streams[i].frames, 4);
        EXPECT_EQ(report.streams[i].key_frames, want[i].key_frames);
        EXPECT_EQ(report.streams[i].digest, want[i].digest)
            << "stream " << want[i].name;
    }
    EXPECT_EQ(report.frames, 3 * 4);
    EXPECT_EQ(report.digest, chain_digest(want));
}

TEST(Engine, RunRejectsBadInputBeforeSubmittingAnything)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    (void)engine.run(chunk(fx.streams, 0, 2));

    std::vector<Sequence> bad_shape = chunk(fx.streams, 2, 4);
    bad_shape[1].frames[1].image = Tensor(1, 8, 8);
    std::vector<Sequence> duplicate = chunk(fx.streams, 2, 4);
    duplicate[2].name = duplicate[0].name;
    std::vector<Sequence> unknown = chunk(fx.streams, 2, 4);
    unknown[0].name = "never_seen";
    unknown[1].frames[0].image = Tensor(1, 8, 8);
    for (const std::vector<Sequence> *bad :
         {&bad_shape, &duplicate, &unknown}) {
        EXPECT_THROW(engine.run(*bad), ConfigError);
        EXPECT_EQ(engine.num_sessions(), 3);
        for (const Sequence &seq : fx.streams) {
            EXPECT_EQ(engine.session(seq.name).submitted(), 2);
        }
    }

    // A session whose outcomes go to a sink cannot report a run row.
    Session &cam0 = engine.session(fx.streams[0].name);
    cam0.set_outcome_sink([](const FrameOutcome &) {});
    EXPECT_THROW(engine.run(chunk(fx.streams, 2, 4)), ConfigError);
    cam0.set_outcome_sink(nullptr);
    EXPECT_EQ(cam0.submitted(), 2);

    // Nothing leaked into the streams: the next run continues them
    // exactly where the first chunk left off.
    const RunReport rest = engine.run(chunk(fx.streams, 2, 4));
    ASSERT_EQ(rest.streams.size(), fx.streams.size());
    for (size_t s = 0; s < fx.streams.size(); ++s) {
        EXPECT_EQ(rest.streams[s].frames, 2);
        EXPECT_EQ(rest.streams[s].digest,
                  fx.reference_tail(fx.streams[s], 2));
    }
    EXPECT_EQ(engine.report().digest, fx.reference_digest());
}

TEST(Engine, SubmitRejectsBadFrameShapeOnCallerThread)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    Session &cam = engine.session("cam");
    EXPECT_THROW(cam.submit(Tensor(1, 8, 8)), ConfigError);
    // The session stays usable afterwards.
    cam.submit(fx.streams[0].frames[0].image);
    cam.drain();
    EXPECT_EQ(cam.completed(), 1);
}

TEST(Engine, StaleTicketsAreRejectedAfterReset)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(1));
    Session &cam = engine.session("cam");
    const FrameTicket old =
        cam.submit(fx.streams[0].frames[0].image);
    engine.reset();
    // A pre-reset ticket must not resolve against the new epoch's
    // outcomes (or hang): it is rejected outright.
    EXPECT_THROW(cam.poll(old), ConfigError);
    EXPECT_THROW(cam.wait(old), ConfigError);
    const FrameTicket fresh =
        cam.submit(fx.streams[0].frames[0].image);
    EXPECT_FALSE(cam.wait(fresh).failed);
}

TEST(Engine, ForgetOutcomesBoundsMemoryButKeepsTheChain)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    Session &cam = engine.session(fx.streams[0].name);
    const Sequence &seq = fx.streams[0];
    FrameTicket first_half{};
    for (i64 i = 0; i < seq.size() / 2; ++i) {
        first_half = cam.submit(seq[i]);
    }
    cam.forget_outcomes(); // Long-lived server trimming records.
    EXPECT_THROW(cam.poll(first_half), ConfigError);
    std::vector<FrameTicket> rest;
    for (i64 i = seq.size() / 2; i < seq.size(); ++i) {
        rest.push_back(cam.submit(seq[i]));
    }
    // Post-trim tickets still resolve, numbering uninterrupted...
    EXPECT_EQ(cam.wait(rest.front()).frame, seq.size() / 2);
    // ...and stats plus the digest chain survived the trim intact.
    cam.drain();
    EXPECT_EQ(cam.completed(), seq.size());
    EXPECT_EQ(cam.report().digest, fx.reference(fx.streams)[0].digest);
}

TEST(ComponentSpec, RejectsNonFiniteNumbers)
{
    const ComponentSpec spec =
        parse_component_spec("p:a=nan,b=inf,c=-inf");
    EXPECT_THROW(spec.number("a", 0.0), ConfigError);
    EXPECT_THROW(spec.number("b", 0.0), ConfigError);
    EXPECT_THROW(spec.number("c", 0.0), ConfigError);
    EngineFixture fx;
    EngineConfig config;
    config.policy = "adaptive_error:th=nan";
    EXPECT_THROW(Engine(fx.net, config), ConfigError);
}

TEST(ComponentSpec, RejectsNegativeMaxGap)
{
    // A negative cap used to be accepted and silently mean "no cap".
    EngineFixture fx;
    EngineConfig config;
    config.policy = "adaptive_error:th=0.05,max_gap=-10";
    EXPECT_THROW(Engine(fx.net, config), ConfigError);
    config.policy = "adaptive_motion:th=60,max_gap=-10";
    EXPECT_THROW(Engine(fx.net, config), ConfigError);
}

TEST(Engine, SessionsAreStableAndNamed)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    Session &a = engine.session("cam_a");
    Session &b = engine.session("cam_b");
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&a, &engine.session("cam_a"));
    EXPECT_EQ(a.index(), 0);
    EXPECT_EQ(b.index(), 1);
    EXPECT_EQ(engine.num_sessions(), 2);
    EXPECT_EQ(engine.find_session("cam_a"), &a);
    EXPECT_EQ(engine.find_session("nope"), nullptr);
}

TEST(Engine, ClosedEngineRejectsSubmissionDescriptively)
{
    // Satellite regression: submitting after close()/teardown must be
    // a loud, descriptive error — not undefined behavior against a
    // half-destroyed engine.
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    Session &cam = engine.session("cam");
    const FrameTicket t = cam.submit(fx.streams[0].frames[0].image);
    cam.wait(t);

    engine.close();
    EXPECT_TRUE(engine.closed());
    engine.close(); // Idempotent.

    try {
        cam.submit(fx.streams[0].frames[1].image);
        FAIL() << "submit after close did not throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("closed"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(engine.run(fx.streams), ConfigError);
    EXPECT_THROW(engine.session("new_cam"), ConfigError);

    // Completed work stays observable: the existing session is still
    // addressable and its outcome, report, and digests survive.
    EXPECT_EQ(&engine.session("cam"), &cam);
    ASSERT_TRUE(cam.poll(t).has_value());
    EXPECT_TRUE(cam.poll(t)->is_key);
    const RunReport report = engine.report();
    EXPECT_EQ(report.frames, 1);
}

TEST(Engine, PipelineDepthConfigIsValidatedAndEchoed)
{
    EngineFixture fx;
    EngineConfig bad = fx.config(2);
    bad.pipeline_depth = -1;
    EXPECT_THROW(Engine(fx.net, bad), ConfigError);

    EngineConfig serial_frames = fx.config(2);
    serial_frames.pipeline_depth = 1;
    Engine a(fx.net, serial_frames);
    EngineConfig pipelined = fx.config(2);
    pipelined.pipeline_depth = 4;
    Engine b(fx.net, pipelined);
    const RunReport ra = a.run(fx.streams);
    const RunReport rb = b.run(fx.streams);
    EXPECT_EQ(ra.pipeline_depth, 1);
    EXPECT_EQ(rb.pipeline_depth, 4);
    // The execution-shape knob must not change a single output bit.
    EXPECT_EQ(ra.digest, rb.digest);
    EXPECT_NE(ra.to_json(0).find("\"pipeline_depth\":1"),
              std::string::npos);
}

// --------------------------------------------------------------------
// RunReport and JSON

TEST(RunReport, CollectsStageTimings)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport report = engine.run(fx.streams);
    ASSERT_EQ(report.stages.size(),
              static_cast<size_t>(kNumAmcStages));
    auto calls = [&](const char *name) -> i64 {
        for (const StageReport &s : report.stages) {
            if (s.stage == name) {
                return s.calls;
            }
        }
        return -1;
    };
    // 3 streams x 4 frames, static:interval=2 -> 2 keys per stream.
    EXPECT_EQ(calls("prefix"), 6);
    EXPECT_EQ(calls("suffix"), 12);
    // Only predicted frames run RFBME: the first frame has no key
    // pixels and the schedule forces frame 2's key (key_due).
    EXPECT_EQ(calls("motion_estimation"), 6);
    EXPECT_EQ(calls("warp"), 6);
    EXPECT_EQ(calls("encode"), 6);

    // Stage rows cover exactly one run, like frames and wall_ms: a
    // second run must not report doubled (lifetime) counts.
    const RunReport second = engine.run(fx.streams);
    for (const StageReport &s : second.stages) {
        if (s.stage == "suffix") {
            EXPECT_EQ(s.calls, 12);
        }
    }
}

TEST(RunReport, JsonIsWellFormedAndCarriesHeadlineNumbers)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport report = engine.run(fx.streams);
    const std::string json = report.to_json();

    // Structural sanity: balanced brackets outside strings.
    i64 depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);

    for (const char *key :
         {"\"network\"", "\"policy\"", "\"wall_ms\"", "\"frames\"",
          "\"key_fraction\"", "\"fps\"", "\"me_add_ops\"",
          "\"digest\"", "\"streams\"", "\"stages\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_NE(json.find("\"static:interval=2\""), std::string::npos);
}

TEST(JsonEscape, SharedHelperCoversQuotesBackslashesAndControls)
{
    // The one escape routine every report path shares (satellite):
    // stage/kernel/stream names with hostile characters cannot
    // corrupt a saved report.
    EXPECT_EQ(json_escape("plain_name"), "plain_name");
    EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(json_escape("tab\there"), "tab\\there");
    EXPECT_EQ(json_escape("nl\nrc\r"), "nl\\nrc\\r");
    EXPECT_EQ(json_escape(std::string("bell\x01") + "x"),
              "bell\\u0001x");

    // A report whose stage/kernel-bearing names carry quotes and
    // backslashes still serializes through the helper: the raw name
    // never appears unescaped.
    RunReport report;
    report.network = "net\"quoted\\name";
    StageReport stage;
    stage.stage = "stage\"x";
    report.stages.push_back(stage);
    PlanRecord plan;
    plan.scope = "prefix";
    PlanStepInfo step;
    step.layer = "conv\\1";
    step.kernel = "gemm\"fused";
    plan.steps.push_back(step);
    report.plan.push_back(plan);
    const std::string json = report.to_json(0);
    EXPECT_EQ(json.find("net\"quoted"), std::string::npos);
    EXPECT_NE(json.find("net\\\"quoted\\\\name"), std::string::npos);
    EXPECT_NE(json.find("stage\\\"x"), std::string::npos);
    EXPECT_NE(json.find("conv\\\\1"), std::string::npos);
    EXPECT_NE(json.find("gemm\\\"fused"), std::string::npos);
}

TEST(StageReportTest, OccupancyAndMeanLatencyRows)
{
    StageTimings timings;
    timings.on_stage(AmcStage::kSuffix, 30.0);
    timings.on_stage(AmcStage::kSuffix, 10.0);
    timings.on_stage(AmcStage::kMotionEstimation, 60.0);
    const std::vector<StageReport> rows =
        stage_reports(timings, /*wall_ms=*/50.0);
    ASSERT_EQ(rows.size(), static_cast<size_t>(kNumAmcStages));
    for (const StageReport &row : rows) {
        if (row.stage == "suffix") {
            EXPECT_DOUBLE_EQ(row.total_ms, 40.0);
            EXPECT_EQ(row.calls, 2);
            EXPECT_DOUBLE_EQ(row.mean_ms(), 20.0);
            EXPECT_DOUBLE_EQ(row.occupancy, 0.8);
        } else if (row.stage == "motion_estimation") {
            // Busy past the wall clock: overlapped execution.
            EXPECT_DOUBLE_EQ(row.occupancy, 1.2);
        } else {
            EXPECT_DOUBLE_EQ(row.occupancy, 0.0);
            EXPECT_DOUBLE_EQ(row.mean_ms(), 0.0);
        }
    }
    // Without a wall time, occupancies are simply absent (0).
    EXPECT_DOUBLE_EQ(stage_reports(timings)[0].occupancy, 0.0);
}

TEST(JsonWriterTest, EscapesAndNests)
{
    JsonWriter w(0);
    w.begin_object();
    w.member("s", "a\"b\\c\nd");
    w.member("i", i64{-3});
    w.member("b", true);
    w.key("a").begin_array().value(1.5).null().end_array();
    w.end_object();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,"
                       "\"b\":true,\"a\":[1.5,null]}");
}

TEST(JsonWriterTest, SplicesRawSubdocuments)
{
    JsonWriter inner(0);
    inner.begin_object().member("x", i64{1}).end_object();
    JsonWriter w(0);
    w.begin_object();
    w.key("nested").raw(inner.str());
    w.key("arr").begin_array().raw("[2,3]").end_array();
    w.end_object();
    EXPECT_EQ(w.str(), "{\"nested\":{\"x\":1},\"arr\":[[2,3]]}");
}

TEST(JsonWriterTest, RejectsStructuralMisuse)
{
    {
        JsonWriter w;
        w.begin_array();
        EXPECT_THROW(w.key("k"), InternalError);
    }
    {
        JsonWriter w;
        w.begin_object();
        EXPECT_THROW(w.value(i64{1}), InternalError);
    }
    {
        JsonWriter w;
        w.begin_object();
        EXPECT_THROW(w.str(), InternalError);
    }
}

TEST(RunReportTest, DigestHexFormatsFixedWidth)
{
    EXPECT_EQ(digest_hex(0), "0x0000000000000000");
    EXPECT_EQ(digest_hex(0xdeadbeefull), "0x00000000deadbeef");
}

} // namespace
} // namespace eva2
