/**
 * @file
 * perfbench — the serving benchmark of the EVA2 engine.
 *
 * Drives the real serving path from outside: TCP workloads send FRAME
 * bytes into a net::Server and time the OUTCOME bytes coming back;
 * in-process workloads go through Session::submit and time the
 * outcome sink. Every run checks each session's outputs against a
 * serial (num_threads=1) oracle replay of the same frames, computed
 * outside the timed region, and prints no metrics on a mismatch.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
 * breakdown, prints the per-layer metrics and writes a Chrome
 * trace-event file. The last stdout line is always the JSON result.
 * README.md beside this directory documents every workload and
 * metric.
 */
#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <iostream>
#include <list>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "breakdown.h"
#include "cnn/model_zoo.h"
#include "loadgen.h"
#include "net/server.h"
#include "runtime/thread_pool.h"
#include "trace.h"
#include "video/scenarios.h"

namespace perfbench {
namespace {

using eva2::AmcStage;
using eva2::Tensor;

/**
 * Setup repetitions per run; setup_s is their median. One set-up
 * builds the model, so it takes 0.2-0.7 s.
 */
constexpr i64 kSetupReps = 11;
/** How long after its last due frame a phase waits for outcomes. */
constexpr double kDrainSeconds = 20.0;
/** Worker threads of the oracle and reference replays. */
constexpr i64 kReplayThreads = 4;
/** Frames of the traced serial AmcPipeline replay. */
constexpr i64 kReplayFrames = 1000;
/** Frames fed through the single-layer plans. */
constexpr i64 kLayerFrames = 8;
/** Frames run through the wire codec. */
constexpr i64 kCodecFrames = 256;
/**
 * Fewest frames a camera workload sends. The predicted-frame p99 needs
 * at least 1000 predicted frames for ten samples beyond it; with up to
 * 15% key frames that is about 1180 frames, and 1500 leaves a 25%
 * margin. At the fewest key frames, 1 in max_gap + 1, 136 keys put
 * 13 beyond the key p90.
 */
constexpr i64 kMinCameraFrames = 1500;
/** Tracking-only memory spec: the budget never binds. */
const char *const kTrackMemory = "budget_mb:65536";

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

enum class Traffic
{
    kCameras, ///< Open loop, each session at a fixed frame rate.
    kClosed,  ///< Closed loop, fixed frames outstanding per session.
};

/**
 * One named traffic mix. Engine worker count and the global kernel
 * pool size are fixed here per workload (never the hardware default):
 * the two pools oversubscribe each other otherwise.
 */
struct Workload
{
    std::string name;
    eva2::NetworkSpec spec;
    eva2::ScaledBuildOptions build;
    eva2::EngineConfig engine;
    i64 pool_threads = 1;
    Traffic traffic = Traffic::kCameras;
    i64 sessions = 8;
    i64 connections = 0; ///< 0 = in-process (Session::submit).
    double camera_fps = 0.0;  ///< kCameras: frames/s per session.
    i64 key_gap = 0;          ///< kCameras: the policy's max_gap.
    i64 outstanding = 0;      ///< kClosed: frames in flight/session.
    i64 cycle = 0;            ///< kClosed: distinct frames/session.

    bool tcp() const { return connections > 0; }
};

Workload
live_detect()
{
    Workload w;
    w.name = "live_detect";
    w.spec = eva2::faster16_spec();
    w.build.input = eva2::Shape{1, 96, 96};
    w.key_gap = 10;
    w.engine.policy =
        "adaptive_error:th=0.05,max_gap=" + std::to_string(w.key_gap);
    w.engine.target = "early";
    w.engine.search_radius = 8;
    // Three engine threads leave a vCPU of four to the server's IO
    // thread and the load generator; latency matched four threads.
    w.engine.num_threads = 3;
    w.engine.memory = kTrackMemory;
    w.pool_threads = 1;
    w.traffic = Traffic::kCameras;
    w.sessions = 8;
    w.connections = 4;
    w.camera_fps = 10.0;
    return w;
}

Workload
full_cnn_batch()
{
    Workload w;
    w.name = "full_cnn_batch";
    w.spec = eva2::alexnet_spec();
    w.build.input = eva2::Shape{1, 128, 128};
    w.build.fc_dim = 2048;
    w.engine.search_radius = 8;
    w.engine.policy = "every_frame";
    // A suffix becomes ready every ~2 ms; under the default 200 us
    // delay batches averaged 1.1 frames. 6 ms lets them form (about 4
    // frames), so the batched FC path is what this workload measures.
    w.engine.batch = "auto:delay_us=6000";
    w.engine.num_threads = 3;
    w.engine.memory = kTrackMemory;
    w.pool_threads = 1;
    w.traffic = Traffic::kClosed;
    w.sessions = 8;
    w.outstanding = 2;
    w.cycle = 24;
    return w;
}

Workload
find_workload(const std::string &name)
{
    for (Workload w : {live_detect(), full_cnn_batch()}) {
        if (w.name == name) {
            return w;
        }
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (live_detect, full_cnn_batch)");
}

/** Frames per session and the open-loop schedule, all from the seed. */
OpenLoopInput
make_inputs(const Workload &w, u64 seed, double seconds)
{
    OpenLoopInput in;
    // A camera run lasts `seconds`, but never sends fewer frames than
    // its tails need (a shorter request runs longer).
    const i64 per_session =
        w.traffic == Traffic::kCameras
            ? std::max(static_cast<i64>(std::ceil(w.camera_fps * seconds)),
                       (kMinCameraFrames + w.sessions - 1) / w.sessions)
            : w.cycle;
    const std::vector<eva2::Sequence> seqs = eva2::multi_stream_set(
        seed, w.sessions, per_session, w.build.input.h);
    for (i64 s = 0; s < w.sessions; ++s) {
        in.names.push_back(w.name + "-" + std::to_string(s));
        std::vector<Tensor> frames;
        for (const eva2::LabeledFrame &f :
             seqs[static_cast<size_t>(s)].frames) {
            frames.push_back(f.image);
        }
        in.frames.push_back(std::move(frames));
    }

    std::mt19937_64 rng(seed ^ 0x5eedf00dull);
    if (w.traffic == Traffic::kCameras) {
        // Cameras run at one rate and join one after another, in a
        // seeded order, spread over one key cycle (max_gap frames):
        // their frames arrive evenly staggered across the frame period,
        // and their forced key frames do not all fall on the same
        // period. (Aligned cameras would collide on every frame, or on
        // every key frame, for the whole run: a seed-dependent queue
        // rather than load.)
        const double period = 1.0 / w.camera_fps;
        const double spacing = static_cast<double>(w.key_gap + 1) * period /
                               static_cast<double>(w.sessions);
        std::vector<i64> slot(static_cast<size_t>(w.sessions));
        for (i64 s = 0; s < w.sessions; ++s) {
            slot[static_cast<size_t>(s)] = s;
        }
        std::shuffle(slot.begin(), slot.end(), rng);
        for (i64 s = 0; s < w.sessions; ++s) {
            const double start =
                spacing * static_cast<double>(slot[static_cast<size_t>(s)]);
            for (i64 k = 0; k < per_session; ++k) {
                in.schedule.push_back(
                    {start + static_cast<double>(k) * period, s, k});
            }
        }
    }
    std::stable_sort(in.schedule.begin(), in.schedule.end(),
                     [](const Send &a, const Send &b) {
                         return a.due_s < b.due_s;
                     });
    return in;
}

/** Engine, server and admitted sessions of one phase. */
struct Rig
{
    std::unique_ptr<eva2::Engine> engine;
    std::unique_ptr<eva2::net::Server> server;
    std::unique_ptr<TcpLoadgen> loadgen;
    std::vector<eva2::Session *> sessions; ///< In-process only.
    std::vector<double> open_ms; ///< Engine::session() per session.

    Rig() = default;
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    ~Rig()
    {
        try {
            if (loadgen) {
                loadgen->close();
            }
            if (server) {
                server->stop();
            }
        } catch (const std::exception &e) {
            std::cerr << "perfbench: teardown: " << e.what() << "\n";
        }
    }
};

/**
 * Set up one phase: engine construction and plan compile, server
 * start, and every session admitted. setup_s times this plus the
 * model build before it.
 */
std::unique_ptr<Rig>
make_rig(const Workload &w, const eva2::Network &net,
         const std::vector<std::string> &names, bool tcp)
{
    auto rig = std::make_unique<Rig>();
    rig->engine = std::make_unique<eva2::Engine>(net, w.engine);
    if (tcp) {
        eva2::net::ServerConfig sc;
        sc.max_sessions = std::max<i64>(sc.max_sessions, w.sessions);
        rig->server =
            std::make_unique<eva2::net::Server>(*rig->engine, sc);
        rig->server->start();
        rig->loadgen = std::make_unique<TcpLoadgen>(
            rig->server->port(), w.connections, names);
        return rig;
    }
    for (const std::string &name : names) {
        const TimePoint t0 = Clock::now();
        rig->sessions.push_back(&rig->engine->session(name));
        rig->open_ms.push_back(ms_between(t0, Clock::now()));
    }
    return rig;
}

/**
 * Outcome sinks of an in-process phase: each stamps its frame's
 * record the moment the engine delivers it. Destruction waits for
 * every submitted frame's sink call, then uninstalls the sinks.
 */
class SinkBoard
{
  public:
    SinkBoard(const std::vector<eva2::Session *> &sessions,
              std::vector<std::vector<FrameRec>> &frames, Tracer &tracer)
        : sessions_(sessions), frames_(frames),
          done_per_(sessions.size(), 0)
    {
        for (size_t s = 0; s < sessions_.size(); ++s) {
            sessions_[s]->set_outcome_sink(
                [this, s, &tracer](const eva2::FrameOutcome &o) {
                    const TimePoint now = Clock::now();
                    FrameRec &rec =
                        frames_[s][static_cast<size_t>(o.frame)];
                    rec.done = now;
                    rec.answered = true;
                    rec.is_key = o.is_key;
                    rec.failed = o.failed;
                    rec.top1 = o.top1;
                    rec.digest = o.output_digest;
                    tracer.async_span(
                        "runtime", o.is_key ? "engine key" : "engine pred",
                        static_cast<u64>(s) << 32 |
                            static_cast<u64>(o.frame),
                        rec.sent, now, kLaneEngine);
                    {
                        eva2::MutexLock lock(mutex_);
                        ++done_;
                        ++done_per_[s];
                    }
                    cv_.notify_all();
                });
        }
    }

    ~SinkBoard()
    {
        wait_all();
        for (eva2::Session *s : sessions_) {
            s->set_outcome_sink(nullptr);
        }
    }

    SinkBoard(const SinkBoard &) = delete;
    SinkBoard &operator=(const SinkBoard &) = delete;

    void
    note_submitted()
    {
        eva2::MutexLock lock(mutex_);
        ++submitted_;
    }

    /** Block until every submitted frame's outcome was delivered. */
    void
    wait_all()
    {
        eva2::MutexLock lock(mutex_);
        while (done_ < submitted_) {
            cv_.wait(lock);
        }
    }

    /**
     * Per-session delivered counts, once more than `seen` frames are
     * done in all or `until` passes.
     */
    std::vector<i64>
    wait_progress(i64 seen, TimePoint until)
    {
        eva2::MutexLock lock(mutex_);
        while (done_ <= seen && Clock::now() < until) {
            cv_.wait_until(lock, until);
        }
        return done_per_;
    }

  private:
    std::vector<eva2::Session *> sessions_;
    std::vector<std::vector<FrameRec>> &frames_;
    eva2::Mutex mutex_;
    eva2::CondVar cv_;
    i64 submitted_ GUARDED_BY(mutex_) = 0;
    i64 done_ GUARDED_BY(mutex_) = 0;
    std::vector<i64> done_per_ GUARDED_BY(mutex_);
};

/** Submit one frame in-process, timing how long the caller blocks. */
void
submit_timed(eva2::Session &session, const Tensor &frame, FrameRec &rec,
             SinkBoard &board, PhaseResult &r, Tracer &tracer)
{
    board.note_submitted();
    const TimePoint t0 = Clock::now();
    rec.sent = t0;
    (void)session.submit(frame);
    const TimePoint t1 = Clock::now();
    r.submit_us.push_back(1e3 * ms_between(t0, t1));
    r.send_lag_ms.push_back(ms_between(rec.due, t0));
    tracer.span("api", "Session::submit", t0, t1, kLaneGenerator);
}

/** In-process open loop on the TCP workload's exact schedule. */
PhaseResult
run_open_inproc(Rig &rig, const OpenLoopInput &in, Tracer &tracer)
{
    PhaseResult r;
    r.frames.resize(in.frames.size());
    for (size_t s = 0; s < in.frames.size(); ++s) {
        r.frames[s].resize(in.frames[s].size());
    }
    {
        SinkBoard board(rig.sessions, r.frames, tracer);
        const TimePoint t0 = Clock::now();
        for (const Send &e : in.schedule) {
            const TimePoint due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(e.due_s));
            std::this_thread::sleep_until(due);
            const size_t s = static_cast<size_t>(e.session);
            FrameRec &rec = r.frames[s][static_cast<size_t>(e.frame)];
            rec.due = due;
            submit_timed(*rig.sessions[s],
                         in.frames[s][static_cast<size_t>(e.frame)], rec,
                         board, r, tracer);
        }
        board.wait_all();
    }
    return r;
}

/** In-process closed loop: `outstanding` frames in flight per session. */
PhaseResult
run_closed(const Workload &w, Rig &rig, const OpenLoopInput &in,
           double seconds, Tracer &tracer)
{
    const size_t n = rig.sessions.size();
    // Room for far more frames than the engine completes in `seconds`.
    const size_t cap = static_cast<size_t>(
        std::ceil(seconds * 5000.0 / static_cast<double>(n)) +
        static_cast<double>(w.outstanding));
    PhaseResult r;
    r.frames.assign(n, std::vector<FrameRec>(cap));
    std::vector<size_t> next(n, 0);
    {
        SinkBoard board(rig.sessions, r.frames, tracer);
        auto submit = [&](size_t s) {
            FrameRec &rec = r.frames[s][next[s]];
            rec.due = Clock::now();
            const Tensor &frame =
                in.frames[s][next[s] % in.frames[s].size()];
            ++next[s];
            submit_timed(*rig.sessions[s], frame, rec, board, r, tracer);
        };
        const TimePoint end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        i64 seen = -1;
        while (Clock::now() < end) {
            const std::vector<i64> done = board.wait_progress(seen, end);
            seen = 0;
            for (size_t s = 0; s < n; ++s) {
                seen += done[s];
                while (static_cast<i64>(next[s]) - done[s] <
                           w.outstanding &&
                       next[s] < cap && Clock::now() < end) {
                    submit(s);
                }
            }
        }
        board.wait_all();
    }
    for (size_t s = 0; s < n; ++s) {
        r.frames[s].resize(next[s]);
    }
    return r;
}

/** One measured phase plus what the engine reported after it. */
struct Measured
{
    PhaseResult phase;
    eva2::RunReport report;
    eva2::NetStats net;
    double peak_rss_mb = 0.0;
    double bytes_per_session = 0.0;
    FrameSeqs seqs; ///< Frames the engine processed, per session.
};

Measured
measure(const Workload &w, Rig &rig, const OpenLoopInput &in,
        double seconds, Tracer &tracer)
{
    Measured m;
    if (rig.loadgen) {
        m.phase = rig.loadgen->run(in, kDrainSeconds, tracer);
    } else if (w.traffic == Traffic::kClosed) {
        m.phase = run_closed(w, rig, in, seconds, tracer);
    } else {
        m.phase = run_open_inproc(rig, in, tracer);
    }
    m.peak_rss_mb = static_cast<double>(vm_hwm_kb()) / 1024.0;
    if (!rig.loadgen) {
        // In-process sessions process frames in submission order.
        m.phase.order.assign(m.phase.frames.size(), {});
        for (size_t s = 0; s < m.phase.frames.size(); ++s) {
            for (size_t k = 0; k < m.phase.frames[s].size(); ++k) {
                if (m.phase.frames[s][k].answered) {
                    m.phase.order[s].push_back(static_cast<i64>(k));
                }
            }
        }
    }
    TimePoint first = TimePoint::max();
    TimePoint last = TimePoint::min();
    m.seqs.resize(m.phase.frames.size());
    for (size_t s = 0; s < m.phase.frames.size(); ++s) {
        const std::vector<Tensor> &frames = in.frames[s];
        for (const i64 k : m.phase.order[s]) {
            const FrameRec &rec = m.phase.frames[s][static_cast<size_t>(k)];
            m.seqs[s].push_back(&frames[static_cast<size_t>(k) %
                                        frames.size()]);
            first = std::min(first, rec.due);
            last = std::max(last, rec.done);
        }
    }
    m.phase.wall_s =
        first < last ? std::chrono::duration<double>(last - first).count()
                     : 0.0;
    if (rig.server) {
        m.report = rig.server->report();
        m.net = m.report.net;
    } else {
        m.report = rig.engine->report();
    }
    if (const eva2::ResidentSetManager *mgr =
            rig.engine->resident_manager()) {
        m.bytes_per_session = mgr->stats().bytes_per_session();
    }
    return m;
}

/** Thrown when outputs differ from the serial oracle. */
class CorrectnessError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

using Oracle = std::vector<std::vector<OracleFrame>>;

/**
 * Each session's chained output digest (and every frame's key flag and
 * top-1) must equal the serial oracle's for the same frames.
 */
void
verify(const std::string &phase, const Measured &m, const Oracle &oracle)
{
    i64 bad_sessions = 0;
    std::string first;
    for (size_t s = 0; s < m.phase.frames.size(); ++s) {
        u64 got = eva2::kDigestSeed;
        u64 want = eva2::kDigestSeed;
        bool frames_ok = true;
        const std::vector<i64> &order = m.phase.order[s];
        for (size_t j = 0; j < order.size(); ++j) {
            const FrameRec &rec =
                m.phase.frames[s][static_cast<size_t>(order[j])];
            const OracleFrame &o = oracle[s][j];
            frames_ok = frames_ok && rec.is_key == o.is_key &&
                        rec.top1 == o.top1 && !rec.failed;
            got = eva2::digest_combine(got, rec.digest);
            want = eva2::digest_combine(want, o.digest);
        }
        if (got != want || !frames_ok) {
            if (bad_sessions++ == 0) {
                first = "session " + std::to_string(s) + " digest " +
                        eva2::digest_hex(got) + " vs oracle " +
                        eva2::digest_hex(want);
            }
        }
    }
    if (bad_sessions > 0) {
        throw CorrectnessError(phase + ": " + std::to_string(bad_sessions) +
                               " session(s) differ from the serial "
                               "oracle; first: " +
                               first);
    }
}

/** Latency summary of one phase (answered, unfailed frames). */
struct Summary
{
    PhaseCount count;
    std::vector<double> all, key, pred;
    double throughput_fps = 0.0;
};

Summary
summarize(const std::string &phase, const Measured &m)
{
    Summary s;
    s.count.phase = phase;
    for (const std::vector<FrameRec> &recs : m.phase.frames) {
        for (const FrameRec &rec : recs) {
            s.count.add(rec);
            if (!rec.answered || rec.failed) {
                continue;
            }
            s.all.push_back(rec.latency_ms());
            (rec.is_key ? s.key : s.pred).push_back(rec.latency_ms());
        }
    }
    s.throughput_fps = m.phase.wall_s > 0.0
                           ? static_cast<double>(s.count.succeeded) /
                                 m.phase.wall_s
                           : 0.0;
    return s;
}

/** Every AMC stage, in frame-path order. */
std::vector<AmcStage>
all_stages()
{
    std::vector<AmcStage> stages;
    for (i64 i = 0; i < eva2::kNumAmcStages; ++i) {
        stages.push_back(static_cast<AmcStage>(i));
    }
    return stages;
}

/** conv/FC layer names of both served networks, in network order. */
std::vector<std::string>
layer_metric_names()
{
    std::vector<std::string> names;
    std::set<std::string> seen;
    for (const eva2::NetworkSpec &spec :
         {eva2::faster16_spec(), eva2::alexnet_spec()}) {
        for (const eva2::LayerSpec &l : spec.layers) {
            if ((l.kind == eva2::LayerKind::kConv ||
                 l.kind == eva2::LayerKind::kFc) &&
                seen.insert(l.name).second) {
                names.push_back(l.name);
            }
        }
    }
    return names;
}

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        throw std::runtime_error("traced-run self-check failed: " + what);
    }
}

/** Ratio a/b, or 0 when b is 0 (a metric with nothing to divide). */
double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

/** A reconciliation band check: got/want within [lo, hi]. */
void
check_band(double got, double want, double lo, double hi,
           const std::string &what)
{
    const double r = ratio(got, want);
    check(want == 0.0 || (r >= lo && r <= hi),
          what + ": " + std::to_string(got) + " vs " +
              std::to_string(want) + " (ratio " + std::to_string(r) +
              ", allowed " + std::to_string(lo) + ".." +
              std::to_string(hi) + ")");
}

struct Outcome
{
    Metrics metrics;
    PhaseCount primary;
};

/** The traced breakdown (--trace 1): every per-layer metric. */
Outcome
traced_run(const Workload &w, const eva2::Network &net,
           const OpenLoopInput &in, u64 seed, double seconds,
           const std::string &trace_out,
           const std::function<const Oracle &(const FrameSeqs &)> &oracle)
{
    Tracer off(false);
    Tracer tracer(true);
    Outcome out;
    Metrics &m = out.metrics;

    // Untraced, then traced, on fresh rigs: the difference is the
    // tracing overhead.
    Measured untraced;
    {
        auto rig = make_rig(w, net, in.names, w.tcp());
        untraced = measure(w, *rig, in, seconds, off);
    }
    verify("untraced", untraced, oracle(untraced.seqs));
    Measured traced;
    std::vector<double> open_ms;
    {
        auto rig = make_rig(w, net, in.names, w.tcp());
        traced = measure(w, *rig, in, seconds, tracer);
        open_ms = rig->open_ms;
    }
    verify("traced", traced, oracle(traced.seqs));
    const Summary us = summarize("untraced", untraced);
    const Summary ts = summarize("traced", traced);
    out.primary = ts.count;
    us.count.print(std::cout);
    ts.count.print(std::cout);

    // The loaded in-process engine: the traced phase itself for an
    // in-process workload, else the same schedule through
    // Session::submit.
    Measured inproc_owned;
    const Measured *inproc = &traced;
    if (w.tcp()) {
        auto rig = make_rig(w, net, in.names, false);
        inproc_owned = measure(w, *rig, in, seconds, tracer);
        open_ms = rig->open_ms;
        verify("in-process", inproc_owned, oracle(inproc_owned.seqs));
        inproc = &inproc_owned;
        summarize("in-process", inproc_owned).count.print(std::cout);
    }

    // Serial observed replay, single-layer plans, wire codec.
    const Oracle &ref = oracle(traced.seqs);
    const ReplayBreakdown replay =
        serial_replay(net, w.engine, traced.seqs, ref, kReplayFrames,
                      tracer);
    std::vector<const Tensor *> sample;
    for (const auto &seq : traced.seqs) {
        for (const Tensor *f : seq) {
            if (static_cast<i64>(sample.size()) < kCodecFrames) {
                sample.push_back(f);
            }
        }
    }
    const std::vector<LayerRow> layers = layer_breakdown(
        net, w.engine,
        std::vector<const Tensor *>(
            sample.begin(),
            sample.begin() + std::min<i64>(kLayerFrames,
                                           static_cast<i64>(sample.size()))),
        tracer);
    const CodecBreakdown codec = codec_breakdown(sample, tracer);
    const MemoryTierBreakdown fleet = memory_tier_breakdown(seed, tracer);
    std::cout << "  [idle fleet] " << fleet.sessions << " sessions, "
              << fleet.frames << " frames, budget " << fleet.budget_mb
              << " MB: " << fleet.stats.hibernations << " hibernations, "
              << fleet.stats.hydrations << " hydrations, hydrate p99 "
              << fleet.stats.hydrate_p99_us << " us\n";

    // net
    std::vector<double> edge;
    if (w.tcp()) {
        for (size_t s = 0; s < traced.phase.frames.size(); ++s) {
            for (size_t k = 0; k < traced.phase.frames[s].size(); ++k) {
                const FrameRec &a = traced.phase.frames[s][k];
                const FrameRec &b = inproc->phase.frames[s][k];
                if (a.answered && b.answered) {
                    edge.push_back(a.latency_ms() - b.latency_ms());
                }
            }
        }
    }
    m.set("net.encode_frame_us", codec.encode_us, "us");
    m.set("net.decode_frame_us", codec.decode_us, "us");
    m.set("net.bytes_per_frame", codec.bytes_per_frame, "bytes");
    m.set("net.edge_ms_p50", quantile(edge, 0.50), "ms");
    m.set("net.edge_ms_p99", quantile(edge, 0.99), "ms");
    m.set("net.window_stalls", static_cast<double>(traced.net.window_stalls),
          "count");
    m.set("net.shed_frames", static_cast<double>(traced.net.shed_total()),
          "count");

    // api
    double open_total = 0.0;
    for (const double v : open_ms) {
        open_total += v;
    }
    m.set("api.submit_us_p50", quantile(inproc->phase.submit_us, 0.50),
          "us");
    m.set("api.submit_us_p99", quantile(inproc->phase.submit_us, 0.99),
          "us");
    m.set("api.session_open_ms",
          ratio(open_total, static_cast<double>(open_ms.size())), "ms");

    // runtime: queueing beyond each frame's serial service time.
    std::vector<double> wait;
    for (size_t s = 0; s < replay.service_ms.size(); ++s) {
        for (size_t j = 0; j < replay.service_ms[s].size(); ++j) {
            const FrameRec &rec = inproc->phase.frames[s][static_cast<size_t>(
                inproc->phase.order[s][j])];
            wait.push_back(ms_between(rec.sent, rec.done) -
                           replay.service_ms[s][j]);
        }
    }
    m.set("runtime.wait_ms_p50", quantile(wait, 0.50), "ms");
    m.set("runtime.wait_ms_p99", quantile(wait, 0.99), "ms");
    std::map<std::string, eva2::StageReport> loaded;
    for (const eva2::StageReport &st : traced.report.stages) {
        loaded[st.stage] = st;
    }
    for (const AmcStage stage : all_stages()) {
        const std::string name = eva2::amc_stage_name(stage);
        const eva2::StageReport &st = loaded[name];
        m.set("runtime.occupancy." + name, st.occupancy, "fraction");
        m.set("runtime.loaded_ms." + name, st.mean_ms(), "ms");
        m.set("runtime.contention." + name,
              ratio(st.mean_ms(), replay.mean_ms(stage)), "ratio");
    }
    m.set("runtime.batch.mean_occupancy",
          traced.report.batching.mean_occupancy(), "count");
    m.set("runtime.batch.batches",
          static_cast<double>(traced.report.batching.batches), "count");
    m.set("runtime.resident.hibernations",
          static_cast<double>(fleet.stats.hibernations), "count");
    m.set("runtime.resident.hydrations",
          static_cast<double>(fleet.stats.hydrations), "count");
    m.set("runtime.resident.hydrate_p99_us", fleet.stats.hydrate_p99_us,
          "us");
    m.set("runtime.resident.bytes_per_session",
          fleet.stats.bytes_per_session(), "bytes");

    // core / flow / sparse / cnn, from the serial replay.
    const double frames = static_cast<double>(replay.frames);
    const double preds = frames - static_cast<double>(replay.key_frames);
    const size_t me = static_cast<size_t>(AmcStage::kMotionEstimation);
    m.set("core.key_fraction",
          ratio(static_cast<double>(replay.key_frames), frames),
          "fraction");
    m.set("core.ingest_ms", replay.mean_ms(AmcStage::kIngest), "ms");
    m.set("core.policy_ms", replay.mean_ms(AmcStage::kPolicy), "ms");
    m.set("core.motion_field_ms", replay.mean_ms(AmcStage::kMotionField),
          "ms");
    m.set("core.warp_ms", replay.mean_ms(AmcStage::kWarp), "ms");
    m.set("core.commit_ms", replay.mean_ms(AmcStage::kCommit), "ms");
    m.set("flow.rfbme_ms", replay.mean_ms(AmcStage::kMotionEstimation),
          "ms");
    m.set("flow.rfbme_gops",
          ratio(static_cast<double>(replay.me_add_ops),
                replay.total_ms[me] * 1e6),
          "GOP/s");
    m.set("flow.rfbme_useful_frac",
          ratio(preds, static_cast<double>(replay.calls[me])), "fraction");
    m.set("sparse.encode_ms", replay.mean_ms(AmcStage::kEncode), "ms");
    m.set("sparse.key_activation_bytes", replay.key_activation_bytes,
          "bytes");
    m.set("cnn.prefix_ms", replay.mean_ms(AmcStage::kPrefix), "ms");
    m.set("cnn.suffix_ms.key",
          ratio(replay.suffix_key_ms,
                static_cast<double>(replay.suffix_key_calls)),
          "ms");
    m.set("cnn.suffix_ms.pred",
          ratio(replay.suffix_pred_ms,
                static_cast<double>(replay.suffix_pred_calls)),
          "ms");
    std::map<std::string, const LayerRow *> by_name;
    double prefix_steps = 0.0;
    double suffix_steps = 0.0;
    for (const LayerRow &row : layers) {
        (row.scope == "prefix" ? prefix_steps : suffix_steps) += row.ms;
        if (row.conv_or_fc) {
            by_name[row.name] = &row;
        }
    }
    for (const std::string &name : layer_metric_names()) {
        const auto it = by_name.find(name);
        const LayerRow *row = it == by_name.end() ? nullptr : it->second;
        m.set("cnn.layer." + name + ".ms", row ? row->ms : 0.0, "ms");
        m.set("cnn.layer." + name + ".gflops",
              row ? ratio(2.0 * row->macs, row->ms * 1e6) : 0.0,
              "GFLOP/s");
    }

    std::vector<double> lag = traced.phase.send_lag_ms;
    m.set("loadgen.send_lag_p99_ms", quantile(lag, 0.99), "ms");
    m.set("trace.overhead_ms",
          quantile(ts.all, 0.50) - quantile(us.all, 0.50), "ms");

    // Self-checks: each fails the run loudly.
    check_band(prefix_steps, replay.mean_ms(AmcStage::kPrefix), 0.6, 1.6,
               "prefix single-layer steps vs cnn.prefix_ms span");
    check_band(suffix_steps, replay.mean_ms(AmcStage::kSuffix), 0.6, 1.6,
               "suffix single-layer steps vs cnn.suffix spans");
    double span_total = 0.0;
    for (const double v : replay.total_ms) {
        span_total += v;
    }
    check_band(span_total, replay.wall_ms, 0.85, 1.001,
               "stage spans vs serial replay wall time");
    check(replay.key_frames + replay.suffix_pred_calls == replay.frames &&
              replay.suffix_key_calls == replay.key_frames,
          "replay key + predicted frames != frames");
    check(static_cast<i64>(ts.key.size() + ts.pred.size()) ==
              ts.count.succeeded,
          "served key + predicted frames != frames");
    check(fleet.stats.hibernations > 0 && fleet.stats.hydrations > 0,
          "idle fleet never hibernated and hydrated a session");
    check(fleet.stats.resident_bytes <= fleet.budget_mb * 1024 * 1024,
          "idle fleet ended over its memory budget");

    tracer.write(trace_out);
    std::cout << "  trace: " << tracer.size() << " spans written to "
              << trace_out << "\n";
    return out;
}

/** The untraced run (--trace 0): every end-to-end metric. */
Outcome
measured_run(const Workload &w, const eva2::Network &net,
             const OpenLoopInput &in, double seconds,
             const std::function<const Oracle &(const FrameSeqs &)> &oracle)
{
    Tracer off(false);
    Outcome out;
    Metrics &m = out.metrics;

    // Each set-up builds the model it serves (deterministic weights,
    // the same network as `net`), then the rig on it. The model is
    // declared first so it outlives the engine that refers to it.
    std::vector<double> setup_s;
    std::unique_ptr<eva2::Network> model;
    std::unique_ptr<Rig> rig;
    for (i64 rep = 0; rep < kSetupReps; ++rep) {
        rig.reset();
        model.reset();
        const TimePoint t0 = Clock::now();
        model = std::make_unique<eva2::Network>(
            eva2::build_scaled(w.spec, w.build));
        rig = make_rig(w, *model, in.names, w.tcp());
        setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
    const Measured run = measure(w, *rig, in, seconds, off);
    rig.reset();
    model.reset();

    // Outside the timed region: the serial oracle, then the full-CNN
    // reference for top-1 agreement.
    const Oracle &o = oracle(run.seqs);
    verify("measured", run, o);
    const std::vector<std::vector<i64>> reference =
        full_cnn_top1(net, w.engine, run.seqs, kReplayThreads);
    i64 agree = 0;
    i64 judged = 0;
    for (size_t s = 0; s < run.phase.order.size(); ++s) {
        const std::vector<i64> &order = run.phase.order[s];
        for (size_t j = 0; j < order.size(); ++j) {
            const FrameRec &rec =
                run.phase.frames[s][static_cast<size_t>(order[j])];
            agree += rec.top1 == reference[s][j];
            ++judged;
        }
    }

    const Summary sum = summarize("measured", run);
    out.primary = sum.count;
    sum.count.print(std::cout);
    std::cout << "  loadgen.send_lag_p99_ms "
              << quantile(run.phase.send_lag_ms, 0.99) << "\n";
    // On a workload whose policy predicts no frame (every_frame), the
    // predicted-frame class is empty and pred_* report all frames.
    const std::vector<double> &pred = sum.pred.empty() ? sum.all : sum.pred;
    std::cout << "  samples: " << sum.all.size() << " frames, "
              << sum.key.size() << " key, " << sum.pred.size()
              << " predicted\n";
    m.set("setup_s", quantile(setup_s, 0.5), "s");
    m.set("throughput_fps", sum.throughput_fps, "fps");
    m.set("latency_p50_ms", quantile(sum.all, 0.50), "ms");
    m.set("latency_p99_ms", tail_quantile(sum.all, 0.99, 10, "latency"),
          "ms");
    m.set("key_latency_p50_ms", quantile(sum.key, 0.50), "ms");
    m.set("key_latency_p90_ms",
          tail_quantile(sum.key, 0.90, 10, "key latency"), "ms");
    m.set("pred_latency_p50_ms", quantile(pred, 0.50), "ms");
    m.set("pred_latency_p99_ms",
          tail_quantile(pred, 0.99, 10, "predicted latency"), "ms");
    m.set("top1_agreement",
          ratio(static_cast<double>(agree), static_cast<double>(judged)),
          "fraction");
    m.set("peak_rss_mb", run.peak_rss_mb, "MB");
    m.set("bytes_per_session", run.bytes_per_session, "bytes");
    return out;
}

Args
parse_args(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value after " + flag);
        }
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
        } else if (flag == "--trace") {
            a.trace = std::stoi(v) != 0;
        } else if (flag == "--trace-out") {
            a.trace_out = v;
        } else {
            throw std::invalid_argument("unknown argument " + flag);
        }
    }
    if (!have_workload || !(a.seconds > 0.0)) {
        throw std::invalid_argument(
            "usage: perfbench --workload NAME --seed N --seconds S "
            "--trace 0|1 [--trace-out PATH]");
    }
    if (a.trace_out.empty()) {
        a.trace_out = "perfbench_trace_" + a.workload + ".json";
    }
    return a;
}

int
run(int argc, char **argv)
{
    const Args args = parse_args(argc, argv);
    const Workload w = find_workload(args.workload);
    eva2::ThreadPool::set_global_size(w.pool_threads);
    const eva2::Network net = eva2::build_scaled(w.spec, w.build);
    const OpenLoopInput in = make_inputs(w, args.seed, args.seconds);
    std::cout << "perfbench " << w.name << ": " << w.sessions
              << " session(s) " << (w.tcp() ? "over TCP" : "in-process")
              << ", engine " << w.engine.num_threads
              << " thread(s), kernel pool " << w.pool_threads
              << ", seed " << args.seed << ", " << args.seconds
              << " s\n";

    // A list keeps returned references valid as the cache grows.
    std::list<std::pair<FrameSeqs, Oracle>> cache;
    auto oracle = [&](const FrameSeqs &seqs) -> const Oracle & {
        for (const auto &entry : cache) {
            if (entry.first == seqs) {
                return entry.second;
            }
        }
        cache.emplace_back(seqs, oracle_replay(net, w.engine, seqs,
                                               kReplayThreads));
        return cache.back().second;
    };

    const Outcome out =
        args.trace ? traced_run(w, net, in, args.seed, args.seconds,
                                args.trace_out, oracle)
                   : measured_run(w, net, in, args.seconds, oracle);
    out.metrics.print(std::cout);
    std::cout << "{\"correct\": true, \"attempted\": "
              << out.primary.attempted
              << ", \"failed\": " << out.primary.lost()
              << ", \"metrics\": {" << out.metrics.json() << "}}"
              << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const perfbench::CorrectnessError &e) {
        std::cerr << "perfbench: INCORRECT OUTPUT: " << e.what() << "\n";
        return 1;
    } catch (const std::invalid_argument &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
        return 1;
    }
}
