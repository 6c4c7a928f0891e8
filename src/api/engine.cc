#include "api/engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "eval/metrics.h"
#include "simd/simd_kernels.h"

namespace eva2 {

// --------------------------------------------------------------------
// EngineConfig

namespace {

AmcOptions
resolve_amc(const EngineConfig &config, const Network &net)
{
    AmcOptions amc;
    amc.interp = InterpRegistry::instance().resolve(config.interp);
    CodecRegistry::instance().apply(config.codec, amc);
    KernelRegistry::instance().apply(config.kernel, amc.plan);

    if (config.target == "last_spatial") {
        amc.target_choice = TargetChoice::kLastSpatial;
    } else if (config.target == "early") {
        amc.target_choice = TargetChoice::kEarly;
    } else if (config.target.rfind("layer:", 0) == 0) {
        const ComponentSpec spec =
            parse_component_spec("target:index=" +
                                 config.target.substr(6));
        amc.target_choice = TargetChoice::kExplicit;
        amc.explicit_target = spec.integer("index", -1);
    } else {
        throw ConfigError(
            "unknown target spec '" + config.target +
            "' (known: last_spatial, early, layer:<index>)");
    }

    if (config.motion == "compensation") {
        amc.motion_mode = MotionMode::kCompensation;
    } else if (config.motion == "memoization") {
        amc.motion_mode = MotionMode::kMemoization;
    } else {
        throw ConfigError("unknown motion mode '" + config.motion +
                          "' (known: compensation, memoization)");
    }

    amc.search_radius = config.search_radius;
    amc.search_stride = config.search_stride;
    amc.validate(net);
    return amc;
}

SuffixBatchOptions
resolve_batch(const std::string &spec)
{
    const ComponentSpec s = parse_component_spec(spec);
    SuffixBatchOptions out;
    if (s.kind == "off") {
        s.allow_only({});
        return out;
    }
    if (s.kind == "auto") {
        s.allow_only({"max", "delay_us"});
        out.enabled = true;
        out.max_batch = s.integer("max", out.max_batch);
        out.max_delay_us = s.integer("delay_us", out.max_delay_us);
        require(out.max_batch >= 1 &&
                    out.max_batch <= kMaxSuffixBatch,
                "batch spec '" + spec + "': max must be in [1, " +
                    std::to_string(kMaxSuffixBatch) + "], got " +
                    std::to_string(out.max_batch));
        require(out.max_delay_us >= 0,
                "batch spec '" + spec +
                    "': delay_us must be >= 0, got " +
                    std::to_string(out.max_delay_us));
        return out;
    }
    throw ConfigError("unknown batch spec '" + spec +
                      "' (known: off, auto[:max=N,delay_us=U])");
}

} // namespace

StreamExecutorOptions
EngineConfig::resolve(const Network &net) const
{
    StreamExecutorOptions opts;
    opts.amc = resolve_amc(*this, net);
    require(num_threads >= 0,
            "EngineConfig: num_threads must be >= 0, got " +
                std::to_string(num_threads));
    require(pipeline_depth >= 0,
            "EngineConfig: pipeline_depth must be >= 0, got " +
                std::to_string(pipeline_depth));
    opts.suffix_batch = resolve_batch(batch);
    // Validate the memory spec here so a typo throws at construction
    // like every other field; the Engine re-resolves it for its own
    // manager. Hibernation reconstructs session state from the
    // compressed form, so it needs a codec that actually stores one.
    const MemoryBudget mem = resolve_memory_spec(memory);
    require(!mem.hibernate || opts.amc.quantize_storage,
            "memory spec '" + memory +
                "': hibernate=on requires a quantizing storage codec "
                "(the dense precise activation of codec '" +
                codec + "' cannot be reconstructed from compressed "
                "state)");
    // The factory is shared across streams; each call builds a fresh
    // stateful policy instance. Validated eagerly by factory().
    auto make = PolicyRegistry::instance().factory(policy);
    opts.make_policy = [make](i64) { return make(); };
    return opts;
}

std::vector<StreamReport>
reference_rows(const Network &net, const EngineConfig &config,
               const std::vector<Sequence> &streams)
{
    const StreamExecutorOptions opts = config.resolve(net);
    std::vector<StreamReport> rows;
    rows.reserve(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
        const i64 index = static_cast<i64>(i);
        AmcPipeline pipeline(net, opts.make_policy(index), opts.amc);
        StreamReport row{streams[i].name, index};
        for (const LabeledFrame &frame : streams[i].frames) {
            const AmcFrameResult r = pipeline.process(frame.image);
            row.add_frame(r.is_key, r.me_add_ops, tensor_digest(r.output));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

// --------------------------------------------------------------------
// Session

Session::Session(Engine *engine, i64 index, std::string name,
                 std::unique_ptr<AmcPipeline> pipeline,
                 SuffixBatcher *batcher)
    : engine_(engine),
      index_(index),
      name_(std::move(name)),
      pipeline_(std::move(pipeline)),
      row_{name_, index_}
{
    pipeline_->set_observer(&timings_);
    // The session's submission strand: the scheduler serializes the
    // stateful front stages in submission order and delivers commits
    // in order; with a pool and depth > 1 it overlaps each frame's
    // CNN suffix with the next frames' front stages. Without a pool
    // every frame is processed inline during submit(). With
    // batch=auto the suffix stage becomes enqueue-to-batcher: this
    // session's suffixes execute batched with every other session's.
    StageSchedulerOptions opts;
    opts.depth = std::max<i64>(1, engine_->config_.pipeline_depth);
    opts.batcher = batcher;
    scheduler_ = std::make_unique<StageScheduler>(
        *pipeline_, engine_->pool_.get(), opts,
        [this](FrameCommit commit) {
            record_commit(std::move(commit));
        });
}

FrameTicket
Session::submit(Tensor frame)
{
    // The gate makes {closed-check, epoch read, enqueue} one atomic
    // step against Engine::close()/reset(), which acquire it after
    // flipping their state: a submission racing teardown either
    // lands before the drain or throws — it can never be silently
    // accepted into a closing engine or carry a stale epoch into a
    // reset stream.
    MutexLock gate(submit_mutex_);
    engine_->ensure_open("Session::submit");
    require(frame.shape() == engine_->network().input_shape(),
            "session '" + name_ + "': frame shape " +
                frame.shape().str() + " does not match network input " +
                engine_->network().input_shape().str());
    FrameTicket ticket;
    ticket.session = index_;
    {
        MutexLock lock(mutex_);
        if (!has_times_) {
            first_submit_ = std::chrono::steady_clock::now();
            last_done_ = first_submit_;
            has_times_ = true;
        }
        ticket.epoch = epoch_;
    }
    // A hibernated session rehydrates before its frame enqueues: the
    // gate we hold is the same one the eviction loop try_locks, so
    // the plan cannot re-hibernate underneath the enqueue.
    hydrate_if_hibernated();
    // Enqueue outside the session mutex: without a pool the frame is
    // processed inline here, and its commit takes the mutex.
    ticket.frame = scheduler_->enqueue(std::move(frame));
    return ticket;
}

void
Session::hydrate_if_hibernated()
{
    FramePlan &plan = pipeline_->frame_plan();
    if (!plan.hibernated()) {
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    plan.hydrate();
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (engine_->resident_) {
        engine_->resident_->note_hydrated(index_,
                                          plan.resident_bytes(), us);
    }
}

void
Session::check_ticket(const FrameTicket &ticket) const
{
    require(ticket.valid() && ticket.session == index_,
            "session '" + name_ + "': ticket does not belong here");
    require(ticket.epoch == epoch_,
            "session '" + name_ + "': stale ticket from before a "
            "reset");
    require(ticket.frame >= done_base_,
            "session '" + name_ + "': outcome of frame " +
                std::to_string(ticket.frame) +
                " was forgotten (forget_outcomes) or delivered to the "
                "outcome sink");
}

FrameTicket
Session::submit(const LabeledFrame &frame)
{
    return submit(frame.image);
}

std::vector<FrameTicket>
Session::submit_all(const Sequence &seq)
{
    std::vector<FrameTicket> tickets;
    tickets.reserve(seq.frames.size());
    for (const LabeledFrame &frame : seq.frames) {
        tickets.push_back(submit(frame.image));
    }
    return tickets;
}

void
Session::record_commit(FrameCommit commit)
{
    const FrameOutcome &outcome = commit.outcome;
    OutcomeSink sink;
    {
        MutexLock lock(mutex_);
        if (commit.error) {
            // error_ stays the first failure, the one drain() keeps
            // surfacing.
            if (!error_) {
                error_ = commit.error;
            }
        } else {
            row_.add_frame(outcome.is_key, outcome.me_add_ops,
                           outcome.output_digest);
        }
        if (outcome_sink_) {
            // Delivered, not retained: the sink owns the record, so a
            // served session's memory does not grow per frame.
            sink = outcome_sink_;
            done_base_ = outcome.frame + 1;
        } else {
            // Keep every retained frame's own diagnostic for wait().
            if (commit.error) {
                frame_errors_[outcome.frame] = commit.error;
            }
            done_.push_back(outcome);
        }
        last_done_ = std::chrono::steady_clock::now();
        cv_.notify_all();
    }
    // Resident accounting runs outside the session lock too — the
    // eviction walk it may trigger try_locks *other* sessions' gates.
    if (!outcome.failed && commit.resident_bytes > 0) {
        engine_->note_commit_resident(index_, commit.resident_bytes);
    }
    // Outside the session lock, so the sink may call poll() or
    // completed(). Commits are delivered serially in frame order
    // (the scheduler has a sole flusher), so sink calls are too.
    if (sink) {
        sink(outcome);
    }
}

void
Session::set_outcome_sink(OutcomeSink sink)
{
    MutexLock lock(mutex_);
    if (sink) {
        // From here on outcomes go to the sink; forget the retained
        // ones so the session holds no per-frame records at all.
        done_base_ += static_cast<i64>(done_.size());
        done_.clear();
        frame_errors_.clear();
        cv_.notify_all();
    }
    outcome_sink_ = std::move(sink);
}

bool
Session::has_sink() const
{
    MutexLock lock(mutex_);
    return static_cast<bool>(outcome_sink_);
}

std::optional<FrameOutcome>
Session::poll(const FrameTicket &ticket) const
{
    MutexLock lock(mutex_);
    check_ticket(ticket);
    if (ticket.frame <
        done_base_ + static_cast<i64>(done_.size())) {
        return done_[static_cast<size_t>(ticket.frame - done_base_)];
    }
    return std::nullopt;
}

FrameOutcome
Session::wait(const FrameTicket &ticket)
{
    MutexLock lock(mutex_);
    check_ticket(ticket);
    // The predicate wakes on completion, but also on an epoch bump
    // or a record trim: an Engine::reset() or forget_outcomes() from
    // another thread discards the very record this wait is blocked
    // on, so waiting purely for completion would hang forever — the
    // frame's outcome is gone, not late. Both paths notify the cv,
    // and the re-check below turns them into the same descriptive
    // stale/forgotten-ticket error poll() gives.
    while (ticket.epoch == epoch_ && ticket.frame >= done_base_ &&
           ticket.frame >=
               done_base_ + static_cast<i64>(done_.size())) {
        cv_.wait(lock);
    }
    check_ticket(ticket);
    const FrameOutcome outcome =
        done_[static_cast<size_t>(ticket.frame - done_base_)];
    if (outcome.failed) {
        const auto it = frame_errors_.find(ticket.frame);
        if (it != frame_errors_.end()) {
            std::rethrow_exception(it->second);
        }
        throw InternalError("session '" + name_ + "': frame " +
                            std::to_string(ticket.frame) +
                            " failed with no stored error");
    }
    return outcome;
}

void
Session::drain()
{
    scheduler_->drain();
    MutexLock lock(mutex_);
    // Sticky: a failed frame broke this stream's digest chain, so
    // every drain keeps failing until Engine::reset() discards it.
    if (error_) {
        std::rethrow_exception(error_);
    }
}

i64
Session::submitted() const
{
    return scheduler_->submitted();
}

i64
Session::completed() const
{
    MutexLock lock(mutex_);
    return done_base_ + static_cast<i64>(done_.size());
}

StreamReport
Session::report()
{
    drain();
    MutexLock lock(mutex_);
    return row_;
}

StreamReport
Session::row_since(i64 first) const
{
    MutexLock lock(mutex_);
    require(first >= done_base_,
            "session '" + name_ + "': outcomes from frame " +
                std::to_string(first) + " were not retained");
    StreamReport row{name_, index_};
    for (size_t i = static_cast<size_t>(first - done_base_);
         i < done_.size(); ++i) {
        const FrameOutcome &o = done_[i];
        row.add_frame(o.is_key, o.me_add_ops, o.output_digest);
    }
    return row;
}

void
Session::forget_outcomes()
{
    drain();
    MutexLock lock(mutex_);
    done_base_ += static_cast<i64>(done_.size());
    done_.clear();
    // Forgotten tickets are rejected before lookup, so their
    // diagnostics can go too; error_ stays sticky for drain().
    frame_errors_.clear();
    // Wake cross-thread waiters whose record was just trimmed; their
    // re-check throws the forgotten-ticket error instead of hanging.
    cv_.notify_all();
}

void
Session::reset_record()
{
    // Hold the submit gate across the whole reset: a submit that
    // already passed the gate finishes its enqueue before we check
    // the drained invariant; one that arrives later observes the new
    // epoch and the restarted frame numbering together.
    MutexLock gate(submit_mutex_);
    // Restart the strand's frame numbering (asserts it is drained),
    // then the stream itself: key frame, policy state, timings.
    scheduler_->reset_counters();
    pipeline_->reset();
    timings_.reset();
    MutexLock lock(mutex_);
    ++epoch_; // Pre-reset tickets must not match the new stream.
    done_base_ = 0;
    done_.clear();
    error_ = nullptr;
    frame_errors_.clear();
    row_ = StreamReport{name_, index_};
    has_times_ = false;
    // Wake cross-thread waiters blocked on pre-reset tickets; their
    // epoch re-check throws the stale-ticket error instead of
    // sleeping forever on a record that was just discarded.
    cv_.notify_all();
}

bool
Session::time_bounds(std::chrono::steady_clock::time_point *first,
                     std::chrono::steady_clock::time_point *last) const
{
    MutexLock lock(mutex_);
    if (!has_times_) {
        return false;
    }
    *first = first_submit_;
    *last = last_done_;
    return true;
}

// --------------------------------------------------------------------
// Engine

Engine::Engine(const Network &net, EngineConfig config)
    : net_(&net),
      config_(std::move(config)),
      opts_(config_.resolve(net)),
      num_threads_(config_.num_threads > 0
                       ? config_.num_threads
                       : ThreadPool::default_num_threads()),
      memory_budget_(resolve_memory_spec(config_.memory))
{
    if (memory_budget_.enabled) {
        resident_ =
            std::make_unique<ResidentSetManager>(memory_budget_);
    }
    if (num_threads_ > 1) {
        pool_ = std::make_unique<ThreadPool>(num_threads_);
    }
}

Engine::~Engine()
{
    // Strand tasks reference sessions and pipelines; nothing may be
    // in flight when members start destructing, and submissions that
    // race teardown must be rejected loudly rather than touch dying
    // state.
    try {
        close();
    } catch (...) {
        // A stream failure already surfaced (or never will); engine
        // teardown is not the place to throw.
    }
}

void
Engine::ensure_open(const char *what) const
{
    if (closed_.load(std::memory_order_acquire)) {
        throw ConfigError(std::string(what) + ": engine for network '" +
                          net_->name() +
                          "' is closed (close() was called or the "
                          "engine is being destroyed); create a new "
                          "Engine to submit more work");
    }
}

std::vector<Session *>
Engine::sessions_snapshot() const
{
    MutexLock lock(mutex_);
    std::vector<Session *> sessions;
    sessions.reserve(sessions_.size());
    for (const auto &s : sessions_) {
        sessions.push_back(s.get());
    }
    return sessions;
}

void
Engine::close()
{
    // Reject new ingestion first, then drain what is already in
    // flight; completed results stay observable through poll/wait/
    // report. Idempotent: later calls see closed_ already set and
    // only re-drain (a no-op on a drained engine).
    closed_.store(true, std::memory_order_release);
    // Wait out submits that passed their closed-check before the
    // store: each holds its session's submit gate until its frame is
    // enqueued, so acquiring every gate here means the flush below
    // sees every racing frame, and any submit arriving afterwards
    // observes closed_ under the gate and throws.
    for (Session *s : sessions_snapshot()) {
        MutexLock gate(s->submit_mutex_);
    }
    flush();
}

SuffixBatcher *
Engine::batcher_locked(const AmcPipeline &pipeline)
{
    if (!opts_.suffix_batch.enabled) {
        return nullptr;
    }
    if (!batcher_) {
        batched_suffix_ = std::make_unique<ExecutionPlan>(
            pipeline.suffix_plan(), opts_.suffix_batch.max_batch);
        batcher_ = std::make_unique<SuffixBatcher>(
            *batched_suffix_, pool_.get(), opts_.suffix_batch);
    }
    return batcher_.get();
}

SuffixBatchStats
Engine::batch_stats() const
{
    MutexLock lock(mutex_);
    return batcher_ ? batcher_->stats() : SuffixBatchStats{};
}

Session &
Engine::session(const std::string &name)
{
    MutexLock lock(mutex_);
    const auto it = session_index_.find(name);
    if (it != session_index_.end()) {
        // Existing sessions stay addressable after close() (their
        // completed work is still observable); only creation and
        // submission are rejected.
        return *sessions_[static_cast<size_t>(it->second)];
    }
    ensure_open("Engine::session");
    const i64 index = static_cast<i64>(sessions_.size());
    auto pipeline = std::make_unique<AmcPipeline>(
        *net_, opts_.make_policy(index), opts_.amc);
    SuffixBatcher *batcher = batcher_locked(*pipeline);
    sessions_.push_back(std::unique_ptr<Session>(new Session(
        this, index, name, std::move(pipeline), batcher)));
    session_index_[name] = index;
    return *sessions_.back();
}

Session *
Engine::find_session(const std::string &name)
{
    MutexLock lock(mutex_);
    const auto it = session_index_.find(name);
    return it == session_index_.end()
               ? nullptr
               : sessions_[static_cast<size_t>(it->second)].get();
}

i64
Engine::num_sessions() const
{
    MutexLock lock(mutex_);
    return static_cast<i64>(sessions_.size());
}

bool
Engine::memory_pressure() const
{
    return resident_ != nullptr && resident_->over_budget();
}

void
Engine::note_commit_resident(i64 index, i64 bytes)
{
    if (!resident_) {
        return;
    }
    resident_->note_resident(index, bytes);
    if (memory_budget_.hibernate && resident_->over_budget()) {
        evict_to_budget(index);
    }
}

void
Engine::evict_to_budget(i64 protect_index)
{
    // One bounded LRU pass per call — the batch is a constant, not
    // the session count, so a 100k-session fleet pays O(1) per
    // commit. A victim is skipped (not retried) when its submit gate
    // is held or it has frames in flight, and any overshoot left when
    // the batch runs out is reclaimed by the next commit's pass. No
    // blocking lock is ever taken on a session here, so this cannot
    // deadlock against submit paths.
    constexpr i64 kVictimBatch = 32;
    const std::vector<i64> victims =
        resident_->victims(kVictimBatch, protect_index);
    for (const i64 victim : victims) {
        if (!resident_->over_budget()) {
            return;
        }
        Session *s = nullptr;
        {
            MutexLock lock(mutex_);
            if (victim >= 0 &&
                victim < static_cast<i64>(sessions_.size())) {
                s = sessions_[static_cast<size_t>(victim)].get();
            }
        }
        if (s == nullptr) {
            continue;
        }
        MutexLock gate(s->submit_mutex_, std::defer_lock);
        if (!gate.try_lock()) {
            continue; // A submit holds the gate: not idle.
        }
        if (s->in_flight() != 0) {
            continue; // Busy: not idle enough to hibernate.
        }
        FramePlan &plan = s->pipeline_->frame_plan();
        if (plan.hibernated()) {
            continue;
        }
        plan.hibernate();
        resident_->note_hibernated(victim, plan.resident_bytes());
    }
}

RunReport
Engine::base_report(const std::vector<Session *> &sessions) const
{
    RunReport report;
    report.network = net_->name();
    report.policy = config_.policy;
    report.interp = config_.interp;
    report.codec = config_.codec;
    report.kernel = config_.kernel;
    report.target = config_.target;
    report.motion = config_.motion;
    report.batch = config_.batch;
    report.memory_spec = config_.memory;
    if (resident_) {
        report.memory = resident_->stats();
    }
    report.simd_isa = simd_supported() ? simd_isa_name() : "scalar";
    report.num_threads = num_threads_;
    report.pipeline_depth = config_.pipeline_depth;
    report.batching = batch_stats();
    // Per-layer kernel selection: all pipelines share one network and
    // one config, so the first stream's compiled plans describe all.
    if (!sessions.empty()) {
        report.plan = sessions.front()->pipeline_->plan_records();
    }
    return report;
}

StageTimings
Engine::merged_timings(const std::vector<Session *> &sessions)
{
    StageTimings merged;
    for (const Session *s : sessions) {
        merged.merge(s->timings_);
    }
    return merged;
}

namespace {

/** Append `row` to the report's rows and totals (digest at the end). */
void
add_row(RunReport &report, StreamReport row)
{
    report.frames += row.frames;
    report.key_frames += row.key_frames;
    report.me_add_ops += row.me_add_ops;
    report.streams.push_back(std::move(row));
}

} // namespace

RunReport
Engine::run(const std::vector<Sequence> &streams)
{
    ensure_open("Engine::run");
    // Reject the whole call before touching any session, so a bad
    // argument leaves every stream exactly as it was.
    const Shape input = net_->input_shape();
    std::set<std::string> names;
    for (const Sequence &seq : streams) {
        const std::string what = "Engine::run: stream '" + seq.name + "'";
        require(names.insert(seq.name).second, what + " appears twice");
        for (const LabeledFrame &frame : seq.frames) {
            if (frame.image.shape() != input) {
                throw ConfigError(what + " has a frame of shape " +
                                  frame.image.shape().str() +
                                  ", network input is " + input.str());
            }
        }
        const Session *existing = find_session(seq.name);
        require(existing == nullptr || !existing->has_sink(),
                what + " feeds a session with an outcome sink, whose "
                       "outcomes are not retained for the report");
    }
    flush();

    std::vector<Session *> targets;
    std::vector<i64> first;
    targets.reserve(streams.size());
    first.reserve(streams.size());
    for (const Sequence &seq : streams) {
        targets.push_back(&session(seq.name));
        first.push_back(targets.back()->submitted());
    }
    // Snapshot the (lifetime-cumulative) timing and batching sinks so
    // the report's stage rows and occupancy cover exactly this run,
    // like its frames and wall_ms.
    const std::vector<Session *> all = sessions_snapshot();
    const StageTimings timings_before = merged_timings(all);
    const SuffixBatchStats batch_before = batch_stats();

    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < streams.size(); ++i) {
        for (const LabeledFrame &frame : streams[i].frames) {
            targets[i]->submit(frame.image);
        }
    }
    flush();
    const auto stop = std::chrono::steady_clock::now();

    RunReport report = base_report(all);
    report.batching = report.batching.delta_from(batch_before);
    report.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    for (size_t i = 0; i < targets.size(); ++i) {
        add_row(report, targets[i]->row_since(first[i]));
    }
    report.digest = chain_digest(report.streams);
    report.stages = stage_reports(
        merged_timings(all).delta_from(timings_before), report.wall_ms);
    return report;
}

RunReport
Engine::report()
{
    flush();
    // Build the per-session rows WITHOUT holding mutex_. Each row's
    // session->report() drains that session, and a commit still in
    // flight re-enters the engine through note_commit_resident →
    // evict_to_budget, which takes mutex_ — so a drain under mutex_
    // deadlocks (the commit blocked on mutex_ can never raise the
    // committed count the drain is waiting for). The flush() above
    // already quiesced every session, so the rows are stable.
    const std::vector<Session *> sessions = sessions_snapshot();
    RunReport report = base_report(sessions);
    bool any_time = false;
    std::chrono::steady_clock::time_point first{};
    std::chrono::steady_clock::time_point last{};
    for (Session *session : sessions) {
        add_row(report, session->report());
        std::chrono::steady_clock::time_point f, l;
        if (session->time_bounds(&f, &l)) {
            if (!any_time || f < first) {
                first = f;
            }
            if (!any_time || l > last) {
                last = l;
            }
            any_time = true;
        }
    }
    report.digest = chain_digest(report.streams);
    if (any_time) {
        report.wall_ms =
            std::chrono::duration<double, std::milli>(last - first)
                .count();
    }
    report.stages =
        stage_reports(merged_timings(sessions), report.wall_ms);
    return report;
}

void
Engine::flush()
{
    // Drain without holding the engine mutex: strand tasks only take
    // their session's mutex, so new sessions can still be created
    // while we wait. Surface the first stream failure after every
    // session has drained.
    std::exception_ptr error;
    for (Session *s : sessions_snapshot()) {
        try {
            s->drain();
        } catch (...) {
            if (!error) {
                error = std::current_exception();
            }
        }
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

void
Engine::reset()
{
    // Work on a snapshot, WITHOUT holding mutex_. Two deadlocks hide
    // in the holding-mutex_ shape this replaced: (a) a commit still in
    // flight re-enters the engine via note_commit_resident →
    // evict_to_budget, which takes mutex_, so a drain under mutex_
    // waits on a commit that waits on us; (b) reset_record() acquires
    // the session's submit gate, and an inline submit holds that gate
    // while its commit's eviction pass takes mutex_ — acquiring the
    // gate under mutex_ is that same pair in the opposite order. See
    // docs/static_analysis.md (lock ordering).
    const std::vector<Session *> sessions = sessions_snapshot();
    // Drain but swallow stream failures: reset discards the very
    // state (records, sticky errors) a failure poisoned.
    for (Session *s : sessions) {
        try {
            s->drain();
        } catch (...) {
        }
    }
    for (Session *s : sessions) {
        s->reset_record();
    }
    // Stream state is gone (FramePlan::reset released it), so the
    // resident accounting restarts from zero too.
    if (memory_budget_.enabled) {
        resident_ =
            std::make_unique<ResidentSetManager>(memory_budget_);
    }
}

} // namespace eva2
