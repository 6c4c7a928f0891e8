#include "runtime/suffix_batcher.h"

#include <algorithm>

namespace eva2 {

SuffixBatchStats
SuffixBatchStats::delta_from(const SuffixBatchStats &before) const
{
    SuffixBatchStats out;
    out.items = items - before.items;
    out.batches = batches - before.batches;
    out.occupancy.resize(occupancy.size(), 0);
    for (size_t i = 0; i < occupancy.size(); ++i) {
        const i64 prior = i < before.occupancy.size()
                              ? before.occupancy[i]
                              : 0;
        out.occupancy[i] = occupancy[i] - prior;
    }
    return out;
}

SuffixBatcher::SuffixBatcher(const ExecutionPlan &plan, ThreadPool *pool,
                             SuffixBatchOptions opts)
    : plan_(&plan), pool_(pool), opts_(opts)
{
    require(opts_.max_batch >= 1 &&
                opts_.max_batch <= plan.max_batch(),
            "SuffixBatcher: max_batch must be in [1, " +
                std::to_string(plan.max_batch()) + "], got " +
                std::to_string(opts_.max_batch));
    require(opts_.max_delay_us >= 0,
            "SuffixBatcher: max_delay_us must be >= 0, got " +
                std::to_string(opts_.max_delay_us));
    stats_.occupancy.resize(static_cast<size_t>(opts_.max_batch), 0);
    if (pool_ != nullptr) {
        timer_ = std::thread([this]() { timer_loop(); });
    }
}

SuffixBatcher::~SuffixBatcher()
{
    // Clients (schedulers) must outlive their pending items; by the
    // time the owner destroys the batcher every scheduler has
    // drained, so this drain is normally a no-op safety net.
    drain();
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_timer_.notify_all();
    if (timer_.joinable()) {
        timer_.join();
    }
}

void
SuffixBatcher::submit(const Tensor *activation,
                      SuffixBatchClient *client, i64 token,
                      AmcObserver *obs)
{
    require(activation != nullptr && client != nullptr,
            "SuffixBatcher: null submission");
    Item item;
    item.activation = activation;
    item.client = client;
    item.token = token;
    item.obs = obs;
    if (pool_ == nullptr) {
        // Inline mode: execute immediately as a batch of 1 on the
        // submitting thread — the serial engine shape.
        {
            MutexLock lock(mutex_);
            ++in_flight_;
        }
        std::vector<Item> one;
        one.push_back(item);
        run_batch(std::move(one));
        return;
    }
    std::vector<Item> ready;
    {
        MutexLock lock(mutex_);
        if (pending_.empty()) {
            oldest_ = std::chrono::steady_clock::now();
        }
        pending_.push_back(item);
        if (static_cast<i64>(pending_.size()) >= opts_.max_batch) {
            ready = std::move(pending_);
            pending_.clear();
            in_flight_ += static_cast<i64>(ready.size());
        }
    }
    if (!ready.empty()) {
        dispatch(std::move(ready));
    } else {
        // Wake the timer so the partial batch gets a deadline.
        cv_timer_.notify_one();
    }
}

void
SuffixBatcher::flush()
{
    std::vector<Item> ready;
    {
        MutexLock lock(mutex_);
        if (pending_.empty()) {
            return;
        }
        ready = std::move(pending_);
        pending_.clear();
        in_flight_ += static_cast<i64>(ready.size());
    }
    dispatch(std::move(ready));
}

void
SuffixBatcher::dispatch(std::vector<Item> batch)
{
    if (pool_ != nullptr) {
        // The vector moves into the task; the batch runs whole on one
        // worker while other workers run fronts and other batches.
        auto shared =
            std::make_shared<std::vector<Item>>(std::move(batch));
        pool_->enqueue_detached(
            [this, shared]() { run_batch(std::move(*shared)); });
    } else {
        run_batch(std::move(batch));
    }
}

void
SuffixBatcher::run_batch(std::vector<Item> batch)
{
    const i64 n = static_cast<i64>(batch.size());
    const Tensor *ins[kMaxSuffixBatch];
    const Tensor *outs[kMaxSuffixBatch] = {};
    for (i64 i = 0; i < n; ++i) {
        ins[i] = batch[static_cast<size_t>(i)].activation;
    }
    std::exception_ptr error;
    const auto start = std::chrono::steady_clock::now();
    try {
        plan_->run(ins, n, outs, ScratchArena::for_current_thread());
    } catch (...) {
        error = std::current_exception();
    }
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // Each item carries its share of the batch's suffix time to its
    // own stream's observer, so per-stream stage totals still sum to
    // the real wall time spent.
    const double share = ms / static_cast<double>(n);
    for (const Item &item : batch) {
        if (item.obs != nullptr) {
            item.obs->on_stage(AmcStage::kSuffix, share);
        }
    }
    {
        // Record the batch before delivering completions: a caller
        // whose drain is released by the last commit must already see
        // this batch in the occupancy accounting. in_flight_ stays up
        // until every completion has been delivered — it is what the
        // batcher's own drain()/destructor gate on.
        MutexLock lock(mutex_);
        ++stats_.batches;
        stats_.items += n;
        if (n >= 1 &&
            n <= static_cast<i64>(stats_.occupancy.size())) {
            ++stats_.occupancy[static_cast<size_t>(n - 1)];
        }
    }
    for (i64 i = 0; i < n; ++i) {
        const Item &item = batch[static_cast<size_t>(i)];
        item.client->on_suffix_done(item.token,
                                    error ? nullptr : outs[i], error);
    }
    {
        MutexLock lock(mutex_);
        in_flight_ -= n;
        // Notify while holding the mutex: a drain()-ing owner whose
        // predicate this decrement satisfies may destroy the batcher
        // (and this condition variable) the moment it re-acquires
        // the lock, so the notify must complete before we release.
        cv_done_.notify_all();
    }
}

void
SuffixBatcher::timer_loop()
{
    const auto delay = std::chrono::microseconds(opts_.max_delay_us);
    MutexLock lock(mutex_);
    for (;;) {
        while (!stop_ && pending_.empty()) {
            cv_timer_.wait(lock);
        }
        if (stop_) {
            return;
        }
        const auto deadline = oldest_ + delay;
        if (std::chrono::steady_clock::now() < deadline) {
            while (!stop_ &&
                   cv_timer_.wait_until(lock, deadline) !=
                       std::cv_status::timeout) {
            }
            if (stop_) {
                return;
            }
            // Re-evaluate: the batch may have dispatched (full or
            // flushed) and a younger one formed in the meantime.
            if (pending_.empty() ||
                std::chrono::steady_clock::now() < oldest_ + delay) {
                continue;
            }
        }
        std::vector<Item> ready = std::move(pending_);
        pending_.clear();
        in_flight_ += static_cast<i64>(ready.size());
        lock.unlock();
        dispatch(std::move(ready));
        lock.lock();
    }
}

void
SuffixBatcher::drain()
{
    flush();
    MutexLock lock(mutex_);
    while (!pending_.empty() || in_flight_ != 0) {
        cv_done_.wait(lock);
    }
}

SuffixBatchStats
SuffixBatcher::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

} // namespace eva2
