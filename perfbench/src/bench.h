/**
 * @file
 * Shared vocabulary of the serving benchmark: clocks, order
 * statistics, the metric table, per-frame records and per-phase
 * failure accounting.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/common.h"

namespace perfbench {

using eva2::i64;
using eva2::u32;
using eva2::u64;
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double
ms_between(TimePoint a, TimePoint b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Linearly interpolated quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> samples, double q);

/**
 * The q-quantile, provided at least `min_beyond` samples lie beyond
 * it; throws otherwise, so an undersized run cannot report a tail it
 * did not observe.
 */
double tail_quantile(std::vector<double> samples, double q,
                     i64 min_beyond, const std::string &what);

/** Ordered name -> (value, unit) table printed as the result. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /** `"name": {"value": v, "unit": u}` members, in insertion order. */
    std::string json() const;

    /** One "name value unit" line per metric. */
    void print(std::ostream &os) const;

  private:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** What the client observed for one scheduled frame. */
struct FrameRec
{
    TimePoint due{};  ///< When the schedule (or closed loop) sent it.
    TimePoint sent{}; ///< When its bytes were handed to the engine.
    TimePoint done{}; ///< When the client observed its outcome.
    bool answered = false; ///< Outcome observed (key/pred/failed).
    bool shed = false;
    bool failed = false;
    bool is_key = false;
    i64 top1 = -1;
    u64 digest = 0;
    std::string shed_reason;

    double latency_ms() const { return ms_between(due, done); }
};

/** Per-phase failure accounting (frames attempted and their fate). */
struct PhaseCount
{
    std::string phase;
    i64 attempted = 0;
    i64 succeeded = 0;
    i64 failed = 0;
    i64 unanswered = 0;
    std::map<std::string, i64> shed; ///< By reason.

    i64 shed_total() const;
    /** Shed, failed or never answered. */
    i64 lost() const { return shed_total() + failed + unanswered; }

    /** Fold one frame record into the counts. */
    void add(const FrameRec &f);
    void print(std::ostream &os) const;
};

/** Peak resident set of this process (VmHWM) in kB; 0 if unknown. */
i64 vm_hwm_kb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
