#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

void
print_reasons(std::ostream &os, const std::map<std::string, i64> &by)
{
    if (by.empty()) {
        return;
    }
    os << " (";
    bool first = true;
    for (const auto &kv : by) {
        os << (first ? "" : ", ") << kv.first << " " << kv.second;
        first = false;
    }
    os << ")";
}

i64
total(const std::map<std::string, i64> &by)
{
    i64 sum = 0;
    for (const auto &kv : by) {
        sum += kv.second;
    }
    return sum;
}

} // namespace

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const double idx = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double
tail_quantile(std::vector<double> samples, double q, i64 min_beyond,
              const std::string &what)
{
    const double beyond =
        (1.0 - q) * static_cast<double>(samples.size());
    if (beyond < static_cast<double>(min_beyond)) {
        throw std::runtime_error(
            what + ": " + std::to_string(samples.size()) +
            " samples leave fewer than " + std::to_string(min_beyond) +
            " beyond the reported percentile");
    }
    return quantile(std::move(samples), q);
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

std::string
Metrics::json() const
{
    std::string out;
    char buf[64];
    for (const Entry &e : entries_) {
        // %.17g keeps every digit the measurement has.
        std::snprintf(buf, sizeof(buf), "%.17g", e.value);
        out += (out.empty() ? "" : ", ");
        out += "\"" + e.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    return out;
}

void
Metrics::print(std::ostream &os) const
{
    for (const Entry &e : entries_) {
        os << "  " << e.name << " = " << e.value << " " << e.unit
           << "\n";
    }
}

i64
PhaseCount::shed_total() const
{
    return total(shed);
}

void
PhaseCount::add(const FrameRec &f)
{
    ++attempted;
    if (f.shed) {
        ++shed[f.shed_reason];
    } else if (!f.answered) {
        ++unanswered;
    } else if (f.failed) {
        ++failed;
    } else {
        ++succeeded;
    }
}

void
PhaseCount::print(std::ostream &os) const
{
    os << "  [" << phase << "] attempted " << attempted << ", succeeded "
       << succeeded << ", shed " << shed_total();
    print_reasons(os, shed);
    os << ", failed " << failed << ", unanswered " << unanswered
       << ", error_rate "
       << (attempted == 0 ? 0.0
                          : static_cast<double>(lost()) /
                                static_cast<double>(attempted))
       << "\n";
}

i64
vm_hwm_kb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::atoll(line.c_str() + 6);
        }
    }
    return 0;
}

} // namespace perfbench
