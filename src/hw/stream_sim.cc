#include "hw/stream_sim.h"

namespace eva2 {

StreamSimulator::StreamSimulator(const NetworkSpec &spec,
                                 const VpuOptions &options)
    : hw_(vpu_report(spec, options))
{
}

StreamTimeline
StreamSimulator::simulate(AmcPipeline &pipeline,
                          const Sequence &sequence) const
{
    pipeline.reset();
    StreamTimeline report;
    report.network = hw_.network;
    report.frames.reserve(static_cast<size_t>(sequence.size()));

    for (i64 t = 0; t < sequence.size(); ++t) {
        const AmcFrameResult r = pipeline.process(sequence[t].image);
        FrameTrace trace;
        trace.index = t;
        trace.is_key = r.is_key;
        trace.match_error = r.features.match_error;
        trace.me_add_ops = r.me_add_ops;
        trace.cost = (r.is_key ? hw_.key : hw_.pred).total();
        report.total = report.total + trace.cost;
        report.baseline_total =
            report.baseline_total + hw_.orig.total();
        report.key_frames += r.is_key ? 1 : 0;
        report.frames.push_back(trace);
    }
    return report;
}

} // namespace eva2
