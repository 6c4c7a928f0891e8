/**
 * @file
 * Command-line driver: pick a network, scenario, and key-frame
 * policy; stream frames through AMC; print the per-stream summary
 * (key fraction, accuracy proxy, modeled energy).
 *
 * Usage:
 *   eva2_cli [--net alexnet|faster16|fasterm] [--scene static|pan|
 *             objects|occlusion|chaotic] [--policy block|magnitude|
 *             static] [--threshold X] [--interval N] [--frames N]
 *             [--seed N]
 *
 * Example:
 *   eva2_cli --net fasterm --scene pan --policy block --threshold 0.03
 */
#include <cstdlib>
#include <iostream>
#include <string>

#include "cnn/model_zoo.h"
#include "core/amc_pipeline.h"
#include "eval/tables.h"
#include "hw/stream_sim.h"
#include "video/scenarios.h"

using namespace eva2;

namespace {

struct CliOptions
{
    std::string net = "fasterm";
    std::string scene = "objects";
    std::string policy = "block";
    double threshold = 0.03;
    i64 interval = 4;
    i64 frames = 24;
    u64 seed = 1;
};

[[noreturn]] void
usage_error(const std::string &msg)
{
    std::cerr << "error: " << msg << "\n"
              << "usage: eva2_cli [--net alexnet|faster16|fasterm] "
                 "[--scene static|pan|objects|occlusion|chaotic] "
                 "[--policy block|magnitude|static] [--threshold X] "
                 "[--interval N] [--frames N] [--seed N]\n";
    std::exit(2);
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage_error("missing value for " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--net") {
            o.net = value;
        } else if (flag == "--scene") {
            o.scene = value;
        } else if (flag == "--policy") {
            o.policy = value;
        } else if (flag == "--threshold") {
            o.threshold = std::stod(value);
        } else if (flag == "--interval") {
            o.interval = std::stoll(value);
        } else if (flag == "--frames") {
            o.frames = std::stoll(value);
        } else if (flag == "--seed") {
            o.seed = static_cast<u64>(std::stoull(value));
        } else {
            usage_error("unknown flag " + flag);
        }
    }
    return o;
}

NetworkSpec
spec_for(const std::string &name)
{
    if (name == "alexnet") {
        return alexnet_spec();
    }
    if (name == "faster16") {
        return faster16_spec();
    }
    if (name == "fasterm") {
        return fasterm_spec();
    }
    usage_error("unknown network '" + name + "'");
}

SceneConfig
scene_for(const std::string &name, u64 seed, i64 size)
{
    if (name == "static") {
        return static_scene(seed, size);
    }
    if (name == "pan") {
        return panning_scene(seed, 2.0, size);
    }
    if (name == "objects") {
        return object_scene(seed, 3, 2.0, size);
    }
    if (name == "occlusion") {
        return occlusion_scene(seed, size);
    }
    if (name == "chaotic") {
        return chaotic_scene(seed, size);
    }
    usage_error("unknown scene '" + name + "'");
}

std::unique_ptr<KeyFramePolicy>
policy_for(const CliOptions &o)
{
    if (o.policy == "block") {
        return std::make_unique<BlockErrorPolicy>(o.threshold);
    }
    if (o.policy == "magnitude") {
        return std::make_unique<MotionMagnitudePolicy>(o.threshold);
    }
    if (o.policy == "static") {
        return std::make_unique<StaticRatePolicy>(o.interval);
    }
    usage_error("unknown policy '" + o.policy + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions o = parse(argc, argv);
    const NetworkSpec spec = spec_for(o.net);
    const i64 size = spec.task == VisionTask::kDetection ? 192 : 128;

    ScaledBuildOptions build_opts;
    build_opts.input = Shape{1, size, size};
    Network net = build_scaled(spec, build_opts);

    AmcOptions amc;
    if (spec.task == VisionTask::kClassification) {
        amc.motion_mode = MotionMode::kMemoization;
    }
    AmcPipeline pipeline(net, policy_for(o), amc);
    const StreamSimulator sim(spec);

    SyntheticVideo video(scene_for(o.scene, o.seed, size));
    const StreamTimeline report =
        sim.simulate(pipeline, video.sequence(o.scene, o.frames));

    banner(spec.name + " on '" + o.scene + "' (" +
           std::to_string(o.frames) + " frames)");
    TablePrinter t({"metric", "value"});
    t.row({"key frames", std::to_string(report.key_frames) + "/" +
                             std::to_string(report.frame_count()) +
                             " (" + fmt_pct(report.key_fraction(), 0) +
                             ")"});
    t.row({"avg latency/frame (ms)",
           fmt(report.total.latency_ms /
                   static_cast<double>(report.frame_count()),
               1)});
    t.row({"avg energy/frame (mJ)",
           fmt(report.total.energy_mj /
                   static_cast<double>(report.frame_count()),
               1)});
    t.row({"baseline energy/frame (mJ)",
           fmt(report.baseline_total.energy_mj /
                   static_cast<double>(report.frame_count()),
               1)});
    t.row({"energy savings", fmt_pct(report.energy_savings())});
    t.print();
    return 0;
}
