#include "hw/eva2_model.h"

#include <algorithm>
#include <cmath>

namespace eva2 {

double
Eva2Area::total_mm2(const TechParams &tech) const
{
    return pixel_buffer_a.area_mm2(tech) + pixel_buffer_b.area_mm2(tech) +
           activation_buffer.area_mm2(tech) + logic_mm2;
}

double
Eva2Area::pixel_buffer_fraction(const TechParams &tech) const
{
    return (pixel_buffer_a.area_mm2(tech) +
            pixel_buffer_b.area_mm2(tech)) /
           total_mm2(tech);
}

double
Eva2Area::activation_buffer_fraction(const TechParams &tech) const
{
    return activation_buffer.area_mm2(tech) / total_mm2(tech);
}

double
Eva2Area::vpu_fraction(const TechParams &tech) const
{
    const double mine = total_mm2(tech);
    return mine /
           (mine + EyerissModel::area_mm2 + EieModel::area_mm2);
}

Eva2Model::Eva2Model(Eva2Config config, TechParams tech)
    : config_(config), tech_(tech)
{
    require(config.image_h > 0 && config.image_w > 0,
            "eva2 model: image dimensions required");
    require(config.act_c > 0 && config.act_h > 0 && config.act_w > 0,
            "eva2 model: activation dimensions required");
    require(config.rf_stride > 0 && config.rf_size > 0,
            "eva2 model: receptive field required");
}

RfbmeOpModel
Eva2Model::op_model() const
{
    RfbmeOpModel m;
    m.layer_h = config_.act_h;
    m.layer_w = config_.act_w;
    m.rf_size = config_.rf_size;
    m.rf_stride = config_.rf_stride;
    m.search_radius = config_.search_radius;
    m.search_stride = config_.search_stride;
    return m;
}

i64
Eva2Model::compressed_act_bytes() const
{
    // RLE stores one 3-byte (8-bit gap + 16-bit value) entry per
    // non-zero value; the dense baseline is 2 bytes per value. Never
    // report more than dense: the buffer would simply store raw.
    const double nonzero =
        static_cast<double>(act_values()) *
        (1.0 - config_.activation_sparsity);
    return std::min(dense_act_bytes(),
                    static_cast<i64>(std::llround(nonzero * 3.0)));
}

HwCost
Eva2Model::motion_estimation_cost() const
{
    const i64 ops = op_model().rfbme_ops();
    HwCost cost;
    const double cycles = static_cast<double>(ops) /
                          static_cast<double>(config_.me_adds_per_cycle);
    cost.latency_ms = cycles * tech_.clock_period_ns * 1e-6;
    // Each op consumes one 8-bit pixel fetched from an SRAM-backed
    // tile buffer plus one 16-bit add.
    cost.energy_mj = static_cast<double>(ops) *
                     (tech_.add_energy_pj + tech_.sram_pj_per_byte) *
                     1e-9;
    return cost;
}

HwCost
Eva2Model::warp_cost() const
{
    HwCost cost;
    if (!config_.motion_compensation) {
        return cost;
    }
    const double nonzero =
        static_cast<double>(act_values()) *
        (1.0 - config_.activation_sparsity);
    // One interpolated output per cycle for non-zero neighbourhoods;
    // zero runs are skipped by the sparsity decoder lanes at 16
    // values per cycle (Section III-B / V point 4).
    const double cycles = nonzero + static_cast<double>(act_values()) /
                                        16.0;
    cost.latency_ms = cycles * tech_.clock_period_ns * 1e-6;
    // Four weighting-unit MACs per produced value, plus reading the
    // compressed activation from and writing it back to eDRAM.
    cost.energy_mj = (nonzero * 4.0 * tech_.mac_energy_pj +
                      2.0 * static_cast<double>(compressed_act_bytes()) *
                          tech_.edram_pj_per_byte) *
                     1e-9;
    return cost;
}

HwCost
Eva2Model::frame_admission_cost() const
{
    const double pixels =
        static_cast<double>(config_.image_h * config_.image_w);
    HwCost cost;
    cost.latency_ms = pixels /
                      static_cast<double>(config_.pixel_write_per_cycle) *
                      tech_.clock_period_ns * 1e-6;
    cost.energy_mj = pixels * tech_.edram_pj_per_byte * 1e-9;
    return cost;
}

HwCost
Eva2Model::activation_store_cost() const
{
    const double bytes = static_cast<double>(compressed_act_bytes());
    HwCost cost;
    // The RLE encoder keeps pace with the layer accelerator's output
    // stream; we charge 2 bytes per cycle of drain plus the eDRAM
    // write energy.
    cost.latency_ms = bytes / 2.0 * tech_.clock_period_ns * 1e-6;
    cost.energy_mj = bytes * tech_.edram_pj_per_byte * 1e-9;
    return cost;
}

HwCost
Eva2Model::predicted_frame_cost() const
{
    return frame_admission_cost() + motion_estimation_cost() +
           warp_cost();
}

HwCost
Eva2Model::key_frame_cost() const
{
    // Key frames still pay admission and motion estimation plus the
    // activation store. This models the paper's adaptive-policy
    // hardware, whose key decision reads RFBME's match error on every
    // frame; the software frame path (core/frame_plan) skips RFBME on
    // keys the policy's schedule forces, but the model keeps charging
    // it on every key frame, as the hardware does.
    return frame_admission_cost() + motion_estimation_cost() +
           activation_store_cost();
}

Eva2Area
Eva2Model::area() const
{
    Eva2Area area;
    const i64 frame_bytes = config_.image_h * config_.image_w;
    area.pixel_buffer_a =
        MemoryMacro{"pixel buffer A", MemKind::kEdram, frame_bytes};
    area.pixel_buffer_b =
        MemoryMacro{"pixel buffer B", MemKind::kEdram, frame_bytes};
    area.activation_buffer = MemoryMacro{
        "key activation buffer", MemKind::kEdram, compressed_act_bytes()};
    // Synthesized datapath plus the small SRAM tile/partial-sum
    // memories, fixed across deployments.
    area.logic_mm2 = 0.75;
    return area;
}

ReceptiveField
spec_receptive_field(const NetworkSpec &spec,
                     const std::string &target_name)
{
    ReceptiveField rf;
    for (const LayerSpec &l : spec.layers) {
        if (l.kind == LayerKind::kFc || l.kind == LayerKind::kSoftmax) {
            break;
        }
        rf = rf.compose(WindowGeometry{l.kernel, l.stride, l.pad});
        if (l.name == target_name) {
            return rf;
        }
    }
    throw ConfigError("target layer '" + target_name +
                      "' not found among spatial layers of " + spec.name);
}

Eva2Config
eva2_config_for(const NetworkSpec &spec, const std::string &target_name,
                Shape input)
{
    const std::string target =
        target_name.empty() ? spec.late_target : target_name;
    if (input.size() == 0) {
        input = spec.cost_input;
    }
    Eva2Config config;
    config.image_h = input.h;
    config.image_w = input.w;

    const std::vector<LayerCost> costs = analyze_at(spec, input);
    bool found = false;
    for (const LayerCost &c : costs) {
        if (c.name == target) {
            config.act_c = c.out.c;
            config.act_h = c.out.h;
            config.act_w = c.out.w;
            found = true;
            break;
        }
    }
    require(found, "eva2_config_for: target layer '" + target +
                       "' not in " + spec.name);

    const ReceptiveField rf = spec_receptive_field(spec, target);
    config.rf_size = rf.size;
    config.rf_stride = rf.stride;
    config.motion_compensation = spec.task == VisionTask::kDetection;
    return config;
}

} // namespace eva2
