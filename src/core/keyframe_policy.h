/**
 * @file
 * Key-frame selection policies (Section II-C4).
 *
 * The key-frame decision is AMC's accuracy/efficiency knob. The paper
 * implements a static rate plus two adaptive features measurable from
 * the motion-estimation pass: aggregate block match error (chosen for
 * the hardware, since it is a free byproduct of RFBME) and total
 * motion magnitude. Section IV-E5 sweeps both.
 *
 * In hardware the features are free; in software RFBME is a real cost.
 * A policy therefore also says, through key_due(), when the schedule
 * alone forces a key frame (a static interval, an adaptive max_gap),
 * and the frame path skips motion estimation for such frames: a key
 * frame never reads the motion field.
 */
#ifndef EVA2_CORE_KEYFRAME_POLICY_H
#define EVA2_CORE_KEYFRAME_POLICY_H

#include <memory>
#include <string>

#include "util/common.h"

namespace eva2 {

/** Scene features available when deciding a frame's type. */
struct FrameFeatures
{
    /** Mean per-receptive-field minimum match error from RFBME. */
    double match_error = 0.0;
    /** Total motion-vector magnitude from RFBME. */
    double motion_magnitude = 0.0;
    /** Frames since the last key frame (>= 1 for candidates). */
    i64 frames_since_key = 0;
};

/** Decides whether each incoming frame is a key frame. */
class KeyFramePolicy
{
  public:
    virtual ~KeyFramePolicy() = default;

    /**
     * Decide the type of the next frame. The very first frame of a
     * stream is always a key frame; the pipeline does not consult the
     * policy for it.
     */
    virtual bool is_key_frame(const FrameFeatures &features) = 0;

    /**
     * True when the schedule alone makes the next frame a key frame,
     * `frames_since_key` frames after the last one, whatever motion
     * estimation would measure. The frame path then skips RFBME and
     * does not call is_key_frame(). Contract: key_due(n) implies
     * is_key_frame() returns true for any features with
     * frames_since_key == n. The default (false) consults
     * is_key_frame() with real RFBME features on every frame after
     * the first.
     */
    virtual bool key_due(i64 /* frames_since_key */) const { return false; }

    /** Reset internal state for a new stream. */
    virtual void reset() {}

    /** Policy name for reports. */
    virtual std::string name() const = 0;
};

/** Every nth frame is a key frame. */
class StaticRatePolicy : public KeyFramePolicy
{
  public:
    /** @param interval Key frame every `interval` frames (>= 1). */
    explicit StaticRatePolicy(i64 interval);

    bool is_key_frame(const FrameFeatures &features) override;
    bool key_due(i64 frames_since_key) const override;
    std::string name() const override;

    i64 interval() const { return interval_; }

  private:
    i64 interval_;
};

/**
 * Adaptive policy on RFBME match error: a high aggregate error means
 * motion estimation failed to explain the scene change (occlusion,
 * lighting, new content), so run a key frame.
 */
class BlockErrorPolicy : public KeyFramePolicy
{
  public:
    /**
     * @param threshold Mean match error above which a key frame runs.
     * @param max_gap   Force a key frame after this many predictions
     *                  (0 disables the cap; negative throws).
     */
    explicit BlockErrorPolicy(double threshold, i64 max_gap = 0);

    bool is_key_frame(const FrameFeatures &features) override;
    bool key_due(i64 frames_since_key) const override;
    std::string name() const override;

  private:
    double threshold_;
    i64 max_gap_;
};

/**
 * Adaptive policy on total motion magnitude: large total motion means
 * predictions are less reliable (Section II-C4's second feature).
 */
class MotionMagnitudePolicy : public KeyFramePolicy
{
  public:
    /** Parameters as for BlockErrorPolicy. */
    explicit MotionMagnitudePolicy(double threshold, i64 max_gap = 0);

    bool is_key_frame(const FrameFeatures &features) override;
    bool key_due(i64 frames_since_key) const override;
    std::string name() const override;

  private:
    double threshold_;
    i64 max_gap_;
};

} // namespace eva2

#endif // EVA2_CORE_KEYFRAME_POLICY_H
