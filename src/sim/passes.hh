/**
 * @file
 * Multi-pass secondary-ray scenarios on top of sim::Engine.
 *
 * A rendered frame is several engine runs against one BVH: a
 * closest-hit pass for the camera rays, then occlusion passes (shadow
 * rays toward the light, ambient-occlusion fans) and an optional
 * one-bounce mirror pass, all generated deterministically by
 * core::RayGen from the primary hit points. renderPasses() owns that
 * orchestration - previously hand-rolled in examples/render_scene.cpp -
 * and reuses the caller's engine, so every pass runs on the same
 * persistent worker pool.
 *
 * Determinism: the ray batches are pure functions of (camera, light,
 * seed, primary hits) and every engine run is bit-identical at every
 * thread count, so the whole PassesReport inherits the engine's
 * determinism contract.
 *
 * Occlusion passes run the engine in any-hit mode; per the
 * EngineReport::hits contract their records carry only the `hit` flag,
 * and this module consumes nothing else from them.
 */
#ifndef RAYFLEX_SIM_PASSES_HH
#define RAYFLEX_SIM_PASSES_HH

#include <cstdint>
#include <vector>

#include "core/raygen.hh"
#include "sim/engine.hh"

namespace rayflex::sim
{

/** Configuration of a multi-pass scenario run. */
struct PassConfig
{
    core::Pinhole camera;

    /** Extent upper bound for primary, shadow and bounce rays. */
    float t_max = 1000.0f;

    /** Directional light; normalized internally. */
    core::Float3 light_dir{0.5f, 1.0f, 0.3f};

    /** Ambient-occlusion rays per hit pixel; 0 disables the AO pass. */
    unsigned ao_samples = 0;

    /** Upper extent bound of AO rays (the occlusion neighborhood). */
    float ao_radius = 1.0f;

    /** Emit a one-bounce mirror pass. */
    bool bounce = false;

    /** Seed for the AO fan azimuth (core::RayGen). */
    uint64_t seed = 1;
};

/** Aggregate of a multi-pass scenario run. The per-pixel vectors are
 *  sized width*height in row-major pixel order. */
struct PassesReport
{
    /** Closest-hit camera rays; `hits` is the per-pixel result. */
    EngineReport primary;
    /** Secondary-pass reports. Their per-ray `hits` vectors are
     *  released after being reduced into the per-pixel arrays below
     *  (an AO pass alone is pixels*ao_samples records); the batch
     *  counts, timings and merged statistics remain. */
    EngineReport shadow;  ///< any-hit shadow batch
    EngineReport ao;      ///< any-hit AO fans
    EngineReport bounce;  ///< closest-hit mirror batch

    std::vector<float> diffuse;  ///< Lambert term; 0 for miss pixels
    std::vector<uint8_t> lit;    ///< 1 = light visible from the hit
    std::vector<float> ao_open;  ///< unoccluded AO-fan fraction
    std::vector<bvh::HitRecord> bounce_hits; ///< mirror hit per pixel

    /** Merged traversal counters across all passes (Functional). */
    bvh::TraversalStats traversal;
    /** Merged RT-unit counters across all passes (CycleAccurate);
     *  includes the node-cache counters in `unit.mem` when the engine
     *  runs the cached memory backend, the MSHR-file counters in
     *  `unit.mshr` when it bounds one, and the packet/compaction
     *  counters in `unit.packet` when it packetizes. */
    bvh::RtUnitStats unit;

    uint64_t total_rays = 0;
    double elapsed_seconds = 0; ///< sum of the passes' engine times
};

/**
 * Run the scenario: primary pass, shadow pass, then (when configured)
 * AO and bounce passes, all through `engine` against `bvh`. Pixels the
 * primary pass missed keep diffuse = 0, lit = 1, ao_open = 1 and a
 * miss bounce record.
 */
PassesReport renderPasses(const Engine &engine, const bvh::Bvh4 &bvh,
                          const PassConfig &cfg);

} // namespace rayflex::sim

#endif // RAYFLEX_SIM_PASSES_HH
