/**
 * @file
 * Multi-pass scenario orchestration.
 *
 * Pass structure: (1) primary closest-hit; a shading prologue derives
 * the surface frame (hit point, geometric normal flipped toward the
 * viewer) per hit pixel from the shared triangle data; (2) shadow
 * any-hit; (3) ambient-occlusion any-hit fans; (4) one-bounce mirror
 * closest-hit. Secondary batches are kept in pixel order, so every
 * pass writes disjoint, deterministic slices of the per-pixel outputs.
 */
#include "sim/passes.hh"

#include <algorithm>
#include <unordered_map>

namespace rayflex::sim
{

using bvh::SceneTriangle;
using bvh::Vec3;
using core::Float3;
using core::Ray;
using core::RayGen;

namespace
{

Float3
toFloat3(Vec3 v)
{
    return {v.x, v.y, v.z};
}

/** Accumulate one engine pass into the report totals. */
void
foldPass(PassesReport &rep, const EngineReport &pass)
{
    rep.traversal.merge(pass.traversal);
    rep.unit.merge(pass.unit);
    rep.total_rays += pass.hits.size();
    rep.elapsed_seconds += pass.elapsed_seconds;
}

/** Self-intersection guard: secondary-ray origins are offset by kEps
 *  along the surface normal and their extents start at t_beg = kEps
 *  (which is why every traversal path must honor the lower extent
 *  bound). */
constexpr float kEps = 1e-3f;

} // namespace

PassesReport
renderPasses(const Engine &engine, const bvh::Bvh4 &bvh,
             const PassConfig &cfg)
{
    PassesReport rep;
    const size_t n_px = size_t(cfg.camera.width) * cfg.camera.height;
    const Vec3 light = bvh::normalize(
        Vec3{cfg.light_dir[0], cfg.light_dir[1], cfg.light_dir[2]});
    RayGen gen(cfg.seed);

    // ---- pass 1: primary closest-hit --------------------------------
    const std::vector<Ray> primary =
        RayGen::primaryRays(cfg.camera, cfg.t_max);
    rep.primary = engine.run(bvh, primary, false);
    foldPass(rep, rep.primary);

    // Triangle lookup by id (ids survive the builder's reordering and
    // need not be dense).
    std::unordered_map<uint32_t, const SceneTriangle *> by_id;
    by_id.reserve(bvh.tris.size());
    for (const SceneTriangle &t : bvh.tris)
        by_id.emplace(t.id, &t);

    // ---- shading prologue: surface frames, secondary batches --------
    rep.diffuse.assign(n_px, 0.0f);
    rep.lit.assign(n_px, uint8_t{1});
    rep.ao_open.assign(n_px, 1.0f);
    rep.bounce_hits.assign(n_px, bvh::HitRecord{});

    std::vector<Ray> shadow_rays, ao_rays, bounce_rays;
    std::vector<size_t> shadow_px, ao_px, bounce_px; // ray -> pixel
    for (size_t i = 0; i < n_px; ++i) {
        const bvh::HitRecord &hit = rep.primary.hits[i];
        if (!hit.hit)
            continue;
        const Ray &ray = primary[i];
        const SceneTriangle *tri = by_id.at(hit.triangle_id);
        Vec3 n = normalize(cross(tri->v1 - tri->v0, tri->v2 - tri->v0));
        Vec3 org{fp::fromBits(ray.origin[0]), fp::fromBits(ray.origin[1]),
                 fp::fromBits(ray.origin[2])};
        Vec3 dir{fp::fromBits(ray.dir[0]), fp::fromBits(ray.dir[1]),
                 fp::fromBits(ray.dir[2])};
        if (dot(n, dir) > 0)
            n = n * -1.0f;
        Vec3 p = org + dir * hit.t;
        rep.diffuse[i] = std::max(0.0f, dot(n, light));

        shadow_rays.push_back(RayGen::shadowRay(
            toFloat3(p), toFloat3(n), toFloat3(light), kEps,
            cfg.t_max));
        shadow_px.push_back(i);
        if (cfg.ao_samples > 0) {
            gen.appendAoFan(ao_rays, toFloat3(p), toFloat3(n),
                            cfg.ao_samples, kEps, cfg.ao_radius);
            ao_px.push_back(i);
        }
        if (cfg.bounce) {
            bounce_rays.push_back(RayGen::bounceRay(
                toFloat3(p), toFloat3(n), toFloat3(dir), kEps,
                cfg.t_max));
            bounce_px.push_back(i);
        }
    }

    // ---- pass 2: shadow any-hit (only the flag is defined) ----------
    rep.shadow = engine.run(bvh, shadow_rays, true);
    foldPass(rep, rep.shadow);
    for (size_t s = 0; s < shadow_px.size(); ++s)
        rep.lit[shadow_px[s]] = rep.shadow.hits[s].hit ? 0 : 1;
    rep.shadow.hits = {}; // reduced into lit; release the raw records

    // ---- pass 3: ambient-occlusion any-hit fans ---------------------
    if (cfg.ao_samples > 0) {
        rep.ao = engine.run(bvh, ao_rays, true);
        foldPass(rep, rep.ao);
        for (size_t f = 0; f < ao_px.size(); ++f) {
            unsigned occluded = 0;
            for (unsigned s = 0; s < cfg.ao_samples; ++s)
                occluded += rep.ao.hits[f * cfg.ao_samples + s].hit;
            rep.ao_open[ao_px[f]] =
                1.0f - float(occluded) / float(cfg.ao_samples);
        }
        rep.ao.hits = {}; // reduced into ao_open
    }

    // ---- pass 4: one-bounce mirror closest-hit ----------------------
    if (cfg.bounce) {
        rep.bounce = engine.run(bvh, bounce_rays, false);
        foldPass(rep, rep.bounce);
        for (size_t b = 0; b < bounce_px.size(); ++b)
            rep.bounce_hits[bounce_px[b]] = rep.bounce.hits[b];
        rep.bounce.hits = {}; // rehomed per pixel in bounce_hits
    }
    return rep;
}

} // namespace rayflex::sim
