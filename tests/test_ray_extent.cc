/**
 * @file
 * Regression tests for the ray-extent lower bound t_beg.
 *
 * Every traversal path must reject a triangle intersection with
 * t < t_beg exactly like one with t > t_end; shadow and secondary rays
 * (whose extents start at an epsilon, see core::RayGen) depend on it.
 * The canonical failure this suite pins down: a ray with t_beg > 0
 * whose nearest triangle sits inside (0, t_beg) must report the first
 * hit at t >= t_beg - in Traverser::closestHit, Traverser::anyHit, the
 * brute-force oracle, the cycle-level RtUnit and both engine execution
 * models. On the pre-fix tree every one of these returned the near
 * triangle.
 */
#include <gtest/gtest.h>

#include "bvh/builder.hh"
#include "bvh/rt_unit.hh"
#include "bvh/scene.hh"
#include "bvh/traversal.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"

using namespace rayflex;
using namespace rayflex::core;
using namespace rayflex::bvh;
using rayflex::fp::fromBits;
using rayflex::fp::toBits;

namespace
{

/** Rebuild a ray with a different extent (shadow-style rays are the
 *  same geometry with t_beg pushed off zero). */
Ray
withExtent(const Ray &r, float t_beg, float t_end)
{
    return makeRay(fromBits(r.origin[0]), fromBits(r.origin[1]),
                   fromBits(r.origin[2]), fromBits(r.dir[0]),
                   fromBits(r.dir[1]), fromBits(r.dir[2]), t_beg, t_end);
}

/** A front-facing (for a +z ray) triangle spanning the xy origin in
 *  the plane z = `z`. Same winding as the paper-case triangle. */
SceneTriangle
slabTriangle(float z, uint32_t id)
{
    return SceneTriangle{{-3, -3, z}, {-3, 5, z}, {5, -3, z}, id};
}

/** Two triangles across the +z axis: the near one at t=1 inside the
 *  shadow extent's dead zone, the far one at t=5. */
Bvh4
twoSlabScene()
{
    return buildBvh4({slabTriangle(1.0f, 0), slabTriangle(5.0f, 1)});
}

/** The shadow-style ray of the regression: extent [2, 100] along +z
 *  from the origin, so only the far triangle is inside the extent. */
Ray
shadowStyleRay()
{
    return makeRay(0, 0, 0, 0, 0, 1, 2.0f, 100.0f);
}

/** `ray` alone through one fresh baseline RT unit (a one-batch,
 *  one-worker engine run), in any-hit mode when `any_hit`. */
HitRecord
runOneUnit(const Bvh4 &bvh, const Ray &ray, bool any_hit)
{
    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 0;
    return sim::Engine(cfg).run(bvh, {ray}, any_hit).hits[0];
}

} // namespace

TEST(RayExtent, SanityNearTriangleWinsWithoutLowerBound)
{
    Bvh4 bvh = twoSlabScene();
    Traverser trav(bvh);
    HitRecord h = trav.closestHit(withExtent(shadowStyleRay(), 0, 100));
    ASSERT_TRUE(h.hit);
    EXPECT_EQ(h.triangle_id, 0u);
    EXPECT_NEAR(h.t, 1.0f, 1e-4f);
}

TEST(RayExtent, ClosestHitHonorsLowerBound)
{
    Bvh4 bvh = twoSlabScene();
    Traverser trav(bvh);
    HitRecord h = trav.closestHit(shadowStyleRay());
    ASSERT_TRUE(h.hit);
    EXPECT_EQ(h.triangle_id, 1u) << "near triangle at t=1 < t_beg=2 "
                                    "must not be reported";
    EXPECT_GE(h.t, 2.0f);
    EXPECT_NEAR(h.t, 5.0f, 1e-4f);
}

TEST(RayExtent, BruteForceOracleHonorsLowerBound)
{
    Bvh4 bvh = twoSlabScene();
    Traverser trav(bvh);
    HitRecord h = trav.bruteForceClosest(shadowStyleRay());
    ASSERT_TRUE(h.hit);
    EXPECT_EQ(h.triangle_id, 1u);
    EXPECT_GE(h.t, 2.0f);
}

TEST(RayExtent, AnyHitHonorsLowerBound)
{
    Bvh4 bvh = twoSlabScene();
    Traverser trav(bvh);
    // Only the far triangle is in [2, 100].
    EXPECT_TRUE(trav.anyHit(shadowStyleRay()));
    // [2, 3] contains no triangle: near is below t_beg, far above t_end.
    EXPECT_FALSE(trav.anyHit(withExtent(shadowStyleRay(), 2.0f, 3.0f)));
    // The near triangle alone is occluder-free for the shadow extent.
    Bvh4 near_only = buildBvh4({slabTriangle(1.0f, 0)});
    Traverser nt(near_only);
    EXPECT_FALSE(nt.anyHit(shadowStyleRay()));
    EXPECT_TRUE(nt.anyHit(withExtent(shadowStyleRay(), 0.0f, 100.0f)));
}

TEST(RayExtent, RtUnitHonorsLowerBound)
{
    Bvh4 bvh = twoSlabScene();
    const HitRecord h = runOneUnit(bvh, shadowStyleRay(), false);
    ASSERT_TRUE(h.hit);
    EXPECT_EQ(h.triangle_id, 1u);
    EXPECT_GE(h.t, 2.0f);
}

TEST(RayExtent, RtUnitAnyHitModeHonorsLowerBound)
{
    Bvh4 bvh = twoSlabScene();
    // Occluded, and the record carries only the flag.
    EXPECT_EQ(runOneUnit(bvh, shadowStyleRay(), true), HitRecord{true});
    EXPECT_EQ(runOneUnit(bvh, withExtent(shadowStyleRay(), 2.0f, 3.0f),
                         true),
              HitRecord{});
}

TEST(RayExtent, BothEngineModelsHonorLowerBound)
{
    Bvh4 bvh = twoSlabScene();
    std::vector<Ray> rays{shadowStyleRay(),
                          withExtent(shadowStyleRay(), 0.0f, 100.0f),
                          withExtent(shadowStyleRay(), 2.0f, 3.0f)};

    for (sim::ExecutionModel model :
         {sim::ExecutionModel::CycleAccurate,
          sim::ExecutionModel::Functional}) {
        sim::EngineConfig cfg;
        cfg.model = model;
        cfg.threads = 2;
        cfg.batch_size = 1;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        ASSERT_TRUE(rep.hits[0].hit);
        EXPECT_EQ(rep.hits[0].triangle_id, 1u);
        EXPECT_GE(rep.hits[0].t, 2.0f);
        EXPECT_EQ(rep.hits[1].triangle_id, 0u); // t_beg=0 sees the near
        EXPECT_FALSE(rep.hits[2].hit);          // empty extent window

        sim::EngineReport occ = sim::Engine(cfg).run(bvh, rays, true);
        EXPECT_TRUE(occ.hits[0].hit);
        EXPECT_TRUE(occ.hits[1].hit);
        EXPECT_FALSE(occ.hits[2].hit);
    }
}

TEST(RayExtent, TraverserMatchesOracleOnRandomExtents)
{
    // Random scene, random rays with random non-zero lower bounds: the
    // BVH traversal and the brute-force oracle must agree bit-for-bit
    // on what "inside the extent" means.
    Bvh4 bvh = buildBvh4(makeSoup(400, 6.0f, 1.0f, 23));
    WorkloadGen gen(41);
    Traverser trav(bvh);
    size_t hits = 0, front_rejections = 0;
    for (int i = 0; i < 600; ++i) {
        Ray r = gen.ray(6.0f);
        float t_beg = gen.uniform(0.0f, 3.0f);
        float t_end = t_beg + gen.uniform(2.0f, 30.0f);
        r = withExtent(r, t_beg, t_end);
        HitRecord a = trav.closestHit(r);
        HitRecord b = trav.bruteForceClosest(r);
        ASSERT_EQ(a.hit, b.hit) << "ray " << i;
        if (a.hit) {
            ++hits;
            ASSERT_EQ(toBits(a.t), toBits(b.t)) << "ray " << i;
            ASSERT_EQ(a.triangle_id, b.triangle_id) << "ray " << i;
            ASSERT_GE(a.t, t_beg) << "ray " << i;
            ASSERT_LE(a.t, t_end) << "ray " << i;
        }
        // Count cases where an in-front triangle had to be skipped:
        // the ray with its lower bound opened to zero hits something
        // nearer than t_beg.
        HitRecord open = trav.closestHit(withExtent(r, 0.0f, t_end));
        if (open.hit && open.t < t_beg)
            ++front_rejections;
        EXPECT_EQ(a.hit, trav.anyHit(r)) << "ray " << i;
    }
    // The workload must actually exercise both the hit path and the
    // front-rejection path for this test to mean anything.
    EXPECT_GT(hits, 20u) << front_rejections;
    EXPECT_GT(front_rejections, 10u) << hits;
}
