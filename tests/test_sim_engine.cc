/**
 * @file
 * Tests of the sharded batch simulation engine: the determinism
 * contract (bit-identical per-ray hits and merged statistics at every
 * thread count), agreement with the unsharded single-unit path, and
 * the batch-slicing edge cases.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "bvh/knn.hh"
#include "bvh/rt_unit.hh"
#include "bvh/scene.hh"
#include "bvh/traversal.hh"
#include "core/datapath.hh"
#include "core/stages.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"

using namespace rayflex;
using namespace rayflex::core;
using namespace rayflex::bvh;
using rayflex::fp::fromBits;
using rayflex::fp::toBits;

namespace
{

/** Bit-level equality of two hit records (float == would also accept
 *  -0.0f vs 0.0f; the contract is stronger). */
::testing::AssertionResult
bitIdentical(const HitRecord &a, const HitRecord &b)
{
    if (a.hit != b.hit || a.triangle_id != b.triangle_id ||
        toBits(a.t) != toBits(b.t) || toBits(a.u) != toBits(b.u) ||
        toBits(a.v) != toBits(b.v) || toBits(a.w) != toBits(b.w))
        return ::testing::AssertionFailure()
               << "hit records differ: {" << a.hit << ", " << a.t << ", "
               << a.triangle_id << "} vs {" << b.hit << ", " << b.t
               << ", " << b.triangle_id << "}";
    return ::testing::AssertionSuccess();
}

/** A small mixed scene with both hits and misses well represented. */
Bvh4
testScene()
{
    auto tris = makeSphere({0, 0, 0}, 2.0f, 12, 16);
    uint32_t id = uint32_t(tris.size());
    auto soup = makeSoup(300, 6.0f, 0.8f, 17, id);
    tris.insert(tris.end(), soup.begin(), soup.end());
    return buildBvh4(std::move(tris));
}

/** Camera rays plus random rays (some aimed away from the scene). */
std::vector<Ray>
testRays(const Bvh4 &bvh, size_t n_random)
{
    Camera cam;
    cam.look_at = bvh.root_bounds.centre();
    cam.eye = {0.5f, 1.0f, 9.0f};
    cam.width = 16;
    cam.height = 16;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < cam.height; ++y)
        for (unsigned x = 0; x < cam.width; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));
    WorkloadGen gen(99);
    for (size_t i = 0; i < n_random; ++i)
        rays.push_back(gen.ray(8.0f));
    return rays;
}

} // namespace

TEST(SliceBatches, CoversEveryIndexExactlyOnce)
{
    for (size_t total : {0ul, 1ul, 7ul, 64ul, 65ul}) {
        for (size_t bs : {0ul, 1ul, 3ul, 64ul, 1000ul}) {
            auto batches = sliceBatches(total, bs);
            size_t covered = 0;
            for (size_t i = 0; i < batches.size(); ++i) {
                ASSERT_LT(batches[i].begin, batches[i].end);
                ASSERT_EQ(batches[i].begin, covered);
                if (bs) {
                    ASSERT_LE(batches[i].size(), bs);
                }
                covered = batches[i].end;
            }
            ASSERT_EQ(covered, total);
            if (total == 0) {
                ASSERT_TRUE(batches.empty());
            }
        }
    }
}

TEST(SliceBatches, WorkloadSlicesPreserveOrder)
{
    WorkloadGen gen(3);
    auto beats = gen.batch(Opcode::RayBox, 10);
    auto slices = sliceWorkload(beats, 4);
    ASSERT_EQ(slices.size(), 3u);
    ASSERT_EQ(slices[0].size(), 4u);
    ASSERT_EQ(slices[2].size(), 2u);
    size_t k = 0;
    for (const auto &s : slices)
        for (const auto &beat : s)
            ASSERT_EQ(beat.tag, beats[k++].tag);
}

TEST(SimEngine, DeterministicAcrossThreadCounts)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig cfg;
    cfg.batch_size = 48; // several batches, last one short
    cfg.threads = 1;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(ref.hits.size(), rays.size());
    ASSERT_EQ(ref.unit.rays_completed, rays.size());
    ASSERT_GT(ref.unit.datapath_beats, 0u);

    for (unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        ASSERT_EQ(rep.hits.size(), ref.hits.size());
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at " << threads << " threads";
        // Merged statistics are order-independent sums: identical too.
        EXPECT_EQ(rep.unit, ref.unit) << threads << " threads";
        EXPECT_EQ(rep.batches, ref.batches);
    }
}

TEST(SimEngine, ConcurrentRunsOnOneEngineAreSerializedAndIdentical)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig cfg;
    cfg.batch_size = 48;
    cfg.threads = 4;
    sim::Engine engine(cfg);
    sim::EngineReport ref = engine.run(bvh, rays);

    // run() is a const entry point on shared engine state (the worker
    // pool): two client threads racing on ONE engine must each get the
    // solo answer, bit for bit.
    sim::EngineReport a, b;
    std::thread ta([&] { a = engine.run(bvh, rays); });
    std::thread tb([&] { b = engine.run(bvh, rays); });
    ta.join();
    tb.join();
    for (const sim::EngineReport *rep : {&a, &b}) {
        ASSERT_EQ(rep->hits.size(), ref.hits.size());
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep->hits[i], ref.hits[i])) << i;
        EXPECT_EQ(rep->unit, ref.unit);
        EXPECT_EQ(rep->batches, ref.batches);
    }
}

TEST(SimEngine, FunctionalModelDeterministicAndAgrees)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::Functional;
    cfg.batch_size = 30;
    cfg.threads = 1;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays);
    ASSERT_GT(ref.traversal.box_ops, 0u);

    cfg.threads = 4;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    EXPECT_EQ(rep.traversal, ref.traversal);

    // Both execution models take every intersection decision with the
    // same datapath arithmetic, so their hits agree bit-for-bit.
    sim::EngineConfig ca;
    ca.batch_size = 30;
    ca.threads = 2;
    sim::EngineReport cycle = sim::Engine(ca).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(cycle.hits[i], ref.hits[i])) << i;
}

TEST(SimEngine, HitsMatchUnshardedSingleUnit)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 16);

    // The unsharded reference: every ray through one RtUnit instance
    // (a single batch on a single worker).
    sim::EngineConfig one;
    one.threads = 1;
    one.batch_size = 0;
    sim::EngineReport ref = sim::Engine(one).run(bvh, rays);
    ASSERT_EQ(ref.batches, 1u);

    sim::EngineConfig cfg;
    cfg.threads = 4;
    cfg.batch_size = 37;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    // Work counters that do not depend on batch interleaving also
    // agree; cycle counts legitimately differ with the batch layout.
    EXPECT_EQ(rep.unit.rays_completed, ref.unit.rays_completed);
    EXPECT_EQ(rep.unit.datapath_beats, ref.unit.datapath_beats);
}

TEST(SimEngine, BatchLayoutDoesNotChangeHits)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 8);

    sim::EngineConfig cfg;
    cfg.threads = 2;
    cfg.batch_size = 1; // one ray per batch
    sim::EngineReport one = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(one.batches, rays.size());

    cfg.batch_size = 0; // the whole workload in a single batch
    sim::EngineReport all = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(all.batches, 1u);
    ASSERT_EQ(all.threads_used, 1u); // never more workers than batches

    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(one.hits[i], all.hits[i])) << i;
}

TEST(SimEngine, EmptyWorkload)
{
    Bvh4 bvh = testScene();
    sim::EngineReport rep = sim::Engine().run(bvh, {});
    EXPECT_TRUE(rep.hits.empty());
    EXPECT_EQ(rep.batches, 0u);
    EXPECT_EQ(rep.threads_used, 0u);
    EXPECT_EQ(rep.unit, RtUnitStats{});
    EXPECT_EQ(rep.raysPerSecond(), 0.0);
}

TEST(SimEngine, BatchSizeLargerThanWorkload)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0);

    sim::EngineConfig cfg;
    cfg.batch_size = 1u << 20; // far larger than the ray count
    cfg.threads = 8;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(rep.batches, 1u);
    ASSERT_EQ(rep.threads_used, 1u);
    ASSERT_EQ(rep.unit.rays_completed, rays.size());

    Traverser ref(bvh);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.closestHit(rays[i])))
            << i;
}

TEST(SimEngine, AnyHitMode)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::Functional;
    cfg.batch_size = 40;
    cfg.threads = 1;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays, true);

    // A hit exists inside the extent iff closest-hit finds one. (Beat
    // counts are not compared: any-hit usually issues fewer, but with
    // no best-hit pruning that is scene-dependent, not an invariant.)
    sim::EngineReport full = sim::Engine(cfg).run(bvh, rays);
    size_t n_hit = 0;
    for (size_t i = 0; i < rays.size(); ++i) {
        EXPECT_EQ(ref.hits[i].hit, full.hits[i].hit) << i;
        n_hit += ref.hits[i].hit;
    }
    ASSERT_GT(n_hit, 0u);

    // Determinism holds in any-hit mode too.
    cfg.threads = 4;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays, true);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    EXPECT_EQ(rep.traversal, ref.traversal);

    // Shadow batches report stack depth too: anyHit records the
    // max_stack high-water mark exactly like closestHit.
    ASSERT_GT(ref.traversal.max_stack, 0u);

    // The cycle-level RT unit models any-hit traversal as well
    // (TraversalMode::Any): occlusion flags and the reduced records
    // (only the hit flag set) agree with the functional model
    // bit-for-bit.
    sim::EngineConfig ca;
    ca.batch_size = 40;
    ca.threads = 2;
    sim::EngineReport cyc = sim::Engine(ca).run(bvh, rays, true);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(cyc.hits[i], ref.hits[i])) << i;
    EXPECT_GT(cyc.unit.cycles, 0u);
}

/** Runs `run`, which must throw the batch runner's hang error: a
 *  std::runtime_error naming max_cycles_per_batch, the unit count,
 *  the batch's item count and how many of its items are unfinished. */
template <class Run>
void
expectBatchHang(Run run, unsigned units, size_t items, size_t unfinished)
{
    try {
        run();
        ADD_FAILURE() << "no exception for a hung batch";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("max_cycles_per_batch"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(std::to_string(units) + " unit"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(std::to_string(items) + " items"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(std::to_string(unfinished) +
                           " item(s) unfinished"),
                  std::string::npos)
            << msg;
    }
}

TEST(SimEngine, MaxCyclesExceptionPropagatesFromWorkerThreads)
{
    // A cycle budget no batch can meet: the std::runtime_error thrown
    // inside a worker thread must surface from Engine::run, not crash
    // or deadlock the pool. (The functional/invalid-argument path used
    // to be the only exception test; this covers the multi-threaded
    // cycle-accurate one.)
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig cfg;
    cfg.threads = 4;
    cfg.batch_size = 8; // 4 batches for 32 rays: all 4 workers draft
    cfg.max_cycles_per_batch = 10;
    sim::Engine engine(cfg);
    expectBatchHang([&] { engine.run(bvh, rays); }, 1, 8, 8);
    // The persistent worker pool survives a failed run and serves the
    // next one.
    expectBatchHang([&] { engine.run(bvh, rays); }, 1, 8, 8);

    // A cap some items can meet: the message counts only the items
    // still unfinished when it ran out.
    sim::EngineConfig part;
    part.threads = 1;
    part.batch_size = 0;
    part.max_cycles_per_batch = 800;
    expectBatchHang([&] { sim::Engine(part).run(bvh, rays); }, 1, 288,
                    253);

    // Every cycle-accurate batch goes through the same runner, so a
    // 4-unit shared-L2 chip and a k-NN batch hang the same way.
    sim::EngineConfig chip = cfg;
    chip.rt.mem_backend = MemBackend::NodeCache;
    chip.chip.units = 4;
    chip.chip.l2 = sim::L2Mode::Shared;
    expectBatchHang([&] { sim::Engine(chip).run(bvh, rays); }, 4, 8, 8);

    const KnnIndex index = buildKnnIndex(makePointCloud(200, 8, 4, 5));
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(16, 8, 4, 6))
        queries.push_back({std::move(p.coords), 4, KnnMetric::Euclidean});
    sim::EngineConfig knn = cfg;
    knn.dp = core::kExtendedUnified;
    expectBatchHang([&] { sim::Engine(knn).runKnn(index, queries); }, 1,
                    8, 8);
}

TEST(SimEngine, LivelockingKnobsFailAtConstruction)
{
    // A scalar unit with no ray-buffer entries could only spin until
    // max_cycles_per_batch. RtUnitConfig::normalized() rejects it when
    // the unit is built, naming the knob, for rays and k-NN queries
    // alike.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0);
    const KnnIndex index = buildKnnIndex(makePointCloud(50, 8, 2, 5));
    core::RayFlexDatapath dp(core::kExtendedUnified);

    RtUnitConfig rt;
    rt.ray_buffer_entries = 0;
    try {
        RtUnit unit(bvh, dp.config(), rt);
        ADD_FAILURE() << "ray_buffer_entries = 0 was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("ray_buffer_entries"),
                  std::string::npos)
            << e.what();
    }
    // k-NN strips packets, so even a packet config cannot give a
    // zero-entry k-NN unit a slot.
    RtUnitConfig knn_rt = rt;
    knn_rt.packet.width = 8;
    EXPECT_THROW(RtUnit(index, dp.config(), knn_rt),
                 std::invalid_argument);

    sim::EngineConfig cfg;
    cfg.threads = 2;
    cfg.batch_size = 64;
    cfg.rt = rt;
    EXPECT_THROW(sim::Engine(cfg).run(bvh, rays), std::invalid_argument);

    // A packet slot stands in for `width` entries and always exists,
    // so a zero-entry packet unit still runs.
    sim::EngineConfig packets;
    packets.threads = 1;
    packets.rt.packet.width = 4;
    packets.rt.ray_buffer_entries = 0;
    EXPECT_EQ(sim::Engine(packets).run(bvh, rays).unit.rays_completed,
              rays.size());
}

TEST(SimEngine, CycleAccurateAnyHitMatchesFunctionalOn10kShadowRays)
{
    // Acceptance sweep: >= 10k random shadow-style rays (epsilon lower
    // bound, finite upper bound); the cycle-accurate and functional
    // any-hit paths must report identical occlusion flags.
    Bvh4 bvh = testScene();
    WorkloadGen gen(123);
    std::vector<Ray> rays;
    rays.reserve(10000);
    for (size_t i = 0; i < 10000; ++i) {
        Ray r = gen.ray(8.0f);
        rays.push_back(makeRay(
            fromBits(r.origin[0]), fromBits(r.origin[1]),
            fromBits(r.origin[2]), fromBits(r.dir[0]),
            fromBits(r.dir[1]), fromBits(r.dir[2]), 1e-3f, 30.0f));
    }

    sim::EngineConfig fcfg;
    fcfg.model = sim::ExecutionModel::Functional;
    fcfg.threads = 0; // all cores
    fcfg.batch_size = 512;
    sim::EngineReport fun = sim::Engine(fcfg).run(bvh, rays, true);

    sim::EngineConfig ccfg;
    ccfg.model = sim::ExecutionModel::CycleAccurate;
    ccfg.threads = 0;
    ccfg.batch_size = 512;
    sim::EngineReport cyc = sim::Engine(ccfg).run(bvh, rays, true);

    size_t occluded = 0;
    for (size_t i = 0; i < rays.size(); ++i) {
        ASSERT_EQ(cyc.hits[i].hit, fun.hits[i].hit) << "ray " << i;
        occluded += fun.hits[i].hit;
    }
    // The sweep exercises both outcomes.
    EXPECT_GT(occluded, 100u);
    EXPECT_GT(rays.size() - occluded, 100u);
    EXPECT_EQ(cyc.unit.rays_completed, rays.size());
}

TEST(SimEngine, EmptySceneMissesEverything)
{
    Bvh4 empty = buildBvh4({});
    std::vector<Ray> rays;
    WorkloadGen gen(5);
    for (int i = 0; i < 20; ++i)
        rays.push_back(gen.ray());
    sim::EngineConfig cfg;
    cfg.threads = 2;
    cfg.batch_size = 4;
    sim::EngineReport rep = sim::Engine(cfg).run(empty, rays);
    ASSERT_EQ(rep.unit.rays_completed, rays.size());
    for (const HitRecord &h : rep.hits)
        EXPECT_FALSE(h.hit);
}
