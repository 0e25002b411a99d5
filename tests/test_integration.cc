/**
 * @file
 * End-to-end integration tests: the whole stack (scene generation, BVH
 * build, datapath-driven traversal, pipelined RT unit) composed the way
 * the examples use it, including a deterministic image-regression check
 * and a long mixed-traffic soak of the pipelined datapath under random
 * stalls.
 */
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "bvh/builder.hh"
#include "bvh/rt_unit.hh"
#include "bvh/scene.hh"
#include "bvh/traversal.hh"
#include "core/datapath.hh"
#include "core/workloads.hh"
#include "pipeline/drivers.hh"
#include "sim/engine.hh"

using namespace rayflex::bvh;
using namespace rayflex::core;
using rayflex::fp::fromBits;

namespace
{

/** FNV-1a over arbitrary bytes. */
uint64_t
fnv1a(const void *data, size_t n, uint64_t h = 0xCBF29CE484222325ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace

TEST(Integration, RenderIsDeterministic)
{
    // Render a small frame twice through independent stacks; hit masks,
    // triangle ids and distances must agree bit for bit. All arithmetic
    // is IEEE FP32, so this is exact, machine-independent determinism.
    auto render = [](uint64_t &hash) {
        auto tris = makeSphere({0, 1.0f, 0}, 1.5f, 12, 16);
        auto terr = makeTerrain(8.0f, 16, 0.3f, 3,
                                uint32_t(tris.size()));
        tris.insert(tris.end(), terr.begin(), terr.end());
        Bvh4 bvh = buildBvh4(tris);
        Traverser trav(bvh);

        Camera cam;
        cam.eye = {4, 4, 6};
        cam.look_at = {0, 0.5f, 0};
        cam.width = cam.height = 32;

        hash = 0xCBF29CE484222325ull;
        size_t hits = 0;
        for (unsigned y = 0; y < cam.height; ++y) {
            for (unsigned x = 0; x < cam.width; ++x) {
                HitRecord h = trav.closestHit(
                    cam.primaryRay(x, y, 100.0f));
                hits += h.hit ? 1 : 0;
                hash = fnv1a(&h.hit, sizeof(h.hit), hash);
                if (h.hit) {
                    hash = fnv1a(&h.triangle_id, sizeof(h.triangle_id),
                                 hash);
                    hash = fnv1a(&h.t, sizeof(h.t), hash);
                }
            }
        }
        return hits;
    };
    uint64_t h1 = 0, h2 = 0;
    size_t hits1 = render(h1);
    size_t hits2 = render(h2);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(hits1, hits2);
    // The frame actually contains geometry.
    EXPECT_GT(hits1, 100u);
    EXPECT_LT(hits1, 32u * 32u);
}

TEST(Integration, RtUnitAgreesWithTraverserOnRealScene)
{
    auto tris = makeTorus({0, 0, 0}, 2.5f, 0.8f, 20, 14);
    Bvh4 bvh = buildBvh4(tris);
    Traverser ref(bvh);

    rayflex::sim::EngineConfig cfg; // one fresh unit, one batch
    cfg.threads = 1;
    cfg.batch_size = 0;
    cfg.dp = kExtendedUnified; // extended also runs box/tri
    cfg.rt.ray_buffer_entries = 8;
    cfg.rt.mem_latency = 7;

    Camera cam;
    cam.eye = {5, 4, 6};
    cam.look_at = {0, 0, 0};
    cam.width = cam.height = 16;
    std::vector<rayflex::core::Ray> rays;
    for (unsigned y = 0; y < cam.height; ++y)
        for (unsigned x = 0; x < cam.width; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));
    rayflex::sim::EngineReport rep = rayflex::sim::Engine(cfg).run(bvh, rays);
    const RtUnitStats &st = rep.unit;
    EXPECT_EQ(st.rays_completed, rays.size());
    // The unit's timing is pinned: cycles, beats and every slot bucket.
    EXPECT_EQ(st.cycles, 3971u);
    EXPECT_EQ(st.datapath_beats, 1900u);
    const std::array<uint64_t, rayflex::obs::kSlotBuckets> slots = {
        1900, 1875, 0, 0, 0, 0, 195, 1};
    EXPECT_EQ(st.slots.buckets, slots);

    for (uint32_t i = 0; i < rays.size(); ++i) {
        HitRecord want = ref.closestHit(rays[i]);
        const HitRecord &got = rep.hits[i];
        ASSERT_EQ(got.hit, want.hit) << "ray " << i;
        if (want.hit) {
            ASSERT_EQ(got.triangle_id, want.triangle_id) << "ray " << i;
            ASSERT_FLOAT_EQ(got.t, want.t);
        }
    }
}

TEST(Integration, MixedTrafficSoakUnderRandomStalls)
{
    // A long mixed stream (all four opcodes, multi-beat distance jobs
    // interleaved with intersection work) through the pipelined model
    // with random producer bubbles and consumer back-pressure; results
    // must equal the functional model beat for beat.
    RayFlexDatapath dp(kExtendedUnified);
    rayflex::pipeline::Simulator sim;
    auto pattern = [](uint64_t seed) {
        return [seed](uint64_t cycle) {
            uint64_t h = (cycle + seed) * 0x9E3779B97F4A7C15ull;
            return (h >> 33) % 100 < 70;
        };
    };
    rayflex::pipeline::Source<DatapathInput> src("src", &dp.in(),
                                                 pattern(1));
    rayflex::pipeline::Sink<DatapathOutput> sink("sink", &dp.out(),
                                                 pattern(2));
    dp.registerWith(sim);
    sim.add(&src);
    sim.add(&sink);

    WorkloadGen gen(0x50AF);
    std::vector<DatapathInput> inputs;
    for (int i = 0; i < 5000; ++i) {
        switch (gen.engine()() % 6) {
          case 0:
          case 1:
            inputs.push_back(gen.rayBoxOp(uint64_t(i)));
            break;
          case 2:
          case 3:
            inputs.push_back(gen.rayTriangleOp(uint64_t(i)));
            break;
          case 4:
            inputs.push_back(
                gen.euclideanOp((gen.engine()() & 3) == 0, uint64_t(i)));
            break;
          default:
            inputs.push_back(
                gen.cosineOp((gen.engine()() & 3) == 0, uint64_t(i)));
            break;
        }
        src.push(inputs.back());
    }
    ASSERT_TRUE(sim.runUntil(
        [&] { return sink.count() == inputs.size(); }, 200000));

    DistanceAccumulators acc;
    for (size_t i = 0; i < inputs.size(); ++i) {
        DatapathOutput fn = functionalEval(inputs[i], acc);
        const DatapathOutput &hw = sink.received()[i];
        ASSERT_EQ(hw.tag, inputs[i].tag);
        switch (inputs[i].op) {
          case Opcode::RayBox:
            for (int b = 0; b < 4; ++b)
                ASSERT_EQ(hw.box.hit[b], fn.box.hit[b]) << i;
            break;
          case Opcode::RayTriangle:
            ASSERT_EQ(hw.tri.hit, fn.tri.hit) << i;
            ASSERT_EQ(hw.tri.t_num, fn.tri.t_num) << i;
            break;
          case Opcode::Euclidean:
            ASSERT_EQ(hw.euclidean_accumulator,
                      fn.euclidean_accumulator)
                << i;
            ASSERT_EQ(hw.euclidean_reset, fn.euclidean_reset) << i;
            break;
          case Opcode::Cosine:
            ASSERT_EQ(hw.angular_dot_product, fn.angular_dot_product)
                << i;
            ASSERT_EQ(hw.angular_norm, fn.angular_norm) << i;
            break;
        }
    }

    // Stage statistics are consistent across the whole pipeline.
    for (const auto *st : dp.stages()) {
        EXPECT_EQ(st->stats().accepted, inputs.size()) << st->name();
        EXPECT_EQ(st->stats().delivered, inputs.size()) << st->name();
    }
}

TEST(Integration, ShadowRaysMatchOcclusionOracle)
{
    // anyHit (shadow rays) through the datapath vs a brute-force
    // occlusion check.
    auto tris = makeSoup(300, 5.0f, 1.2f, 21, 0);
    Bvh4 bvh = buildBvh4(tris);
    Traverser trav(bvh);
    std::mt19937_64 rng(4);
    std::uniform_real_distribution<float> p(-6.0f, 6.0f);
    for (int i = 0; i < 200; ++i) {
        float dx = p(rng), dy = p(rng), dz = p(rng);
        if (dx == 0 && dy == 0 && dz == 0)
            dx = 1;
        rayflex::core::Ray ray =
            makeRay(p(rng), p(rng), p(rng), dx, dy, dz, 0.0f, 50.0f);
        bool any = trav.anyHit(ray);
        bool oracle = trav.bruteForceClosest(ray).hit;
        ASSERT_EQ(any, oracle) << "ray " << i;
    }
}
