/**
 * @file
 * Multi-threaded engine throughput: host-side rays/second of the
 * sharded batch simulation engine (sim::Engine) across worker counts,
 * in both execution models, plus the sharding overhead of the
 * single-thread engine path against one unsharded executor batch, the
 * any-hit shadow batches the cycle-accurate RT unit can now time, and
 * the multi-pass scenario path (sim::renderPasses) on the persistent
 * worker pool, and the node-cache scene-size sweep: a fixed-size cache
 * against BVHs of growing triangle count, reporting the hit-rate and
 * per-ray memory-stall numbers the flat-latency memory model could not
 * distinguish across working-set sizes, and the packet-coherence
 * sweep: packet widths 1..16 on coherent primaries vs incoherent AO
 * fans, reporting the shared-fetch and occupancy numbers of the
 * wavefront scheduler (bvh/packet.hh), and the issue-width sweep:
 * rays/cycle per datapath issue width for scalar entries vs 8-wide
 * packets under a bounded MSHR file, the evidence that fetch sharing
 * turns into throughput once the datapath can spend it, and the
 * unit-scaling sweep: 1..16 lock-stepped RT units over one shared
 * banked L2 vs equal-total-capacity private L2s, the chip-level
 * saturation curve the multi-unit mode exists to draw, and the
 * streaming mix sweep: a large frame job sharing the machine with
 * staggered small probe jobs through sim::StreamingService, cross-job
 * batch packing vs the head-of-line-blocking baseline, reporting the
 * small jobs' simulated p50/p99 latency and the cross-job fetch-share
 * rate. The
 * thread-count sweep is the
 * scaling evidence for the engine: per-ray results are bit-identical at
 * every point (tests/test_sim_engine.cc), so every column of this
 * benchmark computes the same answer.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "sim/passes.hh"
#include "sim/stream.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;

namespace
{

const Bvh4 &
benchScene()
{
    static Bvh4 bvh = [] {
        auto tris = makeTerrain(20.0f, 32, 0.5f, 11);
        uint32_t id = uint32_t(tris.size());
        auto sphere = makeSphere({0, 2.0f, 0}, 2.0f, 16, 24, id);
        tris.insert(tris.end(), sphere.begin(), sphere.end());
        return buildBvh4(std::move(tris));
    }();
    return bvh;
}

std::vector<Ray>
benchRays(unsigned side)
{
    const Bvh4 &bvh = benchScene();
    Camera cam;
    Vec3 c = bvh.root_bounds.centre();
    Vec3 ext = bvh.root_bounds.hi - bvh.root_bounds.lo;
    cam.look_at = c;
    cam.eye = c + Vec3{0.4f * ext.x, 0.5f * ext.y, 1.3f * ext.z};
    cam.width = side;
    cam.height = side;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < side; ++y)
        for (unsigned x = 0; x < side; ++x)
            rays.push_back(cam.primaryRay(x, y, 1000.0f));
    return rays;
}

} // namespace

static void
BM_EngineCycleAccurate(benchmark::State &state)
{
    const Bvh4 &bvh = benchScene();
    auto rays = benchRays(24);
    sim::EngineConfig cfg;
    cfg.threads = unsigned(state.range(0));
    cfg.batch_size = 64;
    for (auto _ : state) {
        auto rep = sim::Engine(cfg).run(bvh, rays);
        benchmark::DoNotOptimize(rep.unit.cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
    state.counters["rays/s"] = benchmark::Counter(
        double(state.iterations()) * double(rays.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineCycleAccurate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void
BM_EngineFunctional(benchmark::State &state)
{
    const Bvh4 &bvh = benchScene();
    auto rays = benchRays(48);
    sim::EngineConfig cfg;
    cfg.threads = unsigned(state.range(0));
    cfg.batch_size = 256;
    cfg.model = sim::ExecutionModel::Functional;
    for (auto _ : state) {
        auto rep = sim::Engine(cfg).run(bvh, rays);
        benchmark::DoNotOptimize(rep.traversal.box_ops);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
    state.counters["rays/s"] = benchmark::Counter(
        double(state.iterations()) * double(rays.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineFunctional)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void
BM_SingleUnitBaseline(benchmark::State &state)
{
    // The unsharded path the engine replaces: one executor batch of
    // every ray on one fresh unit, no engine. Comparing against
    // BM_EngineCycleAccurate/1 isolates the engine's sharding
    // overhead.
    const Bvh4 &bvh = benchScene();
    auto rays = benchRays(24);
    std::vector<HitRecord> hits(rays.size());
    std::vector<sim::BatchRayRef> refs(rays.size());
    for (size_t i = 0; i < rays.size(); ++i)
        refs[i] = {&rays[i], &hits[i]};
    const sim::BatchExecutor exec(bvh, sim::ExecutorConfig{});
    for (auto _ : state) {
        sim::BatchResult res =
            exec.executeBatch(refs.data(), refs.size(), false);
        benchmark::DoNotOptimize(res.unit.cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
    state.counters["rays/s"] = benchmark::Counter(
        double(state.iterations()) * double(rays.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleUnitBaseline)->Unit(benchmark::kMillisecond);

namespace
{

/** Shadow-style rays: random scene points aimed at the light, with the
 *  epsilon lower extent bound every occlusion batch carries. */
std::vector<Ray>
shadowRays(size_t n)
{
    WorkloadGen gen(29);
    std::vector<Ray> rays;
    rays.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        float x = gen.uniform(-9.0f, 9.0f);
        float y = gen.uniform(-9.0f, 9.0f);
        float z = gen.uniform(-9.0f, 9.0f);
        rays.push_back(RayGen::shadowRay({x, y, z}, {0, 1, 0},
                                         {0.5f, 1.0f, 0.3f}, 1e-3f,
                                         50.0f));
    }
    return rays;
}

} // namespace

static void
BM_ShadowAnyHitCycleAccurate(benchmark::State &state)
{
    // Occlusion batches through the cycle-level RT unit
    // (TraversalMode::Any): the quantity that was impossible to time
    // before any-hit reached the cycle-accurate model.
    const Bvh4 &bvh = benchScene();
    auto rays = shadowRays(1024);
    sim::EngineConfig cfg;
    cfg.threads = unsigned(state.range(0));
    cfg.batch_size = 128;
    sim::Engine engine(cfg); // pool outlives the timing loop
    for (auto _ : state) {
        auto rep = engine.run(bvh, rays, true);
        benchmark::DoNotOptimize(rep.unit.cycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
    state.counters["rays/s"] = benchmark::Counter(
        double(state.iterations()) * double(rays.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShadowAnyHitCycleAccurate)
    ->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void
BM_RenderPassesFunctional(benchmark::State &state)
{
    // The full multi-pass scenario (primary + shadow + AO + bounce) on
    // one engine: every pass after the first reuses the persistent
    // worker pool, so this measures the subsystem end to end.
    const Bvh4 &bvh = benchScene();
    sim::PassConfig pcfg;
    pcfg.camera.eye = {6.0f, 8.0f, 14.0f};
    pcfg.camera.look_at = {0.0f, 1.0f, 0.0f};
    pcfg.camera.width = 40;
    pcfg.camera.height = 30;
    pcfg.ao_samples = 4;
    pcfg.ao_radius = 3.0f;
    pcfg.bounce = true;

    sim::EngineConfig ecfg;
    ecfg.threads = unsigned(state.range(0));
    ecfg.batch_size = 256;
    ecfg.model = sim::ExecutionModel::Functional;
    sim::Engine engine(ecfg);

    uint64_t rays = 0;
    for (auto _ : state) {
        auto rep = sim::renderPasses(engine, bvh, pcfg);
        rays = rep.total_rays;
        benchmark::DoNotOptimize(rep.traversal.box_ops);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays));
    state.counters["rays/s"] = benchmark::Counter(
        double(state.iterations()) * double(rays),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RenderPassesFunctional)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

namespace
{

/** Terrain BVH of parametric resolution, cached per argument so the
 *  timing loop never rebuilds scenes. */
const Bvh4 &
sweepScene(unsigned res)
{
    static std::map<unsigned, Bvh4> scenes;
    auto it = scenes.find(res);
    if (it == scenes.end())
        it = scenes
                 .emplace(res,
                          buildBvh4(makeTerrain(20.0f, res, 0.5f, 11)))
                 .first;
    return it->second;
}

} // namespace

static void
BM_NodeCacheSceneSweep(benchmark::State &state)
{
    // Scene-size sweep for the node-cache memory model: the same 4 KiB
    // probe cache against terrain BVHs of growing triangle count, one
    // fixed camera batch per scene. The flat fixed-latency model
    // charges every fetch alike, so its timing was blind to the
    // working set; with the cache the hit-rate falls monotonically as
    // the BVH outgrows the 4 KiB and cycles/ray grows with it
    // (tests/test_mem_model.cc pins both). stalls_per_ray responds to
    // the working set too but is not strictly monotone — issue-slot
    // accounting interacts with fetch overlap. Scene, camera and
    // engine setup mirror HitRateFallsAsSceneOutgrowsCache in
    // tests/test_mem_model.cc; retune them together.
    const unsigned res = unsigned(state.range(0));
    const Bvh4 &bvh = sweepScene(res);

    Camera cam;
    cam.look_at = bvh.root_bounds.centre();
    cam.eye = {6.0f, 10.0f, 18.0f};
    cam.width = 24;
    cam.height = 24;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < cam.height; ++y)
        for (unsigned x = 0; x < cam.width; ++x)
            rays.push_back(cam.primaryRay(x, y, 1000.0f));

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 0; // one batch: one cache serves the whole sweep
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;

    sim::EngineReport rep;
    for (auto _ : state) {
        rep = sim::Engine(cfg).run(bvh, rays);
        benchmark::DoNotOptimize(rep.unit.cycles);
    }

    const uint64_t node_bytes =
        uint64_t(bvh.nodes.size()) * kNodeStrideBytes;
    state.counters["bvh_nodes"] = double(bvh.nodes.size());
    state.counters["working_set_KiB"] =
        double(node_bytes +
               uint64_t(bvh.tris.size()) * kTriStrideBytes) /
        1024.0;
    state.counters["cache_hit_rate"] = rep.unit.mem.hitRate();
    state.counters["stalls_per_ray"] =
        double(rep.unit.stallOnMemory()) / double(rays.size());
    state.counters["cycles_per_ray"] =
        double(rep.unit.cycles) / double(rays.size());
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
}
BENCHMARK(BM_NodeCacheSceneSweep)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

namespace
{

/** Incoherent occlusion workload: ambient-occlusion fans sprayed from
 *  random scene-space points. Rays in one fan share an origin but
 *  cover a hemisphere, so consecutive rays (which the RT unit groups
 *  into packets) rarely want the same subtree — the adversarial
 *  counterpart of the coherent camera batch. */
std::vector<Ray>
aoFanRays(size_t n_points, unsigned samples)
{
    WorkloadGen wgen(41);
    RayGen rgen(7);
    std::vector<Ray> rays;
    rays.reserve(n_points * samples);
    for (size_t i = 0; i < n_points; ++i) {
        float x = wgen.uniform(-8.0f, 8.0f);
        float z = wgen.uniform(-8.0f, 8.0f);
        float y = wgen.uniform(-1.0f, 3.0f);
        rgen.appendAoFan(rays, {x, y, z}, {0, 1, 0}, samples, 1e-3f,
                         6.0f);
    }
    return rays;
}

} // namespace

static void
BM_PacketCoherenceSweep(benchmark::State &state)
{
    // The packet-traversal acceptance sweep: packet_width 1 -> 16 on a
    // coherent primary-camera batch vs an incoherent AO-fan batch,
    // both against the 4 KiB probe cache. The sweep is iso-slot: every
    // width gets 32 wavefront scheduler slots (one W-wide packet slot
    // stands in for W scalar entries, as a warp does), so widths are
    // compared at equal context count rather than starving wide
    // packets of latency hiding. On coherent primaries,
    // mem_requests/ray must FALL monotonically with the width (each
    // shared fetch replaces what scalar paid per ray — the acceptance
    // signal tests/test_packet.cc also pins); rays/cycle is capped
    // near 1/(beats per ray) by the single-beat datapath, which scalar
    // already nearly saturates, so it moves little on coherent rays
    // and degrades on the incoherent fans where divergence collapses
    // occupancy — the gap between the two arg rows is the coherence
    // signal this benchmark exists to report. Hits are bit-identical
    // at every width (tests/test_packet.cc).
    const unsigned width = unsigned(state.range(0));
    const bool coherent = state.range(1) != 0;
    const Bvh4 &bvh = benchScene();
    const std::vector<Ray> rays =
        coherent ? benchRays(32) : aoFanRays(128, 8);

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 0; // one batch: one cache serves the whole sweep
    cfg.rt.ray_buffer_entries = 32 * width; // iso-slot: 32 wavefronts
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.packet.width = width;

    sim::EngineReport rep;
    for (auto _ : state) {
        rep = sim::Engine(cfg).run(bvh, rays);
        benchmark::DoNotOptimize(rep.unit.cycles);
    }

    const double n = double(rays.size());
    state.counters["mem_requests_per_ray"] =
        double(rep.unit.mem_requests) / n;
    state.counters["fetches_shared_per_ray"] =
        double(rep.unit.packet.fetches_shared) / n;
    state.counters["rays_per_kcycle"] =
        1000.0 * n / double(rep.unit.cycles);
    state.counters["cycles_per_ray"] = double(rep.unit.cycles) / n;
    state.counters["avg_occupancy"] = rep.unit.packet.avgOccupancy();
    state.counters["cache_hit_rate"] = rep.unit.mem.hitRate();
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
}
BENCHMARK(BM_PacketCoherenceSweep)
    ->ArgNames({"width", "coherent"})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({16, 1})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({8, 0})
    ->Args({16, 0})
    ->Unit(benchmark::kMillisecond);

static void
BM_IssueWidthSweep(benchmark::State &state)
{
    // The multi-issue acceptance sweep: issue_width 1 -> 8 against
    // scalar entries and 8-wide packets, coherent primaries vs
    // incoherent AO fans, all with the 4 KiB probe cache, a bounded
    // 8-entry MSHR file, and occupancy compaction at half width on
    // the divergent (incoherent) rows. The
    // packet coherence sweep showed mem_requests/ray falling ~4x with
    // the packet width while rays/cycle stayed flat — the single-beat
    // datapath capped throughput near 1/(beats per ray), so the saved
    // bandwidth could not be spent. Widening the issue datapath is
    // what spends it: on coherent primaries, rays_per_kcycle must RISE
    // monotonically with issue_width for the 8-wide packet rows (each
    // shared fetch feeds up to issue_width member beats per cycle;
    // tests/test_issue_width.cc pins the monotonicity), while the
    // scalar rows plateau after issue 2 — and under this deliberately
    // tight 8-entry MSHR file the packet rows sit ABOVE the scalar
    // ones at every issue width, at roughly half the memory requests
    // per ray: one shared fetch covers a whole active mask, so a
    // bounded outstanding-request budget goes much further per packet
    // than per scalar entry. (With a generous file — 16+ entries —
    // scalar catches back up by merging duplicate fetches across
    // slots; the bounded file is the regime this sweep reports.) Hits
    // are bit-identical to scalar at every point.
    const unsigned issue = unsigned(state.range(0));
    const unsigned width = unsigned(state.range(1));
    const bool coherent = state.range(2) != 0;
    const Bvh4 &bvh = benchScene();
    const std::vector<Ray> rays =
        coherent ? benchRays(32) : aoFanRays(128, 8);

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 0; // one batch: one L1 serves the whole sweep
    cfg.rt.ray_buffer_entries = 32 * width; // iso-slot: 32 wavefronts
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.packet.width = width;
    cfg.rt.issue_width = issue;
    cfg.rt.mshrs = 8;
    // Compaction only where divergence motivates it: coherent
    // primaries barely thin their packets, so the repacking window
    // would add fetch-boundary latency for nothing there.
    if (width > 1 && !coherent)
        cfg.rt.packet.compact_below = width / 2;

    sim::EngineReport rep;
    for (auto _ : state) {
        rep = sim::Engine(cfg).run(bvh, rays);
        benchmark::DoNotOptimize(rep.unit.cycles);
    }

    const double n = double(rays.size());
    state.counters["rays_per_kcycle"] =
        1000.0 * n / double(rep.unit.cycles);
    state.counters["cycles_per_ray"] = double(rep.unit.cycles) / n;
    state.counters["mem_requests_per_ray"] =
        double(rep.unit.mem_requests) / n;
    state.counters["beats_per_cycle"] = rep.unit.utilization();
    state.counters["mshr_merges_per_ray"] =
        double(rep.unit.mshr.merges) / n;
    state.counters["mshr_stalls_per_ray"] =
        double(rep.unit.mshr.stalls_full) / n;
    state.counters["avg_occupancy"] = rep.unit.packet.avgOccupancy();
    state.counters["compactions"] =
        double(rep.unit.packet.compactions);
    // Top-down issue-slot attribution (obs::SlotAccounting): where the
    // non-issued slots went, so a regression here can say WHICH
    // bottleneck moved — bench_compare.py gates stall_mem_slots_per_ray.
    const obs::SlotAccounting &sl = rep.unit.slots;
    state.counters["issued_slots_per_ray"] =
        double(sl[obs::Slot::Issued]) / n;
    state.counters["stall_mem_slots_per_ray"] =
        double(sl.memoryStallSlots()) / n;
    state.counters["stall_mshr_slots_per_ray"] =
        double(sl[obs::Slot::StallMshrFull]) / n;
    state.counters["stall_drain_slots_per_ray"] =
        double(sl[obs::Slot::StallDrain]) / n;
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
}
BENCHMARK(BM_IssueWidthSweep)
    ->ArgNames({"issue", "width", "coherent"})
    ->Args({1, 8, 1})->Args({2, 8, 1})->Args({4, 8, 1})
    ->Args({8, 8, 1})
    ->Args({1, 1, 1})->Args({2, 1, 1})->Args({4, 1, 1})
    ->Args({8, 1, 1})
    ->Args({1, 8, 0})->Args({4, 8, 0})->Args({8, 8, 0})
    ->Unit(benchmark::kMillisecond);

static void
BM_UnitScalingSweep(benchmark::State &state)
{
    // The chip-scaling headline sweep: 1 -> 16 RT units stepping in
    // lock-step (sim::EngineConfig::chip) over ONE shared banked L2,
    // against per-unit PRIVATE L2s downsized to the same total
    // capacity (sets divided by the unit count). Every unit runs the
    // PR-4/5 configuration that made a single unit memory-efficient —
    // 8-wide packets, dual issue, a bounded MSHR file, the 4 KiB probe
    // L1 — so what this sweep adds is purely the chip question: how
    // does AGGREGATE rays/kcycle scale as units multiply on a fixed
    // memory system? Shared-L2 throughput must scale sub-linearly
    // (bank queues and ring hops are the contention the model exists
    // to price) but stay ABOVE the equal-capacity private baseline
    // from 4 units up: the shared array holds the working set once
    // instead of replicating a fragment per unit, and cross-unit
    // merges absorb duplicate DRAM fills that private L2s each pay
    // (cross_unit_merges_per_ray > 0 on this coherent camera batch is
    // an acceptance criterion tests/test_chip.cc also asserts). Hits
    // are bit-identical to the scalar engine at every point.
    const unsigned units = unsigned(state.range(0));
    const bool shared = state.range(1) != 0;
    const Bvh4 &bvh = benchScene();
    const std::vector<Ray> rays = benchRays(32);

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 0; // one batch: one chip serves the whole sweep
    cfg.rt.ray_buffer_entries = 32 * 8; // iso-slot: 32 wavefronts
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.packet.width = 8;
    cfg.rt.issue_width = 2;
    cfg.rt.mshrs = 8;
    cfg.chip.units = units;
    cfg.chip.l2 = shared ? sim::L2Mode::Shared : sim::L2Mode::Private;
    // iso-capacity: split the shared geometry evenly across units
    // (throws rather than truncate, so the baseline stays honest)
    cfg.chip.l2cfg = shared ? kProbeL2_128KiB
                            : kProbeL2_128KiB.dividedAcross(units);

    sim::EngineReport rep;
    for (auto _ : state) {
        rep = sim::Engine(cfg).run(bvh, rays);
        benchmark::DoNotOptimize(rep.unit.chip_cycles);
    }

    const double n = double(rays.size());
    const L2Stats l2 = rep.unit.l2Total();
    state.counters["rays_per_kcycle"] =
        1000.0 * n / double(rep.unit.chip_cycles);
    state.counters["cycles_per_ray"] =
        double(rep.unit.chip_cycles) / n;
    state.counters["l2_hit_rate"] = l2.hitRate();
    state.counters["cross_unit_merges_per_ray"] =
        double(l2.cross_unit_merges) / n;
    state.counters["l2_queue_stalls_per_ray"] =
        double(l2.queue_stalls) / n;
    state.counters["hops_per_ray"] = double(l2.hops) / n;
    state.counters["l1_hit_rate"] = rep.unit.mem.hitRate();
    // Top-down issue-slot attribution, summed over the chip's units:
    // splits the memory wait into L1-fill vs ring vs bank-queue vs
    // L2-service slots — exactly the distinction the flat
    // l2_queue_stalls counter cannot make.
    const obs::SlotAccounting &sl = rep.unit.slots;
    state.counters["issued_slots_per_ray"] =
        double(sl[obs::Slot::Issued]) / n;
    state.counters["stall_mem_slots_per_ray"] =
        double(sl.memoryStallSlots()) / n;
    state.counters["stall_ring_slots_per_ray"] =
        double(sl[obs::Slot::StallRingHop]) / n;
    state.counters["stall_bankq_slots_per_ray"] =
        double(sl[obs::Slot::StallL2BankQueue]) / n;
    state.counters["stall_l2fill_slots_per_ray"] =
        double(sl[obs::Slot::StallL2Fill]) / n;
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
}
BENCHMARK(BM_UnitScalingSweep)
    ->ArgNames({"units", "shared"})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({16, 1})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({8, 0})
    ->Args({16, 0})
    ->Unit(benchmark::kMillisecond);

static void
BM_StreamingMixSweep(benchmark::State &state)
{
    // The streaming-service headline sweep: one large coherent frame
    // job (32x32 primaries, arrival 0) sharing the machine with
    // 1..8 small probe jobs (8x8 primaries) arriving staggered while
    // the frame is in flight, with cross-job batch packing ON vs OFF
    // (OFF = the head-of-line-blocking baseline: the scheduler serves
    // the frame to exhaustion before any probe sees the machine). The
    // packing rows must show the small jobs' p50/p99 SIMULATED latency
    // dropping by roughly the frame's remaining-drain time while
    // cross_job_share_rate > 0 evidences that the win comes from
    // probe rays riding the frame's packets — at identical hit
    // records and near-identical aggregate cycles_per_ray (packing
    // reshuffles batch composition, not the work). All latencies are
    // simulated cycles, so every counter here is bit-deterministic
    // and gated tightly by bench_compare.py in CI.
    const unsigned clients = unsigned(state.range(0));
    const bool packing = state.range(1) != 0;
    const Bvh4 &bvh = benchScene();
    const std::vector<Ray> frame = benchRays(32);
    const std::vector<Ray> probe = benchRays(8);

    sim::EngineConfig ecfg;
    ecfg.threads = 1;
    ecfg.rt.ray_buffer_entries = 32 * 8; // iso-slot: 32 wavefronts
    ecfg.rt.mem_backend = MemBackend::NodeCache;
    ecfg.rt.cache = kProbeCache4KiB;
    ecfg.rt.packet.width = 8;
    ecfg.rt.issue_width = 2;
    ecfg.rt.mshrs = 8;
    const sim::Engine engine(ecfg);

    sim::StreamConfig scfg;
    scfg.batch_size = 64;
    scfg.cross_job_packing = packing;

    sim::StreamReport rep;
    for (auto _ : state) {
        std::vector<sim::RenderJob> jobs;
        jobs.push_back({0, 0, false, frame});
        for (unsigned c = 1; c <= clients; ++c)
            jobs.push_back({c, 400ull * c, false, probe});
        rep = sim::StreamingService::run(engine, bvh, std::move(jobs),
                                         scfg);
        benchmark::DoNotOptimize(rep.makespan_ticks);
    }

    std::vector<uint64_t> lat;
    for (const sim::JobReport &j : rep.jobs)
        if (j.id != 0)
            lat.push_back(j.latency);
    std::sort(lat.begin(), lat.end());
    const double n = double(rep.total_rays);
    state.counters["cycles_per_ray"] = double(rep.unit.cycles) / n;
    state.counters["rays_per_kcycle"] =
        1000.0 * n / double(rep.unit.cycles);
    state.counters["small_p50_latency"] =
        lat.empty() ? 0.0 : double(lat[(lat.size() - 1) / 2]);
    state.counters["small_p99_latency"] =
        lat.empty() ? 0.0 : double(lat.back());
    state.counters["frame_latency"] = double(rep.job(0)->latency);
    state.counters["makespan_kticks"] =
        double(rep.makespan_ticks) / 1000.0;
    state.counters["cross_job_share_rate"] = rep.crossJobShareRate();
    state.counters["fairness"] = rep.fairness;
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rep.total_rays));
}
BENCHMARK(BM_StreamingMixSweep)
    ->ArgNames({"clients", "packing"})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({8, 0})
    ->Unit(benchmark::kMillisecond);
