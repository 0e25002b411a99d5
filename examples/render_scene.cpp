/**
 * @file
 * Render a procedural scene through the RayFlex datapath.
 *
 * The graphics workload from the paper's introduction: primary rays
 * from a pinhole camera traverse a 4-wide BVH; every intersection
 * decision (ray-box and ray-triangle) is computed by the RayFlex
 * datapath model. Rendering is engine-driven and multi-pass through
 * sim::renderPasses: a closest-hit primary pass, an any-hit shadow
 * pass, and optionally an any-hit ambient-occlusion pass, all sharded
 * across the engine's persistent worker pool. Simple Lambertian
 * shading writes a PPM image, and the merged datapath-beat statistics
 * are reported - the quantity a hardware architect cares about. The
 * image is bit-identical for every value of [threads].
 *
 * Usage: render_scene [width] [height] [scene] [out.ppm] [threads] [ao]
 *                     [cache] [packet] [issue] [chip] [stream] [trace]
 *                     [cost]
 *   scene: sphere | torus | terrain | mixed (default mixed)
 *   threads: engine workers, 0 = all cores (default 0)
 *   ao: ambient-occlusion rays per hit pixel (default 0 = off)
 *   cache: 1 = after rendering, time the primary batch on the
 *          cycle-accurate engine twice - flat-latency memory vs a 4 KiB
 *          node cache - and report hit-rate, stalls and cycles/ray
 *          (default 0 = off; the image is unaffected)
 *   packet: W > 1 = after rendering, re-trace the primary batch
 *          cycle-accurately under the 4 KiB node cache twice - scalar
 *          vs W-wide ray packets (bvh/packet.hh) - and report
 *          occupancy, fetch sharing and memory requests per ray
 *          (default 0 = off; hits and image are unaffected - packets
 *          change timing and memory traffic, never hits)
 *   issue: N > 1 = after rendering, re-trace the primary batch
 *          cycle-accurately under the 4 KiB node cache and an 8-entry
 *          MSHR file at issue widths 1 and N (RtUnitConfig::
 *          issue_width), scalar and packetized (the packet width from
 *          [packet], default 8), and report cycles/ray, beats/cycle
 *          and MSHR merges/stalls - the multi-issue datapath turning
 *          packet fetch-sharing into throughput (default 0 = off;
 *          hits and image are unaffected)
 *   chip: N > 1 = after rendering, re-trace the primary batch on a
 *          multi-unit chip (sim::EngineConfig::chip): 1 vs N
 *          lock-stepped RT units behind a shared 128 KiB banked L2,
 *          and N units with equal-total-capacity PRIVATE L2s, and
 *          report rays/kcycle, L2 hit rate, cross-unit merges and
 *          bank-queue stalls - where throughput saturates on a shared
 *          memory system (default 0 = off; hits and image are
 *          unaffected)
 *   stream: 1 = after rendering, serve the primary batch through the
 *          streaming render service (sim::StreamingService): a large
 *          frame job racing four small staggered probe jobs, with
 *          cross-job batch packing on vs off (the head-of-line
 *          blocking baseline), and report the small jobs' simulated
 *          p50/p99 latency, the cross-job fetch-share rate and the
 *          Jain fairness index (default 0 = off; hits and image are
 *          unaffected)
 *   trace: PATH = after rendering, re-run the streaming workload (the
 *          frame job plus four staggered probe jobs) with event
 *          tracing on - two lock-stepped packetized RT units behind
 *          the shared banked 128 KiB L2 - and write the deterministic
 *          event trace as Chrome trace-event JSON to PATH, loadable in
 *          Perfetto / chrome://tracing (unit instant tracks, batch and
 *          job slices, counter tracks for packet occupancy, MSHR
 *          residency and per-bank L2 queue depth). A top-down
 *          issue-slot breakdown (obs::SlotAccounting) is printed
 *          alongside. Default off; hits and image are unaffected.
 *   cost: 1 = after rendering, re-trace the primary batch on the
 *          active probe configuration (the 4 KiB node cache plus
 *          whatever [packet]/[issue]/[chip] knobs were given) and
 *          price that chip through the component cost model
 *          (synth::ChipCostModel): area in mm^2, power in W energized
 *          by the run's own merged counters, and rays/kcycle/W — the
 *          paper's cost/benefit question asked of the exact
 *          configuration the other probes measure (default 0 = off;
 *          hits and image are unaffected)
 *
 * Every cycle-accurate probe row reports the same base counter set -
 * cycles/ray, memory-stall slots/ray, memory requests/ray - printed by
 * one shared helper (probeRow) so rows compare across probes, each
 * probe then adding its own specifics to the line.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bvh/builder.hh"
#include "bvh/scene.hh"
#include "obs/perfetto.hh"
#include "sim/passes.hh"
#include "sim/stream.hh"
#include "synth/chip_cost.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;

namespace
{

std::vector<SceneTriangle>
buildScene(const std::string &name)
{
    if (name == "sphere")
        return makeSphere({0, 0, 0}, 2.5f, 32, 48);
    if (name == "torus")
        return makeTorus({0, 0, 0}, 2.5f, 0.9f, 48, 32);
    if (name == "terrain")
        return makeTerrain(12.0f, 64, 0.7f, 3);
    // mixed: a sphere resting on a terrain patch with a torus around it
    auto tris = makeTerrain(14.0f, 48, 0.35f, 3);
    uint32_t id = uint32_t(tris.size());
    auto sphere = makeSphere({0, 2.0f, 0}, 1.6f, 24, 32, id);
    tris.insert(tris.end(), sphere.begin(), sphere.end());
    id = uint32_t(tris.size());
    auto torus = makeTorus({0, 2.0f, 0}, 3.2f, 0.45f, 40, 20, id);
    tris.insert(tris.end(), torus.begin(), torus.end());
    return tris;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned width = argc > 1 ? unsigned(atoi(argv[1])) : 160;
    unsigned height = argc > 2 ? unsigned(atoi(argv[2])) : 120;
    std::string scene_name = argc > 3 ? argv[3] : "mixed";
    std::string out_path = argc > 4 ? argv[4] : "render.ppm";
    unsigned threads = argc > 5 ? unsigned(atoi(argv[5])) : 0;
    unsigned ao_samples = argc > 6 ? unsigned(atoi(argv[6])) : 0;
    bool cache_probe = argc > 7 && atoi(argv[7]) != 0;
    unsigned packet_probe = argc > 8 ? unsigned(atoi(argv[8])) : 0;
    unsigned issue_probe = argc > 9 ? unsigned(atoi(argv[9])) : 0;
    unsigned chip_probe = argc > 10 ? unsigned(atoi(argv[10])) : 0;
    bool stream_probe = argc > 11 && atoi(argv[11]) != 0;
    std::string trace_path = argc > 12 ? argv[12] : "";
    bool cost_probe = argc > 13 && atoi(argv[13]) != 0;
    if (packet_probe > kMaxPacketWidth) {
        // The RT unit clamps internally; clamp here too so the probe
        // labels match the width that actually simulates.
        printf("packet probe: width %u clamped to %u\n", packet_probe,
               kMaxPacketWidth);
        packet_probe = kMaxPacketWidth;
    }
    if (issue_probe > kMaxIssueWidth) {
        printf("issue probe: width %u clamped to %u\n", issue_probe,
               kMaxIssueWidth);
        issue_probe = kMaxIssueWidth;
    }
    if (chip_probe > sim::kMaxChipUnits) {
        printf("chip probe: %u units clamped to %u\n", chip_probe,
               sim::kMaxChipUnits);
        chip_probe = sim::kMaxChipUnits;
    }

    auto tris = buildScene(scene_name);
    Bvh4 bvh = buildBvh4(tris);
    printf("scene '%s': %zu triangles, %zu wide nodes, depth %u\n",
           scene_name.c_str(), bvh.tris.size(), bvh.nodes.size(),
           bvh.depth());

    Vec3 c = bvh.root_bounds.centre();
    Vec3 ext = bvh.root_bounds.hi - bvh.root_bounds.lo;
    Vec3 eye = c + Vec3{0.8f * ext.x, 0.7f * ext.y, 1.1f * ext.z};

    sim::PassConfig pcfg;
    pcfg.camera.eye = {eye.x, eye.y, eye.z};
    pcfg.camera.look_at = {c.x, c.y, c.z};
    pcfg.camera.width = width;
    pcfg.camera.height = height;
    pcfg.t_max = 1000.0f;
    pcfg.light_dir = {0.5f, 1.0f, 0.3f};
    pcfg.ao_samples = ao_samples;
    pcfg.ao_radius = 0.25f * length(ext);

    sim::EngineConfig ecfg;
    ecfg.threads = threads;
    ecfg.batch_size = 2048;
    ecfg.model = sim::ExecutionModel::Functional;
    sim::Engine engine(ecfg);

    // All passes (primary closest-hit, shadow any-hit, optional AO
    // fans) through the engine's persistent worker pool.
    sim::PassesReport passes = sim::renderPasses(engine, bvh, pcfg);

    // ---- resolve to the image ----
    std::vector<unsigned char> img(size_t(width) * height * 3);
    size_t shaded = 0;
    for (unsigned y = 0; y < height; ++y) {
        for (unsigned x = 0; x < width; ++x) {
            size_t i = size_t(y) * width + x;
            const HitRecord &hit = passes.primary.hits[i];
            float r, g, b;
            if (!hit.hit) {
                // Sky gradient.
                float t = float(y) / float(height);
                r = 0.45f + 0.25f * t;
                g = 0.60f + 0.20f * t;
                b = 0.90f;
            } else {
                ++shaded;
                float shade =
                    0.15f * passes.ao_open[i] +
                    (passes.lit[i] ? 0.85f * passes.diffuse[i] : 0.0f);
                // Stable per-triangle albedo from the id.
                uint32_t h = hit.triangle_id * 2654435761u;
                r = shade * (0.4f + 0.6f * float((h >> 0) & 0xFF) / 255);
                g = shade * (0.4f + 0.6f * float((h >> 8) & 0xFF) / 255);
                b = shade * (0.4f + 0.6f * float((h >> 16) & 0xFF) / 255);
            }
            size_t idx = i * 3;
            img[idx + 0] = static_cast<unsigned char>(
                255.0f * std::min(1.0f, r));
            img[idx + 1] = static_cast<unsigned char>(
                255.0f * std::min(1.0f, g));
            img[idx + 2] = static_cast<unsigned char>(
                255.0f * std::min(1.0f, b));
        }
    }

    std::ofstream f(out_path, std::ios::binary);
    f << "P6\n" << width << " " << height << "\n255\n";
    f.write(reinterpret_cast<const char *>(img.data()),
            std::streamsize(img.size()));
    f.close();

    const TraversalStats &st = passes.traversal;
    uint64_t rays = passes.total_rays;
    double wall = passes.elapsed_seconds;
    printf("wrote %s (%ux%u), %zu/%u pixels shaded\n", out_path.c_str(),
           width, height, shaded, width * height);
    printf("engine: %u worker(s), %zu + %zu + %zu batches, %llu rays in "
           "%.3f s (%.0f rays/s host-side)\n",
           passes.primary.threads_used, passes.primary.batches,
           passes.shadow.batches, passes.ao.batches,
           (unsigned long long)rays, wall,
           wall > 0 ? double(rays) / wall : 0.0);
    printf("datapath work: %llu ray-box beats, %llu ray-triangle beats "
           "over %llu rays\n",
           (unsigned long long)st.box_ops,
           (unsigned long long)st.tri_ops, (unsigned long long)rays);
    printf("  %.1f box + %.1f triangle beats per ray; at 1 op/cycle and "
           "1455 MHz one datapath\n  sustains %.1f Mray/s on this "
           "scene\n",
           double(st.box_ops) / double(rays),
           double(st.tri_ops) / double(rays),
           1455.0 / (double(st.box_ops + st.tri_ops) / double(rays)));

    // Both probes re-trace the primary batch cycle-accurately; the
    // scalar run under the 4 KiB node cache is shared between them
    // (it is the "cached" row of the memory probe AND the scalar
    // baseline of the packet probe). Same rays, same hits - only the
    // fetch timing and memory traffic move.
    std::vector<Ray> primary;
    sim::EngineConfig ccfg;
    ccfg.threads = threads;
    ccfg.batch_size = 2048;
    ccfg.model = sim::ExecutionModel::CycleAccurate;
    sim::EngineConfig ncfg = ccfg;
    ncfg.rt.mem_backend = MemBackend::NodeCache;
    ncfg.rt.cache = kProbeCache4KiB;
    sim::EngineReport cached;
    if (cache_probe || packet_probe > 1 || issue_probe > 1 ||
        chip_probe > 1 || stream_probe || !trace_path.empty() ||
        cost_probe) {
        primary = RayGen::primaryRays(pcfg.camera, pcfg.t_max);
        cached = sim::Engine(ncfg).run(bvh, primary);
    }

    // The one shared probe-row printer: every cycle-accurate probe row
    // is "  <label>: <base counter set>" with the same three per-ray
    // numbers in the same order, so rows compare across the
    // cache/packet/issue/chip/stream probes. The row is left open
    // (no newline) for the probe to append its specifics.
    const auto probeRow = [](const std::string &label,
                             const RtUnitStats &u, double n) {
        printf("  %s: %.2f cycles/ray, %.2f mem-stall slots/ray, "
               "%.2f requests/ray",
               label.c_str(), double(u.cycles) / n,
               double(u.stallOnMemory()) / n,
               double(u.mem_requests) / n);
    };

    if (cache_probe) {
        const double n = double(primary.size());
        sim::EngineReport flat =
            sim::Engine(ccfg).run(bvh, primary);
        printf("memory probe (primary batch, cycle-accurate):\n");
        probeRow("flat " + std::to_string(ccfg.rt.mem_latency) +
                     "-cycle fetch",
                 flat.unit, n);
        printf("\n");
        probeRow("4 KiB node cache", cached.unit, n);
        printf(", %.1f%% hit rate (%llu hits / %llu misses / "
               "%llu evictions)\n",
               100.0 * cached.unit.mem.hitRate(),
               (unsigned long long)cached.unit.mem.hits,
               (unsigned long long)cached.unit.mem.misses,
               (unsigned long long)cached.unit.mem.evictions);
    }

    if (packet_probe > 1) {
        // Scalar (the shared `cached` report above) vs W-wide packets,
        // both against the 4 KiB node cache and at equal
        // wavefront-slot count (one W-wide packet slot stands in for W
        // scalar entries). Same rays, same hits - packets move only
        // the timing and the memory traffic.
        sim::EngineConfig pprobe = ncfg;
        pprobe.rt.packet.width = packet_probe;
        pprobe.rt.ray_buffer_entries *= packet_probe;
        sim::EngineReport packet =
            sim::Engine(pprobe).run(bvh, primary);

        const double n = double(primary.size());
        const PacketStats &ps = packet.unit.packet;
        printf("packet probe (primary batch, cycle-accurate, 4 KiB "
               "node cache):\n");
        probeRow("scalar", cached.unit, n);
        printf("\n");
        probeRow(std::to_string(packet_probe) + "-wide packets",
                 packet.unit, n);
        printf(" (%.2f fetches/ray shared)\n",
               double(ps.fetches_shared) / n);
        printf("  %llu packets, avg occupancy %.2f/%u per node visit "
               "(%.2f at retirement), %llu divergence splits\n",
               (unsigned long long)ps.packets_formed,
               ps.avgOccupancy(), packet_probe,
               ps.avgOccupancyAtRetire(),
               (unsigned long long)ps.divergence_splits);
    }

    if (issue_probe > 1) {
        // The multi-issue probe: the primary batch at issue widths 1
        // and N, scalar entries vs packets, all under the 4 KiB node
        // cache with a bounded 8-entry MSHR file and occupancy
        // compaction at half width. Same rays, same hits - the
        // issue_width knob moves only how fast the unit can spend the
        // bandwidth that packet fetch-sharing saves.
        const unsigned pw = packet_probe > 1 ? packet_probe : 8;
        const double n = double(primary.size());
        printf("issue probe (primary batch, cycle-accurate, 4 KiB "
               "node cache, 8 MSHRs):\n");
        for (bool packets : {false, true}) {
            for (unsigned iw : {1u, issue_probe}) {
                sim::EngineConfig icfg = ncfg;
                icfg.rt.mshrs = 8;
                icfg.rt.issue_width = iw;
                if (packets) {
                    icfg.rt.packet.width = pw;
                    icfg.rt.packet.compact_below = pw / 2;
                    icfg.rt.ray_buffer_entries *= pw;
                }
                sim::EngineReport rep =
                    sim::Engine(icfg).run(bvh, primary);
                probeRow(std::string(packets ? "packet" : "scalar") +
                             " issue " + std::to_string(iw),
                         rep.unit, n);
                printf(", %.2f beats/cycle, %llu MSHR merges, %llu "
                       "stalls-full\n",
                       rep.unit.utilization(),
                       (unsigned long long)rep.unit.mshr.merges,
                       (unsigned long long)rep.unit.mshr.stalls_full);
            }
        }
    }

    if (chip_probe > 1) {
        // The chip probe: the primary batch on 1 vs N lock-stepped RT
        // units over a shared 128 KiB banked L2, and N units with
        // private L2s downsized to the same total capacity. Each unit
        // runs the packetized configuration (the packet width from
        // [packet], default 8) under the 4 KiB L1. Same rays, same
        // hits - the chip knobs move only where the memory system
        // saturates. One batch per run so a single chip serves the
        // whole frame.
        const unsigned pw = packet_probe > 1 ? packet_probe : 8;
        const double n = double(primary.size());
        sim::EngineConfig chcfg = ncfg;
        chcfg.threads = 1;
        chcfg.batch_size = 0;
        chcfg.rt.packet.width = pw;
        chcfg.rt.ray_buffer_entries *= pw;
        chcfg.rt.mshrs = 8;
        chcfg.chip.l2cfg = kProbeL2_128KiB;

        struct Row
        {
            const char *label;
            unsigned units;
            sim::L2Mode l2;
        };
        const Row rows[] = {
            {"1 unit,  shared L2", 1, sim::L2Mode::Shared},
            {"N units, shared L2", chip_probe, sim::L2Mode::Shared},
            {"N units, private L2", chip_probe, sim::L2Mode::Private},
        };
        printf("chip probe (primary batch, cycle-accurate, %u units, "
               "4 KiB L1 + 128 KiB L2):\n",
               chip_probe);
        for (const Row &row : rows) {
            sim::EngineConfig rcfg = chcfg;
            rcfg.chip.units = row.units;
            rcfg.chip.l2 = row.l2;
            if (row.l2 == sim::L2Mode::Private)
                // Iso-capacity: split the shared geometry evenly.
                rcfg.chip.l2cfg =
                    kProbeL2_128KiB.dividedAcross(row.units);
            sim::EngineReport rep = sim::Engine(rcfg).run(bvh, primary);
            const L2Stats l2 = rep.unit.l2Total();
            probeRow(row.label, rep.unit, n);
            printf(", %.1f rays/kcycle, %.1f%% L2 hit rate, %.2f "
                   "cross-unit merges/ray, %.2f bank-queue stalls/ray\n",
                   1000.0 * n / double(rep.unit.chip_cycles),
                   100.0 * l2.hitRate(),
                   double(l2.cross_unit_merges) / n,
                   double(l2.queue_stalls) / n);
        }
    }

    if (stream_probe) {
        // The streaming probe: the primary batch as a large frame job
        // (arrival 0) racing four small probe jobs - the first 64
        // primaries resubmitted at staggered arrivals - through
        // sim::StreamingService, packetized under the 4 KiB node
        // cache. Packing ON lets probe rays ride the frame's shared
        // batches; OFF is the head-of-line-blocking baseline. Same
        // rays, same hits - the service moves only batch composition
        // and the simulated per-job timeline.
        const unsigned pw = packet_probe > 1 ? packet_probe : 8;
        sim::EngineConfig stcfg = ncfg;
        stcfg.rt.packet.width = pw;
        stcfg.rt.ray_buffer_entries *= pw;
        stcfg.rt.mshrs = 8;
        const sim::Engine streng(stcfg);
        const std::vector<Ray> small(
            primary.begin(),
            primary.begin() + std::min<size_t>(64, primary.size()));
        printf("stream probe (frame + 4 probe jobs, cycle-accurate, "
               "%u-wide packets, 4 KiB node cache):\n",
               pw);
        for (bool packing : {true, false}) {
            std::vector<sim::RenderJob> jobs;
            jobs.push_back({0, 0, false, primary});
            for (unsigned c = 1; c <= 4; ++c)
                jobs.push_back({c, 400ull * c, false, small});
            sim::StreamConfig scfg;
            scfg.batch_size = 256;
            scfg.cross_job_packing = packing;
            sim::StreamReport rep = sim::StreamingService::run(
                streng, bvh, std::move(jobs), scfg);
            uint64_t p50 = 0, p99 = 0;
            std::vector<uint64_t> lat;
            for (const sim::JobReport &j : rep.jobs)
                if (j.id != 0)
                    lat.push_back(j.latency);
            std::sort(lat.begin(), lat.end());
            if (!lat.empty()) {
                p50 = lat[(lat.size() - 1) / 2];
                p99 = lat.back();
            }
            probeRow(std::string("packing ") + (packing ? "on" : "off"),
                     rep.unit, double(rep.total_rays));
            printf(", probe p50/p99 %llu/%llu cycles, %.1f%% "
                   "cross-job shared fetches, fairness %.2f\n",
                   (unsigned long long)p50, (unsigned long long)p99,
                   100.0 * rep.crossJobShareRate(), rep.fairness);
        }
    }

    if (!trace_path.empty()) {
        // The trace probe: the streaming workload (the frame job plus
        // four staggered probe jobs, as [stream]) re-run once with
        // event tracing on, on a chip of two lock-stepped packetized
        // units behind the shared banked 128 KiB L2 — the
        // configuration that exercises every event source: fetch
        // issue/fill, MSHR alloc/merge/residency, packet form/compact/
        // retire/occupancy, L2 bank enqueue/dequeue/queue-depth, batch
        // and job slices. The trace is bit-identical at every worker
        // count, like the hits.
        const unsigned pw = packet_probe > 1 ? packet_probe : 8;
        sim::EngineConfig tcfg = ncfg;
        tcfg.trace = true;
        tcfg.rt.packet.width = pw;
        tcfg.rt.ray_buffer_entries *= pw;
        tcfg.rt.mshrs = 8;
        tcfg.chip.units = 2;
        tcfg.chip.l2 = sim::L2Mode::Shared;
        tcfg.chip.l2cfg = kProbeL2_128KiB;
        const sim::Engine treng(tcfg);

        std::vector<sim::RenderJob> jobs;
        jobs.push_back({0, 0, false, primary});
        const std::vector<Ray> small(
            primary.begin(),
            primary.begin() + std::min<size_t>(64, primary.size()));
        for (unsigned cj = 1; cj <= 4; ++cj)
            jobs.push_back({cj, 400ull * cj, false, small});
        sim::StreamConfig scfg;
        scfg.batch_size = 256;
        sim::StreamReport rep = sim::StreamingService::run(
            treng, bvh, std::move(jobs), scfg);

        std::ofstream tf(trace_path);
        obs::writeChromeTrace(tf, rep.trace);
        tf.close();

        const obs::SlotAccounting &sl = rep.unit.slots;
        const double slots = double(sl.total());
        printf("trace probe (frame + 4 probe jobs, cycle-accurate, "
               "2 units, shared 128 KiB L2):\n");
        printf("  %zu events over %zu batches -> %s "
               "(chrome://tracing / ui.perfetto.dev)\n",
               rep.trace.size(), rep.batches, trace_path.c_str());
        printf("  issue-slot breakdown:");
        for (size_t s = 0; s < obs::kSlotBuckets; ++s)
            printf(" %s %.1f%%", obs::slotName(obs::Slot(s)),
                   slots > 0 ? 100.0 * double(sl.buckets[s]) / slots
                             : 0.0);
        printf("\n");
    }

    if (cost_probe) {
        // The cost probe: price the configuration the other probes
        // measure. Starts from the shared node-cache config and layers
        // on whatever packet/issue/chip knobs were given, re-traces
        // the primary batch once on that exact config, and asks the
        // component cost model what the chip it describes costs —
        // area from the config alone, power energized by this very
        // run's merged counters. Same rays, same hits.
        sim::EngineConfig kcfg = ncfg;
        if (packet_probe > 1) {
            kcfg.rt.packet.width = packet_probe;
            kcfg.rt.ray_buffer_entries *= packet_probe;
        }
        if (issue_probe > 1) {
            kcfg.rt.issue_width = issue_probe;
            kcfg.rt.mshrs = 8;
        }
        if (chip_probe > 1) {
            kcfg.threads = 1;
            kcfg.batch_size = 0;
            kcfg.chip.units = chip_probe;
            kcfg.chip.l2 = sim::L2Mode::Shared;
            kcfg.chip.l2cfg = kProbeL2_128KiB;
        }
        sim::EngineReport rep = sim::Engine(kcfg).run(bvh, primary);
        const double n = double(primary.size());
        const uint64_t wall = rep.unit.chip_cycles ? rep.unit.chip_cycles
                                                   : rep.unit.cycles;
        const double kcycles = double(wall) / 1000.0;

        const synth::ChipCostModel cost;
        const synth::ChipAreaReport area = cost.area(kcfg, 1.0);
        const synth::ChipPowerReport power =
            cost.power(kcfg, rep.unit, 1.0);

        printf("cost probe (primary batch, cycle-accurate, active "
               "config at 1 GHz):\n");
        probeRow("active config", rep.unit, n);
        printf(", %.3f mm^2, %.3f W, %.0f rays/kcycle/W\n",
               area.total_mm2(), power.total_w(),
               kcycles > 0 && power.total_w() > 0
                   ? n / kcycles / power.total_w()
                   : 0.0);
        printf("  components:");
        for (size_t i = 0; i < power.components.size(); ++i) {
            const synth::ComponentCost &c = power.components[i];
            printf("%s %s %.3f mm^2 / %.1f mW",
                   i ? "," : "", c.name.c_str(),
                   area.components[i].area_um2 * 1e-6,
                   (c.dynamic_w + c.leakage_w) * 1e3);
        }
        printf("\n");
    }
    return 0;
}
