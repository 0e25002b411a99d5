/**
 * @file
 * The repository benchmark program: one workload per invocation.
 *
 *   rayflex_perfbench --workload frame_chip|stream_mixed|knn_16d
 *                     --seed N --seconds S --trace 0|1 [--spans PATH]
 *
 * Every input (terrain, camera tiles, AO fans, point clouds, the
 * held-out query split) is generated from --seed; the library only
 * ever sees the generated rays, jobs and queries. Each workload is set
 * up several times (setup_s is the median), answered once untimed as a
 * warm-up, then answered repeatedly for --seconds. Every pass is
 * checked item by item against the reference models (bvh::Traverser
 * for rays, core::golden::knnScan for k-NN), every pass's simulated
 * counters must repeat the first pass's bit for bit, and the
 * slot-conservation invariant must hold.
 *
 * --trace 0 reports the end-to-end metrics of the untraced public entry
 * points (sim::Engine::run, sim::StreamingService::run,
 * sim::Engine::runKnn). --trace 1 is a separate run that also drives
 * the same batches through one sim::BatchExecutor on this thread, with
 * a span around every call into a layer's public functions, and
 * reports the per-layer metrics plus the tracing overhead. Spans stay
 * in memory and are written at the end to --spans (Chrome trace-event
 * JSON, which Perfetto opens).
 *
 * Output: "# " lines for people, then as the LAST line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. The exit code is
 * non-zero whenever a check failed. perfbench/README.md explains why
 * each workload and metric exists.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bvh/builder.hh"
#include "bvh/knn.hh"
#include "bvh/scene.hh"
#include "bvh/traversal.hh"
#include "core/datapath.hh"
#include "core/golden.hh"
#include "core/raygen.hh"
#include "core/workloads.hh"
#include "fp/float32.hh"
#include "fp/recoded.hh"
#include "sim/engine.hh"
#include "sim/executor.hh"
#include "sim/stream.hh"
#include "synth/chip_cost.hh"

using namespace rayflex;
using Clock = std::chrono::steady_clock;

namespace
{

/** Timed rounds a run makes even when --seconds has already elapsed. */
constexpr int kMinRounds = 3;
/** Host seconds each per-layer microbenchmark runs (traced run). */
constexpr double kMicroSeconds = 0.3;
/** Clock of the cost model's power figure. */
constexpr double kClockGhz = 1.0;

/** Written after every microbenchmark repetition so the compiler
 *  cannot drop the measured loop. */
volatile uint64_t g_sink = 0;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in (0, 1]) of exact samples. */
uint64_t
nearestRank(std::vector<uint64_t> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t rank = size_t(std::ceil(q * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

// ------------------------------------------------------------- spans

/** One timed call into a layer: name, interval, the span that caused
 *  it (-1 for a root) and an identifier (set-up, pass or batch index)
 *  shared by the spans of one unit of work. */
struct Span
{
    const char *name = "";
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    uint64_t id = 0;
};

/** In-memory span store of the traced run (single thread). */
class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    int
    open(const char *name, uint64_t id)
    {
        Span s;
        s.name = name;
        s.parent = open_.empty() ? -1 : open_.back();
        s.id = id;
        s.start_s = secondsBetween(origin_, Clock::now());
        spans_.push_back(s);
        open_.push_back(int(spans_.size() - 1));
        return open_.back();
    }

    void
    close(int idx)
    {
        spans_[size_t(idx)].end_s = secondsBetween(origin_, Clock::now());
        open_.pop_back();
    }

    /** Durations of every span called `name`, in recording order. */
    std::vector<double>
    durations(const char *name) const
    {
        std::vector<double> d;
        for (const Span &s : spans_)
            if (std::strcmp(s.name, name) == 0)
                d.push_back(s.end_s - s.start_s);
        return d;
    }

    /** Self time per span name: each span's duration minus the part its
     *  child spans cover, summed by name. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end_s - spans_[i].start_s;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[size_t(s.parent)] -= s.end_s - s.start_s;
        std::map<std::string, double> by_name;
        for (size_t i = 0; i < spans_.size(); ++i)
            by_name[spans_[i].name] += self[i];
        return by_name;
    }

    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"span\": %zu, \"parent\": %d, "
                         "\"id\": %llu}}%s\n",
                         s.name, s.start_s * 1e6,
                         (s.end_s - s.start_s) * 1e6, i, s.parent,
                         (unsigned long long)s.id,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; records nothing when the recorder is null (untraced). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, uint64_t id = 0)
        : rec_(rec), idx_(rec ? rec->open(name, id) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int idx_;
};

// ----------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value = 0;
    const char *unit = "";
};

/** Per-layer metrics only one workload exercises. The others report 0
 *  for them, so every traced run carries the same metric set. */
const Metric kWorkloadSpecific[] = {
    {"bvh.knn.scan_fraction_in", 0, "ratio"},
    {"bvh.knn.scan_fraction_off", 0, "ratio"},
    {"bvh.knn.pruned_per_query", 0, "count"},
    {"sim.stream.queue_wait_p99_cycles", 0, "cycles"},
    {"sim.stream.shared_batch_fraction", 0, "ratio"},
    {"sim.stream.fairness", 0, "ratio"},
    {"sim.stream.latency_samples", 0, "count"},
    {"sim.stream.samples_beyond_p99", 0, "count"},
    {"sim.stream.drain_after_last_arrival_cycles", 0, "cycles"},
    {"sim.stream.tail_queue_wait_cycles", 0, "cycles"},
    {"sim.stream.plan_s", 0, "s"},
};

/** Overwrite the value of a kWorkloadSpecific metric. */
void
setMetric(std::vector<Metric> &m, const char *name, double value)
{
    for (Metric &x : m)
        if (x.name == name) {
            x.value = value;
            return;
        }
    throw std::logic_error(std::string("unlisted metric ") + name);
}

/** Simulated result of one pass: merged counters plus the job
 *  latencies on the simulated clock. */
struct SimOutcome
{
    bvh::RtUnitStats unit;
    /** Per-job simulated latencies. The batch workloads are one job per
     *  pass (the frame, the query set), so they carry one sample. */
    std::vector<uint64_t> job_latencies;
};

/** Busy simulated cycles: lock-step chip ticks in chip mode, unit
 *  cycles otherwise. */
uint64_t
busyCycles(const bvh::RtUnitStats &u)
{
    return u.chip_cycles ? u.chip_cycles : u.cycles;
}

/** What a serial (executor-driven) pass measured. */
struct SerialOutcome
{
    double host_s = 0;
    uint64_t failed = 0;
    bvh::RtUnitStats unit;       ///< merged batch counters
    std::vector<double> batch_s; ///< host seconds per executed batch
    uint64_t sim_cycles = 0;     ///< summed BatchResult::sim_cycles
};

/** Run one executor batch inside a span named `name` (traced run
 *  only), fold it into `o` and return it. */
template <typename Execute>
sim::BatchResult
timedBatch(SerialOutcome &o, SpanRecorder *rec, const char *name,
           size_t index, Execute &&execute)
{
    const auto t0 = Clock::now();
    sim::BatchResult r;
    {
        ScopedSpan s(rec, name, index);
        r = execute();
    }
    o.batch_s.push_back(secondsBetween(t0, Clock::now()));
    o.sim_cycles += r.sim_cycles;
    o.unit.merge(r.unit);
    return r;
}

// --------------------------------------------------------- workloads

/** One benchmark workload. Construction is the set-up a user pays
 *  (inputs, index, engine); reference results are computed apart. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Items (rays or queries) one pass answers. */
    virtual size_t items() const = 0;
    /** Compute the reference result of every item. */
    virtual void prepareReference() = 0;
    /** One untraced pass through the public entry point. Sets `host_s`
     *  to the timed section and `failed` to the items whose result
     *  differs from the reference. Throws when the simulator throws. */
    virtual SimOutcome pass(double &host_s, uint64_t &failed) = 0;
    /** The same batches through one BatchExecutor on this thread, with
     *  a span around every layer call when `rec` is non-null. */
    virtual SerialOutcome serialPass(SpanRecorder *rec) = 0;
    virtual const sim::EngineConfig &config() const = 0;
    /** Workload-specific checks of the last pass; appends failures. */
    virtual void checkPass(std::vector<std::string> &) const {}
    /** Fill this workload's kWorkloadSpecific metrics (traced run). */
    virtual void
    layerMetrics(const SimOutcome &, SpanRecorder &,
                 std::vector<Metric> &) const
    {
    }
};

/** The terrain + sphere scene of the ray workloads (the bench scene of
 *  bench/bench_sim_engine.cc); the terrain comes from the seed. */
bvh::Bvh4
buildScene(uint64_t seed, SpanRecorder *rec)
{
    std::vector<bvh::SceneTriangle> tris;
    {
        ScopedSpan s(rec, "bvh.scene.generate");
        tris = bvh::makeTerrain(20.0f, 32, 0.5f, seed);
        const uint32_t id = uint32_t(tris.size());
        auto sphere = bvh::makeSphere({0, 2.0f, 0}, 2.0f, 16, 24, id);
        tris.insert(tris.end(), sphere.begin(), sphere.end());
    }
    ScopedSpan s(rec, "bvh.builder.build");
    return bvh::buildBvh4(std::move(tris));
}

/** The fixed camera of the ray workloads, framing the whole scene. */
bvh::Camera
sceneCamera(const bvh::Bvh4 &bvh, unsigned side)
{
    bvh::Camera cam;
    const bvh::Vec3 c = bvh.root_bounds.centre();
    const bvh::Vec3 ext = bvh.root_bounds.hi - bvh.root_bounds.lo;
    cam.look_at = c;
    cam.eye = c + bvh::Vec3{0.4f * ext.x, 0.5f * ext.y, 1.3f * ext.z};
    cam.width = side;
    cam.height = side;
    return cam;
}

/** Reference record of one ray; any-hit records carry only the flag. */
bvh::HitRecord
referenceHit(bvh::Traverser &tr, const core::Ray &ray, bool any_hit)
{
    if (!any_hit)
        return tr.closestHit(ray);
    bvh::HitRecord r;
    r.hit = tr.anyHit(ray);
    return r;
}

template <typename T>
uint64_t
countMismatches(const std::vector<T> &got, const std::vector<T> &want)
{
    if (got.size() != want.size())
        return want.size();
    uint64_t bad = 0;
    for (size_t i = 0; i < want.size(); ++i)
        bad += !(got[i] == want[i]);
    return bad;
}

/**
 * frame_chip: one 256x256 frame of coherent closest-hit primaries on a
 * 4-unit chip over the shared 128 KiB L2 (8-wide packets, issue 2,
 * 8 MSHRs, 4 KiB L1s), 4 batches over up to 4 workers.
 */
class FrameChip : public Workload
{
  public:
    static constexpr unsigned kSide = 256;
    static constexpr size_t kBatch = 16384;

    FrameChip(uint64_t seed, SpanRecorder *rec)
    {
        bvh_ = buildScene(seed, rec);
        {
            ScopedSpan s(rec, "core.raygen");
            const bvh::Camera cam = sceneCamera(bvh_, kSide);
            rays_.reserve(size_t(kSide) * kSide);
            for (unsigned y = 0; y < kSide; ++y)
                for (unsigned x = 0; x < kSide; ++x)
                    rays_.push_back(cam.primaryRay(x, y, 1000.0f));
        }
        ScopedSpan s(rec, "sim.engine.construct");
        cfg_.threads =
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
        cfg_.batch_size = kBatch;
        cfg_.rt.ray_buffer_entries = 32 * 8; // 32 eight-wide packets
        cfg_.rt.packet.width = 8;
        cfg_.rt.issue_width = 2;
        cfg_.rt.mshrs = 8;
        cfg_.rt.mem_backend = bvh::MemBackend::NodeCache;
        cfg_.rt.cache = bvh::kProbeCache4KiB;
        cfg_.chip.units = 4;
        cfg_.chip.l2 = sim::L2Mode::Shared;
        cfg_.chip.l2cfg = bvh::kProbeL2_128KiB;
        engine_ = std::make_unique<sim::Engine>(cfg_);
    }

    size_t items() const override { return rays_.size(); }
    const sim::EngineConfig &config() const override { return cfg_; }

    void
    prepareReference() override
    {
        bvh::Traverser tr(bvh_);
        ref_.reserve(rays_.size());
        for (const core::Ray &r : rays_)
            ref_.push_back(tr.closestHit(r));
    }

    SimOutcome
    pass(double &host_s, uint64_t &failed) override
    {
        const auto t0 = Clock::now();
        const sim::EngineReport rep = engine_->run(bvh_, rays_);
        host_s = secondsBetween(t0, Clock::now());
        failed = countMismatches(rep.hits, ref_);
        return {rep.unit, {busyCycles(rep.unit)}};
    }

    SerialOutcome
    serialPass(SpanRecorder *rec) override
    {
        SerialOutcome o;
        std::vector<bvh::HitRecord> hits(rays_.size());
        const auto t0 = Clock::now();
        const sim::BatchExecutor exec(bvh_, engine_->executorConfig());
        std::vector<sim::BatchRayRef> refs;
        const auto slices = core::sliceBatches(rays_.size(), kBatch);
        for (size_t b = 0; b < slices.size(); ++b) {
            refs.clear();
            for (size_t i = slices[b].begin; i < slices[b].end; ++i)
                refs.push_back({&rays_[i], &hits[i], 0});
            timedBatch(o, rec, "sim.executor.executeBatch", b, [&] {
                return exec.executeBatch(refs.data(), refs.size(), false);
            });
        }
        o.host_s = secondsBetween(t0, Clock::now());
        o.failed = countMismatches(hits, ref_);
        return o;
    }

  private:
    bvh::Bvh4 bvh_;
    std::vector<core::Ray> rays_;
    std::vector<bvh::HitRecord> ref_;
    sim::EngineConfig cfg_;
    std::unique_ptr<sim::Engine> engine_;
};

/**
 * stream_mixed: 1,024 open-loop jobs on the simulated clock, one due
 * every kInterval cycles, alternating closest-hit 8x8 camera tiles and
 * any-hit AO fans (64 rays each), on one scalar unit (4 KiB L1,
 * 8 MSHRs) with 64-ray batches and 1 worker. Every job is submitted up
 * front in host time, so only the simulated clock is open-loop.
 */
class StreamMixed : public Workload
{
  public:
    static constexpr size_t kJobs = 1024;
    static constexpr uint64_t kInterval = 1400;
    static constexpr unsigned kFrameSide = 256;
    static constexpr unsigned kTile = 8;
    static constexpr unsigned kAoPoints = 8;
    static constexpr unsigned kAoSamples = 8;
    static constexpr float kAoRadius = 2.0f;

    StreamMixed(uint64_t seed, SpanRecorder *rec)
    {
        bvh_ = buildScene(seed, rec);
        {
            ScopedSpan s(rec, "core.raygen");
            makeJobs(seed);
        }
        ScopedSpan s(rec, "sim.engine.construct");
        cfg_.threads = 1;
        cfg_.rt.mem_backend = bvh::MemBackend::NodeCache;
        cfg_.rt.cache = bvh::kProbeCache4KiB;
        cfg_.rt.mshrs = 8;
        scfg_.batch_size = 64;
        engine_ = std::make_unique<sim::Engine>(cfg_);
    }

    size_t items() const override { return items_; }
    const sim::EngineConfig &config() const override { return cfg_; }

    void
    prepareReference() override
    {
        bvh::Traverser tr(bvh_);
        ref_.resize(jobs_.size());
        for (size_t j = 0; j < jobs_.size(); ++j)
            for (const core::Ray &r : jobs_[j].rays)
                ref_[j].push_back(referenceHit(tr, r, jobs_[j].any_hit));
    }

    SimOutcome
    pass(double &host_s, uint64_t &failed) override
    {
        std::vector<sim::RenderJob> jobs = jobs_; // copied outside timing
        const auto t0 = Clock::now();
        last_ = sim::StreamingService::run(*engine_, bvh_, std::move(jobs),
                                           scfg_);
        host_s = secondsBetween(t0, Clock::now());

        // Reports come back in (arrival_tick, id) order: job order.
        SimOutcome o{last_.unit, {}};
        failed = 0;
        if (last_.jobs.size() != jobs_.size()) {
            failed = items_;
            return o;
        }
        for (size_t j = 0; j < jobs_.size(); ++j) {
            const sim::JobReport &jr = last_.jobs[j];
            failed += jr.id == j ? countMismatches(jr.hits, ref_[j])
                                 : ref_[j].size();
            o.job_latencies.push_back(jr.latency);
        }
        return o;
    }

    SerialOutcome
    serialPass(SpanRecorder *rec) override
    {
        SerialOutcome o;
        std::vector<std::vector<bvh::HitRecord>> hits(jobs_.size());
        for (size_t j = 0; j < jobs_.size(); ++j)
            hits[j].resize(jobs_[j].rays.size());
        const auto t0 = Clock::now();
        std::vector<sim::PlannedBatch> plans;
        {
            ScopedSpan s(rec, "sim.stream.plan");
            plans = sim::BatchScheduler(scfg_).plan(jobs_);
        }
        const sim::BatchExecutor exec(bvh_, engine_->executorConfig());
        std::vector<sim::BatchRayRef> refs;
        size_t shared = 0;
        for (size_t b = 0; b < plans.size(); ++b) {
            const sim::PlannedBatch &p = plans[b];
            refs.clear();
            for (const auto &[j, ri] : p.rays)
                refs.push_back({&jobs_[j].rays[ri], &hits[j][ri], j});
            timedBatch(o, rec, "sim.executor.executeBatch", b, [&] {
                return exec.executeBatch(refs.data(), refs.size(),
                                         p.any_hit);
            });
            shared += p.n_jobs > 1;
        }
        o.host_s = secondsBetween(t0, Clock::now());
        shared_batch_fraction_ = ratio(double(shared), double(plans.size()));
        for (size_t j = 0; j < jobs_.size(); ++j)
            o.failed += countMismatches(hits[j], ref_[j]);
        return o;
    }

    /** Saturation guard: p99 means something only below saturation, so
     *  a backlog that grows over the run fails it. The mean queue wait
     *  of the last 10% of jobs may exceed the first 10%'s by at most
     *  one arrival interval, and the service must drain within ten
     *  intervals of the last arrival. */
    void
    checkPass(std::vector<std::string> &errors) const override
    {
        const Saturation s = saturation();
        if (s.tail_wait > s.head_wait + double(kInterval))
            errors.push_back(
                "stream_mixed: backlog grows (mean queue wait " +
                std::to_string(s.tail_wait) + " cycles over the last 10% "
                "of jobs vs " + std::to_string(s.head_wait) +
                " over the first)");
        if (s.drain > 10 * kInterval)
            errors.push_back("stream_mixed: " + std::to_string(s.drain) +
                             " cycles to drain after the last arrival");
    }

    void
    layerMetrics(const SimOutcome &sim, SpanRecorder &rec,
                 std::vector<Metric> &m) const override
    {
        std::vector<uint64_t> waits;
        for (const sim::JobReport &jr : last_.jobs)
            waits.push_back(jr.queue_wait);
        const uint64_t p99 = nearestRank(sim.job_latencies, 0.99);
        const auto beyond = std::count_if(
            sim.job_latencies.begin(), sim.job_latencies.end(),
            [p99](uint64_t l) { return l > p99; });
        const Saturation s = saturation();
        setMetric(m, "sim.stream.queue_wait_p99_cycles",
                  double(nearestRank(waits, 0.99)));
        setMetric(m, "sim.stream.shared_batch_fraction",
                  shared_batch_fraction_);
        setMetric(m, "sim.stream.fairness", last_.fairness);
        setMetric(m, "sim.stream.latency_samples",
                  double(sim.job_latencies.size()));
        setMetric(m, "sim.stream.samples_beyond_p99", double(beyond));
        setMetric(m, "sim.stream.drain_after_last_arrival_cycles",
                  double(s.drain));
        setMetric(m, "sim.stream.tail_queue_wait_cycles", s.tail_wait);
        setMetric(m, "sim.stream.plan_s",
                  median(rec.durations("sim.stream.plan")));
    }

  private:
    struct Saturation
    {
        double head_wait = 0; ///< mean queue wait, first 10% of jobs
        double tail_wait = 0; ///< mean queue wait, last 10% of jobs
        uint64_t drain = 0;   ///< makespan - last arrival
    };

    void
    makeJobs(uint64_t seed)
    {
        const bvh::Camera cam = sceneCamera(bvh_, kFrameSide);
        const unsigned tiles_x = kFrameSide / kTile;
        std::vector<uint32_t> tiles(tiles_x * tiles_x);
        std::iota(tiles.begin(), tiles.end(), 0u);
        std::mt19937_64 rng(seed);
        std::shuffle(tiles.begin(), tiles.end(), rng);
        const core::RayGen fans(seed);
        // AO fans start at uniformly sampled surface points: a random
        // triangle, a random point on it and its geometric normal
        // (terrain winding faces up, sphere winding faces out).
        std::uniform_int_distribution<size_t> pick_tri(
            0, bvh_.tris.size() - 1);
        std::uniform_real_distribution<float> unit(0.0f, 1.0f);

        jobs_.resize(kJobs);
        for (size_t j = 0; j < kJobs; ++j) {
            sim::RenderJob &job = jobs_[j];
            job.id = j;
            job.arrival_tick = j * kInterval;
            job.any_hit = j % 2 == 1;
            if (!job.any_hit) {
                const uint32_t t = tiles[(j / 2) % tiles.size()];
                const unsigned x0 = (t % tiles_x) * kTile;
                const unsigned y0 = (t / tiles_x) * kTile;
                for (unsigned y = 0; y < kTile; ++y)
                    for (unsigned x = 0; x < kTile; ++x)
                        job.rays.push_back(
                            cam.primaryRay(x0 + x, y0 + y, 1000.0f));
            } else {
                for (unsigned i = 0; i < kAoPoints; ++i) {
                    const bvh::SceneTriangle &t = bvh_.tris[pick_tri(rng)];
                    float a = unit(rng), b = unit(rng);
                    if (a + b > 1.0f) {
                        a = 1.0f - a;
                        b = 1.0f - b;
                    }
                    const bvh::Vec3 e1 = t.v1 - t.v0, e2 = t.v2 - t.v0;
                    const bvh::Vec3 p = t.v0 + e1 * a + e2 * b;
                    const bvh::Vec3 n = bvh::normalize(bvh::cross(e1, e2));
                    fans.appendAoFan(job.rays, {p.x, p.y, p.z},
                                     {n.x, n.y, n.z}, kAoSamples, 1e-3f,
                                     kAoRadius);
                }
            }
            items_ += job.rays.size();
        }
    }

    Saturation
    saturation() const
    {
        Saturation s;
        const size_t n = last_.jobs.size();
        if (n == 0)
            return s;
        const size_t tenth = std::max<size_t>(1, n / 10);
        for (size_t i = 0; i < tenth; ++i) {
            s.head_wait += double(last_.jobs[i].queue_wait);
            s.tail_wait += double(last_.jobs[n - 1 - i].queue_wait);
        }
        s.head_wait /= double(tenth);
        s.tail_wait /= double(tenth);
        const uint64_t last_arrival = last_.jobs.back().arrival_tick;
        s.drain = last_.makespan_ticks > last_arrival
                      ? last_.makespan_ticks - last_arrival
                      : 0;
        return s;
    }

    bvh::Bvh4 bvh_;
    std::vector<sim::RenderJob> jobs_; ///< in (arrival_tick, id) order
    size_t items_ = 0;
    std::vector<std::vector<bvh::HitRecord>> ref_;
    sim::EngineConfig cfg_;
    sim::StreamConfig scfg_;
    std::unique_ptr<sim::Engine> engine_;
    sim::StreamReport last_;
    double shared_batch_fraction_ = 0; ///< of the last serial pass's plan
};

/**
 * knn_16d: exact k=8 Euclidean k-NN over an 8,000-point, 16-dim,
 * 8-cluster cloud on one extended-datapath unit (4 KiB L1, 8 MSHRs),
 * 1 worker. The first half of the queries are held-out points of the
 * same cloud (in-distribution); the second half are points of clouds
 * generated from seeds seed + 1 .. seed + 16, which sit far from every
 * data cluster so the 3-D proxy bound prunes almost nothing (README.md
 * says why both halves stay). Batches never straddle the halves, so per-half
 * counters come straight from the batches.
 */
class Knn16d : public Workload
{
  public:
    static constexpr size_t kPoints = 8000;
    static constexpr unsigned kDims = 16;
    static constexpr unsigned kClusters = 8;
    static constexpr size_t kHalf = 16; ///< queries per half
    static constexpr size_t kBatch = 8; ///< divides kHalf
    static constexpr uint32_t kK = 8;

    Knn16d(uint64_t seed, SpanRecorder *rec)
    {
        std::vector<bvh::DataPoint> cloud, off;
        {
            ScopedSpan s(rec, "bvh.scene.generate");
            cloud = bvh::makePointCloud(kPoints + kHalf, kDims, kClusters,
                                        seed);
            // One independent cloud per off-cluster query, so the half
            // averages over many cluster placements, not one.
            for (size_t i = 0; i < kHalf; ++i)
                off.push_back(bvh::makePointCloud(1, kDims, kClusters,
                                                  seed + 1 + i)[0]);
        }
        {
            ScopedSpan s(rec, "core.raygen");
            std::mt19937_64 split(seed);
            std::shuffle(cloud.begin(), cloud.end(), split);
            for (size_t i = kPoints; i < cloud.size(); ++i)
                queries_.push_back({std::move(cloud[i].coords), kK,
                                    bvh::KnnMetric::Euclidean});
            cloud.resize(kPoints);
            for (bvh::DataPoint &p : off)
                queries_.push_back(
                    {std::move(p.coords), kK, bvh::KnnMetric::Euclidean});
        }
        {
            ScopedSpan s(rec, "bvh.builder.build");
            index_ = bvh::buildKnnIndex(std::move(cloud));
        }
        ScopedSpan s(rec, "sim.engine.construct");
        cfg_.threads = 1;
        cfg_.batch_size = kBatch;
        cfg_.dp = core::kExtendedUnified;
        cfg_.rt.mem_backend = bvh::MemBackend::NodeCache;
        cfg_.rt.cache = bvh::kProbeCache4KiB;
        cfg_.rt.mshrs = 8;
        engine_ = std::make_unique<sim::Engine>(cfg_);
    }

    size_t items() const override { return queries_.size(); }
    const sim::EngineConfig &config() const override { return cfg_; }

    void
    prepareReference() override
    {
        std::vector<core::golden::KnnCandidate> cands;
        for (const bvh::DataPoint &p : index_.points)
            cands.push_back({p.coords.data(), p.id});
        for (const bvh::KnnQuery &q : queries_)
            ref_.push_back({core::golden::knnScan(q.point.data(), kDims,
                                                  cands, q.k, false)});
    }

    SimOutcome
    pass(double &host_s, uint64_t &failed) override
    {
        const auto t0 = Clock::now();
        const sim::KnnReport rep = engine_->runKnn(index_, queries_);
        host_s = secondsBetween(t0, Clock::now());
        failed = countMismatches(rep.results, ref_);
        return {rep.unit, {busyCycles(rep.unit)}};
    }

    SerialOutcome
    serialPass(SpanRecorder *rec) override
    {
        SerialOutcome o;
        std::vector<bvh::KnnResult> results(queries_.size());
        half_ = {};
        const auto t0 = Clock::now();
        const sim::BatchExecutor exec(index_, engine_->executorConfig());
        std::vector<sim::KnnBatchRef> refs;
        const auto slices = core::sliceBatches(queries_.size(), kBatch);
        for (size_t b = 0; b < slices.size(); ++b) {
            refs.clear();
            for (size_t i = slices[b].begin; i < slices[b].end; ++i)
                refs.push_back({&queries_[i], &results[i]});
            const sim::BatchResult r =
                timedBatch(o, rec, "sim.executor.executeKnnBatch", b, [&] {
                    return exec.executeKnnBatch(refs.data(), refs.size());
                });
            half_[slices[b].begin < kHalf ? 0 : 1].merge(r.unit.knn);
        }
        o.host_s = secondsBetween(t0, Clock::now());
        o.failed = countMismatches(results, ref_);
        return o;
    }

    void
    layerMetrics(const SimOutcome &sim, SpanRecorder &,
                 std::vector<Metric> &m) const override
    {
        const double scan = double(kHalf) * double(kPoints);
        setMetric(m, "bvh.knn.scan_fraction_in",
                  ratio(double(half_[0].candidates), scan));
        setMetric(m, "bvh.knn.scan_fraction_off",
                  ratio(double(half_[1].candidates), scan));
        setMetric(m, "bvh.knn.pruned_per_query",
                  ratio(double(sim.unit.knn.pruned),
                        double(queries_.size())));
    }

  private:
    bvh::KnnIndex index_;
    std::vector<bvh::KnnQuery> queries_; ///< in-cluster half, off half
    std::vector<bvh::KnnResult> ref_;
    sim::EngineConfig cfg_;
    std::unique_ptr<sim::Engine> engine_;
    std::array<bvh::KnnStats, 2> half_{}; ///< last serial pass, per half
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, SpanRecorder *rec)
{
    if (name == "frame_chip")
        return std::make_unique<FrameChip>(seed, rec);
    if (name == "stream_mixed")
        return std::make_unique<StreamMixed>(seed, rec);
    if (name == "knn_16d")
        return std::make_unique<Knn16d>(seed, rec);
    return nullptr;
}

// ------------------------------------------------- host microbenches

/** Repeat `rep` (which returns the items it did) for about
 *  kMicroSeconds and at least 3 times, each inside a span; return the
 *  median items per second. */
template <typename Rep>
double
medianRate(SpanRecorder *rec, const char *name, Rep &&rep)
{
    std::vector<double> rates;
    const auto start = Clock::now();
    while (rates.size() < 3 ||
           secondsBetween(start, Clock::now()) < kMicroSeconds) {
        const auto t0 = Clock::now();
        double done = 0;
        {
            ScopedSpan s(rec, name, rates.size());
            done = rep();
        }
        rates.push_back(done / secondsBetween(t0, Clock::now()));
    }
    return median(rates);
}

/** Softfloat ops/s: an add -> mul -> recode chain over seeded operands
 *  (3 operations per element). */
double
softfloatOpsPerSecond(uint64_t seed, SpanRecorder *rec)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
    constexpr size_t kN = 1 << 14;
    std::vector<fp::F32> a(kN), b(kN), c(kN);
    for (size_t i = 0; i < kN; ++i) {
        a[i] = fp::toBits(dist(rng));
        b[i] = fp::toBits(dist(rng));
        c[i] = fp::toBits(dist(rng));
    }
    return medianRate(rec, "fp.softfloat", [&] {
        uint64_t sink = 0;
        for (size_t i = 0; i < kN; ++i)
            sink ^= fp::recode(fp::mulF32(fp::addF32(a[i], b[i]), c[i]))
                        .bits;
        g_sink = sink;
        return 3.0 * double(kN);
    });
}

/** Ticked-datapath beats/s: core::runBatch over beats drawn in the
 *  workload's own per-opcode mix (RtUnitStats::beats_by_op). */
double
datapathBeatsPerSecond(const bvh::RtUnitStats &u,
                       const core::DatapathConfig &dp_cfg, uint64_t seed,
                       SpanRecorder *rec)
{
    constexpr size_t kBeats = 4096;
    const uint64_t total = std::accumulate(
        u.beats_by_op.begin(), u.beats_by_op.end(), uint64_t(0));
    core::WorkloadGen gen(seed);
    std::vector<core::DatapathInput> beats;
    for (size_t op = 0; op < core::kNumOpcodes; ++op) {
        const size_t n = size_t(std::llround(
            ratio(double(kBeats) * double(u.beats_by_op[op]),
                  double(total))));
        for (size_t i = 0; i < n; ++i) {
            switch (core::Opcode(op)) {
            case core::Opcode::RayBox:
                beats.push_back(gen.rayBoxOp(i));
                break;
            case core::Opcode::RayTriangle: {
                // Not gen.rayTriangleOp(): its aimed-ray branch can
                // build a uniform_real_distribution with lo > hi.
                core::DatapathInput in;
                in.op = core::Opcode::RayTriangle;
                in.tag = i;
                in.tri = gen.triangle();
                in.ray = gen.ray();
                beats.push_back(in);
                break;
            }
            case core::Opcode::Euclidean:
                beats.push_back(gen.euclideanOp(true, i));
                break;
            case core::Opcode::Cosine:
                beats.push_back(gen.cosineOp(true, i));
                break;
            }
        }
    }
    if (beats.empty())
        return 0.0;
    std::shuffle(beats.begin(), beats.end(), gen.engine());
    return medianRate(rec, "core.runBatch", [&] {
        core::RayFlexDatapath dp(dp_cfg);
        g_sink = core::runBatch(dp, beats).size();
        return double(beats.size());
    });
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/** Simulated per-layer metrics every workload reports. */
void
unitMetrics(const bvh::RtUnitStats &u, double items,
            std::vector<Metric> &m)
{
    using obs::Slot;
    const std::pair<Slot, const char *> buckets[] = {
        {Slot::Issued, "issued"},
        {Slot::StallL1Miss, "l1_miss"},
        {Slot::StallMshrFull, "mshr_full"},
        {Slot::StallRingHop, "ring_hop"},
        {Slot::StallL2BankQueue, "l2_bank_queue"},
        {Slot::StallL2Fill, "l2_fill"},
        {Slot::StallDrain, "drain"},
        {Slot::IdleNoWork, "idle"},
    };
    for (const auto &[slot, name] : buckets)
        m.push_back({std::string("bvh.rt_unit.slot_") + name + "_share",
                     ratio(double(u.slots[slot]), double(u.slots.total())),
                     "ratio"});
    const bvh::L2Stats l2 = u.l2Total();
    m.push_back({"core.beats_per_item",
                 ratio(double(u.datapath_beats), items), "count"});
    m.push_back({"bvh.mem_model.l1_accesses_per_item",
                 ratio(double(u.mem_requests), items), "count"});
    m.push_back({"bvh.mem_model.l1_hit_rate", u.mem.hitRate(), "ratio"});
    m.push_back({"bvh.mem_model.mshr_merges_per_item",
                 ratio(double(u.mshr.merges), items), "count"});
    m.push_back({"bvh.mem_model.l2_hit_rate", l2.hitRate(), "ratio"});
    m.push_back({"bvh.mem_model.l2_queue_stalls_per_item",
                 ratio(double(l2.queue_stalls), items), "count"});
    m.push_back({"bvh.mem_model.l2_cross_unit_merges_per_item",
                 ratio(double(l2.cross_unit_merges), items), "count"});
    m.push_back({"bvh.packet.avg_occupancy", u.packet.avgOccupancy(),
                 "count"});
    m.push_back({"bvh.packet.fetches_shared_per_item",
                 ratio(double(u.packet.fetches_shared), items), "count"});
}

// -------------------------------------------------------------- main

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_path;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    if (argc % 2 == 0)
        return false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                o.workload = val;
            else if (key == "--seed")
                o.seed = std::stoull(val);
            else if (key == "--seconds")
                o.seconds = std::stod(val);
            else if (key == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (key == "--spans")
                o.spans_path = val;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !o.workload.empty() && o.seconds > 0;
}

/** The result line: the last line of stdout. */
void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload frame_chip|stream_mixed|knn_16d "
                     "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
                     argv[0]);
        return 2;
    }

    SpanRecorder recorder;
    SpanRecorder *rec = opt.trace ? &recorder : nullptr;
    std::vector<std::string> errors;

    // Set-up: once for the instance that is measured, then once more
    // after every timed round, so setup_s samples the same stretch of
    // host time as the passes do.
    std::vector<double> setup_s;
    const auto setUp = [&]() {
        const auto t0 = Clock::now();
        std::unique_ptr<Workload> fresh;
        {
            ScopedSpan s(rec, "setup", setup_s.size());
            fresh = makeWorkload(opt.workload, opt.seed, rec);
        }
        setup_s.push_back(secondsBetween(t0, Clock::now()));
        return fresh;
    };
    const std::unique_ptr<Workload> w = setUp();
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    {
        ScopedSpan s(rec, "bench.reference");
        w->prepareReference();
    }
    const double items = double(w->items());

    uint64_t attempted = 0, failed = 0;
    bool have_first = false;
    SimOutcome first;
    std::vector<double> pass_s; // untraced public-entry-point passes
    std::vector<double> serial_plain_s, serial_traced_s;
    SerialOutcome traced_last;

    // One pass through the public entry point: checked item by item,
    // its counters compared with the first pass's.
    const auto enginePass = [&](bool timed) {
        double host_s = 0;
        uint64_t bad = 0;
        attempted += w->items();
        try {
            ScopedSpan s(rec, "sim.engine.run", attempted);
            SimOutcome o = w->pass(host_s, bad);
            failed += bad;
            if (o.unit.slots.total() !=
                o.unit.cycles * w->config().rt.issue_width)
                errors.push_back("slot conservation broken: " +
                                 std::to_string(o.unit.slots.total()) +
                                 " slots over " +
                                 std::to_string(o.unit.cycles) + " cycles");
            w->checkPass(errors);
            if (!have_first) {
                first = std::move(o);
                have_first = true;
            } else if (!(o.unit == first.unit) ||
                       o.job_latencies != first.job_latencies) {
                errors.push_back("simulated counters differ between "
                                 "passes at a fixed seed");
            }
        } catch (const std::exception &e) {
            failed += w->items();
            errors.push_back(std::string("pass threw: ") + e.what());
            return;
        }
        if (timed)
            pass_s.push_back(host_s);
    };
    // The same batches through one executor on this thread.
    const auto serialPass = [&](SpanRecorder *r) {
        attempted += w->items();
        try {
            SerialOutcome o = w->serialPass(r);
            failed += o.failed;
            if (!(o.unit == first.unit))
                errors.push_back("executor-driven counters differ from "
                                 "the public entry point's");
            (r ? serial_traced_s : serial_plain_s).push_back(o.host_s);
            if (r)
                traced_last = std::move(o);
        } catch (const std::exception &e) {
            failed += w->items();
            errors.push_back(std::string("serial pass threw: ") +
                             e.what());
        }
    };

    enginePass(false); // warm-up: worker pool, allocator, caches
    const auto start = Clock::now();
    int rounds = 0;
    while (errors.empty() &&
           (rounds < kMinRounds ||
            secondsBetween(start, Clock::now()) < opt.seconds)) {
        enginePass(true);
        if (opt.trace) {
            serialPass(nullptr);
            serialPass(rec);
        }
        setUp();
        ++rounds;
    }

    std::vector<Metric> metrics;
    if (have_first && !opt.trace) {
        std::vector<double> rates;
        for (double s : pass_s)
            rates.push_back(items / s);
        metrics = {
            {"sim_items_per_kcycle",
             ratio(1000.0 * items, double(busyCycles(first.unit))),
             "items/kcycle"},
            {"sim_job_latency_p50_cycles",
             double(nearestRank(first.job_latencies, 0.50)), "cycles"},
            {"sim_job_latency_p99_cycles",
             double(nearestRank(first.job_latencies, 0.99)), "cycles"},
            {"host_items_per_s", median(rates), "items/s"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else if (have_first) {
        unitMetrics(first.unit, items, metrics);
        const sim::EngineConfig &cfg = w->config();
        {
            ScopedSpan s(rec, "synth.ChipCostModel");
            const synth::ChipCostModel cost;
            metrics.push_back({"synth.area_mm2",
                               cost.area(cfg, kClockGhz).total_mm2(),
                               "mm2"});
            metrics.push_back(
                {"synth.power_w",
                 cost.power(cfg, first.unit, kClockGhz).total_w(), "W"});
        }
        metrics.insert(metrics.end(), std::begin(kWorkloadSpecific),
                       std::end(kWorkloadSpecific));
        w->layerMetrics(first, recorder, metrics);

        metrics.push_back({"fp.softfloat_ops_per_s",
                           softfloatOpsPerSecond(opt.seed, rec), "ops/s"});
        metrics.push_back(
            {"core.datapath_beats_per_s",
             datapathBeatsPerSecond(first.unit, cfg.dp, opt.seed, rec),
             "beats/s"});
        std::vector<double> batch_us;
        for (double s : traced_last.batch_s)
            batch_us.push_back(s * 1e6);
        const double exec_s =
            std::accumulate(traced_last.batch_s.begin(),
                            traced_last.batch_s.end(), 0.0);
        metrics.push_back({"sim.executor.host_us_per_batch_p50",
                           median(batch_us), "us"});
        metrics.push_back(
            {"sim.executor.host_us_per_batch_max",
             batch_us.empty()
                 ? 0.0
                 : *std::max_element(batch_us.begin(), batch_us.end()),
             "us"});
        metrics.push_back({"sim.executor.sim_cycles_per_s",
                           ratio(double(traced_last.sim_cycles), exec_s),
                           "cycles/s"});
        metrics.push_back({"sim.engine.parallel_efficiency",
                           ratio(median(serial_plain_s),
                                 double(cfg.threads) * median(pass_s)),
                           "ratio"});
        metrics.push_back({"bvh.builder.build_s",
                           median(recorder.durations("bvh.builder.build")),
                           "s"});
        metrics.push_back(
            {"trace.overhead_share",
             ratio(median(serial_traced_s) - median(serial_plain_s),
                   median(serial_plain_s)),
             "ratio"});
    }

    std::printf("# workload %s seed %llu: %zu items per pass, %d timed "
                "rounds, %llu attempted, %llu failed (error_rate %.3g)\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                w->items(), rounds, (unsigned long long)attempted,
                (unsigned long long)failed,
                ratio(double(failed), double(attempted)));
    std::printf("# job latency samples per pass: %zu\n",
                first.job_latencies.size());
    if (opt.trace) {
        std::printf("# host self time per span (traced run):\n");
        for (const auto &[name, s] : recorder.selfSeconds())
            std::printf("#   %-32s %10.6f s\n", name.c_str(), s);
        if (!opt.spans_path.empty() && !recorder.write(opt.spans_path))
            errors.push_back("cannot write spans to " + opt.spans_path);
    }
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value))
            errors.push_back("metric " + m.name + " is not finite");
    for (const std::string &e : errors)
        std::printf("# ERROR %s\n", e.c_str());

    const bool correct = have_first && errors.empty() && failed == 0;
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
