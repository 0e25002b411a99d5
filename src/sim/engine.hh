/**
 * @file
 * Sharded multi-threaded batch simulation engine.
 *
 * The paper evaluates one RayFlex datapath at a time; serving a real
 * rendering or search workload means simulating many rays against the
 * same scene, and the cycle-accurate model is embarrassingly parallel
 * across rays as long as each worker owns its own pipeline state. The
 * engine is the batch-synchronous front of the three-tier stack (job /
 * scheduler / executor — see sim/executor.hh and sim/stream.hh): it
 * shards a ray workload into fixed batches (core::sliceBatches), has
 * worker threads claim batches, gather each into executor ray refs and
 * run them through one shared sim::BatchExecutor (which constructs
 * fresh bvh::RtUnits — or, in the functional model, a bvh::Traverser —
 * per batch against the shared immutable Scene/BVH), and merges the
 * per-batch statistics in batch order into an aggregate report.
 * sim::EngineConfig is the executor's configuration plus the two
 * sharding knobs (threads, batch_size); the traversal mode is not a
 * setting but an argument of each run().
 *
 * Determinism contract: per-ray hit records and the merged statistics
 * are bit-identical for every thread count. Three properties make this
 * hold, and the engine is structured around them:
 *   1. the batch decomposition depends only on (ray count, batch_size),
 *      never on the worker count;
 *   2. each batch is simulated by a freshly constructed unit whose
 *      evolution depends only on the batch contents and the shared BVH;
 *   3. each batch writes its statistics into its own slot and the
 *      slots merge in batch order (RtUnitStats::merge /
 *      TraversalStats::merge), so the claim order of batches by
 *      workers cannot change the aggregate.
 *
 * Worker threads are persistent: the first multi-threaded run() lazily
 * spawns a pool sized to the configured thread count, and every later
 * run() of the same engine reuses it, so multi-pass scenarios (primary,
 * shadow, ambient-occlusion, bounce batches - see sim/passes.hh) stop
 * paying thread creation per pass. The same pool also executes
 * sim::StreamingService batches (sim/stream.hh) through the same batch
 * loop. The pool never affects results: each batch writes its own
 * result slot, and the slots merge in batch order.
 */
#ifndef RAYFLEX_SIM_ENGINE_HH
#define RAYFLEX_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/workloads.hh"
#include "sim/executor.hh"

namespace rayflex::sim
{

/** Engine configuration: the executor configuration every batch runs
 *  under, plus how the engine shards a workload into batches. With
 *  `trace` on, EngineReport::trace holds the per-batch events on the
 *  engine's sequential simulated timeline (batch k starts where batch
 *  k-1 ended), bit-identical at every worker count; runKnn() reports no
 *  trace. */
struct EngineConfig : ExecutorConfig
{
    /** Worker threads; 0 picks std::thread::hardware_concurrency(). */
    unsigned threads = 0;

    /** Rays per batch. The batch layout - not the thread count - is the
     *  unit of work distribution, so changing `threads` never changes
     *  any result. 0 means one batch for the whole workload. */
    size_t batch_size = 1024;
};

/** Aggregate result of an engine run. */
struct EngineReport
{
    /** Hit records in ray order (parallel to the input).
     *
     *  Closest-hit runs fill every field. Any-hit runs (run()'s
     *  `any_hit`) fill ONLY the `hit` flag: t,
     *  triangle_id and u/v/w stay value-initialized at zero, in both
     *  execution models. The records therefore stay operator==- and
     *  bit-comparable across models, but consumers of an any-hit run
     *  must read nothing beyond the flag. */
    std::vector<bvh::HitRecord> hits;

    /** Merged RT-unit counters (CycleAccurate model). `cycles` is the
     *  sum of simulated cycles across batches - the sequential-machine
     *  cycle count - not wall-clock. `unit.mem` carries the merged
     *  node-cache counters (hits/misses/evictions summed across
     *  batches; all-zero under the flat-latency backend), `unit.mshr`
     *  the merged MSHR-file counters (all-zero when rt.mshrs == 0)
     *  and `unit.packet` the wavefront counters, including
     *  compactions (all-zero in scalar mode). Chip mode adds
     *  `unit.chip_cycles` (lock-step chip ticks summed over batches)
     *  and `unit.l2_banks` (per-bank L2 counters, merged bank-by-bank
     *  across batches); both stay zero/empty when chip is inactive. */
    bvh::RtUnitStats unit;

    /** Merged traversal counters (Functional model). */
    bvh::TraversalStats traversal;

    size_t batches = 0;
    unsigned threads_used = 0;

    /** Cycle-stamped events on the sequential simulated timeline
     *  (EngineConfig::trace); empty with tracing off. Feed to
     *  obs::writeChromeTrace for Perfetto/chrome://tracing. */
    std::vector<obs::TraceRecord> trace;

    /** Host wall-clock for the sharded run (not part of the determinism
     *  contract). */
    double elapsed_seconds = 0;

    /** Host-side simulation throughput. */
    double
    raysPerSecond() const
    {
        return elapsed_seconds > 0 ? double(hits.size()) / elapsed_seconds
                                   : 0.0;
    }
};

/** Aggregate result of an engine k-NN run (Engine::runKnn). */
struct KnnReport
{
    /** Neighbor lists in query order (parallel to the input), each
     *  sorted ascending by (score, id) — bit-identical across worker
     *  counts, execution models and every memory/issue knob. */
    std::vector<bvh::KnnResult> results;

    /** Merged RT-unit counters (CycleAccurate model). `unit.knn`
     *  carries the merged k-NN traversal counters under EITHER model;
     *  under Functional it is the only nonzero field. */
    bvh::RtUnitStats unit;

    size_t batches = 0;
    unsigned threads_used = 0;

    /** Host wall-clock (not part of the determinism contract). */
    double elapsed_seconds = 0;
};

/**
 * The batch simulation engine. A run() call carries no simulation
 * state in or out: every batch goes through a sim::BatchExecutor that
 * constructs its simulation units fresh, so one engine can serve many
 * scenes and workloads back to back and no run's results depend on a
 * previous run. One piece of host-side state DOES persist across runs
 * — the worker pool, a pure performance cache — and it is why the
 * engine is not copyable. run() stays safe to call from different
 * threads, with concurrent runs serializing on the shared pool (each
 * caller still gets the report of exactly the rays it passed).
 */
class Engine
{
  public:
    explicit Engine(const EngineConfig &cfg = {});
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Trace every ray against the BVH and merge the statistics.
     *  `any_hit` runs shadow/occlusion queries: each ray stops at the
     *  first intersection inside its extent [t_beg, t_end] instead of
     *  resolving the closest one (Traverser::anyHit under Functional,
     *  RT units in bvh::TraversalMode::Any under CycleAccurate, so
     *  occlusion batches can be timed). The mode is per run, so one
     *  engine - and its persistent worker pool - serves both the
     *  closest-hit and the occlusion passes of a multi-pass scenario
     *  (see sim/passes.hh).
     *  @throws std::runtime_error when a batch exceeds
     *          max_cycles_per_batch (CycleAccurate model). */
    EngineReport run(const bvh::Bvh4 &bvh,
                     const std::vector<core::Ray> &rays,
                     bool any_hit = false) const;

    /**
     * Answer every k-NN query against the index and merge the
     * statistics — the second query kind the engine serves, sharded
     * and merged under exactly the ray contract: batch decomposition
     * independent of the worker count, a fresh unit (or chip) per
     * batch, commutative-associative stats merge, so results AND
     * merged counters are bit-identical at every thread count.
     * Chip mode round-robins queries over the units.
     * @throws std::invalid_argument under the CycleAccurate model when
     *         EngineConfig::dp is not an extended config (the distance
     *         opcodes are missing otherwise).
     */
    KnnReport runKnn(const bvh::KnnIndex &index,
                     const std::vector<bvh::KnnQuery> &queries) const;

    const EngineConfig &config() const { return cfg_; }

    /** The executor-tier part of this engine's configuration (what a
     *  sim::BatchExecutor over the same knobs runs). */
    const ExecutorConfig &executorConfig() const { return cfg_; }

  private:
    friend class StreamingService; ///< shares the pool (sim/stream.hh)

    class Pool;

    /** The one batch loop behind run(), runKnn() and
     *  StreamingService::run: call fn(0) .. fn(n-1), each batch
     *  index once, with workers claiming indices off one atomic
     *  counter. Runs inline on the calling thread when one worker
     *  suffices, else on the persistent pool (serialized with other
     *  runs on pool_mutex_). After an error no further batch is
     *  claimed, and the first error is rethrown once every worker
     *  returned. @return the workers used: min(threads, n). */
    unsigned forEachBatch(size_t n,
                          const std::function<void(size_t)> &fn) const;

    EngineConfig cfg_;
    unsigned resolved_threads_ = 1; ///< cfg.threads with 0 resolved

    /** Lazily created on the first run() that needs more than one
     *  worker, then reused by every later run(). */
    mutable std::unique_ptr<Pool> pool_;
    mutable std::mutex pool_mutex_; ///< guards creation and dispatch
};

} // namespace rayflex::sim

#endif // RAYFLEX_SIM_ENGINE_HH
