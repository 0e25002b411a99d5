/**
 * @file
 * Executor tier: one batch of rays through the simulation machinery.
 *
 * The engine stack is three layers (see ARCHITECTURE.md):
 *
 *   job tier        sim::RenderJob                 (sim/stream.hh)
 *   scheduler tier  sim::BatchScheduler            (sim/stream.hh)
 *   executor tier   sim::BatchExecutor             (this file)
 *
 * The executor is the narrow seam everything above shares: it knows
 * how to simulate ONE batch — a flat array of ray references — on a
 * freshly constructed chip of lock-stepped units (one unit by default)
 * or on the functional traverser, and report the batch's stats plus its
 * simulated-cycle cost. It holds no queues, no threads and no
 * cross-batch state, which is what makes every layer above it free to
 * regroup rays (sharded Engine batches, cross-job packed streaming
 * batches) without touching simulation semantics: hit records depend
 * only on (ray, BVH, traversal mode), and each batch's evolution
 * depends only on its own contents. The traversal mode is an argument
 * of each ray batch, handed to the units the batch builds;
 * sim::ExecutorConfig holds every other setting, once, and
 * sim::EngineConfig extends it.
 */
#ifndef RAYFLEX_SIM_EXECUTOR_HH
#define RAYFLEX_SIM_EXECUTOR_HH

#include <algorithm>
#include <cstdint>

#include "bvh/rt_unit.hh"

namespace rayflex::sim
{

/** How each batch is evaluated. */
enum class ExecutionModel : uint8_t {
    /** Cycle-accurate: a bvh::RtUnit drives its datapath lanes (each
     *  an 11-cycle delay line over the stage functions), so the report
     *  carries cycle counts, utilization and memory stalls. */
    CycleAccurate,
    /** Functional: a bvh::Traverser invokes the datapath arithmetic
     *  directly (same intersection decisions, no timing). Orders of
     *  magnitude faster; the model for image rendering and validation
     *  sweeps. */
    Functional,
};

/** What backs the chip's per-unit L1s in chip mode. */
enum class L2Mode : uint8_t {
    /** No second tier: every unit's L1 terminates at its own latency
     *  (the pre-chip memory path, bit-for-bit at units == 1). */
    Off,
    /** One bvh::SharedL2 serves every unit in the batch: units contend
     *  for banks and merge cross-unit fills — the chip the tentpole
     *  models. */
    Shared,
    /** One private SharedL2 per unit (no contention, no cross-unit
     *  merges): the iso-capacity baseline BM_UnitScalingSweep compares
     *  sharing against. Callers wanting equal total capacity derive
     *  the per-unit geometry with bvh::L2Config::dividedAcross(units),
     *  which rejects a sets count that does not divide evenly. */
    Private,
};

/** Most units a chip batch may step in lock-step. */
inline constexpr unsigned kMaxChipUnits = 16;

/** The chip every CycleAccurate batch runs on. Each batch is run by
 *  `units` RT units stepping in deterministic lock-step (per cycle,
 *  every unit's publish() and then every unit's advance(), in unit
 *  order): item i of the batch goes to unit i % units.
 *  The chip is freshly constructed per batch, so sharing is confined
 *  within a batch and the engine's bit-identical-at-every-worker-count
 *  contract holds for hits, timing and every L2 counter. The defaults
 *  (one unit, no L2) are the single-unit model. */
struct ChipConfig
{
    /** RT units per chip, clamped to 1..kMaxChipUnits
     *  (clampedUnits()). */
    unsigned units = 1;

    /** Second memory tier behind the per-unit L1s. Only the NodeCache
     *  L1 backend routes misses to it; FixedLatency ignores the tier
     *  (its flat latency already stands in for the whole system). */
    L2Mode l2 = L2Mode::Off;

    /** Geometry and timing of the L2 tier (Shared and Private). */
    bvh::L2Config l2cfg;

    /** True when this config changes anything over a single unit
     *  (the defaults leave chip mode off); only then does a batch
     *  report BatchResult::unit.chip_cycles. */
    bool
    active() const
    {
        return units > 1 || l2 != L2Mode::Off;
    }

    /** The unit count a chip batch steps (and the cost model prices):
     *  `units` clamped to 1..kMaxChipUnits. */
    unsigned
    clampedUnits() const
    {
        return std::clamp(units, 1u, kMaxChipUnits);
    }
};

/** One ray of a batch, by reference: where to read the ray, where to
 *  write its hit record, and which job (submission stream) it belongs
 *  to. The gather/scatter indirection is what lets the scheduler tier
 *  compose a batch from non-contiguous rays of several jobs while the
 *  executor stays a flat loop. `job` feeds bvh::PendingRay tagging
 *  (cross-job fetch-share accounting) and never affects results. */
struct BatchRayRef
{
    const core::Ray *ray = nullptr;
    bvh::HitRecord *out = nullptr;
    uint32_t job = 0;
};

/** One k-NN query of a batch, by reference: where to read the query
 *  and where to write its neighbor list. The k-NN analogue of
 *  BatchRayRef. */
struct KnnBatchRef
{
    const bvh::KnnQuery *query = nullptr;
    bvh::KnnResult *out = nullptr;
};

/** What one executed batch reports back. */
struct BatchResult
{
    /** Unit counters (CycleAccurate; zero under Functional, except
     *  that k-NN batches carry their traversal counters in `unit.knn`
     *  under either model). */
    bvh::RtUnitStats unit;
    /** Ray traversal counters (Functional; zero under CycleAccurate). */
    bvh::TraversalStats traversal;
    /** Simulated cycles this batch occupied the executor: lock-step
     *  chip ticks under CycleAccurate (a single unit's cycles), and the
     *  idealized one-op-per-cycle datapath ops (box + triangle) under
     *  the Functional model. The scheduler tier's simulated timeline
     *  charges each batch exactly this. */
    uint64_t sim_cycles = 0;

    /** Cycle-stamped events of this batch (ExecutorConfig::trace, on
     *  the batch-local clock starting at 0); empty with tracing off or
     *  under the Functional model. A chip batch's units share one sink
     *  and tick lock-step on one thread, so the order is deterministic
     *  and the engine's bit-identity contract extends to the trace. */
    std::vector<obs::TraceRecord> trace;
};

/** Append batch `bi`'s trace to `out` on the caller's simulated
 *  timeline: a BatchStart marker at `start`, the batch's records
 *  rebased from its batch-local clock by `start`, and a BatchEnd
 *  marker at start + br.sim_cycles; both markers carry the batch
 *  index and its `items` count. The engine and the streaming service
 *  build their traces from it. */
void appendBatchTrace(std::vector<obs::TraceRecord> &out, size_t bi,
                      size_t items, uint64_t start,
                      const BatchResult &br);

/** Executor configuration: everything the simulation of one batch
 *  depends on except the traversal mode, which executeBatch() takes
 *  per batch. sim::EngineConfig extends it with the engine's sharding
 *  knobs. */
struct ExecutorConfig
{
    ExecutionModel model = ExecutionModel::CycleAccurate;

    /** Per-batch RT-unit parameters (CycleAccurate): the memory
     *  backend (rt.mem_backend, rt.cache), rt.issue_width datapath
     *  lanes, the rt.mshrs MSHR file and the rt.packet wavefront
     *  scheduler. Each batch's units own cold private memory models,
     *  and every knob at its default keeps the single-issue,
     *  unbounded, scalar schedule bit-for-bit; none changes a hit
     *  record. */
    bvh::RtUnitConfig rt;

    /** Per-batch datapath configuration (CycleAccurate). */
    core::DatapathConfig dp = core::kBaselineUnified;

    /** Multi-unit chip mode (CycleAccurate); inactive by default.
     *  Hit records stay bit-identical in every chip configuration. */
    ChipConfig chip;

    /** Simulation-cycle budget per batch before the run is declared
     *  hung (CycleAccurate model). */
    uint64_t max_cycles_per_batch = 100000000ull;

    /** Collect deterministic event traces (obs/trace.hh) into
     *  BatchResult::trace. CycleAccurate only; off (the default) costs
     *  nothing and leaves every counter bit-identical. Events from a
     *  Private-L2 chip's banks are not collected (their per-unit bank
     *  ids would alias on one track); the Shared L2 is. */
    bool trace = false;

    /** True when batches collect traces: `trace` on under the
     *  CycleAccurate model (the Functional model has no clock). */
    bool
    traced() const
    {
        return trace && model == ExecutionModel::CycleAccurate;
    }
};

/**
 * The executor: simulates one batch at a time, statelessly. Safe to
 * share across worker threads — executeBatch() touches nothing but its
 * arguments and freshly constructed locals, so any number of workers
 * may execute distinct batches of one executor concurrently.
 */
class BatchExecutor
{
  public:
    BatchExecutor(const bvh::Bvh4 &bvh, const ExecutorConfig &cfg);

    /** k-NN executor: batches are k-NN queries against `index`
     *  (executeKnnBatch) instead of rays. The ray path stays available
     *  over index.bvh, though a k-NN executor is normally used for one
     *  kind of batch only. The index must outlive the executor. */
    BatchExecutor(const bvh::KnnIndex &index, const ExecutorConfig &cfg);

    /**
     * Simulate `n` rays as one batch. Hit records are scattered
     * through the refs' `out` pointers; any-hit batches fill only the
     * `hit` flag (the usual reduced-record contract). CycleAccurate
     * batches run on a fresh chip of cfg.chip.clampedUnits() units
     * (one by default), round-robin: ray k goes to unit k % units.
     *
     * @throws std::runtime_error when the batch exceeds
     *         max_cycles_per_batch (CycleAccurate model).
     */
    BatchResult executeBatch(const BatchRayRef *refs, size_t n,
                             bool any_hit) const;

    /**
     * Simulate `n` k-NN queries as one batch (k-NN executors only).
     * Results scatter through the refs' `out` pointers. Queries go
     * through the same chip runner as rays, round-robin over the
     * units.
     * @throws std::logic_error when this executor was not constructed
     *         over a KnnIndex.
     * @throws std::runtime_error when the batch exceeds
     *         max_cycles_per_batch (CycleAccurate model).
     */
    BatchResult executeKnnBatch(const KnnBatchRef *refs,
                                size_t n) const;

  private:
    const bvh::Bvh4 &bvh_;
    const bvh::KnnIndex *knn_index_ = nullptr;
    ExecutorConfig cfg_;
};

} // namespace rayflex::sim

#endif // RAYFLEX_SIM_EXECUTOR_HH
