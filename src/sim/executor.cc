/**
 * @file
 * Executor-tier implementation: one batch through one fresh chip of
 * lock-stepped units (CycleAccurate, one unit by default) or through
 * the functional traverser.
 *
 * The submission order is the contract here: ref k goes to unit
 * k % units with local id k / units (round-robin, so adjacent —
 * typically coherent — rays land on different units and give a shared
 * L2 cross-unit merges to find). At one unit that is ref k as local id
 * k, so callers that gather a contiguous ray range into refs
 * reproduce the pre-refactor engine schedules bit-for-bit: the unit
 * sees the same rays with the same ids in the same order.
 */
#include "sim/executor.hh"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bvh/traversal.hh"

namespace rayflex::sim
{

BatchExecutor::BatchExecutor(const bvh::Bvh4 &bvh,
                             const ExecutorConfig &cfg)
    : bvh_(bvh), cfg_(cfg)
{
}

BatchExecutor::BatchExecutor(const bvh::KnnIndex &index,
                             const ExecutorConfig &cfg)
    : bvh_(index.bvh), knn_index_(&index), cfg_(cfg)
{
}

namespace
{

/** The one cycle-accurate runner and the only code that steps an
 *  RtUnit, for ray and k-NN batches at every unit count: build
 *  cfg.chip.clampedUnits() fresh units (`make`), attach the L2 tier
 *  and the trace sink, hand item k to unit k % units as local id
 *  k / units (`submit`), step the units until no item is outstanding,
 *  then merge the stats and scatter the results (`gather`). */
template <class Make, class Submit, class Gather>
BatchResult
runChip(const ExecutorConfig &cfg, size_t n, Make make, Submit submit,
        Gather gather)
{
    const unsigned units = cfg.chip.clampedUnits();

    std::vector<std::unique_ptr<bvh::RtUnit>> us;
    us.reserve(units);
    for (unsigned u = 0; u < units; ++u)
        us.push_back(make());

    std::unique_ptr<bvh::SharedL2> shared;
    std::vector<std::unique_ptr<bvh::SharedL2>> priv;
    if (cfg.chip.l2 == L2Mode::Shared) {
        shared = std::make_unique<bvh::SharedL2>(cfg.chip.l2cfg);
        for (unsigned u = 0; u < units; ++u)
            us[u]->attachSharedL2(shared.get(), u);
    } else if (cfg.chip.l2 == L2Mode::Private) {
        priv.reserve(units);
        for (unsigned u = 0; u < units; ++u) {
            priv.push_back(
                std::make_unique<bvh::SharedL2>(cfg.chip.l2cfg));
            // Every unit sits at ring stop 0 of its own private L2:
            // no interconnect sharing to model.
            us[u]->attachSharedL2(priv[u].get(), 0);
        }
    }

    // One sink per batch: the units tick lock-step on this thread, so
    // emission order is deterministic (see BatchResult::trace).
    obs::VectorTraceSink sink;
    if (cfg.trace) {
        for (unsigned u = 0; u < units; ++u)
            us[u]->attachTrace(&sink, u);
        if (shared)
            shared->setTraceSink(&sink);
    }

    for (size_t k = 0; k < n; ++k)
        submit(*us[k % units], k, uint32_t(k / units));

    const auto outstanding = [&us] {
        size_t left = 0;
        for (const auto &u : us)
            left += u->outstanding();
        return left;
    };
    // One cycle: every unit publishes, then every unit advances, in
    // unit order (the order the trace pins depend on).
    uint64_t ticks = 0;
    while (outstanding() > 0 && ticks < cfg.max_cycles_per_batch) {
        for (auto &u : us)
            u->publish();
        for (auto &u : us)
            u->advance(ticks);
        ++ticks;
    }
    if (const size_t left = outstanding())
        throw std::runtime_error(
            "BatchExecutor: a batch of " + std::to_string(n) +
            " items on " + std::to_string(units) +
            " unit(s) did not finish within max_cycles_per_batch (" +
            std::to_string(cfg.max_cycles_per_batch) + " cycles): " +
            std::to_string(left) + " item(s) unfinished");

    BatchResult res;
    for (auto &u : us)
        res.unit.merge(u->endRun());
    if (cfg.chip.active()) // RtUnitStats::chip_cycles: 0 off chip mode
        res.unit.chip_cycles = ticks;
    res.sim_cycles = ticks;
    if (shared) {
        res.unit.l2_banks = shared->bankStats();
    } else {
        for (const auto &p : priv) {
            const std::vector<bvh::L2Stats> &bs = p->bankStats();
            if (res.unit.l2_banks.size() < bs.size())
                res.unit.l2_banks.resize(bs.size());
            for (size_t b = 0; b < bs.size(); ++b)
                res.unit.l2_banks[b].merge(bs[b]);
        }
    }

    for (size_t k = 0; k < n; ++k)
        gather(*us[k % units], k, k / units);
    res.trace = sink.take();
    return res;
}

} // namespace

void
appendBatchTrace(std::vector<obs::TraceRecord> &out, size_t bi,
                 size_t items, uint64_t start, const BatchResult &br)
{
    out.push_back({start, 0, obs::TraceEvent::BatchStart, uint64_t(bi),
                   uint64_t(items)});
    for (obs::TraceRecord rec : br.trace) {
        rec.cycle += start;
        out.push_back(rec);
    }
    out.push_back({start + br.sim_cycles, 0, obs::TraceEvent::BatchEnd,
                   uint64_t(bi), uint64_t(items)});
}

BatchResult
BatchExecutor::executeKnnBatch(const KnnBatchRef *refs, size_t n) const
{
    if (!knn_index_)
        throw std::logic_error(
            "BatchExecutor::executeKnnBatch: executor was not "
            "constructed over a KnnIndex");

    if (cfg_.model == ExecutionModel::CycleAccurate)
        return runChip(
            cfg_, n,
            [&] {
                return std::make_unique<bvh::RtUnit>(*knn_index_, cfg_.dp,
                                                     cfg_.rt);
            },
            [&](bvh::RtUnit &u, size_t k, uint32_t id) {
                u.submitKnn(*refs[k].query, id);
            },
            [&](const bvh::RtUnit &u, size_t k, size_t id) {
                *refs[k].out = u.knnResults()[id];
            });

    BatchResult res;
    bvh::KnnTraversal trav(*knn_index_);
    for (size_t k = 0; k < n; ++k)
        *refs[k].out = trav.search(*refs[k].query);
    res.unit.knn = trav.stats();
    // No clock in the Functional model; charge the idealized
    // one-distance-beat-per-cycle datapath occupancy.
    res.sim_cycles = res.unit.knn.distance_beats;
    return res;
}

BatchResult
BatchExecutor::executeBatch(const BatchRayRef *refs, size_t n,
                            bool any_hit) const
{
    if (cfg_.model == ExecutionModel::CycleAccurate) {
        const bvh::TraversalMode mode = any_hit
                                            ? bvh::TraversalMode::Any
                                            : bvh::TraversalMode::Closest;
        return runChip(
            cfg_, n,
            [&] {
                return std::make_unique<bvh::RtUnit>(bvh_, cfg_.dp, cfg_.rt,
                                                     mode);
            },
            [&](bvh::RtUnit &u, size_t k, uint32_t id) {
                u.submit(*refs[k].ray, id, refs[k].job);
            },
            [&](const bvh::RtUnit &u, size_t k, size_t id) {
                *refs[k].out = u.results()[id];
            });
    }

    BatchResult res;
    bvh::Traverser trav(bvh_);
    if (any_hit) {
        for (size_t k = 0; k < n; ++k)
            *refs[k].out = bvh::HitRecord{trav.anyHit(*refs[k].ray)};
    } else {
        for (size_t k = 0; k < n; ++k)
            *refs[k].out = trav.closestHit(*refs[k].ray);
    }
    res.traversal = trav.stats();
    // The Functional model has no clock; charge the streaming
    // timeline its idealized datapath occupancy of one intersection
    // op per cycle.
    res.sim_cycles = res.traversal.box_ops + res.traversal.tri_ops;
    return res;
}

} // namespace rayflex::sim
