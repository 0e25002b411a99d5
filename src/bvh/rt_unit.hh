/**
 * @file
 * A cycle-level RT unit around the RayFlex datapath.
 *
 * The paper models only the intersection-test datapath (the highlighted
 * box of Fig. 2) and defers warp management and memory scheduling to the
 * enclosing RT unit (as modelled by Vulkan-Sim). This module provides a
 * simplified version of that enclosing unit so the datapath can be
 * exercised under realistic traversal traffic: a ray buffer holds
 * in-flight rays with their traversal stacks, a pluggable MemoryModel
 * (bvh/mem_model.hh) — the unit's SHARED L1, serving every slot, and
 * optionally fronted by a bounded MSHR file (RtUnitConfig::mshrs)
 * that merges duplicate in-flight fetches and back-pressures slots
 * when full — supplies BVH data, and a scheduler feeds ready rays
 * into a datapath of RtUnitConfig::issue_width replicated lanes, up
 * to one beat per lane per cycle. The unit never back-pressures a
 * lane, so each lane is modelled as what the elastic pipeline of
 * core/datapath.hh then is: a delay line that hands every beat's
 * core::functionalEval result back exactly core::kPipelineLatency
 * cycles after acceptance. One cycle loop serves three
 * scheduling modes: the scalar mode traces one independent ray per
 * ray-buffer entry, the packet/wavefront mode (RtUnitConfig::packet,
 * bvh/packet.hh) groups coherent rays into packets that share a
 * traversal stack and one BVH fetch per visited node, optionally
 * repacking divergence-thinned packets (PacketConfig::compact_below),
 * and the k-NN mode walks a KnnIndex for nearest-neighbor queries.
 * This is the model used to measure datapath utilization, memory
 * sensitivity and rays/cycle on real scenes.
 */
#ifndef RAYFLEX_BVH_RT_UNIT_HH
#define RAYFLEX_BVH_RT_UNIT_HH

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "bvh/knn.hh"
#include "bvh/mem_model.hh"
#include "bvh/packet.hh"
#include "bvh/traversal.hh"
#include "core/config.hh"
#include "core/stages.hh"
#include "obs/slot_accounting.hh"
#include "obs/trace.hh"

namespace rayflex::bvh
{

/** Widest datapath the unit can drive (issue lanes per cycle). */
inline constexpr unsigned kMaxIssueWidth = 8;

/** RT-unit configuration. */
struct RtUnitConfig
{
    unsigned ray_buffer_entries = 32; ///< rays concurrently in flight
    /** Node fetch latency, cycles (MemBackend::FixedLatency). */
    unsigned mem_latency = 20;

    /** Datapath issue lanes, 1..kMaxIssueWidth. The unit drives up to
     *  this many beats per cycle into the datapath by replicating the
     *  one-beat-per-cycle pipeline lane: every lane is built from the
     *  unit's DatapathConfig and owns its own distance accumulators.
     *  issue_width == 1 (the default) preserves the single-beat scalar
     *  and packet schedules bit-for-bit. */
    unsigned issue_width = 1;

    /** Bounded MSHR file fronting the unit's shared L1 (bvh::MshrFile).
     *  0 (the default) disables the file — the legacy unbounded path,
     *  bit-for-bit. When > 0, duplicate in-flight fetches of the same
     *  node/leaf merge onto one outstanding entry (one miss serves
     *  them all) and a full file back-pressures NeedFetch slots until
     *  an entry retires. */
    unsigned mshrs = 0;

    /** Which memory model serves BVH fetches. The default reproduces
     *  the original flat-latency timing bit-for-bit. */
    MemBackend mem_backend = MemBackend::FixedLatency;
    /** Cache geometry and timing (MemBackend::NodeCache). */
    NodeCacheConfig cache;

    /** Packet/wavefront traversal (bvh/packet.hh). width == 1 (the
     *  default) keeps the scalar one-ray-per-entry scheduler
     *  bit-for-bit; wider packets share one node fetch across the
     *  member rays. Hit records are bit-identical either way. */
    PacketConfig packet;

    /** The config a unit actually runs, and the one the cost model
     *  prices: issue_width clamped to 1..kMaxIssueWidth, packet.width
     *  to 1..kMaxPacketWidth and packet.compact_below to packet.width.
     *  @throws std::invalid_argument when ray_buffer_entries == 0
     *          without packets: no slot could ever admit work, so the
     *          unit could only livelock. */
    RtUnitConfig normalized() const;

    /** Packet slots of the ray buffer (packet mode, on a normalized()
     *  config): a slot stands in for packet.width scalar entries, so
     *  the buffer holds the same number of rays either way, and there
     *  is always at least one. */
    unsigned
    packetSlots() const
    {
        return std::max(1u, ray_buffer_entries / packet.width);
    }
};

/** Per-run statistics. */
struct RtUnitStats
{
    uint64_t cycles = 0;
    uint64_t rays_completed = 0;
    uint64_t datapath_beats = 0;   ///< beats issued into the pipeline
    /** datapath_beats broken down by opcode (the index is
     *  core::Opcode). This is the dynamic-power stimulus for
     *  synth::ChipCostModel: each issued beat energizes exactly the
     *  functional units and route legs its opcode uses, so
     *  sum(beats_by_op) == datapath_beats == slots[Issued] on every
     *  run and across merge(). */
    std::array<uint64_t, core::kNumOpcodes> beats_by_op{};
    uint64_t mem_requests = 0;     ///< fetches that reached the L1

    /** Node-cache counters; all-zero under MemBackend::FixedLatency.
     *  Merges with the same commutative sums as the rest of the
     *  struct, so sharded aggregation stays order-independent. */
    CacheStats mem;

    /** Packet-traversal counters; all-zero in scalar mode
     *  (packet.width == 1). Same commutative-sum merge contract. */
    PacketStats packet;

    /** MSHR-file counters; all-zero when the file is disabled
     *  (mshrs == 0). Same commutative-sum merge contract. */
    MshrStats mshr;

    /** k-NN traversal counters; all-zero for ray workloads. Sums plus
     *  a max-merged frontier high-water mark — still commutative and
     *  associative, so the sharded-aggregation contract holds. */
    KnnStats knn;

    /** Top-down issue-slot attribution (obs/slot_accounting.hh): every
     *  slot of every cycle lands in exactly one bucket, so
     *  slots.total() == cycles * issue_width for a single run and the
     *  identity survives merge() (both sides are sums). The Issued
     *  bucket equals datapath_beats and the others partition
     *  datapathIdle() by cause. */
    obs::SlotAccounting slots;

    /** Issue slots (lanes x cycles) with no beat issued. At
     *  issue_width == 1 this is exactly the legacy cycles-with-no-beat
     *  counter; wider units can lose several slots per cycle. */
    uint64_t
    datapathIdle() const
    {
        return slots.total() - slots[obs::Slot::Issued];
    }

    /** Issue slots lost waiting on a fetch: to issue it (MSHR file
     *  full, issue bandwidth) or for it to return. */
    uint64_t stallOnMemory() const { return slots.memoryStallSlots(); }

    /** Chip wall-clock cycles (sim::Engine chip mode): lock-step ticks
     *  of the whole chip, summed across batches. Unlike `cycles` (which
     *  every unit accumulates until its OWN rays complete), one chip
     *  tick counts once however many units it steps. 0 outside chip
     *  mode. */
    uint64_t chip_cycles = 0;

    /** Per-bank SharedL2 counters (chip mode); empty otherwise. Merges
     *  bank-by-bank (elementwise, shorter vector zero-extended), so
     *  the commutative-sum contract extends to the bank breakdown. */
    std::vector<L2Stats> l2_banks;

    /** Sum of the per-bank L2 counters. */
    L2Stats
    l2Total() const
    {
        L2Stats t;
        for (const L2Stats &b : l2_banks)
            t.merge(b);
        return t;
    }

    /** Mean beats accepted per cycle: at most 1.0 for a single-issue
     *  unit, up to issue_width for a multi-issue one. */
    double
    utilization() const
    {
        return cycles ? double(datapath_beats) / double(cycles) : 0.0;
    }

    /** Accumulate another run's counters. Every field is a sum of
     *  uint64 counts (the bank vector sums elementwise), so merging is
     *  commutative and associative: an aggregate over many batches is
     *  identical no matter which worker ran which batch or in what
     *  order the merges happen. */
    RtUnitStats &
    merge(const RtUnitStats &o)
    {
        cycles += o.cycles;
        rays_completed += o.rays_completed;
        datapath_beats += o.datapath_beats;
        for (size_t op = 0; op < beats_by_op.size(); ++op)
            beats_by_op[op] += o.beats_by_op[op];
        mem_requests += o.mem_requests;
        mem.merge(o.mem);
        packet.merge(o.packet);
        mshr.merge(o.mshr);
        knn.merge(o.knn);
        slots.merge(o.slots);
        chip_cycles += o.chip_cycles;
        if (l2_banks.size() < o.l2_banks.size())
            l2_banks.resize(o.l2_banks.size());
        for (size_t b = 0; b < o.l2_banks.size(); ++b)
            l2_banks[b].merge(o.l2_banks[b]);
        return *this;
    }

    friend bool operator==(const RtUnitStats &,
                           const RtUnitStats &) = default;
};

/**
 * The RT unit: traverses a BVH for a batch of rays on issue_width
 * RayFlex datapath lanes built from one DatapathConfig.
 */
class RtUnit
{
  public:
    /** The unit runs cfg.normalized() (which may throw) over a
     *  private, cold MemoryModel, on lanes of the datapath `dp`
     *  describes, resolving every ray in `mode`. A unit serves one
     *  run: sim::BatchExecutor builds fresh units for every batch and
     *  steps them.
     *  @throws std::invalid_argument from advance() when a lane is
     *          offered an opcode `dp` does not implement (the same
     *          error the ticked pipeline's stage 1 raises). */
    RtUnit(const Bvh4 &bvh, const core::DatapathConfig &dp,
           const RtUnitConfig &cfg = {},
           TraversalMode mode = TraversalMode::Closest);

    /**
     * k-NN mode: the unit walks `index` for submitKnn() queries
     * instead of tracing rays. Same memory system (shared L1, MSHR
     * file, optional chip-level L2 via attachSharedL2) and the same
     * synthetic address map over index.bvh; each query walks the
     * same bvh::KnnFrontier as the functional KnnTraversal (node
     * expansion host-side, at fetch arrival) while every candidate
     * distance is evaluated as Euclidean/cosine beats through the
     * datapath lanes. The packet scheduler does not apply to k-NN
     * queries (a query is its own traversal; PacketConfig is accepted
     * and ignored). The index must outlive the unit.
     * @throws std::invalid_argument when `dp` is not an extended
     *         DatapathConfig (the distance opcodes are missing
     *         otherwise).
     */
    RtUnit(const KnnIndex &index, const core::DatapathConfig &dp,
           const RtUnitConfig &cfg = {});

    /** Packet slots hold pointers into the unit's own stats, so a unit
     *  is never copied or moved. */
    RtUnit(const RtUnit &) = delete;
    RtUnit &operator=(const RtUnit &) = delete;

    /** Queue a k-NN query (k-NN mode only); the result appears at
     *  knnResults()[query_id]. */
    void submitKnn(const KnnQuery &query, uint32_t query_id);

    /** k-NN results in query-id order (parallel to submissions). */
    const std::vector<KnnResult> &
    knnResults() const
    {
        return knn_results_;
    }

    /** Queue a ray for traversal; results appear in results(). `job`
     *  tags the submission stream the ray belongs to (bvh::PendingRay)
     *  — it never changes scheduling or results, only the cross-job
     *  attribution of shared packet fetches. */
    void submit(const core::Ray &ray, uint32_t ray_id,
                uint32_t job = 0);

    /** Route this unit's L1 misses through a chip-level shared L2 as
     *  unit `unit_id` on the ring (sim::Engine chip mode). Forwards to
     *  MemoryModel::attachNextLevel; backends without a second-tier
     *  path (FixedLatency) ignore it. Call before the first cycle. */
    void
    attachSharedL2(SharedL2 *l2, unsigned unit_id)
    {
        mem_->attachNextLevel(l2, unit_id);
    }

    /** Emit cycle-stamped fetch/MSHR/packet events to `sink` as unit
     *  `unit_id` (nullptr — the default state — disables emission; the
     *  seam idiom of obs/trace.hh). Borrowed, not owned. Call before
     *  the first cycle; tracing never changes timing or counters. */
    void
    attachTrace(obs::TraceSink *sink, unsigned unit_id)
    {
        trace_ = sink;
        trace_unit_ = unit_id;
    }

    /**
     * One clock cycle is publish() then advance(cycle); a chip steps
     * all its units' publish() before any unit's advance(), in unit
     * order (sim/executor.cc's batch runner; nothing else steps a
     * unit). publish() offers one beat per lane from the ready slots;
     * advance() accepts them, delivers the beats due this cycle,
     * serves memory and admits queued work. A unit whose items all
     * completed ignores advance(), so its `cycles` stop where its own
     * work ended.
     */
    void publish();
    void advance(uint64_t cycle);

    /** Submitted items (rays or k-NN queries) not yet completed. */
    size_t outstanding() const { return outstanding_; }

    /** The run's statistics, with the L1 counters folded in. */
    RtUnitStats endRun();

    /** Results in ray-id order (parallel to submissions). In
     *  TraversalMode::Any only the `hit` flag is meaningful. */
    const std::vector<HitRecord> &results() const { return results_; }

  private:
    enum class EntryState : uint8_t {
        Idle,        ///< slot free
        NeedFetch,   ///< next node known, fetch not yet issued
        Fetching,    ///< waiting on node memory
        ReadyBox,    ///< node data present, box beat pending
        ReadyTri,    ///< leaf data present, triangle beats pending
        InFlight,    ///< beat inside the datapath
    };

    /** One deferred unit of traversal work for a ray. */
    struct WorkItem
    {
        bool is_leaf = false;
        uint32_t index = 0; ///< node index or first triangle
        uint32_t count = 0; ///< triangle count when leaf
        float entry_t = 0;  ///< child entry distance (for pruning)
    };

    /** A fetch target: one wide node, or a whole leaf's triangles. */
    struct FetchItem
    {
        bool is_leaf = false;
        uint32_t index = 0; ///< node index or first triangle
        uint32_t count = 0; ///< triangle count when leaf
    };

    struct Entry
    {
        EntryState state = EntryState::Idle;
        core::Ray ray;
        uint32_t ray_id = 0;
        std::vector<WorkItem> stack; ///< pending work, nearest on top
        FetchItem item;              ///< work item being processed
        uint32_t leaf_next = 0;      ///< next triangle to offer
        uint32_t inflight_tri = 0;   ///< triangle of the in-flight beat
        HitRecord best;
        float t_beg = 0;
        float t_max = 0;
    };

    struct MemRequest
    {
        size_t entry;
        uint64_t addr; ///< fetch target (trace / attribution key)
        /** The fetch's timing (a merged requester's is the in-flight
         *  fill's); classifyIdle() attributes a stalled cycle to the
         *  phase `now` falls in. */
        FillTiming fill;
    };

    /** Synthetic address and size of a fetch target (the MSHR merge
     *  key and what the shared L1 is charged for). */
    void fetchTarget(const FetchItem &f, uint64_t *addr,
                     uint32_t *bytes) const;
    /** Exclusive cause of an idle issue slot this cycle (the
     *  non-Issued buckets of obs::Slot). All idle slots of one cycle
     *  share one cause, so advance() classifies lazily once per
     *  cycle. */
    obs::Slot classifyIdle() const;
    /** Step-(c) MSHR retirement (residency trace sample + refusal-flag
     *  re-arm). */
    void retireMshrs();
    /** Route one fetch through the MSHR file (when enabled) or
     *  straight to the L1. @return true when the fetch left the slot
     *  (allocated or merged); false on MSHR-full or when this
     *  cycle's one L1 fetch is already out, leaving the slot in
     *  NeedFetch. */
    bool issueFetch(size_t slot, const FetchItem &f, bool &issued);

    /** Record `event` on this unit's trace track at the current cycle.
     *  Call sites test trace_ first, so an untraced run never builds a
     *  record. */
    void
    traceEvent(obs::TraceEvent event, uint64_t a, uint64_t b = 0) const
    {
        trace_->record({now_, trace_unit_, event, a, b});
    }

    // ----- per-mode hooks of the publish/advance skeleton -----
    // A "slot" is a scalar Entry, a PacketTraversal or a KnnEntry; the
    // skeleton only ever addresses slots by index.

    /** True when the packet/wavefront scheduler is active. */
    bool packetized() const { return cfg_.packet.width > 1; }
    bool knnMode() const { return knn_index_ != nullptr; }
    size_t slotCount() const;
    /** Queued work waits for a free slot. */
    bool workPending() const;
    /** Beats slot `i` can offer this cycle (packet mode first drops
     *  the beats of retired lanes). */
    size_t offerableBeats(size_t i);
    /** Datapath input of slot `i`'s offerable beat `j`. */
    core::DatapathInput offerInput(size_t i, size_t j) const;
    /** Lane `lane` accepted its offer (offers_[lane]): evaluate the
     *  beat into the lane's delay line and update the offering slot. */
    void acceptBeat(size_t lane);
    /** The classifyIdle inputs: a slot sits in NeedFetch; work is
     *  ready for or riding the issue lanes. */
    void slotOccupancy(bool *need_fetch, bool *in_datapath) const;
    /** Slot `i`'s fetch target; false when it is not in NeedFetch. */
    bool pendingFetch(size_t i, FetchItem *f) const;
    /** Packet compaction window: true defers slot `i`'s fetch. */
    bool holdFetch(size_t i);
    void fetchIssued(size_t i);
    void fillArrived(size_t i);
    struct InflightBeat;
    /** A lane delivered `ib`, kPipelineLatency cycles after accept. */
    void laneResult(const InflightBeat &ib);
    /** Admit queued work into slot `i` if it is free. */
    void admitWork(size_t i);

    // ----- scalar mode -----
    void popWork(Entry &e);
    void finishRay(Entry &e, const HitRecord &rec);
    void handleResult(const core::DatapathOutput &out);

    // ----- k-NN mode (constructed over a KnnIndex) -----

    /** One in-flight k-NN query: its own best-first frontier, fetch
     *  target, pending candidate jobs and top-k set. */
    struct KnnEntry
    {
        EntryState state = EntryState::Idle;
        uint32_t query_id = 0;
        uint32_t k = 0;
        KnnMetric metric = KnnMetric::Euclidean;
        std::vector<float> point;
        KnnTopK topk;
        KnnFrontier frontier;
        FetchItem fetch;
        /** Fetched-leaf candidates (tri indices) not yet started. */
        std::deque<uint32_t> pending_cands;
        /** Candidates started on a lane, score not yet drained. */
        uint32_t inflight_cands = 0;
        /** All frontier/pending work exhausted; waiting on inflight
         *  scores (EntryState::Idle plus this flag would be ambiguous
         *  with a free slot, hence the extra state). */
        bool draining = false;
    };

    /** A candidate's beats streaming down one lane. The lane is locked
     *  to the candidate from the first accepted beat until the last
     *  beat is accepted, so two same-kind jobs never interleave within
     *  one lane's accumulator. */
    struct KnnLaneJob
    {
        uint32_t slot = 0;      ///< entry slot of the candidate's query
        uint32_t tri = 0;       ///< the candidate (triangle index)
        uint32_t next_beat = 0; ///< next beat to offer
        uint32_t beats = 0;     ///< the job's beat count
        bool active() const { return next_beat < beats; }
    };

    /** A queued query waiting for a free entry slot. */
    struct PendingKnn
    {
        KnnQuery query;
        uint32_t query_id = 0;
    };

    /** Pop the next non-prunable frontier item into the fetch target
     *  (state NeedFetch), or mark the entry draining. */
    void popKnnFrontier(KnnEntry &e);
    void handleKnnResult(const core::DatapathOutput &out);
    void finishKnnQuery(KnnEntry &e);
    /** Finish a draining entry once its last in-flight score landed. */
    void
    maybeFinishKnn(KnnEntry &e)
    {
        if (e.draining && e.inflight_cands == 0)
            finishKnnQuery(e);
    }
    /** Distance beat `beat` of candidate (triangle) `tri` for entry
     *  slot `slot`'s query. */
    core::DatapathInput knnCandidateBeat(size_t slot, uint32_t tri,
                                         size_t beat) const;

    const KnnIndex *knn_index_ = nullptr;
    std::vector<KnnEntry> knn_entries_;
    std::vector<KnnLaneJob> knn_lane_;
    std::deque<PendingKnn> pending_knn_;
    std::vector<KnnResult> knn_results_;

    // ----- packet mode -----
    void drainCompleted(PacketTraversal &p);
    void compactPackets();

    const Bvh4 &bvh_;
    core::DatapathConfig dp_; ///< what every lane implements
    RtUnitConfig cfg_;
    TraversalMode mode_; ///< what every ray resolves
    std::unique_ptr<MemoryModel> mem_; ///< the unit's shared L1
    MshrFile mshrs_;        ///< outstanding-request file (may be off)
    uint64_t tri_base_ = 0; ///< triangle region base address

    /** Repacking window: cycles a below-threshold packet defers its
     *  next fetch waiting for a compaction partner to reach a fetch
     *  boundary, before giving up and continuing alone. Sized to the
     *  order of one fetch round-trip, so a thinned packet can catch a
     *  partner that is still waiting on memory. */
    static constexpr unsigned kCompactWaitCycles = 16;

    std::vector<Entry> entries_;   ///< scalar mode (packet.width == 1)
    std::vector<PacketTraversal> packets_; ///< packet mode
    /** Per-packet repacking-window progress (packet mode). */
    std::vector<unsigned> compact_hold_;
    std::deque<PendingRay> pending_rays_;
    std::deque<MemRequest> mem_queue_;
    std::vector<HitRecord> results_;
    size_t outstanding_ = 0;
    uint64_t now_ = 0;
    RtUnitStats stats_;
    obs::TraceSink *trace_ = nullptr; ///< borrowed; null = disabled
    unsigned trace_unit_ = 0;         ///< unit id stamped on events
    /** Last emitted PacketOccupancy sample (~0 = none yet), so the
     *  counter track only records changes. */
    uint64_t trace_occupancy_last_ = ~uint64_t(0);
    /** Set by issueFetch when a full MSHR file refused a fetch this
     *  cycle; read (and reset) by the schedulers' idle classification. */
    bool mshr_refused_ = false;

    /** Per-lane issue bookkeeping, reset each publish(). A lane with
     *  no offer this cycle holds entry == kNoOffer. */
    static constexpr size_t kNoOffer = ~size_t(0);
    struct LaneOffer
    {
        size_t entry = kNoOffer; ///< slot index
        size_t beat = 0;         ///< the slot's offerable-beat index
        core::DatapathInput in;  ///< the offered beat
    };
    std::vector<LaneOffer> offers_;

    /** A beat riding a lane: its result, and the slot (plus, in packet
     *  mode, the member beat) it answers. */
    struct InflightBeat
    {
        bool valid = false;
        core::DatapathOutput out;
        size_t slot = 0;
        PacketBeat beat;
    };
    /** Ring slots per lane, indexed by accept cycle. More than
     *  kPipelineLatency, so a beat's slot is not reused before the
     *  beat leaves; a power of two, so the index is a mask. */
    static constexpr size_t kLaneSlots = 16;
    static_assert(kLaneSlots > core::kPipelineLatency &&
                  (kLaneSlots & (kLaneSlots - 1)) == 0);
    /** One issue lane as a delay line. The unit is always ready for a
     *  lane's output, so a beat accepted at cycle c leaves at exactly
     *  c + kPipelineLatency (the core/datapath.hh contract): it is
     *  evaluated once at acceptance and its result waits in ring slot
     *  c % kLaneSlots. */
    struct Lane
    {
        std::array<InflightBeat, kLaneSlots> ring;
        /** The lane's stage-9/10 registers; beats reach them in
         *  accept order, as in the ticked pipeline. */
        core::DistanceAccumulators acc;
    };
    std::vector<Lane> lanes_;
    /** Beats riding any lane (the classifyIdle in-datapath input). */
    size_t beats_in_flight_ = 0;
};

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_RT_UNIT_HH
