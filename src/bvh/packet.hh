/**
 * @file
 * Packet/wavefront traversal: coherent ray packets with shared BVH
 * fetches.
 *
 * The paper models only the intersection-test datapath and defers warp
 * management to the enclosing RT unit. The scalar RtUnit feeds that
 * datapath one independent ray per ray-buffer entry, so a coherent
 * camera batch pays a full node fetch per ray even when neighbouring
 * rays walk the same subtree. PacketTraversal is the warp-level
 * counterpart: up to PacketConfig::width rays share ONE traversal stack
 * and ONE MemoryModel fetch per node visited — every member ray
 * consumes the fetched data — with per-ray active masks tracking
 * divergence. The datapath interface is unchanged: a packet visiting a
 * node issues one ray-box beat per active ray (SIMD-style multi-ray
 * AABB beats, pipelined back-to-back), and a leaf issues the usual
 * ray-triangle beats per (triangle, active ray) pair.
 *
 * Contract: packets change timing and memory traffic, never hits. A
 * packetized run produces bit-identical hit records to scalar
 * traversal: per-ray pruning uses exactly the scalar condition
 * (entry_t > best.t masks the ray off a work item instead of popping
 * it), triangle acceptance is the one bvh::acceptTriangle rule every
 * traversal path applies, and each ray
 * sees a leaf's triangles in leaf order. Rays retire out of a packet
 * independently: a ray whose pending work drops to zero completes even
 * while its packet continues traversing for the other lanes.
 *
 * PacketStats counts the wavefront-level quantities (packets formed,
 * occupancy, fetches shared, divergence splits) and merges with the
 * same commutative sums as every other stats struct, so sharded
 * engine runs stay bit-identical at every worker count.
 */
#ifndef RAYFLEX_BVH_PACKET_HH
#define RAYFLEX_BVH_PACKET_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "bvh/traversal.hh"
#include "core/io_spec.hh"

namespace rayflex::bvh
{

/** Widest packet the mask/lane bookkeeping supports. */
inline constexpr unsigned kMaxPacketWidth = 16;

/** One ray awaiting admission into a packet (the RT unit's refill
 *  queue element). `job` tags which submission stream the ray belongs
 *  to (sim::StreamingService packs rays of several concurrent jobs
 *  into one batch); the tag NEVER influences packet formation or
 *  traversal — packets admit rays strictly in queue order whatever
 *  their tags, which is what keeps job-tagged runs bit-identical to
 *  untagged ones — it only attributes shared fetches to
 *  PacketStats::cross_job_fetches_shared. */
struct PendingRay
{
    core::Ray ray;
    uint32_t ray_id = 0;
    uint32_t job = 0;
};

/** One datapath beat of a packet's current work item: which member
 *  lane it tests and, for leaf items, which triangle. The RT unit
 *  holds the accepted beat in its per-datapath-lane in-flight queue
 *  and hands it back to handleResult() with the datapath output, so
 *  result routing never depends on cross-lane arrival order (the
 *  multi-issue datapath drains several lanes per cycle). */
struct PacketBeat
{
    uint8_t lane = 0;
    uint32_t tri = 0; ///< triangle index (leaf items only)
};

/** Packet-mode configuration of the RT unit. */
struct PacketConfig
{
    /** Rays grouped per packet. 1 (the default) keeps the scalar
     *  one-ray-per-entry path bit-for-bit; widths 2..kMaxPacketWidth
     *  enable the shared-stack wavefront scheduler. */
    unsigned width = 1;

    /** Occupancy-driven compaction threshold. 0 (the default)
     *  disables compaction, preserving the pre-compaction schedule
     *  bit-for-bit. When > 0, a packet whose live occupancy has
     *  fallen below this value repacks at its next fetch boundary
     *  with the surviving lanes of another below-threshold packet
     *  (combined occupancy permitting), recovering beat slots lost to
     *  divergence and freeing the donor slot to admit fresh rays.
     *  Hit records never change — only the schedule does. */
    unsigned compact_below = 0;

    friend bool operator==(const PacketConfig &,
                           const PacketConfig &) = default;
};

/** Per-run packet counters. All fields are sums of uint64 counts, so
 *  merging is commutative and associative like RtUnitStats: aggregates
 *  over many batches are identical no matter which worker ran which
 *  batch or in what order merges happen. All-zero in scalar mode. */
struct PacketStats
{
    uint64_t packets_formed = 0;   ///< packets admitted from the queue
    uint64_t node_visits = 0;      ///< shared work items fetched
    uint64_t active_ray_visits = 0;///< sum of active lanes over visits
    uint64_t fetches_shared = 0;   ///< fetches avoided vs scalar:
                                   ///< sum(active lanes - 1) per visit
    /** Subset of fetches_shared where the sharing lanes carry
     *  different PendingRay::job tags — one job's coherent rays
     *  filling another's packets (cross-job packing). Zero whenever
     *  every admitted ray carries the same tag (every non-streaming
     *  path). */
    uint64_t cross_job_fetches_shared = 0;
    uint64_t divergence_splits = 0;///< node visits whose hit children
                                   ///< partition the active mask
    uint64_t rays_retired = 0;     ///< lanes retired from packets
    uint64_t occupancy_at_retire = 0; ///< unretired lanes (incl. self)
                                      ///< summed at each retirement
    uint64_t compactions = 0;      ///< donor packets absorbed
    uint64_t lanes_repacked = 0;   ///< live lanes moved by compaction

    /** Mean active lanes per shared node visit. */
    double
    avgOccupancy() const
    {
        return node_visits ? double(active_ray_visits) /
                                 double(node_visits)
                           : 0.0;
    }

    /** Mean packet occupancy observed at ray retirement. */
    double
    avgOccupancyAtRetire() const
    {
        return rays_retired ? double(occupancy_at_retire) /
                                  double(rays_retired)
                            : 0.0;
    }

    PacketStats &
    merge(const PacketStats &o)
    {
        packets_formed += o.packets_formed;
        node_visits += o.node_visits;
        active_ray_visits += o.active_ray_visits;
        fetches_shared += o.fetches_shared;
        cross_job_fetches_shared += o.cross_job_fetches_shared;
        divergence_splits += o.divergence_splits;
        rays_retired += o.rays_retired;
        occupancy_at_retire += o.occupancy_at_retire;
        compactions += o.compactions;
        lanes_repacked += o.lanes_repacked;
        return *this;
    }

    friend bool operator==(const PacketStats &,
                           const PacketStats &) = default;
};

/**
 * One ray packet: the shared-stack traversal state machine for up to
 * PacketConfig::width rays. The RT unit owns a vector of these and
 * drives them through four service points per cycle — memory
 * (needsFetch/fetchIssued/fetchArrived), datapath issue
 * (issueReady/makeBeatAt/takeBeatAt, up to issue_width beats per
 * cycle), datapath drain (handleResult) and refill (admit) —
 * mirroring the scalar Entry lifecycle, packet-wide. Between work
 * items (compactable()) a divergence-thinned packet can absorb()
 * another's surviving lanes, so the beat slots divergence emptied are
 * recovered instead of riding along dead.
 *
 * The class is a pure function of the admitted rays and the shared BVH
 * (no clocks, no host pointers in decisions), which is what lets the
 * engine keep its bit-identical-across-worker-counts contract in
 * packet mode.
 */
class PacketTraversal
{
  public:
    PacketTraversal(const Bvh4 &bvh, unsigned width, TraversalMode mode,
                    PacketStats *stats);

    /** True when the packet holds no rays and can admit new ones. */
    bool idle() const { return state_ == State::Idle; }

    /** Form a packet from up to width rays at the front of `queue`.
     *  Rays against an empty BVH complete immediately (miss records
     *  land in completed()). Job tags ride along per lane; they never
     *  affect which rays are grouped. @return rays admitted. */
    unsigned
    admit(std::deque<PendingRay> &queue);

    // ---- memory service ------------------------------------------------
    /** True when the packet's current work item awaits its fetch. */
    bool needsFetch() const { return state_ == State::NeedFetch; }
    /** Current work item the fetch targets (valid in NeedFetch). */
    bool fetchIsLeaf() const { return cur_.is_leaf; }
    uint32_t fetchIndex() const { return cur_.index; }
    uint32_t fetchCount() const { return cur_.count; }
    /** The fetch left for memory; counts the visit into PacketStats. */
    void fetchIssued();
    /** The fetch returned; builds the beat list for the datapath. */
    void fetchArrived();

    // ---- datapath service ----------------------------------------------
    /** True when the packet is in its issue phase (fetched data
     *  present; beats pending and/or results outstanding). */
    bool issueReady() const { return state_ == State::Issue; }
    /** Drop every queued beat whose lane has retired (any-hit lanes
     *  die mid-leaf); such beats are never issued. Call before
    *   peeking the pending queue. */
    void pruneDeadBeats();
    /** Beats awaiting issue (after pruneDeadBeats()). The multi-issue
     *  unit offers pending beats 0..N-1 to its N datapath lanes in one
     *  cycle — SIMD-style back-to-back member-lane beats. */
    size_t pendingCount() const { return pending_.size(); }
    /** Datapath input for pending beat `j`; `tag` is echoed on the
     *  datapath output so the unit can route the result back here. */
    core::DatapathInput makeBeatAt(size_t j, uint64_t tag) const;
    /** Pending beat `j` was accepted by a datapath lane: remove it
     *  from the queue and count it outstanding. @return the beat, for
     *  the unit's per-lane in-flight queue. */
    PacketBeat takeBeatAt(size_t j);
    /** Fold one datapath result back into the packet. `beat` is the
     *  value takeBeatAt() returned when this result's input was
     *  accepted — the unit's per-lane queues preserve it, so routing
     *  is explicit rather than inferred from arrival order. */
    void handleResult(const core::DatapathOutput &out,
                      const PacketBeat &beat);

    // ---- occupancy-driven compaction -----------------------------------
    /** Lanes admitted and not yet retired. */
    unsigned liveLanes() const;
    /** True when the packet sits at a fetch boundary (NeedFetch): no
     *  beats pending or in flight, so its lanes and stack can be
     *  repacked without disturbing any in-flight state. */
    bool compactable() const { return state_ == State::NeedFetch; }
    /** Move `donor`'s live lanes and their pending work into this
     *  packet's free lane slots (the caller checks the combined live
     *  count fits the width). Both packets must be compactable().
     *  Donor becomes Idle and can admit fresh rays. Per-lane
     *  traversal state moves verbatim, so hit records are unchanged —
     *  only the schedule (and the shared-fetch grouping) moves. */
    void absorb(PacketTraversal &donor);

    // ---- retirement ----------------------------------------------------
    /** Rays completed since the last drain, as (ray_id, record) pairs
     *  in retirement order. The unit moves these into its results. */
    std::vector<std::pair<uint32_t, HitRecord>> &
    completed()
    {
        return completed_;
    }

  private:
    enum class State : uint8_t {
        Idle,      ///< no rays admitted
        NeedFetch, ///< work item chosen, fetch not yet issued
        Fetching,  ///< waiting on node/leaf memory
        Issue,     ///< beats pending issue and/or results outstanding
    };

    /** One shared unit of traversal work with its member-lane mask. */
    struct Item
    {
        bool is_leaf = false;
        uint32_t index = 0; ///< node index or first triangle
        uint32_t count = 0; ///< triangle count when leaf
        uint32_t mask = 0;  ///< lanes this item belongs to
        /** Per-lane child entry distance (for scalar-equivalent
         *  pruning); only lanes in `mask` are meaningful. */
        std::array<float, kMaxPacketWidth> entry{};
    };

    /** One ray slot of the packet. */
    struct Lane
    {
        core::Ray ray;
        uint32_t ray_id = 0;
        uint32_t job = 0; ///< submission stream (stats only)
        HitRecord best;
        float t_beg = 0;
        float t_max = 0;
        bool retired = false; ///< result recorded (lane is dead)
        uint32_t pending = 0; ///< stack items (+ current) naming it
    };

    void popNext();
    void completeItem();
    void mergeBoxResults();
    void dropLaneFromItem(unsigned lane);
    void retireLane(unsigned lane, const HitRecord &rec);
    /** Clear retired lanes out of this packet's stack masks (and
     *  cur_), so their lane slots can be re-used by absorbed lanes. */
    void scrubRetiredLanes();

    const Bvh4 &bvh_;
    unsigned width_;
    TraversalMode mode_;
    PacketStats *stats_;

    State state_ = State::Idle;
    std::vector<Item> stack_; ///< shared stack, nearest on top
    Item cur_;                ///< item being fetched/tested
    uint32_t live_ = 0;       ///< cur_'s mask minus retired/pruned lanes
    std::array<Lane, kMaxPacketWidth> lanes_;
    unsigned n_lanes_ = 0;

    std::deque<PacketBeat> pending_; ///< beats not yet issued
    unsigned outstanding_ = 0; ///< accepted beats not yet resolved
                               ///< (held in the unit's per-lane queues)
    std::array<core::BoxResult, kMaxPacketWidth> box_res_;

    std::vector<std::pair<uint32_t, HitRecord>> completed_;
};

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_PACKET_HH
