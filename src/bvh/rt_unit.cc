/**
 * @file
 * Cycle-level RT-unit implementation.
 *
 * One cycle skeleton drives all three schedulers. Per cycle, publish()
 * offers up to issue_width beats, one per datapath lane, from a
 * first-ready cursor over the slots' offerable beats; advance() then
 * (a) accepts every offered beat, counting them and classifying the
 * idle slots (lazily, once per cycle), and takes the accepted beats in
 * descending lane order; (b) delivers the result of each beat accepted
 * kPipelineLatency cycles earlier, one per lane; (c) retires MSHR
 * entries and completed fetches, then issues new fetches through the
 * shared L1 (optionally via the bounded MSHR file); and (d) refills
 * free slots from the submission queue.
 *
 * A lane is a delay line, not a ticked pipeline. The unit is always
 * ready for a lane's output, so the elastic pipeline of core/datapath.hh
 * is never back-pressured and hands each beat back exactly
 * kPipelineLatency cycles after accepting it. The unit therefore
 * evaluates each accepted beat once with core::functionalEval (the
 * same eleven stage functions, with the lane's own distance
 * accumulators seeing the lane's beats in accept order) and holds the
 * result in the lane's ring until its delivery cycle. The ticked
 * pipeline stays the reference model the datapath tests pin.
 *
 * The skeleton knows slots, beats and fetches; what a slot IS comes
 * from a handful of per-mode hooks (offerableBeats, offerInput,
 * acceptBeat, slotOccupancy, pendingFetch, holdFetch, fetchIssued,
 * fillArrived, laneResult, admitWork):
 *
 *   - scalar (packet.width == 1): a slot is one ray's Entry, which
 *     offers at most one beat (a wide-node box test or its leaf's next
 *     triangle) and has at most one beat in flight;
 *   - packet (packet.width > 1, bvh/packet.hh): a slot is a
 *     PacketTraversal, which issues ONE fetch for its whole active
 *     mask and offers one beat per active lane, so one packet can fill
 *     several lanes in a cycle. With packet.compact_below > 0 a step
 *     between (b) and (c) repacks divergence-thinned packets at their
 *     fetch boundaries, and holdFetch() defers a thinned packet's
 *     fetch while it waits for a partner;
 *   - k-NN (constructed over a KnnIndex): a slot is one query's
 *     KnnEntry, which offers one candidate per lane from its fetched
 *     leaf; a lane stays locked to a candidate until the candidate's
 *     last distance beat is accepted.
 *
 * Fetch latency comes from the configured MemoryModel — the unit's
 * shared L1: one instance serves every slot. The address map is
 * synthetic but stable: node i occupies
 * [i * kNodeStrideBytes, (i+1) * kNodeStrideBytes) and the triangle
 * region starts immediately after the last node, with triangle j at
 * tri_base + j * kTriStrideBytes. A leaf fetch reads all of the leaf's
 * triangles in one request, so the cache sees the same spatial
 * locality the traversal order produces. With RtUnitConfig::mshrs > 0
 * every fetch routes through a bounded MSHR file first: a fetch whose
 * target is already in flight merges onto the existing entry (one miss
 * serves both requesters, no L1 touch, no issue bandwidth), and a full
 * file refuses new allocations, holding the requester in NeedFetch.
 */
#include "bvh/rt_unit.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rayflex::bvh
{

using namespace rayflex::core;
using fp::fromBits;

namespace
{

/** k-NN mode ignores PacketConfig (a query is its own traversal), so
 *  the delegated ray constructor builds the scalar slot layout. */
RtUnitConfig
withoutPackets(RtUnitConfig cfg)
{
    cfg.packet = PacketConfig{};
    return cfg;
}

} // namespace

RtUnitConfig
RtUnitConfig::normalized() const
{
    RtUnitConfig n = *this;
    n.issue_width = std::clamp(issue_width, 1u, kMaxIssueWidth);
    n.packet.width = std::clamp(packet.width, 1u, kMaxPacketWidth);
    n.packet.compact_below = std::min(packet.compact_below, n.packet.width);
    if (n.ray_buffer_entries == 0 && n.packet.width == 1)
        throw std::invalid_argument(
            "RtUnitConfig: ray_buffer_entries must be at least 1 "
            "(0 leaves no slot to admit a ray or query)");
    return n;
}

RtUnit::RtUnit(const Bvh4 &bvh, const core::DatapathConfig &dp,
               const RtUnitConfig &cfg, TraversalMode mode)
    : bvh_(bvh), dp_(dp), cfg_(cfg.normalized()), mode_(mode),
      mem_(makeMemoryModel(cfg_.mem_backend, cfg_.mem_latency,
                           cfg_.cache)),
      mshrs_(cfg.mshrs),
      tri_base_(uint64_t(bvh.nodes.size()) * kNodeStrideBytes)
{
    lanes_.resize(cfg_.issue_width);
    offers_.resize(cfg_.issue_width);
    if (packetized()) {
        const unsigned slots = cfg_.packetSlots();
        packets_.reserve(slots);
        for (unsigned i = 0; i < slots; ++i)
            packets_.emplace_back(bvh_, cfg_.packet.width, mode_,
                                  &stats_.packet);
        compact_hold_.assign(slots, 0);
    } else {
        entries_.resize(cfg_.ray_buffer_entries);
    }
}

RtUnit::RtUnit(const KnnIndex &index, const core::DatapathConfig &dp,
               const RtUnitConfig &cfg)
    : RtUnit(index.bvh, dp, withoutPackets(cfg))
{
    if (!dp.extended)
        throw std::invalid_argument(
            "RtUnit k-NN mode: datapath lacks the extended distance "
            "opcodes (build it with an extended DatapathConfig)");
    knn_index_ = &index;
    entries_.clear(); // k-NN slots are knn_entries_ (see slotOccupancy)
    knn_entries_.resize(cfg_.ray_buffer_entries);
    knn_lane_.resize(lanes_.size());
}

/** Synthetic address map shared by every scheduler (so the modes can
 *  never diverge on addresses): the whole leaf for leaf work, one wide
 *  node otherwise. The address doubles as the MSHR merge key — each
 *  node and leaf has a unique base address. */
void
RtUnit::fetchTarget(const FetchItem &f, uint64_t *addr,
                    uint32_t *bytes) const
{
    if (f.is_leaf) {
        *addr = tri_base_ + uint64_t(f.index) * kTriStrideBytes;
        *bytes = f.count * kTriStrideBytes;
    } else {
        *addr = uint64_t(f.index) * kNodeStrideBytes;
        *bytes = kNodeStrideBytes;
    }
}

/** Step-(c) preamble: release completed MSHR entries (sampling the
 *  residency counter when it changed and tracing is on) and re-arm the
 *  MSHR-refusal flag for this cycle's issue loop (classifyIdle reads
 *  last cycle's value in step (a), which runs before this). */
void
RtUnit::retireMshrs()
{
    if (trace_) {
        const size_t before = mshrs_.inflightCount();
        mshrs_.retire(now_);
        if (mshrs_.inflightCount() != before)
            traceEvent(obs::TraceEvent::MshrResidency,
                       mshrs_.inflightCount());
    } else {
        mshrs_.retire(now_);
    }
    mshr_refused_ = false;
}

/** Exclusive cause of this cycle's idle issue slots. The priority and
 *  the phase-boundary walk are documented in obs/slot_accounting.hh.
 *  advance() only runs while work is outstanding, so "no work at all"
 *  and "nothing fetching or in the datapath" both land in IdleNoWork.
 *  Every input is constant across step (a), so the answer is the same
 *  whichever lane triggers the lazy evaluation. */
obs::Slot
RtUnit::classifyIdle() const
{
    if (mshr_refused_)
        return obs::Slot::StallMshrFull;
    if (!mem_queue_.empty()) {
        // The gating request: the earliest-completing in-flight fetch
        // (queue order breaks ties) — the one the unit is actually
        // waiting out. Attribute this cycle to the phase containing
        // it, clamped into the request's lifetime so a fetch retiring
        // later this same cycle still lands in its last real phase.
        const FillTiming *g = &mem_queue_.front().fill;
        for (const MemRequest &r : mem_queue_)
            if (r.fill.done_cycle < g->done_cycle)
                g = &r.fill;
        const uint64_t t =
            now_ < g->done_cycle
                ? now_
                : (g->done_cycle ? g->done_cycle - 1 : 0);
        if (t < g->l1_until)
            return obs::Slot::StallL1Miss;
        if (t < g->ring_until)
            return obs::Slot::StallRingHop;
        if (t < g->queue_until)
            return obs::Slot::StallL2BankQueue;
        return obs::Slot::StallL2Fill;
    }
    bool need_fetch = false, in_datapath = false;
    slotOccupancy(&need_fetch, &in_datapath);
    if (need_fetch)
        return obs::Slot::StallL1Miss; // waiting on issue bandwidth
    if (in_datapath)
        return obs::Slot::StallDrain;
    return obs::Slot::IdleNoWork;
}

/** Route one slot's fetch to memory: straight to the L1 when the MSHR
 *  file is disabled (the legacy unbounded path, bit-for-bit), else
 *  merge-or-allocate through the file. `issued` is set once this
 *  cycle's one L1 fetch has gone out; merges are free (they ride an
 *  in-flight fill instead of going to memory). The current cycle rides
 *  into MemoryModel::access so a chip-mode L1 can anchor its SharedL2
 *  requests (bank queues, in-flight merges) on the lock-step chip
 *  clock; single-unit backends ignore it. The access's phase breakdown
 *  becomes absolute boundaries on the queued request — what
 *  classifyIdle() attributes stalled slots against. */
bool
RtUnit::issueFetch(size_t slot, const FetchItem &f, bool &issued)
{
    uint64_t addr;
    uint32_t bytes;
    fetchTarget(f, &addr, &bytes);
    if (mshrs_.enabled()) {
        if (const FillTiming *inflight = mshrs_.lookup(addr)) {
            // Duplicate of an in-flight fill: complete when it does,
            // and wait through the same phases it does.
            mem_queue_.push_back({slot, addr, *inflight});
            ++stats_.mshr.merges;
            if (trace_)
                traceEvent(obs::TraceEvent::MshrMerge, addr, slot);
            return true;
        }
        if (mshrs_.full()) {
            ++stats_.mshr.stalls_full;
            mshr_refused_ = true;
            if (trace_)
                traceEvent(obs::TraceEvent::MshrStallFull, addr, slot);
            return false; // back-pressure: slot retries next cycle
        }
        if (issued)
            return false;
    }
    AccessBreakdown bd;
    const unsigned lat = mem_->access(addr, bytes, now_, &bd);
    const uint64_t l1_until = now_ + bd.l1;
    const FillTiming fill{now_ + lat, l1_until, l1_until + bd.ring,
                          l1_until + bd.ring + bd.queue};
    mem_queue_.push_back({slot, addr, fill});
    ++stats_.mem_requests;
    issued = true;
    if (trace_)
        traceEvent(obs::TraceEvent::FetchIssue, addr, slot);
    if (!mshrs_.enabled())
        return true;
    mshrs_.allocate(addr, fill);
    ++stats_.mshr.allocations;
    if (trace_) {
        traceEvent(obs::TraceEvent::MshrAlloc, addr,
                   mshrs_.inflightCount());
        traceEvent(obs::TraceEvent::MshrResidency,
                   mshrs_.inflightCount());
    }
    return true;
}

void
RtUnit::submit(const core::Ray &ray, uint32_t ray_id, uint32_t job)
{
    pending_rays_.push_back(PendingRay{ray, ray_id, job});
    if (results_.size() <= ray_id)
        results_.resize(ray_id + 1);
    ++outstanding_;
}

void
RtUnit::submitKnn(const KnnQuery &query, uint32_t query_id)
{
    if (!knnMode())
        throw std::logic_error(
            "RtUnit::submitKnn: unit was not constructed over a "
            "KnnIndex");
    if (!knn_index_->points.empty() &&
        query.point.size() != knn_index_->dims)
        throw std::invalid_argument("knn: query dimension mismatch");
    pending_knn_.push_back({query, query_id});
    if (knn_results_.size() <= query_id)
        knn_results_.resize(query_id + 1);
    ++outstanding_;
}

// ---------------------------------------------------------------------
// The cycle skeleton
// ---------------------------------------------------------------------

void
RtUnit::publish()
{
    // Offer one beat per lane from the first ready slots (round-robin
    // would be fairer; first-ready is sufficient for utilization
    // studies). (slot, beat) is a cursor over the slots' offerable
    // beats, so lanes get distinct beats in slot order and a slot with
    // several beats may fill several lanes in one cycle.
    const size_t slots = slotCount();
    size_t slot = 0, beat = 0, avail = 0;
    for (size_t l = 0; l < lanes_.size(); ++l) {
        LaneOffer &o = offers_[l];
        o.entry = kNoOffer;
        if (knnMode() && knn_lane_[l].active()) {
            // The lane finishes the candidate it is streaming: all of
            // a job's beats stay on one lane, in order, so the lane's
            // accumulator only ever holds that job's partial sums.
            const KnnLaneJob &job = knn_lane_[l];
            o.entry = job.slot;
            o.in = knnCandidateBeat(job.slot, job.tri, job.next_beat);
            continue;
        }
        for (; slot < slots; ++slot, beat = 0) {
            if (beat == 0)
                avail = offerableBeats(slot);
            if (beat < avail) {
                o.entry = slot;
                o.beat = beat;
                o.in = offerInput(slot, beat++);
                break;
            }
        }
    }
}

void
RtUnit::advance(uint64_t cycle)
{
    // A finished unit idles: the chip keeps stepping until its slowest
    // unit drains, and a done unit must stop accumulating cycles and
    // idle-slot counters (its per-unit `cycles` is the cycle its own
    // work completed).
    if (outstanding_ == 0)
        return;
    now_ = cycle;
    ++stats_.cycles;

    // (a) Accept every offer: the unit never back-pressures a lane.
    // Idle slots share one cause per cycle, classified lazily on the
    // first idle lane (no slot or lane changes state before the accept
    // pass). Accepted beats are then taken in descending lane order, so
    // a slot's remaining beat indices (offered ascending in publish)
    // stay valid.
    obs::Slot idle_cause = obs::Slot::kCount;
    for (size_t l = 0; l < lanes_.size(); ++l) {
        if (offers_[l].entry != kNoOffer) {
            ++stats_.datapath_beats;
            ++stats_.beats_by_op[size_t(offers_[l].in.op)];
            ++stats_.slots[obs::Slot::Issued];
        } else {
            if (idle_cause == obs::Slot::kCount)
                idle_cause = classifyIdle();
            ++stats_.slots[idle_cause];
        }
    }
    for (size_t l = lanes_.size(); l-- > 0;)
        if (offers_[l].entry != kNoOffer)
            acceptBeat(l);

    // (b) Deliver, per lane, the beat accepted kPipelineLatency cycles
    // ago. (The unsigned wrap of the first cycles is harmless: 2^64 is
    // a multiple of kLaneSlots, and those ring slots are empty.)
    const size_t due = (now_ - kPipelineLatency) % kLaneSlots;
    for (Lane &lane : lanes_) {
        InflightBeat &ib = lane.ring[due];
        if (!ib.valid)
            continue;
        ib.valid = false;
        --beats_in_flight_;
        laneResult(ib);
    }

    // Occupancy-driven repacking at fetch boundaries (packet mode),
    // before new fetches are issued for the packets involved.
    compactPackets();

    // (c) Memory: retire due responses, issue new fetches. Retirement
    // is completion-ordered, not FIFO: with the cache backend a cheap
    // hit issued behind an expensive miss completes first and must not
    // be held at the queue head, or the hit latency the cache model
    // exists to expose would be masked. (Under a uniform-latency
    // backend completion order equals issue order.)
    retireMshrs();
    for (auto it = mem_queue_.begin(); it != mem_queue_.end();) {
        if (it->fill.done_cycle > now_) {
            ++it;
            continue;
        }
        if (trace_)
            traceEvent(obs::TraceEvent::FetchFill, it->addr, it->entry);
        fillArrived(it->entry);
        it = mem_queue_.erase(it);
    }
    const size_t slots = slotCount();
    bool issued = false;
    for (size_t i = 0; i < slots; ++i) {
        FetchItem f;
        if (!pendingFetch(i, &f))
            continue;
        if (!mshrs_.enabled() && issued)
            break;
        if (holdFetch(i))
            continue;
        if (issueFetch(i, f, issued))
            fetchIssued(i);
    }

    // (d) Refill free slots with queued work.
    for (size_t i = 0; i < slots && workPending(); ++i)
        admitWork(i);

    // Occupancy counter sample (packet mode): live lanes across all
    // packet slots, emitted on change only.
    if (trace_ && packetized()) {
        uint64_t occ = 0;
        for (const PacketTraversal &p : packets_)
            occ += p.liveLanes();
        if (occ != trace_occupancy_last_) {
            trace_occupancy_last_ = occ;
            traceEvent(obs::TraceEvent::PacketOccupancy, occ);
        }
    }
}

// ---------------------------------------------------------------------
// Per-mode hooks of the skeleton
// ---------------------------------------------------------------------

size_t
RtUnit::slotCount() const
{
    if (knnMode())
        return knn_entries_.size();
    return packetized() ? packets_.size() : entries_.size();
}

bool
RtUnit::workPending() const
{
    return knnMode() ? !pending_knn_.empty() : !pending_rays_.empty();
}

size_t
RtUnit::offerableBeats(size_t i)
{
    if (knnMode()) {
        const KnnEntry &e = knn_entries_[i];
        return e.state == EntryState::ReadyTri ? e.pending_cands.size()
                                               : 0;
    }
    if (packetized()) {
        PacketTraversal &p = packets_[i];
        if (!p.issueReady())
            return 0;
        p.pruneDeadBeats();
        return p.pendingCount();
    }
    const EntryState s = entries_[i].state;
    return s == EntryState::ReadyBox || s == EntryState::ReadyTri;
}

core::DatapathInput
RtUnit::offerInput(size_t i, size_t j) const
{
    if (knnMode())
        return knnCandidateBeat(i, knn_entries_[i].pending_cands[j], 0);
    if (packetized())
        return packets_[i].makeBeatAt(j, i);
    const Entry &e = entries_[i];
    return e.state == EntryState::ReadyTri
               ? triangleBeat(e.ray, bvh_.tris[e.leaf_next], i)
               : boxBeat(e.ray, bvh_.nodes[e.item.index], i);
}

void
RtUnit::acceptBeat(size_t l)
{
    const LaneOffer &o = offers_[l];
    // What stage 1 of a ticked lane (core/datapath.cc) raises for an
    // opcode its datapath does not implement.
    if (!dp_.extended && o.in.op != Opcode::RayBox &&
        o.in.op != Opcode::RayTriangle)
        throw std::invalid_argument(std::string("opcode ") +
                                    opcodeName(o.in.op) +
                                    " not supported by " + dp_.name() +
                                    " datapath");
    Lane &lane = lanes_[l];
    InflightBeat &ib = lane.ring[now_ % kLaneSlots];
    ib.valid = true;
    ib.out = functionalEval(o.in, lane.acc, dp_.box_width);
    ib.slot = o.entry;
    ++beats_in_flight_;
    if (packetized()) {
        ib.beat = packets_[o.entry].takeBeatAt(o.beat);
        return;
    }
    if (!knnMode()) {
        Entry &e = entries_[o.entry];
        if (e.state == EntryState::ReadyTri)
            e.inflight_tri = e.leaf_next++;
        e.state = EntryState::InFlight;
        return;
    }
    ++stats_.knn.distance_beats;
    KnnLaneJob &job = knn_lane_[l];
    if (job.active()) {
        ++job.next_beat; // the last beat's accept frees the lane
        return;
    }
    // First beat of a new candidate: take it off the entry and lock the
    // lane until the job's last beat is accepted.
    KnnEntry &e = knn_entries_[o.entry];
    const uint32_t tri = e.pending_cands[o.beat];
    e.pending_cands.erase(e.pending_cands.begin() + ptrdiff_t(o.beat));
    ++e.inflight_cands;
    ++stats_.knn.candidates;
    job = {uint32_t(o.entry), tri, 1,
           uint32_t(knnBeatsPerJob(knn_index_->dims, e.metric))};
    // Leaf work fully issued: move on to the next frontier item (the
    // next fetch overlaps the in-flight scores). Descending-lane order
    // makes this the entry's last accept of the cycle.
    if (e.pending_cands.empty())
        popKnnFrontier(e);
}

/** `need_fetch`: a slot sits in NeedFetch; `in_datapath`: work is
 *  ready for or riding the issue lanes. Ready entries count as
 *  in-datapath work (accepted offers move Ready -> InFlight), so the
 *  answer holds across step (a). */
void
RtUnit::slotOccupancy(bool *need_fetch, bool *in_datapath) const
{
    const auto entry = [&](EntryState s) {
        if (s == EntryState::NeedFetch)
            *need_fetch = true;
        else if (s == EntryState::ReadyBox ||
                 s == EntryState::ReadyTri ||
                 s == EntryState::InFlight)
            *in_datapath = true;
    };
    for (const Entry &e : entries_)
        entry(e.state);
    for (const KnnEntry &e : knn_entries_)
        entry(e.state);
    for (const PacketTraversal &p : packets_) {
        if (p.needsFetch())
            *need_fetch = true;
        else if (p.issueReady())
            *in_datapath = true;
    }
    *in_datapath = *in_datapath || beats_in_flight_ > 0;
}

bool
RtUnit::pendingFetch(size_t i, FetchItem *f) const
{
    if (knnMode()) {
        *f = knn_entries_[i].fetch;
        return knn_entries_[i].state == EntryState::NeedFetch;
    }
    if (packetized()) {
        const PacketTraversal &p = packets_[i];
        *f = {p.fetchIsLeaf(), p.fetchIndex(), p.fetchCount()};
        return p.needsFetch();
    }
    *f = entries_[i].item;
    return entries_[i].state == EntryState::NeedFetch;
}

/** A below-threshold packet defers its fetch inside the repacking
 *  window, waiting for a partner to reach a fetch boundary
 *  (compactPackets pairs them). The window is bounded, so an unlucky
 *  packet resumes alone after it expires. */
bool
RtUnit::holdFetch(size_t i)
{
    if (!packetized() || cfg_.packet.compact_below == 0 ||
        compact_hold_[i] >= kCompactWaitCycles)
        return false;
    const unsigned live = packets_[i].liveLanes();
    if (live == 0 || live >= cfg_.packet.compact_below)
        return false;
    ++compact_hold_[i];
    return true;
}

void
RtUnit::fetchIssued(size_t i)
{
    if (knnMode()) {
        knn_entries_[i].state = EntryState::Fetching;
    } else if (packetized()) {
        packets_[i].fetchIssued();
        compact_hold_[i] = 0;
    } else {
        entries_[i].state = EntryState::Fetching;
    }
}

void
RtUnit::fillArrived(size_t i)
{
    if (packetized()) {
        packets_[i].fetchArrived();
        return;
    }
    if (!knnMode()) {
        Entry &e = entries_[i];
        e.state = e.item.is_leaf ? EntryState::ReadyTri
                                 : EntryState::ReadyBox;
        return;
    }
    // Node expansion (the double-precision box lower bound) happens
    // host-side at fetch arrival; only candidate distances consume
    // datapath beats.
    KnnEntry &e = knn_entries_[i];
    if (!e.fetch.is_leaf) {
        e.frontier.expand(bvh_.nodes[e.fetch.index], e.point.data(),
                          knn_index_->dims,
                          e.metric == KnnMetric::Euclidean, e.topk,
                          stats_.knn);
        popKnnFrontier(e);
        return;
    }
    ++stats_.knn.leaves_visited;
    for (uint32_t t = 0; t < e.fetch.count; ++t)
        e.pending_cands.push_back(e.fetch.index + t);
    e.state = EntryState::ReadyTri;
}

void
RtUnit::laneResult(const InflightBeat &ib)
{
    if (knnMode()) {
        handleKnnResult(ib.out);
        return;
    }
    if (!packetized()) {
        handleResult(ib.out);
        return;
    }
    // The in-flight beat names the result's packet, member lane and
    // triangle. A result can complete the packet's current item, push
    // children and retire lanes whose work ran out.
    PacketTraversal &p = packets_[ib.slot];
    p.handleResult(ib.out, ib.beat);
    drainCompleted(p);
}

void
RtUnit::admitWork(size_t i)
{
    if (knnMode()) {
        KnnEntry &e = knn_entries_[i];
        if (e.state != EntryState::Idle)
            return;
        PendingKnn pk = std::move(pending_knn_.front());
        pending_knn_.pop_front();
        e = KnnEntry{};
        e.query_id = pk.query_id;
        e.k = pk.query.k;
        e.metric = pk.query.metric;
        e.point = std::move(pk.query.point);
        e.topk.reset(e.k);
        if (knn_index_->points.empty() || e.k == 0) {
            finishKnnQuery(e); // degenerate queries finish at admission
            return;
        }
        e.frontier.start(stats_.knn);
        popKnnFrontier(e);
        return;
    }
    if (packetized()) {
        // Consecutive rays form one packet, so coherent submissions
        // (camera batches) become coherent packets.
        PacketTraversal &p = packets_[i];
        if (!p.idle())
            return;
        p.admit(pending_rays_);
        if (trace_)
            traceEvent(obs::TraceEvent::PacketForm, i, p.liveLanes());
        drainCompleted(p); // empty-scene rays complete at admission
        return;
    }
    Entry &e = entries_[i];
    if (e.state != EntryState::Idle)
        return;
    const PendingRay pr = pending_rays_.front();
    pending_rays_.pop_front();
    e = Entry{};
    e.ray = pr.ray;
    e.ray_id = pr.ray_id;
    e.t_beg = fromBits(pr.ray.t_beg);
    e.t_max = fromBits(pr.ray.t_end);
    if (bvh_.tris.empty()) {
        finishRay(e, HitRecord{});
        return;
    }
    e.stack.push_back({false, 0, 0, 0.0f});
    popWork(e);
}

// ---------------------------------------------------------------------
// Scalar scheduler
// ---------------------------------------------------------------------

void
RtUnit::popWork(Entry &e)
{
    // Pop past work items pruned by the current best hit.
    while (!e.stack.empty()) {
        WorkItem w = e.stack.back();
        e.stack.pop_back();
        if (e.best.hit && w.entry_t > e.best.t)
            continue;
        // Both node and leaf data come from memory.
        e.item = {w.is_leaf, w.index, w.is_leaf ? w.count : 0};
        e.leaf_next = w.index;
        e.state = EntryState::NeedFetch;
        return;
    }
    // Traversal complete.
    finishRay(e, e.best);
}

void
RtUnit::finishRay(Entry &e, const HitRecord &rec)
{
    results_[e.ray_id] = rec;
    e.state = EntryState::Idle;
    e.stack.clear();
    --outstanding_;
    ++stats_.rays_completed;
}

void
RtUnit::handleResult(const core::DatapathOutput &out)
{
    Entry &e = entries_[out.tag];
    if (out.op == Opcode::RayBox) {
        const WideNode &node = bvh_.nodes[e.item.index];
        // Push hit children farthest-first so the nearest pops first.
        for (int i = 3; i >= 0; --i) {
            uint8_t slot = out.box.order[i];
            if (!out.box.hit[slot])
                continue;
            const auto &c = node.child[slot];
            WorkItem w;
            w.entry_t = fromBits(out.box.sorted_dist[i]);
            w.is_leaf = c.kind != WideNode::Kind::Internal;
            w.index = c.index;
            if (w.is_leaf)
                w.count = c.count;
            e.stack.push_back(w);
        }
        popWork(e);
    } else {
        // e.inflight_tri was latched at issue time (when leaf_next
        // advanced past it), so it names exactly the triangle this
        // result tested.
        if (acceptTriangle(out, bvh_.tris[e.inflight_tri].id, e.t_beg,
                           e.t_max, e.best) &&
            mode_ == TraversalMode::Any) {
            // First in-extent hit retires the ray; the record carries
            // only the flag (see TraversalMode::Any).
            finishRay(e, HitRecord{true});
            return;
        }
        if (e.leaf_next < e.item.index + e.item.count) {
            e.state = EntryState::ReadyTri; // more triangles in leaf
        } else {
            popWork(e);
        }
    }
}

// ---------------------------------------------------------------------
// Packet scheduler
// ---------------------------------------------------------------------

/** Move a packet's retired rays into the unit's results. */
void
RtUnit::drainCompleted(PacketTraversal &p)
{
    if (p.completed().empty())
        return;
    if (trace_)
        traceEvent(obs::TraceEvent::PacketRetire,
                   uint64_t(&p - packets_.data()), p.completed().size());
    for (const auto &[id, rec] : p.completed()) {
        results_[id] = rec;
        --outstanding_;
        ++stats_.rays_completed;
    }
    p.completed().clear();
}

/** Occupancy-driven compaction (packet.compact_below > 0): pair
 *  packets sitting at a fetch boundary whose live occupancy fell
 *  below the threshold and repack the donor's surviving lanes into
 *  the recipient, freeing the donor slot for fresh rays. Greedy in
 *  slot order, so the pairing is a pure function of packet state and
 *  the engine's determinism contract holds. Two thinned packets
 *  rarely reach a fetch boundary on the same cycle, so a
 *  below-threshold packet DEFERS its next fetch for up to
 *  kCompactWaitCycles (holdFetch) — the repacking window in which a
 *  partner can appear. */
void
RtUnit::compactPackets()
{
    const unsigned threshold = cfg_.packet.compact_below;
    if (threshold == 0)
        return;
    for (size_t i = 0; i < packets_.size(); ++i) {
        PacketTraversal &p = packets_[i];
        if (!p.compactable())
            continue;
        unsigned live = p.liveLanes();
        if (live == 0 || live >= threshold)
            continue;
        for (size_t j = i + 1;
             j < packets_.size() && live < threshold; ++j) {
            PacketTraversal &q = packets_[j];
            if (!q.compactable())
                continue;
            const unsigned ql = q.liveLanes();
            if (ql == 0 || ql >= threshold ||
                live + ql > cfg_.packet.width)
                continue;
            p.absorb(q);
            if (trace_)
                traceEvent(obs::TraceEvent::PacketCompact, j, i);
            compact_hold_[i] = 0;
            compact_hold_[j] = 0;
            live += ql;
        }
    }
}

// ---------------------------------------------------------------------
// k-NN scheduler
// ---------------------------------------------------------------------

core::DatapathInput
RtUnit::knnCandidateBeat(size_t slot, uint32_t tri, size_t beat) const
{
    const KnnEntry &e = knn_entries_[slot];
    const DataPoint &p = knn_index_->points[bvh_.tris[tri].id];
    // The tag routes the out-of-order final beat back to its query and
    // candidate: entry slot in the high half, triangle index (unique
    // per candidate) in the low half.
    return knnJobBeat(e.point.data(), p.coords.data(), knn_index_->dims,
                      e.metric, (uint64_t(slot) << 32) | tri, beat);
}

void
RtUnit::finishKnnQuery(KnnEntry &e)
{
    knn_results_[e.query_id] = KnnResult{e.topk.sorted()};
    ++stats_.knn.queries;
    --outstanding_;
    e.state = EntryState::Idle;
    e.draining = false;
}

void
RtUnit::popKnnFrontier(KnnEntry &e)
{
    KnnFrontier::Item item;
    if (e.frontier.pop(e.metric == KnnMetric::Euclidean, e.topk,
                       stats_.knn, &item)) {
        e.fetch = {item.is_leaf, item.index, item.count};
        e.state = EntryState::NeedFetch;
        return;
    }
    // No work left to fetch; the query finishes once every started
    // candidate's score has drained from the pipeline.
    e.state = EntryState::InFlight;
    e.draining = true;
    maybeFinishKnn(e);
}

void
RtUnit::handleKnnResult(const core::DatapathOutput &out)
{
    // Every beat of a job produces an output; only the final beat
    // (reset echo set) carries the fully accumulated distance.
    const bool final_beat = out.op == Opcode::Euclidean
                                ? out.euclidean_reset
                                : out.angular_reset;
    if (!final_beat)
        return;
    KnnEntry &e = knn_entries_[size_t(out.tag >> 32)];
    const uint32_t tri = uint32_t(out.tag);
    e.topk.offer(knnJobScore(out, e.metric),
                 knn_index_->points[bvh_.tris[tri].id].id);
    --e.inflight_cands;
    maybeFinishKnn(e);
}

// ---------------------------------------------------------------------
// Run control
// ---------------------------------------------------------------------

RtUnitStats
RtUnit::endRun()
{
    stats_.mem = mem_->stats();
    return stats_;
}

} // namespace rayflex::bvh
