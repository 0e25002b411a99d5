/**
 * @file
 * Packet traversal implementation.
 *
 * Lifecycle of one work item, packet-wide: popNext() pops the shared
 * stack, applying the scalar pruning rule per lane (a lane whose best
 * hit already beats the item's entry distance is masked off, not the
 * whole item); the unit fetches the node or leaf once for the surviving
 * mask; fetchArrived() expands the item into datapath beats (one
 * ray-box beat per active lane, or one ray-triangle beat per
 * (triangle, active lane) pair, triangle-major so each lane sees the
 * leaf in leaf order); handleResult() folds results back in issue
 * order; completeItem() merges per-lane box results into child items
 * (mask = lanes whose slab test hit the child, pushed farthest-first
 * by minimum entry distance) and retires lanes whose pending work
 * dropped to zero.
 *
 * All decisions are pure functions of the admitted rays and the BVH:
 * no clocks, no host pointers, no randomness — the packet inherits the
 * engine's determinism contract unchanged.
 */
#include "bvh/packet.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace rayflex::bvh
{

using namespace rayflex::core;
using fp::fromBits;

PacketTraversal::PacketTraversal(const Bvh4 &bvh, unsigned width,
                                 TraversalMode mode, PacketStats *stats)
    : bvh_(bvh), width_(width), mode_(mode), stats_(stats)
{
    assert(width_ >= 1 && width_ <= kMaxPacketWidth);
}

unsigned
PacketTraversal::admit(std::deque<PendingRay> &queue)
{
    assert(state_ == State::Idle);
    n_lanes_ = 0;
    while (n_lanes_ < width_ && !queue.empty()) {
        const PendingRay pr = queue.front();
        queue.pop_front();
        Lane &ln = lanes_[n_lanes_];
        ln = Lane{};
        ln.ray = pr.ray;
        ln.ray_id = pr.ray_id;
        ln.job = pr.job;
        ln.t_beg = fromBits(pr.ray.t_beg);
        ln.t_max = fromBits(pr.ray.t_end);
        ++n_lanes_;
    }
    if (n_lanes_ == 0)
        return 0;

    if (bvh_.tris.empty()) {
        // Nothing to traverse: every lane completes with a miss, the
        // packet never forms (mirrors the scalar empty-scene refill).
        for (unsigned r = 0; r < n_lanes_; ++r)
            completed_.emplace_back(lanes_[r].ray_id, HitRecord{});
        unsigned admitted = n_lanes_;
        n_lanes_ = 0;
        return admitted;
    }

    ++stats_->packets_formed;
    Item root;
    root.is_leaf = false;
    root.index = 0;
    root.mask = (1u << n_lanes_) - 1u; // n_lanes_ <= kMaxPacketWidth
    for (unsigned r = 0; r < n_lanes_; ++r) {
        root.entry[r] = 0.0f;
        lanes_[r].pending = 1;
    }
    stack_.clear();
    stack_.push_back(root);
    popNext();
    return n_lanes_;
}

void
PacketTraversal::retireLane(unsigned lane, const HitRecord &rec)
{
    unsigned occupancy = 0;
    for (unsigned r = 0; r < n_lanes_; ++r)
        if (!lanes_[r].retired)
            ++occupancy; // includes `lane` (not yet marked)
    stats_->occupancy_at_retire += occupancy;
    ++stats_->rays_retired;
    lanes_[lane].retired = true;
    completed_.emplace_back(lanes_[lane].ray_id, rec);
}

void
PacketTraversal::dropLaneFromItem(unsigned lane)
{
    Lane &ln = lanes_[lane];
    --ln.pending;
    if (ln.pending == 0 && !ln.retired)
        retireLane(lane, ln.best);
}

void
PacketTraversal::popNext()
{
    for (;;) {
        if (stack_.empty()) {
            // Every lane's pending work is gone, so every lane retired
            // through dropLaneFromItem/completeItem on the way here.
            state_ = State::Idle;
            n_lanes_ = 0;
            return;
        }
        Item it = stack_.back();
        stack_.pop_back();
        uint32_t live = 0;
        for (unsigned r = 0; r < n_lanes_; ++r) {
            if (!(it.mask & (1u << r)))
                continue;
            Lane &ln = lanes_[r];
            // The scalar pruning rule, applied per lane: a retired or
            // pruned lane leaves the item; the item survives for the
            // rest.
            if (ln.retired || (ln.best.hit && it.entry[r] > ln.best.t))
                dropLaneFromItem(r);
            else
                live |= 1u << r;
        }
        if (live == 0)
            continue; // pruned packet-wide: no fetch, no beats
        cur_ = it;
        live_ = live;
        state_ = State::NeedFetch;
        return;
    }
}

void
PacketTraversal::fetchIssued()
{
    assert(state_ == State::NeedFetch);
    state_ = State::Fetching;
    const unsigned active = unsigned(std::popcount(live_));
    ++stats_->node_visits;
    stats_->active_ray_visits += active;
    stats_->fetches_shared += active - 1; // fetches scalar would issue
    // Attribute the shared fetches: the lowest active lane "owns" the
    // fetch, and every other active lane from a DIFFERENT job shares
    // it across a job boundary. Pure accounting — the fetch itself is
    // identical whatever the tags.
    const unsigned owner = unsigned(std::countr_zero(live_));
    for (unsigned r = owner + 1; r < n_lanes_; ++r)
        if ((live_ & (1u << r)) &&
            lanes_[r].job != lanes_[owner].job)
            ++stats_->cross_job_fetches_shared;
}

void
PacketTraversal::fetchArrived()
{
    assert(state_ == State::Fetching);
    state_ = State::Issue;
    pending_.clear();
    if (cur_.is_leaf) {
        // Triangle-major: each lane sees the leaf's triangles in leaf
        // order, exactly as the scalar entry does.
        for (uint32_t t = cur_.index; t < cur_.index + cur_.count; ++t)
            for (unsigned r = 0; r < n_lanes_; ++r)
                if (live_ & (1u << r))
                    pending_.push_back({uint8_t(r), t});
    } else {
        for (unsigned r = 0; r < n_lanes_; ++r)
            if (live_ & (1u << r))
                pending_.push_back({uint8_t(r), 0});
    }
}

void
PacketTraversal::pruneDeadBeats()
{
    // Beats for lanes retired mid-leaf (any-hit) are never issued.
    // Pruning the whole queue (not just the front) never changes the
    // issued-beat sequence — dead beats would be skipped on their way
    // to the front anyway — and keeps pendingCount()/makeBeatAt()
    // indices dense for the multi-issue offer loop.
    std::erase_if(pending_, [this](const PacketBeat &b) {
        return lanes_[b.lane].retired;
    });
}

core::DatapathInput
PacketTraversal::makeBeatAt(size_t j, uint64_t tag) const
{
    const PacketBeat &b = pending_[j];
    const core::Ray &ray = lanes_[b.lane].ray;
    return cur_.is_leaf ? triangleBeat(ray, bvh_.tris[b.tri], tag)
                        : boxBeat(ray, bvh_.nodes[cur_.index], tag);
}

PacketBeat
PacketTraversal::takeBeatAt(size_t j)
{
    assert(j < pending_.size());
    const PacketBeat b = pending_[j];
    pending_.erase(pending_.begin() + std::ptrdiff_t(j));
    ++outstanding_;
    return b;
}

void
PacketTraversal::handleResult(const core::DatapathOutput &out,
                              const PacketBeat &b)
{
    assert(outstanding_ > 0);
    --outstanding_;
    Lane &ln = lanes_[b.lane];

    if (out.op == Opcode::RayBox) {
        box_res_[b.lane] = out.box;
    } else if (!ln.retired && // drop results for lanes dead mid-leaf
               acceptTriangle(out, bvh_.tris[b.tri].id, ln.t_beg,
                              ln.t_max, ln.best) &&
               mode_ == TraversalMode::Any) {
        // First in-extent hit retires the lane; the record carries
        // only the flag (the any-hit contract).
        retireLane(b.lane, HitRecord{true});
    }

    pruneDeadBeats();
    if (pending_.empty() && outstanding_ == 0)
        completeItem();
}

void
PacketTraversal::completeItem()
{
    if (!cur_.is_leaf)
        mergeBoxResults();
    // The item is done for every lane that was testing it; lanes left
    // with no pending work retire out of the packet independently.
    for (unsigned r = 0; r < n_lanes_; ++r)
        if (live_ & (1u << r))
            dropLaneFromItem(r);
    popNext();
}

unsigned
PacketTraversal::liveLanes() const
{
    unsigned n = 0;
    for (unsigned r = 0; r < n_lanes_; ++r)
        if (!lanes_[r].retired)
            ++n;
    return n;
}

void
PacketTraversal::scrubRetiredLanes()
{
    // An item's mask can still name lanes that retired after it was
    // pushed; popNext() would drop them lazily (dropLaneFromItem on a
    // retired lane only decrements its dead pending counter). Clearing
    // the bits eagerly is equivalent — and required before a retired
    // lane's slot is handed to an absorbed lane, or stale masks would
    // apply old work items to the new occupant.
    uint32_t retired = 0;
    for (unsigned r = 0; r < n_lanes_; ++r)
        if (lanes_[r].retired)
            retired |= 1u << r;
    if (retired == 0)
        return;
    for (Item &it : stack_)
        it.mask &= ~retired;
    cur_.mask &= ~retired;
    std::erase_if(stack_, [](const Item &it) { return it.mask == 0; });
}

void
PacketTraversal::absorb(PacketTraversal &donor)
{
    assert(compactable() && donor.compactable());
    assert(donor.completed_.empty());
    ++stats_->compactions;

    scrubRetiredLanes();
    donor.scrubRetiredLanes();

    // Map each surviving donor lane onto a free slot here: retired
    // slots are re-used first, then the packet widens toward width_.
    std::array<int, kMaxPacketWidth> remap;
    remap.fill(-1);
    unsigned next_free = 0;
    auto claimSlot = [&]() -> unsigned {
        while (next_free < n_lanes_ && !lanes_[next_free].retired)
            ++next_free;
        const unsigned slot = next_free++;
        assert(slot < width_);
        return slot;
    };
    for (unsigned r = 0; r < donor.n_lanes_; ++r) {
        if (donor.lanes_[r].retired)
            continue;
        const unsigned slot = claimSlot();
        remap[r] = int(slot);
        lanes_[slot] = donor.lanes_[r];
        if (slot >= n_lanes_)
            n_lanes_ = slot + 1;
        ++stats_->lanes_repacked;
    }

    // Translate the donor's pending work into this packet's lane
    // numbering: its stack bottom-to-top, then its current (nearest)
    // item on top. Per-lane entry distances and pending counts move
    // verbatim, so every lane still prunes and retires exactly as it
    // would have in the donor — only the fetch grouping changes. A
    // donor item naming the same node (or leaf run) as an item
    // already on this stack FUSES into it instead — lane masks are
    // disjoint, so the union visits the target once for both groups:
    // this is the shared fetch (and the beat-slot occupancy) that
    // compaction recovers after divergence.
    auto place = [&](const Item &it, uint32_t mask) {
        Item t;
        t.is_leaf = it.is_leaf;
        t.index = it.index;
        t.count = it.count;
        for (unsigned r = 0; r < donor.n_lanes_; ++r) {
            if (!(mask & (1u << r)) || remap[r] < 0)
                continue;
            t.mask |= 1u << unsigned(remap[r]);
            t.entry[unsigned(remap[r])] = it.entry[r];
        }
        if (t.mask == 0)
            return;
        // The recipient's own current item is a fuse target too — the
        // headline pairing has both packets at a fetch boundary about
        // to visit the same node, and cur_'s fetch has not issued yet,
        // so the newcomers simply join its active mask. (They skip the
        // pop-time prune check, which is conservative: a would-have-
        // been-pruned subtree can only yield strictly-worse hits.)
        if (cur_.is_leaf == t.is_leaf && cur_.index == t.index &&
            cur_.count == t.count) {
            for (unsigned r = 0; r < width_; ++r)
                if (t.mask & (1u << r))
                    cur_.entry[r] = t.entry[r];
            cur_.mask |= t.mask;
            live_ |= t.mask;
            return;
        }
        for (Item &mine : stack_) {
            if (mine.is_leaf == t.is_leaf && mine.index == t.index &&
                mine.count == t.count) {
                for (unsigned r = 0; r < width_; ++r)
                    if (t.mask & (1u << r))
                        mine.entry[r] = t.entry[r];
                mine.mask |= t.mask;
                return;
            }
        }
        stack_.push_back(t);
    };
    for (const Item &it : donor.stack_)
        place(it, it.mask);
    place(donor.cur_, donor.live_);

    donor.stack_.clear();
    donor.pending_.clear();
    donor.n_lanes_ = 0;
    donor.state_ = State::Idle;
}

void
PacketTraversal::mergeBoxResults()
{
    const WideNode &node = bvh_.nodes[cur_.index];

    // Invert each lane's sorted result into a slot-indexed entry table.
    std::array<std::array<float, 4>, kMaxPacketWidth> entry{};
    for (unsigned r = 0; r < n_lanes_; ++r) {
        if (!(live_ & (1u << r)))
            continue;
        const BoxResult &br = box_res_[r];
        for (int i = 0; i < 4; ++i)
            entry[r][br.order[i]] = fromBits(br.sorted_dist[i]);
    }

    // One candidate child item per slot some lane hit, kept in (key,
    // slot) order: slots arrive ascending, so inserting each after
    // every candidate with a key <= its own breaks exact-distance ties
    // by slot index.
    struct Cand
    {
        Item item;
        float key; ///< nearest entry distance over member lanes
    };
    std::array<Cand, 4> cands;
    int n_cands = 0;
    bool split = false;
    for (int slot = 0; slot < 4; ++slot) {
        const WideNode::Child &c = node.child[slot];
        if (c.kind == WideNode::Kind::Empty)
            continue;
        uint32_t mask = 0;
        float key = std::numeric_limits<float>::infinity();
        Item it;
        for (unsigned r = 0; r < n_lanes_; ++r) {
            if (!(live_ & (1u << r)) || !box_res_[r].hit[slot])
                continue;
            mask |= 1u << r;
            it.entry[r] = entry[r][slot];
            key = std::min(key, entry[r][slot]);
        }
        if (mask == 0)
            continue;
        if (mask != live_)
            split = true; // the children partition the packet
        it.mask = mask;
        if (c.kind == WideNode::Kind::Internal) {
            it.is_leaf = false;
            it.index = c.index;
        } else {
            it.is_leaf = true;
            it.index = c.index;
            it.count = c.count;
        }
        int j = n_cands++;
        for (; j > 0 && key < cands[size_t(j - 1)].key; --j)
            cands[size_t(j)] = cands[size_t(j - 1)];
        cands[size_t(j)] = {it, key};
    }
    if (split)
        ++stats_->divergence_splits;

    // Push farthest-first so the packet-nearest child pops first.
    for (int i = n_cands - 1; i >= 0; --i) {
        stack_.push_back(cands[size_t(i)].item);
        for (unsigned r = 0; r < n_lanes_; ++r)
            if (cands[size_t(i)].item.mask & (1u << r))
                ++lanes_[r].pending;
    }
}

} // namespace rayflex::bvh
