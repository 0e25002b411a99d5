/**
 * @file
 * k-NN index construction and the functional best-first traversal.
 */
#include "bvh/knn.hh"

#include <algorithm>
#include <stdexcept>

namespace rayflex::bvh
{

using core::DatapathInput;
using core::Opcode;
using fp::toBits;

KnnIndex
buildKnnIndex(std::vector<DataPoint> points, const BuildParams &params)
{
    KnnIndex index;
    index.points = std::move(points);
    if (index.points.empty())
        return index;

    index.dims = unsigned(index.points.front().coords.size());
    if (index.dims == 0)
        throw std::invalid_argument("knn: zero-dimensional points");
    for (const DataPoint &p : index.points)
        if (p.coords.size() != index.dims)
            throw std::invalid_argument(
                "knn: inconsistent point dimensions");

    // Degenerate proxy triangles at the first three coordinates;
    // tri.id indexes back into `points` across the builder's reorder.
    std::vector<SceneTriangle> proxies;
    proxies.reserve(index.points.size());
    for (size_t i = 0; i < index.points.size(); ++i) {
        const std::vector<float> &c = index.points[i].coords;
        Vec3 p{c[0], index.dims > 1 ? c[1] : 0.0f,
               index.dims > 2 ? c[2] : 0.0f};
        SceneTriangle t;
        t.v0 = t.v1 = t.v2 = p;
        t.id = uint32_t(i);
        proxies.push_back(t);
    }
    index.bvh = buildBvh4(std::move(proxies), params);
    return index;
}

size_t
knnBeatsPerJob(size_t dims, KnnMetric metric)
{
    const size_t width = metric == KnnMetric::Cosine
                             ? core::kCosineWidth
                             : core::kEuclideanWidth;
    return (dims + width - 1) / width;
}

DatapathInput
knnJobBeat(const float *query, const float *candidate, size_t dims,
           KnnMetric metric, uint64_t tag, size_t beat)
{
    const bool cosine = metric == KnnMetric::Cosine;
    const size_t width =
        cosine ? core::kCosineWidth : core::kEuclideanWidth;
    const size_t base = beat * width;
    DatapathInput in;
    in.op = cosine ? Opcode::Cosine : Opcode::Euclidean;
    in.tag = tag;
    in.mask = 0;
    for (size_t i = 0; i < width && base + i < dims; ++i) {
        in.vec_a[i] = toBits(query[base + i]);
        in.vec_b[i] = toBits(candidate[base + i]);
        in.mask |= uint16_t(1u << i);
    }
    in.reset_accumulator = base + width >= dims;
    return in;
}

std::vector<DatapathInput>
knnJobBeats(const float *query, const float *candidate, size_t dims,
            KnnMetric metric, uint64_t tag)
{
    const size_t n = knnBeatsPerJob(dims, metric);
    std::vector<DatapathInput> beats;
    beats.reserve(n);
    for (size_t b = 0; b < n; ++b)
        beats.push_back(
            knnJobBeat(query, candidate, dims, metric, tag, b));
    return beats;
}

float
knnJobScore(const core::DatapathOutput &out, KnnMetric metric)
{
    return metric == KnnMetric::Euclidean
               ? fp::fromBits(out.euclidean_accumulator)
               : core::golden::knnAngularScore(
                     fp::fromBits(out.angular_dot_product),
                     fp::fromBits(out.angular_norm));
}

double
knnBoxLowerBound(const Aabb &box, const float *query, size_t dims)
{
    double lb = 0.0;
    for (int axis = 0; axis < 3; ++axis) {
        double q = size_t(axis) < dims ? double(query[axis]) : 0.0;
        double lo = double(box.lo[axis]);
        double hi = double(box.hi[axis]);
        double d = q < lo ? lo - q : q > hi ? q - hi : 0.0;
        lb += d * d;
    }
    return lb;
}

void
KnnTopK::offer(float score, uint32_t id)
{
    if (k_ == 0)
        return;
    KnnNeighbor cand{score, id};
    if (heap_.size() < k_) {
        heap_.push_back(cand);
        std::push_heap(heap_.begin(), heap_.end(),
                       core::golden::knnCloser);
        return;
    }
    if (core::golden::knnCloser(cand, heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(),
                      core::golden::knnCloser);
        heap_.back() = cand;
        std::push_heap(heap_.begin(), heap_.end(),
                       core::golden::knnCloser);
    }
}

std::vector<KnnNeighbor>
KnnTopK::sorted() const
{
    std::vector<KnnNeighbor> out = heap_;
    std::sort(out.begin(), out.end(), core::golden::knnCloser);
    return out;
}

namespace
{

/** Min-heap order: true when `a` is visited after `b`. */
bool
visitedAfter(const KnnFrontier::Item &a, const KnnFrontier::Item &b)
{
    return a.lb != b.lb ? a.lb > b.lb : a.seq > b.seq;
}

} // namespace

void
KnnFrontier::push(const Item &item)
{
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), visitedAfter);
}

void
KnnFrontier::notePeak(KnnStats &stats) const
{
    if (heap_.size() > stats.frontier_peak)
        stats.frontier_peak = heap_.size();
}

void
KnnFrontier::start(KnnStats &stats)
{
    heap_.clear();
    seq_ = 0;
    push({0.0, false, 0, 0, seq_++});
    notePeak(stats);
}

bool
KnnFrontier::pop(bool prune, const KnnTopK &topk, KnnStats &stats,
                 Item *item)
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), visitedAfter);
    *item = heap_.back();
    heap_.pop_back();
    if (prune && topk.full() && knnPrunable(item->lb, topk.radius())) {
        stats.pruned += 1 + heap_.size();
        heap_.clear();
        return false;
    }
    return true;
}

void
KnnFrontier::expand(const WideNode &node, const float *query,
                    size_t dims, bool prune, const KnnTopK &topk,
                    KnnStats &stats)
{
    ++stats.nodes_visited;
    for (const WideNode::Child &c : node.child) {
        if (c.kind == WideNode::Kind::Empty)
            continue;
        const double lb =
            prune ? knnBoxLowerBound(c.bounds, query, dims) : 0.0;
        if (prune && topk.full() && knnPrunable(lb, topk.radius())) {
            ++stats.pruned;
            continue;
        }
        push({lb, c.kind == WideNode::Kind::Leaf, c.index, c.count,
              seq_++});
    }
    notePeak(stats);
}

KnnResult
KnnTraversal::search(const KnnQuery &query)
{
    if (!index_.points.empty() &&
        query.point.size() != index_.dims)
        throw std::invalid_argument("knn: query dimension mismatch");

    KnnTopK topk;
    topk.reset(query.k);
    ++stats_.queries;
    if (index_.points.empty() || query.k == 0)
        return {};

    const bool prune = query.metric == KnnMetric::Euclidean;
    const float *q = query.point.data();
    const size_t beats = knnBeatsPerJob(index_.dims, query.metric);

    KnnFrontier frontier;
    frontier.start(stats_);
    KnnFrontier::Item item;
    while (frontier.pop(prune, topk, stats_, &item)) {
        if (!item.is_leaf) {
            frontier.expand(index_.bvh.nodes[item.index], q, index_.dims,
                            prune, topk, stats_);
            continue;
        }
        ++stats_.leaves_visited;
        for (uint32_t t = item.index; t < item.index + item.count;
             ++t) {
            const DataPoint &p =
                index_.points[index_.bvh.tris[t].id];
            ++stats_.candidates;
            stats_.distance_beats += beats;
            core::DatapathOutput out{};
            for (size_t b = 0; b < beats; ++b)
                out = core::functionalEval(
                    knnJobBeat(q, p.coords.data(), index_.dims,
                               query.metric, p.id, b),
                    acc_);
            topk.offer(knnJobScore(out, query.metric), p.id);
        }
    }

    return {topk.sorted()};
}

} // namespace rayflex::bvh
