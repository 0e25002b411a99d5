/**
 * @file
 * Bounding Volume Hierarchy builder.
 *
 * Builds the acceleration structure described in Section II-A: triangles
 * grouped hierarchically into nested axis-aligned bounding boxes. A
 * binary BVH is built with binned surface-area-heuristic (SAH) splits
 * (median split as fallback), then collapsed into the 4-wide layout the
 * RDNA3 IMAGE_BVH_INTERSECT_RAY instruction traverses: each internal
 * node holds up to four children whose boxes are tested by one datapath
 * beat.
 */
#ifndef RAYFLEX_BVH_BUILDER_HH
#define RAYFLEX_BVH_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bvh/aabb.hh"

namespace rayflex::bvh
{

/** One node of the 4-wide BVH. */
struct WideNode
{
    /** Child slot kinds. */
    enum class Kind : uint8_t { Empty, Internal, Leaf };

    struct Child
    {
        Aabb bounds;
        Kind kind = Kind::Empty;
        /** Node index when Internal; first-triangle index when Leaf. */
        uint32_t index = 0;
        /** Triangle count when Leaf. */
        uint32_t count = 0;
    };

    std::array<Child, 4> child{};
};

/** The 4-wide BVH over a triangle set. */
struct Bvh4
{
    std::vector<WideNode> nodes;        ///< node 0 is the root
    std::vector<SceneTriangle> tris;    ///< leaf triangles, reordered
    Aabb root_bounds;

    /** Number of non-empty child slots across all nodes. */
    size_t childCount() const;

    /** Maximum depth of the tree. */
    unsigned depth() const;
};

/** BVH build parameters. The binned-SAH split uses 16 buckets, a node
 *  cost of 1.0 and a triangle cost of 1.5 (constants of builder.cc). */
struct BuildParams
{
    unsigned max_leaf_size = 4; ///< triangles per leaf
};

/**
 * Build a 4-wide BVH over the given triangles. The input order is not
 * preserved; triangle ids survive in SceneTriangle::id.
 */
Bvh4 buildBvh4(std::vector<SceneTriangle> tris,
               const BuildParams &params = {});

/**
 * Structural validation used by the tests: every triangle is referenced
 * exactly once, every child box contains its subtree's geometry, and
 * node indices are acyclic (forward-only).
 * @return empty string when valid, otherwise a description of the first
 *         violation.
 */
std::string validateBvh4(const Bvh4 &bvh);

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_BUILDER_HH
