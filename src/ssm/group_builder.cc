#include "ssm/group_builder.h"

#include <algorithm>
#include <numeric>

namespace scanshare::ssm {

namespace {

/// Union-find over point indices, used to reject edges that would close the
/// circle into one degenerate all-scan loop.
class DisjointSet {
 public:
  explicit DisjointSet(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

std::vector<ScanGroup> BuildScanGroups(const std::vector<ScanPoint>& points,
                                       const ScanCircle& circle,
                                       uint64_t bufferpool_pages) {
  std::vector<ScanGroup> groups;
  const size_t n = points.size();
  if (n == 0) return groups;

  // Sort scans along the circle; ties by id for determinism.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (points[a].position != points[b].position) {
      return points[a].position < points[b].position;
    }
    return points[a].id < points[b].id;
  });

  if (n == 1) {
    ScanGroup g;
    g.members = {points[order[0]].id};
    g.trailer = g.leader = points[order[0]].id;
    g.extent_pages = 0;
    groups.push_back(std::move(g));
    return groups;
  }

  // Adjacency edges along the circle: edge i connects sorted neighbours
  // i -> (i+1) % n with the forward scan-order gap between them.
  struct Edge {
    size_t from;  // Index into `order`.
    uint64_t gap;
  };
  std::vector<Edge> edges;
  edges.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (i + 1) % n;
    edges.push_back(Edge{
        i, circle.ForwardDistance(points[order[i]].position,
                                  points[order[j]].position)});
  }

  // Fig. 14: consider pairs in ascending distance; merge while the summed
  // extents stay within the buffer-pool budget. Ties break on the backmost
  // scan's position, then its id, for determinism.
  std::vector<size_t> edge_order(edges.size());
  std::iota(edge_order.begin(), edge_order.end(), 0);
  std::sort(edge_order.begin(), edge_order.end(), [&](size_t a, size_t b) {
    if (edges[a].gap != edges[b].gap) return edges[a].gap < edges[b].gap;
    const ScanPoint& pa = points[order[edges[a].from]];
    const ScanPoint& pb = points[order[edges[b].from]];
    if (pa.position != pb.position) return pa.position < pb.position;
    return pa.id < pb.id;
  });

  DisjointSet dsu(n);
  std::vector<bool> included(edges.size(), false);
  uint64_t extent_sum = 0;
  for (size_t e : edge_order) {
    const uint64_t gap = edges[e].gap;
    if (extent_sum + gap > bufferpool_pages) break;
    const size_t from = edges[e].from;
    const size_t to = (from + 1) % n;
    if (!dsu.Union(from, to)) continue;  // Would close the full circle.
    included[e] = true;
    extent_sum += gap;
  }

  // Chains of consecutive included edges become groups. Find arc starts:
  // sorted positions whose incoming edge (from the predecessor) is absent.
  // One always exists: the union-find guard admits at most n-1 of the n
  // circle edges.
  for (size_t s = 0; s < n; ++s) {
    const size_t incoming = (s + n - 1) % n;
    if (included[incoming]) continue;  // Not an arc start.
    ScanGroup g;
    uint64_t extent = 0;
    size_t i = s;
    while (true) {
      g.members.push_back(points[order[i]].id);
      if (!included[i]) break;  // Edge out of i is absent: arc ends here.
      extent += edges[i].gap;
      i = (i + 1) % n;
    }
    g.trailer = g.members.front();
    g.leader = g.members.back();
    g.extent_pages = extent;
    groups.push_back(std::move(g));
  }
  return groups;
}

std::vector<ScanGroup> BuildScanGroupsLinear(
    const std::vector<LinearScanPoint>& points, uint64_t budget) {
  std::vector<ScanGroup> groups;
  const size_t n = points.size();
  if (n == 0) return groups;

  // Sort by (axis_group, offset, id): adjacency candidates are neighbours
  // within an axis group.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (points[a].axis_group != points[b].axis_group) {
      return points[a].axis_group < points[b].axis_group;
    }
    if (points[a].offset != points[b].offset) {
      return points[a].offset < points[b].offset;
    }
    return points[a].id < points[b].id;
  });

  struct Edge {
    size_t from;  // Index into `order`; connects to from+1.
    uint64_t gap;
  };
  std::vector<Edge> edges;
  for (size_t i = 0; i + 1 < n; ++i) {
    const LinearScanPoint& a = points[order[i]];
    const LinearScanPoint& b = points[order[i + 1]];
    if (a.axis_group != b.axis_group) continue;  // No order across anchors.
    edges.push_back(Edge{i, b.offset - a.offset});
  }

  std::vector<size_t> edge_order(edges.size());
  std::iota(edge_order.begin(), edge_order.end(), 0);
  std::sort(edge_order.begin(), edge_order.end(), [&](size_t a, size_t b) {
    if (edges[a].gap != edges[b].gap) return edges[a].gap < edges[b].gap;
    const LinearScanPoint& pa = points[order[edges[a].from]];
    const LinearScanPoint& pb = points[order[edges[b].from]];
    if (pa.offset != pb.offset) return pa.offset < pb.offset;
    return pa.id < pb.id;
  });

  std::vector<bool> included(edges.size(), false);
  uint64_t extent_sum = 0;
  for (size_t e : edge_order) {
    if (extent_sum + edges[e].gap > budget) break;
    included[e] = true;
    extent_sum += edges[e].gap;
  }

  // Chains of consecutive included edges (linear: no wrap to close).
  std::vector<bool> edge_into(n, false);  // Sorted position i has an
  for (size_t e = 0; e < edges.size(); ++e) {  // included incoming edge?
    if (included[e]) edge_into[edges[e].from + 1] = true;
  }
  size_t i = 0;
  while (i < n) {
    ScanGroup g;
    uint64_t extent = 0;
    g.members.push_back(points[order[i]].id);
    size_t j = i;
    while (j + 1 < n && edge_into[j + 1]) {
      extent += points[order[j + 1]].offset - points[order[j]].offset;
      g.members.push_back(points[order[j + 1]].id);
      ++j;
    }
    g.trailer = g.members.front();
    g.leader = g.members.back();
    g.extent_pages = extent;
    groups.push_back(std::move(g));
    i = j + 1;
  }
  return groups;
}

}  // namespace scanshare::ssm
