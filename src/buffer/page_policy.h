// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Buffer side of the policy seam (DESIGN.md §13): a PagePolicy decides how
// the pool treats pages — which replacement policy backs a pool, and what
// release priority a scan attaches to the pages it has processed. The
// default implementation is the paper's pairing of leader/trailer release
// hints with a priority-segmented LRU (DefaultPagePolicy), ABM keeps pages
// with waiting consumers, and PBM ignores hints entirely and predicts next
// consumption inside its replacer.
//
// The interface is deliberately SSM-type-free: the SSM condenses a scan's
// group role into a ReleaseContext, so the buffer layer never learns about
// scan ids, groups, or circles (the layering the seed already enforced —
// buffer/ must not depend on ssm/).
//
// Thread expectations: ReleasePriority is called under the SSM's table
// latch (possibly concurrently for distinct tables) and must therefore be
// const and stateless or internally synchronized. MakeReplacer is called
// once per pool partition at run construction, before any concurrency.

#pragma once

#include <cstdint>
#include <memory>

#include "buffer/replacer.h"
#include "common/policy_kind.h"

namespace scanshare::buffer {

class ScanPositionBoard;

/// Everything a page policy may consider when advising a release priority.
/// Built by the SSM from the releasing scan's group role; all fields are
/// policy-neutral numbers so buffer/ stays independent of ssm/ types.
struct ReleaseContext {
  /// False when the run disabled priority hints (ablation A2) — every
  /// policy must then answer kNormal so the replacer degenerates to LRU.
  bool hints_enabled = true;
  /// Scans in the releasing scan's group (1 = singleton / ungrouped).
  size_t group_size = 1;
  bool is_leader = false;   ///< Frontmost member of a group of >= 2.
  bool is_trailer = false;  ///< Backmost member of a group of >= 2.
  /// Forward distance (pages) from the trailer to the member right ahead
  /// of it; only meaningful when is_trailer.
  uint64_t successor_gap_pages = 0;
  /// Effective prefetch extent (>= 1) — the position-report quantum.
  uint64_t extent_pages = 16;
};

/// Page-treatment policy: replacer choice + release-priority advice.
class PagePolicy {
 public:
  virtual ~PagePolicy() = default;

  /// Stable policy name for reports.
  virtual const char* name() const = 0;

  /// Builds the replacement policy for one pool (or pool partition) of
  /// `num_frames` frames.
  virtual std::unique_ptr<ReplacementPolicy> MakeReplacer(
      size_t num_frames) const = 0;

  /// Priority the releasing scan should attach to pages of the chunk it
  /// just processed.
  virtual PagePriority ReleasePriority(const ReleaseContext& ctx) const = 0;
};

/// Builds the page policy for `kind`. `board` is consulted by PBM's
/// replacer and must be the same board the PBM sharing policy publishes
/// scan trajectories to; it is ignored (and may be null) for the other
/// kinds. PBM with a null board is an error (the predictive replacer would
/// have nothing to predict from) — the factory aborts.
std::shared_ptr<const PagePolicy> MakePagePolicy(
    PolicyKind kind, std::shared_ptr<const ScanPositionBoard> board);

}  // namespace scanshare::buffer
