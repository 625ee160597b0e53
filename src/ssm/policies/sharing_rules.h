// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The paper's unit-free sharing rules, stated once. Table scans apply them
// in pages with the prefetch extent as the position-report quantum
// (GroupThrottlePolicy, ScanSharingManager); index scans apply them in
// blocks with a one-block quantum (IndexScanSharingManager) — the follow-up
// paper's §7.2 "reuse all of the grouping, leader/trailer classification,
// throttling and page prioritization algorithms", taken literally. The
// fourth reused rule, the release priority, is buffer::DefaultPagePolicy's.
//
// Every function is a pure function of its arguments ("units" below are
// pages or blocks, speeds are units per second, times are microseconds).

#pragma once

#include <cstdint>

#include "ssm/scan_state.h"

namespace scanshare::ssm {

/// True if `page` lies in the scan's [range_first, range_end) — new-scan
/// ranges never wrap.
inline bool InScanRange(sim::PageId page, const ScanDescriptor& desc) {
  return page >= desc.range_first && page < desc.range_end;
}

/// Aligns a start page down to the `extent` grid (>= 1), clamped into the
/// scan's range, so every placement policy starts scans on the same grid.
sim::PageId ExtentAlignedStart(sim::PageId page, const ScanDescriptor& desc,
                               uint64_t extent);

/// Expected units a new scan (speed `v_new`, `new_total` units to read)
/// shares with an ongoing candidate (speed `v_cand`, `cand_remaining`
/// units left) if placed at the candidate's location: the time the pair
/// stays within `threshold` units of each other (dissimilar speeds drift
/// apart), capped by either scan running out of range, times the slower
/// speed.
double ExpectedSharedUnits(double v_new, double v_cand, uint64_t threshold,
                           uint64_t cand_remaining, uint64_t new_total);

/// A leader's wait before the fairness cap is applied.
struct LeaderWait {
  sim::Micros wait = 0;  ///< Wait for the trailer to close the excess gap.
  bool capped = false;   ///< A wait was due but the leader is exhausted.
};

/// Wait for a group leader `gap` units ahead of its trailer: long enough
/// for the trailer (at `trailer_speed`) to close the gap down to
/// `threshold`, at most `max_wait`. Gaps up to `threshold + quantum` wait
/// nothing — positions are reported at `quantum` granularity, so the gap
/// of two co-running scans oscillates by up to one quantum. An
/// `exhausted` leader beyond that band is capped instead (paper's 80 %
/// rule: never throttled again).
LeaderWait LeaderWaitFor(uint64_t gap, uint64_t threshold, uint64_t quantum,
                         double trailer_speed, bool exhausted,
                         sim::Micros max_wait);

/// A wait after the fairness cap.
struct FairnessGrant {
  sim::Micros wait = 0;    ///< Wait to insert (0 = none).
  bool exhausted = false;  ///< The budget is now spent: set the scan's flag.
  bool suppressed = false; ///< The cap removed a wait that was due.
};

/// Applies the fairness cap (paper's 80 % rule) to `decided`: total
/// slowdown never exceeds `fairness_cap` x `throttle_tolerance` x
/// `estimated_duration`. The wait is clamped to the budget left after
/// `accumulated_wait`; the grant that reaches the budget exhausts the
/// scan. An update is *suppressed* — counted once — when a wait was due
/// and none is granted: the leader was already capped, the budget was
/// gone, or the residue truncates to zero microseconds. A clamped but
/// positive wait is a grant, not a suppression.
FairnessGrant GrantWithinFairnessCap(const LeaderWait& decided,
                                     double fairness_cap,
                                     double throttle_tolerance,
                                     sim::Micros estimated_duration,
                                     sim::Micros accumulated_wait);

}  // namespace scanshare::ssm
