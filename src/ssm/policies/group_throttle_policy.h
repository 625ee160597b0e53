// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The paper's mechanism as a SharingPolicy. This is the DEFAULT policy —
// a manager built with it decides bit-identically to the pre-seam
// ScanSharingManager (pinned by policy_parity_test and the trace goldens),
// so every existing experiment is unchanged.
//
//   Place    — scan placement (paper §"scan placement"): starting a new
//              scan at an ongoing scan's position converts the follower's
//              reads into buffer hits for as long as the two stay
//              together. Candidates are the ongoing scans positioned
//              inside the new scan's range, scored by ExpectedSharedUnits.
//              With nobody active, the new scan starts at the last
//              finished scan's final position to harvest the pages it
//              left in the pool (paper's special case).
//   Group    — Fig.-14 grouping (BuildScanGroups).
//   Throttle — leader throttling (paper §"scan speed control"): a leader
//              more than the distance threshold (default two prefetch
//              extents) ahead of its trailer waits for the trailer to
//              close the excess gap (LeaderWaitFor, one-extent
//              hysteresis). The manager inserts the wait inside the
//              location-update call — to the scan the call just appears
//              slow, which is how the DB2 prototype does it — after
//              applying the fairness cap (GrantWithinFairnessCap).

#pragma once

#include "ssm/sharing_policy.h"

namespace scanshare::ssm {

/// Grouping + throttling (paper default). Stateless beyond its options;
/// safe to share across concurrent tables.
class GroupThrottlePolicy final : public SharingPolicy {
 public:
  explicit GroupThrottlePolicy(const SsmOptions& options) : options_(options) {}

  const char* name() const override {
    return PolicyKindName(PolicyKind::kGroupThrottle);
  }

  Placement Place(const ScanDescriptor& desc, double est_speed_pps,
                  const std::vector<const ScanState*>& active,
                  size_t total_active_scans,
                  std::optional<sim::PageId> last_finished_pos,
                  const ScanCircle& circle) const override;

  std::vector<ScanGroup> Group(const std::vector<ScanPoint>& points,
                               const ScanCircle& circle) const override;

  /// Only group leaders are ever throttled; everyone else gets wait 0.
  ThrottleDecision Throttle(const ScanState& scan, const ScanGroup& group,
                            const ScanState& trailer,
                            const ScanCircle& circle) const override;

 private:
  SsmOptions options_;
};

}  // namespace scanshare::ssm
