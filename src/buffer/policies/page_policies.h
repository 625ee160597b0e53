// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The three PagePolicy implementations behind the buffer side of the
// policy seam (DESIGN.md §13). All are stateless (the PBM one holds only
// an immutable board pointer), so one instance safely serves concurrent
// tables and pool partitions.

#pragma once

#include <memory>

#include "buffer/page_policy.h"
#include "buffer/policies/scan_position_board.h"

namespace scanshare::buffer {

/// The paper's pairing: priority-segmented LRU honouring the
/// leader/trailer release hints (paper §7.3). Members with followers
/// behind them release High. The trailer releases Low, but only once the
/// member right ahead of it has cleared the trailer's working chunk: a
/// scan releases the pages it is processing, which lie at its reported
/// position, so co-located scans would otherwise mark each other's pending
/// pages for eviction and thrash.
class DefaultPagePolicy final : public PagePolicy {
 public:
  const char* name() const override {
    return PolicyKindName(PolicyKind::kGroupThrottle);
  }
  std::unique_ptr<ReplacementPolicy> MakeReplacer(
      size_t num_frames) const override;
  PagePriority ReleasePriority(const ReleaseContext& ctx) const override;
};

/// ABM-style relevance treatment over the same priority-LRU replacer: a
/// page's priority is its relevance — kept High while group members will
/// still read it, dropped Low the moment nobody behind wants it. Unlike
/// the default policy, a singleton scan releases Low too (classic ABM
/// drop-behind: scans must not flush the pool with pages only they
/// touched).
class AbmPagePolicy final : public PagePolicy {
 public:
  const char* name() const override {
    return PolicyKindName(PolicyKind::kAbmRelevance);
  }
  std::unique_ptr<ReplacementPolicy> MakeReplacer(
      size_t num_frames) const override;
  PagePriority ReleasePriority(const ReleaseContext& ctx) const override;
};

/// PBM-style predictive treatment: release hints are neutral (kNormal
/// always) and the whole policy lives in the replacer, which evicts the
/// page with the farthest predicted next consumption read off `board`.
class PbmPagePolicy final : public PagePolicy {
 public:
  explicit PbmPagePolicy(std::shared_ptr<const ScanPositionBoard> board)
      : board_(std::move(board)) {}

  const char* name() const override {
    return PolicyKindName(PolicyKind::kPbmPredictive);
  }
  std::unique_ptr<ReplacementPolicy> MakeReplacer(
      size_t num_frames) const override;
  PagePriority ReleasePriority(const ReleaseContext& ctx) const override;

 private:
  std::shared_ptr<const ScanPositionBoard> board_;
};

}  // namespace scanshare::buffer
