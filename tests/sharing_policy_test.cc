// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Unit tests for the policy seam (DESIGN.md §13): the default
// GroupThrottlePolicy's placement special cases exercised THROUGH the
// SharingPolicy interface, the ABM relevance policy's placement/relevance
// math, the PBM trajectory board's wrap-aware predictions, and the PBM
// replacer's farthest-consumption eviction.

#include "ssm/sharing_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "buffer/page_policy.h"
#include "common/thread_pool.h"
#include "testutil.h"
#include "buffer/policies/page_policies.h"
#include "buffer/policies/pbm_replacer.h"
#include "buffer/policies/scan_position_board.h"
#include "ssm/policies/abm_relevance_policy.h"
#include "ssm/policies/group_throttle_policy.h"
#include "ssm/policies/pbm_predictive_policy.h"

namespace scanshare::ssm {
namespace {

SsmOptions DefaultOptions() {
  SsmOptions o;
  o.prefetch_extent_pages = 16;
  return o;
}

ScanDescriptor FullTableDesc(sim::PageId first = 0, sim::PageId end = 1024) {
  ScanDescriptor d;
  d.table_id = 1;
  d.table_first = first;
  d.table_end = end;
  d.range_first = first;
  d.range_end = end;
  d.estimated_pages = end - first;
  d.estimated_duration = sim::Seconds(10);
  return d;
}

ScanState ActiveScan(ScanId id, sim::PageId pos, double pps,
                     uint64_t remaining, sim::PageId start_page = 0,
                     uint64_t pages_processed = 4096) {
  ScanState s;
  s.id = id;
  s.position = pos;
  s.speed_pps = pps;
  s.desc = FullTableDesc();
  s.start_page = start_page;
  s.pages_processed = pages_processed;
  s.desc.estimated_pages = pages_processed + remaining;
  return s;
}

// ------------------------------------------------- GroupThrottlePolicy

TEST(GroupThrottlePolicyTest, ReusesLastFinishedPositionWhenIdle) {
  // Paper special case through the seam: nobody active, but the previous
  // scan of this table finished at page 500 — its trailing pages are the
  // only warm ones, so the new scan starts there (extent-aligned).
  GroupThrottlePolicy p(DefaultOptions());
  ScanCircle c(0, 1024);
  auto placement = p.Place(FullTableDesc(), 100.0, {}, 0, 500, c);
  EXPECT_EQ(placement.start_page, 496u);  // 500 aligned down to 16-grid.
  EXPECT_EQ(placement.joined_scan, kInvalidScanId);

  // A leftover position outside the new scan's range is ignored.
  auto outside = p.Place(FullTableDesc(0, 256), 100.0, {}, 0, 500, c);
  EXPECT_EQ(outside.start_page, 0u);
}

TEST(GroupThrottlePolicyTest, YoungCandidateJoinedAtItsStart) {
  // Young-candidate refinement through the seam: a candidate whose entire
  // covered region plausibly still sits in the pool is joined at its START
  // page, so the new scan catches up through buffer hits.
  GroupThrottlePolicy p(DefaultOptions());
  ScanCircle c(0, 1024);
  ScanState young = ActiveScan(7, /*pos=*/300, 100.0, /*remaining=*/724,
                               /*start_page=*/256, /*pages_processed=*/44);
  auto placement = p.Place(FullTableDesc(), 100.0, {&young}, 1, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 7u);
  EXPECT_EQ(placement.start_page, 256u);  // Candidate's start, not position.

  // A mature candidate (covered region long since evicted) is joined at
  // its current position instead.
  ScanState mature = ActiveScan(7, /*pos=*/300, 100.0, /*remaining=*/724);
  auto at_pos = p.Place(FullTableDesc(), 100.0, {&mature}, 1, std::nullopt, c);
  EXPECT_EQ(at_pos.joined_scan, 7u);
  EXPECT_EQ(at_pos.start_page, 288u);  // 300 aligned down to the 16-grid.
}

TEST(GroupThrottlePolicyTest, DelegatesToSeedComponents) {
  // The default policy's three decisions must equal the seed components'
  // outputs exactly — this is the decision-level half of the bit-identity
  // contract (policy_parity_test pins the run-level half).
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  PlacementPolicy placement(o);
  ThrottleController throttle(o);
  ScanCircle c(0, 1024);

  ScanState a = ActiveScan(3, 128, 90.0, 800);
  ScanState b = ActiveScan(5, 600, 110.0, 500);
  const std::vector<const ScanState*> active{&a, &b};
  const auto seam = p.Place(FullTableDesc(), 100.0, active, 2, std::nullopt, c);
  const auto seed =
      placement.Choose(FullTableDesc(), 100.0, active, 2, std::nullopt, c);
  EXPECT_EQ(seam.start_page, seed.start_page);
  EXPECT_EQ(seam.joined_scan, seed.joined_scan);

  const std::vector<ScanPoint> points{{3, 128}, {5, 600}};
  const auto groups = p.Group(points, c);
  const auto seed_groups = BuildScanGroups(points, c, o.bufferpool_pages);
  ASSERT_EQ(groups.size(), seed_groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].members, seed_groups[i].members);
    EXPECT_EQ(groups[i].trailer, seed_groups[i].trailer);
    EXPECT_EQ(groups[i].leader, seed_groups[i].leader);
    EXPECT_EQ(groups[i].extent_pages, seed_groups[i].extent_pages);
  }

  ScanGroup g;
  g.members = {3, 5};
  g.trailer = 3;
  g.leader = 5;
  ScanState leader = ActiveScan(5, 600, 110.0, 500);
  ScanState trailer = ActiveScan(3, 128, 90.0, 800);
  const auto seam_wait = p.Throttle(leader, g, trailer, c);
  const auto seed_wait = throttle.Decide(leader, g, trailer, c);
  EXPECT_EQ(seam_wait.wait, seed_wait.wait);
  EXPECT_EQ(seam_wait.gap_pages, seed_wait.gap_pages);
}

// ------------------------------------------------- AbmRelevancePolicy

TEST(AbmRelevancePolicyTest, RelevanceCountsNearbyScans) {
  SsmOptions o = DefaultOptions();  // Threshold = 32 pages.
  AbmRelevancePolicy p(o);
  ScanCircle c(0, 1024);
  ScanState a = ActiveScan(1, 100, 100, 500);
  ScanState b = ActiveScan(2, 120, 100, 500);  // Within 32 of 100.
  ScanState d = ActiveScan(3, 500, 100, 500);  // Far away.
  const std::vector<const ScanState*> active{&a, &b, &d};
  EXPECT_EQ(p.RelevanceAt(100, active, c), 2u);
  EXPECT_EQ(p.RelevanceAt(500, active, c), 1u);
  // Either direction on the circle counts: 90 is 10 behind a, 30 behind b.
  EXPECT_EQ(p.RelevanceAt(90, active, c), 2u);
}

TEST(AbmRelevancePolicyTest, PlacesInDensestCluster) {
  SsmOptions o = DefaultOptions();
  AbmRelevancePolicy p(o);
  ScanCircle c(0, 1024);
  // Cluster of two around page ~100; a lone scan at 500.
  ScanState a = ActiveScan(1, 100, 100, 500);
  ScanState b = ActiveScan(2, 120, 100, 500);
  ScanState lone = ActiveScan(3, 500, 100, 900);
  const std::vector<const ScanState*> active{&a, &b, &lone};
  auto placement = p.Place(FullTableDesc(), 100.0, active, 3, std::nullopt, c);
  // Joined inside the cluster (either member has relevance 2 > 1).
  EXPECT_TRUE(placement.joined_scan == 1u || placement.joined_scan == 2u);
  EXPECT_EQ(placement.expected_shared_pages, 2.0);
}

TEST(AbmRelevancePolicyTest, TiePrefersMostStarvedCandidate) {
  SsmOptions o = DefaultOptions();
  AbmRelevancePolicy p(o);
  ScanCircle c(0, 1024);
  // Two singleton candidates (equal relevance 1): the one with more
  // remaining work wins the tie.
  ScanState fresh = ActiveScan(1, 100, 100, /*remaining=*/200);
  ScanState starved = ActiveScan(2, 500, 100, /*remaining=*/900);
  const std::vector<const ScanState*> active{&fresh, &starved};
  auto placement = p.Place(FullTableDesc(), 100.0, active, 2, std::nullopt, c);
  EXPECT_EQ(placement.joined_scan, 2u);
  EXPECT_EQ(placement.start_page, 496u);  // 500 aligned to the extent grid.
}

TEST(AbmRelevancePolicyTest, NeverThrottles) {
  SsmOptions o = DefaultOptions();
  AbmRelevancePolicy p(o);
  ScanCircle c(0, 1024);
  ScanState trailer = ActiveScan(1, 100, 100, 500);
  ScanState leader = ActiveScan(2, 600, 100, 500);  // Gap 500 >> threshold.
  ScanGroup g;
  g.members = {1, 2};
  g.trailer = 1;
  g.leader = 2;
  const auto d = p.Throttle(leader, g, trailer, c);
  EXPECT_EQ(d.wait, 0u);
  EXPECT_FALSE(d.capped);
}

// ------------------------------------------------- PbmPredictivePolicy

TEST(PbmPredictivePolicyTest, NeutralDecisionsAndTrajectoryPublishing) {
  auto board = std::make_shared<buffer::ScanPositionBoard>();
  PbmPredictivePolicy p(board);
  ScanCircle c(0, 1024);

  // Placement ignores ongoing scans: always range begin.
  ScanState ongoing = ActiveScan(1, 500, 100, 500);
  auto placement =
      p.Place(FullTableDesc(), 100.0, {&ongoing}, 1, std::nullopt, c);
  EXPECT_EQ(placement.start_page, 0u);
  EXPECT_EQ(placement.joined_scan, kInvalidScanId);

  // Groups are singletons satisfying the manager's audit shape.
  const std::vector<ScanPoint> points{{1, 500}, {2, 100}};
  const auto groups = p.Group(points, c);
  ASSERT_EQ(groups.size(), 2u);
  for (const ScanGroup& g : groups) {
    ASSERT_EQ(g.members.size(), 1u);
    EXPECT_EQ(g.leader, g.members[0]);
    EXPECT_EQ(g.trailer, g.members[0]);
    EXPECT_EQ(g.extent_pages, 0u);
  }

  // Hooks publish/retire trajectories on the shared board.
  ScanState s = ActiveScan(9, /*pos=*/200, /*pps=*/100.0, /*remaining=*/824,
                           /*start_page=*/128, /*pages_processed=*/72);
  p.OnScanStarted(s);
  EXPECT_EQ(board->size(), 1u);
  s.position = 264;
  p.OnLocationUpdate(s);
  auto eta = board->NextConsumptionUs(300);  // 36 pages ahead at 100 pps.
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 360'000.0);
  p.OnScanEnded(9, 128);
  EXPECT_EQ(board->size(), 0u);
}

}  // namespace
}  // namespace scanshare::ssm

namespace scanshare::buffer {
namespace {

ScanPositionBoard::Trajectory MakeTrajectory(uint64_t id, uint64_t pos,
                                             double pps, uint64_t start,
                                             uint64_t first = 0,
                                             uint64_t end = 1024) {
  ScanPositionBoard::Trajectory t;
  t.scan_id = id;
  t.position = pos;
  t.speed_pps = pps;
  t.range_first = first;
  t.range_end = end;
  t.start_page = start;
  return t;
}

TEST(ScanPositionBoardTest, PredictsAlongTheWrapProtocol) {
  ScanPositionBoard board;
  // Pre-wrap scan: started at 256, now at 300, heading to 1024 then
  // wrapping through [0, 256).
  board.Upsert(MakeTrajectory(1, /*pos=*/300, /*pps=*/100.0, /*start=*/256));

  // Straight ahead: 200 pages at 100 pps = 2 s.
  auto ahead = board.NextConsumptionUs(500);
  ASSERT_TRUE(ahead.has_value());
  EXPECT_DOUBLE_EQ(*ahead, 2'000'000.0);

  // On the wrap leg: (1024 - 300) + 100 = 824 pages.
  auto wrapped = board.NextConsumptionUs(100);
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_DOUBLE_EQ(*wrapped, 8'240'000.0);

  // Already consumed this lap (between start and position): never again.
  EXPECT_FALSE(board.NextConsumptionUs(280).has_value());

  // Post-wrap scan: position below start_page — only [position, start)
  // remains; pages at/after start are done.
  board.Upsert(MakeTrajectory(1, /*pos=*/100, /*pps=*/100.0, /*start=*/256));
  auto remaining = board.NextConsumptionUs(200);
  ASSERT_TRUE(remaining.has_value());
  EXPECT_DOUBLE_EQ(*remaining, 1'000'000.0);
  EXPECT_FALSE(board.NextConsumptionUs(500).has_value());

  // Soonest over all scans wins: add a faster scan right behind page 200.
  board.Upsert(MakeTrajectory(2, /*pos=*/190, /*pps=*/1000.0, /*start=*/190));
  auto soonest = board.NextConsumptionUs(200);
  ASSERT_TRUE(soonest.has_value());
  EXPECT_DOUBLE_EQ(*soonest, 10'000.0);
}

TEST(ScanPositionBoardTest, ConcurrentPublishersAndReadersStaySafe) {
  // The board is the one piece of policy state shared across subsystems:
  // the PBM sharing policy publishes trajectories under SSM locks
  // (concurrently for distinct tables) while PbmReplacer reads predictions
  // under a pool partition latch. Writers and readers hammer it in
  // parallel; the TSan preset verifies the leaf lock.
  constexpr size_t kWorkers = 4;
  constexpr int kRounds = 200;
  ScanPositionBoard board;
  testutil::ConcurrencyWitness witness;
  ThreadPool workers(kWorkers);
  workers.ParallelFor(kWorkers, [&](size_t w) {
    witness.Enter();
    const uint64_t id = w + 1;
    for (int r = 0; r < kRounds; ++r) {
      board.Upsert(MakeTrajectory(id, /*pos=*/(w * 100 + static_cast<uint64_t>(r)) % 1024,
                                  /*pps=*/100.0, /*start=*/w * 100));
      auto eta = board.NextConsumptionUs((static_cast<uint64_t>(r) * 7) % 1024);
      if (eta.has_value()) {
        EXPECT_GE(*eta, 0.0);
      }
      if (r % 16 == 15) board.Erase(id);
    }
    witness.Exit();
  });
  EXPECT_TRUE(testutil::OverlapObservedOrSingleCoreNoted(
      "scan-position board", witness.max_concurrent()));
  EXPECT_LE(board.size(), kWorkers);  // Only live publishers remain.
}

TEST(PbmReplacerTest, EmptyBoardDegeneratesToLru) {
  auto board = std::make_shared<ScanPositionBoard>();
  PbmReplacer pbm(4, board);
  LruReplacer lru(4);
  for (FrameId f = 0; f < 4; ++f) {
    pbm.RecordAccess(f);
    pbm.Pin(f);
    pbm.NotePage(f, 100 + f);
    pbm.Unpin(f);
    lru.RecordAccess(f);
    lru.Pin(f);
    lru.Unpin(f);
  }
  for (int i = 0; i < 4; ++i) {
    auto a = pbm.Evict();
    auto b = lru.Evict();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "eviction " << i;
  }
}

TEST(PbmReplacerTest, EvictsFarthestPredictedConsumption) {
  auto board = std::make_shared<ScanPositionBoard>();
  // One scan at page 100 moving forward: page 110 is near, 900 is far.
  board->Upsert(MakeTrajectory(1, /*pos=*/100, /*pps=*/100.0, /*start=*/0));
  PbmReplacer pbm(3, board);
  struct Install { FrameId frame; uint64_t page; };
  const Install installs[] = {{0, 110}, {1, 900}, {2, 130}};
  for (const auto& in : installs) {
    pbm.RecordAccess(in.frame);
    pbm.Pin(in.frame);
    pbm.NotePage(in.frame, in.page);
    pbm.Unpin(in.frame);
  }
  auto victim = pbm.Evict();
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(*victim, 1u);  // Page 900: farthest ahead of the scan.
  auto next = pbm.Evict();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 2u);  // Page 130 is farther than 110.
}

TEST(PbmReplacerTest, PagesOffEveryScanPathGoFirst) {
  auto board = std::make_shared<ScanPositionBoard>();
  // Post-wrap scan: only [50, 80) remains on its path.
  board->Upsert(MakeTrajectory(1, /*pos=*/50, /*pps=*/100.0, /*start=*/80));
  PbmReplacer pbm(3, board);
  struct Install { FrameId frame; uint64_t page; };
  // Frame 1 holds a dead page (500 — behind the wrap, never read again);
  // frames 0/2 hold pages still on the path.
  const Install installs[] = {{0, 60}, {1, 500}, {2, 75}};
  for (const auto& in : installs) {
    pbm.RecordAccess(in.frame);
    pbm.Pin(in.frame);
    pbm.NotePage(in.frame, in.page);
    pbm.Unpin(in.frame);
  }
  auto victim = pbm.Evict();
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(*victim, 1u);  // Dead weight leaves before live pages.
}

// ------------------------------------------------- PagePolicy hint tables

ReleaseContext GroupCtx(size_t group, bool trailer, uint64_t gap) {
  ReleaseContext ctx;
  ctx.group_size = group;
  ctx.is_trailer = trailer;
  ctx.is_leader = !trailer && group >= 2;
  ctx.successor_gap_pages = gap;
  ctx.extent_pages = 16;
  return ctx;
}

TEST(PagePolicyTest, DefaultHighBehindFollowersLowOnlyForClearedTrailer) {
  DefaultPagePolicy p;
  // Singletons and disabled hints are neutral.
  EXPECT_EQ(p.ReleasePriority(GroupCtx(1, false, 0)), PagePriority::kNormal);
  ReleaseContext off = GroupCtx(3, false, 0);
  off.hints_enabled = false;
  EXPECT_EQ(p.ReleasePriority(off), PagePriority::kNormal);
  // Leaders and inner members release High; the trailer releases Low only
  // once its successor cleared the working chunk (gap >= extent).
  EXPECT_EQ(p.ReleasePriority(GroupCtx(3, false, 0)), PagePriority::kHigh);
  EXPECT_EQ(p.ReleasePriority(GroupCtx(3, true, 8)), PagePriority::kHigh);
  EXPECT_EQ(p.ReleasePriority(GroupCtx(3, true, 15)), PagePriority::kHigh);
  EXPECT_EQ(p.ReleasePriority(GroupCtx(3, true, 16)), PagePriority::kLow);
  // A successor far ahead leaves the trailer's chunk just as dead.
  EXPECT_EQ(p.ReleasePriority(GroupCtx(3, true, 500)), PagePriority::kLow);
  // The middle member of three is neither leader nor trailer: the trailer
  // still follows it, so its pages stay High.
  ReleaseContext middle = GroupCtx(3, false, 100);
  middle.is_leader = false;
  EXPECT_EQ(p.ReleasePriority(middle), PagePriority::kHigh);
}

TEST(PagePolicyTest, AbmDropsBehindSingletons) {
  AbmPagePolicy p;
  // The one divergence from the default table: a singleton scan's pages
  // serve nobody else — classic ABM drop-behind releases them Low.
  EXPECT_EQ(p.ReleasePriority(GroupCtx(1, false, 0)), PagePriority::kLow);
  EXPECT_EQ(p.ReleasePriority(GroupCtx(3, false, 0)), PagePriority::kHigh);
  EXPECT_EQ(p.ReleasePriority(GroupCtx(3, true, 16)), PagePriority::kLow);
}

TEST(PagePolicyTest, FactoryWiresKindsToReplacers) {
  auto board = std::make_shared<ScanPositionBoard>();
  auto def = MakePagePolicy(PolicyKind::kGroupThrottle, nullptr);
  auto abm = MakePagePolicy(PolicyKind::kAbmRelevance, nullptr);
  auto pbm = MakePagePolicy(PolicyKind::kPbmPredictive, board);
  EXPECT_STREQ(def->MakeReplacer(8)->Name(), "priority-lru");
  EXPECT_STREQ(abm->MakeReplacer(8)->Name(), "priority-lru");
  EXPECT_STREQ(pbm->MakeReplacer(8)->Name(), "pbm-predictive");
  EXPECT_EQ(pbm->ReleasePriority(GroupCtx(3, true, 16)), PagePriority::kNormal);
}

}  // namespace
}  // namespace scanshare::buffer
