// Leader throttling of the default GroupThrottlePolicy (Throttle).

#include <gtest/gtest.h>

#include "ssm/policies/group_throttle_policy.h"

namespace scanshare::ssm {
namespace {

SsmOptions DefaultOptions() {
  SsmOptions o;
  o.prefetch_extent_pages = 16;          // Threshold = 32 pages.
  o.max_wait_per_update = 1'000'000'000; // Effectively unbounded here.
  return o;
}

ScanState MakeScan(ScanId id, sim::PageId pos, double pps) {
  ScanState s;
  s.id = id;
  s.position = pos;
  s.speed_pps = pps;
  s.desc.estimated_duration = sim::Seconds(100);
  return s;
}

ScanGroup MakeGroup(std::vector<ScanId> members) {
  ScanGroup g;
  g.members = members;
  g.trailer = members.front();
  g.leader = members.back();
  return g;
}

TEST(GroupThrottleWaitTest, ZeroExtentActsAsOnePageQuantum) {
  // prefetch_extent_pages == 0 ("no prefetch") must behave as a one-page
  // quantum everywhere. Regression: the hysteresis slack used to read the
  // raw field, so a zero-extent config got zero slack while the alignment
  // paths assumed one page — EffectiveExtent() is now the single clamp.
  SsmOptions o = DefaultOptions();
  o.prefetch_extent_pages = 0;
  EXPECT_EQ(o.EffectiveExtent(), 1u);
  EXPECT_EQ(o.EffectiveDistanceThreshold(), 2u);  // 2 * effective extent.

  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1000);
  ScanState trailer = MakeScan(1, 100, 100);
  auto g = MakeGroup({1, 2});

  // Gap 3 = threshold (2) + one-page hysteresis slack: not throttled.
  ScanState near_leader = MakeScan(2, 103, 100);
  auto near_decision = p.Throttle(near_leader, g, trailer, c);
  EXPECT_EQ(near_decision.wait, 0u);
  EXPECT_EQ(near_decision.gap_pages, 3u);

  // Gap 4 exceeds the slack: wait for the trailer to close the two excess
  // pages at 100 pages/s = 20'000 us.
  ScanState far_leader = MakeScan(2, 104, 100);
  auto far_decision = p.Throttle(far_leader, g, trailer, c);
  EXPECT_EQ(far_decision.gap_pages, 4u);
  EXPECT_EQ(far_decision.wait, 20'000u);
}

TEST(GroupThrottleWaitTest, SingletonNeverThrottled) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1000);
  ScanState leader = MakeScan(1, 500, 100);
  auto d = p.Throttle(leader, MakeGroup({1}), leader, c);
  EXPECT_EQ(d.wait, 0u);
}

TEST(GroupThrottleWaitTest, NonLeaderNeverThrottled) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1000);
  ScanState trailer = MakeScan(1, 100, 100);
  auto g = MakeGroup({1, 2});  // Leader is scan 2; the caller is the trailer.
  auto d = p.Throttle(trailer, g, trailer, c);
  EXPECT_EQ(d.wait, 0u);
}

TEST(GroupThrottleWaitTest, LeaderWithinThresholdNotThrottled) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1000);
  ScanState trailer = MakeScan(1, 100, 100);
  ScanState leader = MakeScan(2, 130, 100);  // Gap 30 <= 32.
  auto d = p.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 0u);
  EXPECT_EQ(d.gap_pages, 30u);
}

TEST(GroupThrottleWaitTest, LeaderBeyondThresholdWaits) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 100, 50.0);  // 50 pages/s.
  ScanState leader = MakeScan(2, 232, 100.0);  // Gap 132, excess 100.
  auto d = p.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.gap_pages, 132u);
  // Excess 100 pages at trailer speed 50 pps -> 2 s.
  EXPECT_EQ(d.wait, sim::Seconds(2));
}

TEST(GroupThrottleWaitTest, WaitScalesWithTrailerSpeed) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 10000);
  ScanState slow_trailer = MakeScan(1, 0, 10.0);
  ScanState fast_trailer = MakeScan(1, 0, 1000.0);
  ScanState leader = MakeScan(2, 132, 100.0);
  auto g = MakeGroup({1, 2});
  auto slow = p.Throttle(leader, g, slow_trailer, c);
  auto fast = p.Throttle(leader, g, fast_trailer, c);
  EXPECT_GT(slow.wait, fast.wait);
}

TEST(GroupThrottleWaitTest, WaitClampedToPerUpdateMax) {
  SsmOptions o = DefaultOptions();
  o.max_wait_per_update = 1000;
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 0, 1.0);     // Glacial trailer.
  ScanState leader = MakeScan(2, 5000, 100.0);
  auto d = p.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 1000u);
}

TEST(GroupThrottleWaitTest, ExhaustedLeaderNotThrottled) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 0, 50.0);
  ScanState leader = MakeScan(2, 500, 100.0);
  leader.throttling_exhausted = true;  // The paper's 80 % rule kicked in.
  auto d = p.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 0u);
  EXPECT_TRUE(d.capped);
}

TEST(GroupThrottleWaitTest, DisabledByOption) {
  SsmOptions o = DefaultOptions();
  o.enable_throttling = false;
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 0, 50.0);
  ScanState leader = MakeScan(2, 500, 100.0);
  auto d = p.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 0u);
}

TEST(GroupThrottleWaitTest, GapMeasuredAcrossWrap) {
  SsmOptions o = DefaultOptions();
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 1000);
  // Leader wrapped: trailer at 990, leader at 90 -> forward gap 100.
  ScanState trailer = MakeScan(1, 990, 100.0);
  ScanState leader = MakeScan(2, 90, 100.0);
  auto d = p.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.gap_pages, 100u);
  EXPECT_GT(d.wait, 0u);
}

TEST(GroupThrottleWaitTest, CustomDistanceThreshold) {
  SsmOptions o = DefaultOptions();
  o.distance_threshold_pages = 200;
  GroupThrottlePolicy p(o);
  ScanCircle c(0, 10000);
  ScanState trailer = MakeScan(1, 0, 100.0);
  ScanState leader = MakeScan(2, 150, 100.0);  // Gap 150 < 200.
  auto d = p.Throttle(leader, MakeGroup({1, 2}), trailer, c);
  EXPECT_EQ(d.wait, 0u);
}

TEST(GroupThrottleWaitTest, EffectiveThresholdDefaultsToTwoExtents) {
  SsmOptions o;
  o.prefetch_extent_pages = 16;
  EXPECT_EQ(o.EffectiveDistanceThreshold(), 32u);
  o.distance_threshold_pages = 7;
  EXPECT_EQ(o.EffectiveDistanceThreshold(), 7u);
}

}  // namespace
}  // namespace scanshare::ssm
