#include "ssm/policies/sharing_rules.h"

#include <algorithm>
#include <cmath>

namespace scanshare::ssm {

sim::PageId ExtentAlignedStart(sim::PageId page, const ScanDescriptor& desc,
                               uint64_t extent) {
  sim::PageId aligned = page - (page % extent);
  if (aligned < desc.range_first) aligned = desc.range_first;
  if (aligned >= desc.range_end) aligned = desc.range_first;
  return aligned;
}

double ExpectedSharedUnits(double v_new, double v_cand, uint64_t threshold,
                           uint64_t cand_remaining, uint64_t new_total) {
  v_cand = std::max(v_cand, 1e-9);
  v_new = std::max(v_new, 1e-9);

  // Time until drift exceeds the distance threshold. With throttling
  // enabled the manager actively holds the pair together, but a closer
  // speed match still means less throttling (and so less wasted time), so
  // the drift horizon remains the right preference signal.
  const double speed_gap = std::abs(v_new - v_cand);
  const double t_drift =
      speed_gap < 1e-9 ? 1e18 : static_cast<double>(threshold) / speed_gap;

  const double t_cand_left = static_cast<double>(cand_remaining) / v_cand;
  const double t_new_total = static_cast<double>(new_total) / v_new;

  const double shared_seconds = std::min({t_drift, t_cand_left, t_new_total});
  return shared_seconds * std::min(v_new, v_cand);
}

LeaderWait LeaderWaitFor(uint64_t gap, uint64_t threshold, uint64_t quantum,
                         double trailer_speed, bool exhausted,
                         sim::Micros max_wait) {
  LeaderWait decision;
  if (gap <= threshold + quantum) return decision;
  if (exhausted) {
    decision.capped = true;
    return decision;
  }
  // The leader contributes no progress while waiting, so the gap shrinks
  // at exactly the trailer's speed.
  const double excess = static_cast<double>(gap - threshold);
  const double wait_seconds = excess / std::max(trailer_speed, 1e-9);
  const auto wait = static_cast<sim::Micros>(std::llround(wait_seconds * 1e6));
  decision.wait = std::min<sim::Micros>(wait, max_wait);
  return decision;
}

FairnessGrant GrantWithinFairnessCap(const LeaderWait& decided,
                                     double fairness_cap,
                                     double throttle_tolerance,
                                     sim::Micros estimated_duration,
                                     sim::Micros accumulated_wait) {
  FairnessGrant grant;
  grant.suppressed = decided.capped;
  if (decided.wait == 0) return grant;
  const double cap = fairness_cap * throttle_tolerance *
                     static_cast<double>(estimated_duration);
  const double budget_left = cap - static_cast<double>(accumulated_wait);
  grant.wait = decided.wait;
  if (budget_left <= 0.0) {
    grant.wait = 0;
    grant.exhausted = true;
  } else if (static_cast<double>(grant.wait) >= budget_left) {
    grant.wait = static_cast<sim::Micros>(budget_left);
    grant.exhausted = true;
  }
  if (grant.wait == 0) grant.suppressed = true;
  return grant;
}

}  // namespace scanshare::ssm
