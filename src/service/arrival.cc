#include "service/arrival.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "workload/mdc_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace scanshare::service {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Decorrelates the two seed streams: times and query mix must not walk
/// the same Rng sequence even when the user passes equal seeds.
uint64_t MixSeed(uint64_t arrival_seed, uint64_t workload_seed) {
  return workload_seed ^ (arrival_seed * 0x9E3779B97F4A7C15ULL) ^
         0x5bf0363546f7ULL;
}

/// Exponential variate with the given mean, in whole microseconds.
/// Clamped to [0, ~11.5 days] so a pathological mean cannot overflow the
/// virtual clock.
sim::Micros ExpMicros(Rng* rng, double mean_us) {
  if (mean_us <= 0.0) return 0;
  const double u = rng->NextDouble();  // In [0, 1), so 1 - u > 0.
  double v = -std::log(1.0 - u) * mean_us;
  if (v < 0.0) v = 0.0;
  if (v > 1e12) v = 1e12;
  return static_cast<sim::Micros>(v);
}

/// Arrival times of the three open-loop kinds, strictly in generation
/// order (non-decreasing).
std::vector<sim::Micros> OpenLoopTimes(const ArrivalSpec& spec, Rng* rng) {
  std::vector<sim::Micros> times;
  times.reserve(spec.num_jobs);
  const double rate = spec.rate_per_sec > 0.0 ? spec.rate_per_sec : 1.0;
  const double mean_us = 1e6 / rate;
  sim::Micros t = 0;
  for (size_t i = 0; i < spec.num_jobs; ++i) {
    switch (spec.kind) {
      case ArrivalKind::kFixedRate:
        t = static_cast<sim::Micros>(mean_us * static_cast<double>(i));
        break;
      case ArrivalKind::kPoissonBurst: {
        const bool in_burst =
            spec.burst_period > 0 && (t % spec.burst_period) < spec.burst_len;
        const double factor =
            in_burst && spec.burst_factor > 1.0 ? spec.burst_factor : 1.0;
        t += ExpMicros(rng, mean_us / factor);
        break;
      }
      case ArrivalKind::kDiurnal: {
        double wave_rate = rate;
        if (spec.diurnal_period > 0) {
          const double phase =
              kTwoPi * static_cast<double>(t % spec.diurnal_period) /
              static_cast<double>(spec.diurnal_period);
          wave_rate = rate * (1.0 + spec.diurnal_amplitude * std::sin(phase));
        }
        // The trough of a full-amplitude wave must still make progress.
        wave_rate = std::max(wave_rate, rate * 0.05);
        t += ExpMicros(rng, 1e6 / wave_rate);
        break;
      }
      case ArrivalKind::kClosedLoop:
        break;  // Generated on completion feedback, not here.
    }
    times.push_back(t);
  }
  return times;
}

}  // namespace

const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kFixedRate: return "fixed_rate";
    case ArrivalKind::kPoissonBurst: return "poisson_burst";
    case ArrivalKind::kDiurnal: return "diurnal";
    case ArrivalKind::kClosedLoop: return "closed_loop";
  }
  return "unknown";
}

ZipfSampler::ZipfSampler(size_t n, double theta) {
  if (n == 0) n = 1;
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // Guard against rounding in the last bucket.
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

StatusOr<std::vector<ServiceTable>> BuildServiceTables(
    storage::Catalog* catalog, const WorkloadSpec& spec) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("BuildServiceTables: null catalog");
  }
  if (spec.num_tables == 0) {
    return Status::InvalidArgument(
        "BuildServiceTables: need at least one table");
  }
  if (spec.pages_per_table == 0) {
    return Status::InvalidArgument(
        "BuildServiceTables: pages_per_table must be positive");
  }
  std::vector<ServiceTable> tables;
  tables.reserve(spec.num_tables);
  for (size_t i = 0; i < spec.num_tables; ++i) {
    ServiceTable table;
    table.name = "svc_t" + std::to_string(i);
    const uint64_t seed = spec.seed + 1000003ULL * static_cast<uint64_t>(i);
    const bool mdc = spec.mdc_every > 0 && i % spec.mdc_every == 0;
    if (mdc) {
      const workload::MdcOptions mdc_options;
      SCANSHARE_RETURN_IF_ERROR(
          workload::GenerateMdcLineitem(
              catalog, table.name,
              workload::MdcLineitemRowsForPages(spec.pages_per_table), seed,
              mdc_options)
              .status());
      table.mdc = true;
      table.key_min = 0;
      table.key_max = workload::MdcNumTimeKeys(mdc_options) - 1;
    } else {
      SCANSHARE_RETURN_IF_ERROR(
          workload::GenerateLineitem(
              catalog, table.name,
              workload::LineitemRowsForPages(spec.pages_per_table), seed)
              .status());
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

QueryMixSampler::QueryMixSampler(const WorkloadSpec& spec,
                                 const std::vector<ServiceTable>* tables)
    : spec_(spec),
      tables_(tables),
      zipf_(tables->size(), spec.zipf_theta) {}

JobArrival QueryMixSampler::Sample(sim::Micros at, size_t client,
                                   Rng* rng) const {
  JobArrival job;
  job.at = at;
  job.client = client;
  job.table = zipf_.Sample(rng);
  const ServiceTable& table = (*tables_)[job.table];

  // Weighted template draw. Index templates only apply to MDC tables; a
  // heap-only table's draw renormalizes over the table-scan templates.
  double weights[6] = {
      spec_.weight_q1,  spec_.weight_q6,
      spec_.weight_range, spec_.weight_mid,
      table.mdc ? spec_.weight_x1 : 0.0,
      table.mdc ? spec_.weight_x2 : 0.0,
  };
  double total = 0.0;
  for (double w : weights) total += std::max(w, 0.0);
  size_t choice = 1;  // Degenerate all-zero mix: everything is Q6-like.
  if (total > 0.0) {
    double pick = rng->NextDouble() * total;
    for (size_t i = 0; i < 6; ++i) {
      const double w = std::max(weights[i], 0.0);
      if (w <= 0.0) continue;
      choice = i;
      pick -= w;
      if (pick < 0.0) break;
    }
  }

  switch (choice) {
    case 0:
      job.query = workload::MakeQ1Like(table.name);
      break;
    case 1:
      job.query =
          workload::MakeQ6Like(table.name, static_cast<int>(rng->Uniform(7)));
      break;
    case 2: {
      // Hotspot scan over 10-25 % of the table at a random offset.
      const double len = 0.10 + 0.15 * rng->NextDouble();
      const double start = rng->NextDouble() * (1.0 - len);
      job.query = workload::MakeRangeScan(table.name, start, start + len, "R");
      break;
    }
    case 3:
      job.query = workload::MakeMidWeight(table.name);
      break;
    case 4:
    case 5: {
      const int64_t span = table.key_max - table.key_min + 1;
      const int64_t window = std::max<int64_t>(1, span / 8);
      const int64_t lo =
          table.key_min +
          static_cast<int64_t>(rng->Uniform(
              static_cast<uint64_t>(span - window + 1)));
      job.query = choice == 4
                      ? workload::MakeIndexQ6Like(table.name, lo,
                                                  lo + window - 1)
                      : workload::MakeIndexHeavy(table.name, lo,
                                                 lo + window - 1);
      break;
    }
    default:
      job.query = workload::MakeQ6Like(table.name);
      break;
  }
  return job;
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec& arrival,
                               const WorkloadSpec& workload,
                               const std::vector<ServiceTable>* tables)
    : spec_(arrival),
      mix_(workload, tables),
      times_rng_(arrival.seed),
      mix_rng_(MixSeed(arrival.seed, workload.seed)) {
  if (!closed_loop()) {
    const std::vector<sim::Micros> times = OpenLoopTimes(spec_, &times_rng_);
    schedule_.reserve(times.size());
    for (sim::Micros t : times) {
      schedule_.push_back(mix_.Sample(t, /*client=*/0, &mix_rng_));
    }
    generated_ = schedule_.size();
    return;
  }
  const size_t clients = std::max<size_t>(spec_.clients, 1);
  pending_.Reserve(clients);
  pending_jobs_.resize(clients);
  for (size_t c = 0; c < clients; ++c) ScheduleClient(c, 0);
}

void ArrivalProcess::ScheduleClient(size_t client, sim::Micros now) {
  if (generated_ >= spec_.num_jobs || client >= pending_jobs_.size()) return;
  const sim::Micros at =
      now + ExpMicros(&times_rng_, static_cast<double>(spec_.think_time));
  pending_jobs_[client] = mix_.Sample(at, client, &mix_rng_);
  pending_.Push(at, client);
  ++generated_;
}

std::optional<sim::Micros> ArrivalProcess::PeekTime() const {
  if (!closed_loop()) {
    if (next_ >= schedule_.size()) return std::nullopt;
    return schedule_[next_].at;
  }
  if (pending_.empty()) return std::nullopt;
  return pending_.Peek().time;
}

JobArrival ArrivalProcess::Take() {
  if (!closed_loop()) return schedule_[next_++];
  const exec::EventHeap::Event ev = pending_.Pop();
  return pending_jobs_[ev.index];
}

void ArrivalProcess::OnJobFinished(size_t client, sim::Micros now) {
  if (!closed_loop()) return;
  ScheduleClient(client, now);
}

std::vector<JobArrival> GenerateArrivalSchedule(
    const ArrivalSpec& arrival, const WorkloadSpec& workload,
    const std::vector<ServiceTable>& tables) {
  ArrivalProcess process(arrival, workload, &tables);
  std::vector<JobArrival> schedule;
  while (process.PeekTime().has_value()) schedule.push_back(process.Take());
  return schedule;
}

}  // namespace scanshare::service
