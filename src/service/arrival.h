// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Arrival processes and workload sampling for the scan service. A service
// run is driven by a stream of *job arrivals* — (virtual time, table,
// query template) triples — produced either open-loop (a precomputed
// schedule: fixed-rate, seeded Poisson bursts, or diurnal waves; arrivals
// keep coming regardless of how the system copes) or closed-loop (a fixed
// client population, each thinking for a while after its previous job
// finishes; arrivals self-throttle with service capacity).
//
// Everything is deterministic: all randomness flows from the two seeds in
// ArrivalSpec/WorkloadSpec through common/Rng, all time is virtual, and
// the same specs always produce the bit-identical schedule
// (arrival_determinism_test pins this).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "exec/event_heap.h"
#include "exec/query.h"
#include "sim/virtual_clock.h"
#include "storage/catalog.h"

namespace scanshare::service {

/// How job arrivals are generated.
enum class ArrivalKind : uint8_t {
  kFixedRate,     ///< Deterministic arrivals every 1/rate seconds.
  kPoissonBurst,  ///< Poisson process whose rate jumps by burst_factor
                  ///< during a periodic burst window.
  kDiurnal,       ///< Poisson process with a sinusoidal rate wave.
  kClosedLoop,    ///< Fixed client population with exponential think time.
};

/// Stable lower_snake name of an arrival kind ("fixed_rate", ...).
const char* ArrivalKindName(ArrivalKind kind);

/// Arrival-process parameters. The defaults describe a mild open-loop
/// trickle; the service bench's scenarios override them.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kFixedRate;
  /// Seed for arrival times (and, combined with WorkloadSpec::seed, for
  /// the per-job query sampling).
  uint64_t seed = 1;
  /// Total arrivals to generate (both loops stop after this many).
  size_t num_jobs = 100;
  /// Mean arrival rate in jobs per virtual second (open-loop kinds).
  double rate_per_sec = 50.0;
  /// kPoissonBurst: rate multiplier inside the burst window.
  double burst_factor = 8.0;
  /// kPoissonBurst: one burst window per period.
  sim::Micros burst_period = 2'000'000;
  /// kPoissonBurst: burst window length (must be < burst_period).
  sim::Micros burst_len = 250'000;
  /// kDiurnal: relative amplitude of the rate wave, in [0, 1).
  double diurnal_amplitude = 0.8;
  /// kDiurnal: wave period.
  sim::Micros diurnal_period = 10'000'000;
  /// kClosedLoop: client population.
  size_t clients = 8;
  /// kClosedLoop: mean exponential think time between a client's job
  /// completing and its next arrival.
  sim::Micros think_time = 100'000;
};

/// Tables-and-mix parameters for the service workload.
struct WorkloadSpec {
  /// Number of tables the service fronts.
  size_t num_tables = 8;
  /// Every k-th table (0-indexed: tables 0, k, 2k, ...) is MDC-clustered
  /// and carries a block index, making it eligible for the X1/X2 index
  /// templates. 0 disables MDC tables entirely.
  size_t mdc_every = 4;
  /// Data pages per table (MDC tables add block/cell padding on top).
  uint64_t pages_per_table = 256;
  /// Zipf skew of table popularity (0 = uniform; ~0.99 = classic skew).
  double zipf_theta = 0.99;
  /// Seed for table contents and the query-mix sampling stream.
  uint64_t seed = 42;
  /// Relative weights of the query templates. X1/X2 apply only to MDC
  /// tables; for heap-only tables their weight is redistributed over the
  /// table-scan templates.
  double weight_q1 = 1.0;    ///< CPU-bound full scan (Q1-like).
  double weight_q6 = 2.0;    ///< I/O-bound full scan (Q6-like).
  double weight_range = 2.0; ///< Hotspot partial-range scan.
  double weight_mid = 1.0;   ///< Medium-weight full scan.
  double weight_x1 = 1.0;    ///< Selective block-index aggregate (X1).
  double weight_x2 = 1.0;    ///< CPU-heavy block-index aggregate (X2).
};

/// One table the service fronts.
struct ServiceTable {
  std::string name;
  bool mdc = false;       ///< Carries a block index (X1/X2-capable).
  int64_t key_min = 0;    ///< Clustering-key domain for index templates.
  int64_t key_max = 0;
};

/// Zipf(theta) sampler over {0, ..., n-1} by inverse CDF: rank 0 is the
/// most popular. theta == 0 degenerates to uniform. Deterministic given
/// the caller's Rng.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);
  size_t Sample(Rng* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  ///< cdf_[i] = P(rank <= i); back() == 1.
};

/// Generates the service's tables into `catalog`: lineitem-like heap
/// tables, with every mdc_every-th replaced by an MDC lineitem table plus
/// its block index. Deterministic in the spec.
[[nodiscard]] StatusOr<std::vector<ServiceTable>> BuildServiceTables(
    storage::Catalog* catalog, const WorkloadSpec& spec);

/// One job arrival.
struct JobArrival {
  sim::Micros at = 0;      ///< Virtual arrival time.
  size_t table = 0;        ///< Index into the ServiceTable vector.
  size_t client = 0;       ///< Issuing client (closed loop; 0 otherwise).
  exec::QuerySpec query;   ///< Sampled query template, bound to the table.
};

/// Samples (table, query template) pairs: Zipf-skewed table popularity,
/// weighted template mix, index templates only on MDC tables.
class QueryMixSampler {
 public:
  /// `tables` is borrowed and must outlive the sampler.
  QueryMixSampler(const WorkloadSpec& spec,
                  const std::vector<ServiceTable>* tables);

  /// Samples one job's (table, query); consumes `rng` deterministically.
  JobArrival Sample(sim::Micros at, size_t client, Rng* rng) const;

 private:
  WorkloadSpec spec_;
  const std::vector<ServiceTable>* tables_;
  ZipfSampler zipf_;
};

/// The arrival stream of one service run. Open-loop kinds precompute the
/// whole schedule at construction; the closed loop generates each client's
/// next arrival when the service reports its previous job done (or shed).
class ArrivalProcess {
 public:
  /// `tables` is borrowed and must outlive the process.
  ArrivalProcess(const ArrivalSpec& arrival, const WorkloadSpec& workload,
                 const std::vector<ServiceTable>* tables);

  /// Earliest pending arrival, if any (does not consume it).
  std::optional<sim::Micros> PeekTime() const;

  /// Consumes and returns the earliest pending arrival. Requires
  /// PeekTime() to have a value. Ties between simultaneous closed-loop
  /// clients break toward the lowest client index.
  JobArrival Take();

  /// Closed-loop completion feedback: client `client`'s job finished (or
  /// was shed) at `now`; schedules its next arrival after think time,
  /// unless num_jobs arrivals have already been issued. No-op for
  /// open-loop kinds.
  void OnJobFinished(size_t client, sim::Micros now);

  bool closed_loop() const {
    return spec_.kind == ArrivalKind::kClosedLoop;
  }

 private:
  /// Samples the client's next think time and job, and parks it in
  /// pending_ (closed loop; no-op once num_jobs arrivals exist).
  void ScheduleClient(size_t client, sim::Micros now);

  ArrivalSpec spec_;
  QueryMixSampler mix_;
  Rng times_rng_;
  Rng mix_rng_;
  /// Open loop: the full schedule, consumed front to back.
  std::vector<JobArrival> schedule_;
  size_t next_ = 0;
  /// Closed loop: pending (arrival time, client) events; the sampled job
  /// of each pending client sits in pending_jobs_[client].
  exec::EventHeap pending_;
  std::vector<JobArrival> pending_jobs_;
  size_t generated_ = 0;  ///< Arrivals created (schedule or pending).
};

/// The full open-loop arrival schedule for (arrival, workload, tables) —
/// what an open-loop ArrivalProcess will replay. For kClosedLoop, returns
/// only the initial per-client arrivals (the rest depend on service
/// feedback). Exposed for the determinism tests and the bench.
std::vector<JobArrival> GenerateArrivalSchedule(
    const ArrivalSpec& arrival, const WorkloadSpec& workload,
    const std::vector<ServiceTable>& tables);

}  // namespace scanshare::service
