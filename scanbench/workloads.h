// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The benchmark's four workloads: how each is generated from the seed, how
// its answers are checked, and how its end-to-end metrics are measured with
// tracing off. traced.cc adds the per-layer run over the same inputs.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "exec/parallel_scan.h"
#include "service/scan_service.h"

namespace scanbench {

namespace exec = scanshare::exec;
namespace service = scanshare::service;

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports.
struct Report {
  uint64_t attempted = 0;
  uint64_t exact = 0;      ///< Answers bit-identical to their reference.  ///< Operations whose outcome was checked.
  uint64_t failed = 0;     ///< Wrong answers, failed gates and shed jobs.
  uint64_t wrong = 0;      ///< The wrong answers and failed gates alone.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Printed above the result line.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  /// Counts one checked operation; `ok` false makes it a failure.
  void Check(bool ok, bool answer_wrong = false) {
    ++attempted;
    if (!ok) ++failed;
    if (answer_wrong) ++wrong;
  }
};

/// Workload names in canonical order.
const std::vector<std::string>& WorkloadNames();

/// Data generation and load, timed separately from everything else.
struct SetupTiming {
  double setup_s = 0.0;  ///< Median over the repeated set-ups.
  uint64_t pages = 0;    ///< Table pages generated.
};

/// A closed-loop simulator workload driven through exec::Database::Run
/// (paper_tput, push_2tbl).
struct SimWorkload {
  std::unique_ptr<exec::Database> db;
  exec::RunConfig config;
  std::vector<exec::StreamSpec> streams;
};

/// The open-loop scan-service workload (service_open).
struct ServiceWorkload {
  std::unique_ptr<exec::Database> db;
  std::vector<service::ServiceTable> tables;
  service::ServiceOptions options;
};

/// One client issuing Q1 and Q6 alternately through RunQueryParallel
/// (parallel_fit).
struct ParallelWorkload {
  std::unique_ptr<exec::Database> db;
  exec::RunConfig config;
  std::vector<exec::QuerySpec> queries;  ///< Issued round-robin.
  exec::ParallelScanOptions options;
};

/// Variant `variant` of a simulator workload's stream set: the same queries
/// with the stream start times shifted by amounts drawn from (seed, variant).
std::vector<exec::StreamSpec> SimStreams(const std::string& name, uint64_t seed,
                                         uint64_t variant);

SimWorkload BuildPaperTput(uint64_t seed);
SimWorkload BuildPush2Tbl(uint64_t seed);
/// Arrival-process variant `variant` of the service for `seed`.
ServiceWorkload BuildServiceOpen(uint64_t seed, uint64_t variant);
ParallelWorkload BuildParallelFit(uint64_t seed);

/// The service workload's nominal offered rate (jobs per virtual second).
inline constexpr double kServiceNominalRate = 1.5;

/// Isolated baseline-mode run of `query` alone over `db`: the reference
/// answer every other execution of the query must match bit for bit.
scanshare::StatusOr<exec::QueryOutput> ReferenceOutput(
    exec::Database* db, const exec::RunConfig& like, const exec::QuerySpec& query);

/// Compares a query answer with its reference. Keys, row counts and group
/// counts must be equal; every aggregate value must be bit-identical or
/// within a relative 1e-9 of the reference — a shared scan folds its pages
/// in rotated order (it starts wherever it joins its group), so its
/// floating-point sums round differently from the front-to-back reference.
/// `bit_identical` (optional) reports whether the match was exact.
bool AnswersMatch(const exec::QueryOutput& got, const exec::QueryOutput& want,
                  std::string* diff, bool* bit_identical = nullptr);

/// Reference answers for every query of a stream set, indexed by
/// (stream, position); identical templates share one reference run.
struct SimReferences {
  std::vector<std::vector<exec::QueryOutput>> outputs;
};
scanshare::StatusOr<SimReferences> ComputeSimReferences(SimWorkload* w);

/// Checks every query of `run` against `refs`, counting into `report`.
void CheckSimRun(const exec::RunResult& run, const SimReferences& refs,
                 Report* report);

/// Reference answers for every job of the service's arrival schedule.
scanshare::StatusOr<std::vector<exec::QueryOutput>> ComputeServiceReferences(
    ServiceWorkload* w);

/// Checks every job of `run` (answers against `refs`; shed jobs fail).
void CheckServiceRun(const service::ServiceResult& run,
                     const std::vector<exec::QueryOutput>& refs,
                     Report* report);

/// Highest percentile on {80, 90, 95, 99, 99.9} that leaves at least ten
/// samples beyond it (nearest rank). Falls back to the maximum when fewer
/// than 50 samples exist. `label` receives e.g. "p80 of 50".
double TailValue(std::vector<double> samples, std::string* label);
double Median(std::vector<double> samples);

/// Runs `name` with tracing off and fills the end-to-end metrics.
Report MeasureEndToEnd(const std::string& name, uint64_t seed, double seconds);

/// Runs `name` traced and fills the per-layer metrics (traced.cc).
Report MeasurePerLayer(const std::string& name, uint64_t seed, double seconds,
                       const std::string& spans_path);

/// Set-ups timed per run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;

/// Times `repeats` set-ups of `name` (keeping none of them).
SetupTiming TimeSetup(const std::string& name, uint64_t seed, int repeats);

/// Peak resident set of this process in MiB.
double PeakRssMiB();

}  // namespace scanbench
