// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Shared test scaffolding. Every integration-style test used to hand-roll
// the same three things — a lineitem database, a RunConfig, a stream shape
// — with slightly different constants; this header is the single home for
// those helpers so a schema or config change is a one-file edit.
//
// Also home of the concurrency witness the threaded tests use to avoid
// *silently* passing on machines where hardware_concurrency == 1: a test
// that claims to exercise cross-thread behaviour must either observe real
// overlap or say out loud that it could not.

#pragma once

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"

namespace scanshare::testutil {

/// Builds a fresh database holding one lineitem-like table named `table`
/// with `pages` 32 KiB pages, generated from `seed`. Aborts the test
/// binary on generation failure (tests have no recovery story).
std::unique_ptr<exec::Database> MakeLineitemDb(uint64_t pages, uint64_t seed,
                                               const std::string& table = "lineitem");

/// Process-lifetime database for tests that only read: built once per
/// distinct (pages, seed) and intentionally leaked. Do NOT mutate the
/// catalog through this pointer — Database::Run itself is fine, it resets
/// all run state.
exec::Database* SharedLineitemDb(uint64_t pages, uint64_t seed);

/// The canonical test RunConfig: `frames` buffer frames, `extent` prefetch
/// pages, 250 ms series buckets.
exec::RunConfig MakeRunConfig(exec::ScanMode mode, size_t frames,
                              uint64_t extent = 16);

/// The canonical staggered two-stream workload on `table`: a Q1-like scan
/// starting at t=0 and a Q6-like scan starting `stagger` later (the
/// paper's staggered-start experiment, also the golden-trace workload).
std::vector<exec::StreamSpec> StaggeredQ1Q6(const std::string& table,
                                            sim::Micros stagger);

/// The engine's correctness oracle: answers table-scan `query` with the
/// tree interpreter alone (Predicate::Eval + Aggregator::Consume), folding
/// the query's page range (ResolveScanRange at `extent_pages`) straight
/// from the page store in page order, tuples in slot order. That is the
/// fold order of a baseline-mode scan, so Database::Run in kBaseline must
/// reproduce this output bit for bit.
exec::QueryOutput InterpretQuery(exec::Database* db, exec::QuerySpec query,
                                 uint64_t extent_pages = 16);

/// The answer contract between runs whose scans may start at different
/// positions (push vs pull, say): the same rows scanned and matched, the
/// same group keys, and values equal to within EXPECT_DOUBLE_EQ — a
/// different start page reorders the floating-point fold.
void ExpectSameOutput(const exec::QueryOutput& a, const exec::QueryOutput& b,
                      const std::string& label);

/// A file path under testing::TempDir() that is unique to this process
/// (`<pid>_<name>`, so concurrent suites never share an image) and is
/// removed when the guard dies — after a failed assertion's early return
/// too.
class ScopedTempFile {
 public:
  explicit ScopedTempFile(const std::string& name);
  ~ScopedTempFile();
  ScopedTempFile(const ScopedTempFile&) = delete;
  ScopedTempFile& operator=(const ScopedTempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------- threads

/// Observes how many tasks were ever inside a region simultaneously.
/// Enter() at region start, Exit() at region end, max_concurrent() after
/// every participating task has joined. Overlap is structural: Enter()
/// holds the first two entrants until both are inside, so any test whose
/// region is entered by two tasks on two threads observes
/// max_concurrent() >= 2 however the scheduler runs them. The hold is for
/// two, not for every participant: pools run more tasks than threads.
class ConcurrencyWitness {
 public:
  /// Returns the occupancy at entry (>= 1) and folds it into the maximum.
  int Enter();
  void Exit();
  int max_concurrent() const { return max_.load(); }

 private:
  std::atomic<int> current_{0};
  std::atomic<int> max_{0};
  std::atomic<int> arrivals_{0};
  std::latch first_two_{2};
};

/// The threaded-test degradation contract: returns true if real overlap
/// was observed (max_observed >= 2). If not, and the machine cannot
/// overlap threads (hardware_concurrency <= 1), prints an explicit notice
/// and records the gtest property `degraded_single_core` so the run is
/// visibly partial rather than silently green — and still returns true
/// (degradation, not failure). Returns false only when overlap was
/// expected (multi-core host) and missing; callers EXPECT_TRUE the result.
bool OverlapObservedOrSingleCoreNoted(const char* what, int max_observed);

}  // namespace scanshare::testutil
