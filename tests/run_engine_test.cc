// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The per-run engine recipe (exec::RunEngine) behind all three drivers:
//
//  * Parity: a one-job ScanService::Run and a one-stream Database::Run of
//    the same query under the same RunConfig assemble the same engine, so
//    they produce bit-identical answers and equal pool, disk and SSM
//    counters — for a table scan and an MDC index scan, shared and
//    baseline.
//  * Fault reach: a traced run of every driver (Database::Run pull,
//    push-sim and push-file, ScanService::Run, RunQueryParallel) with a
//    device fault armed returns the injected Corruption, and leaves
//    nothing behind: a clean rerun reproduces the clean run made before
//    the fault bit for bit. Seeded random faults fail the service and the
//    morsel-parallel driver with Corruption only, never with an audit's
//    Internal.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "exec/parallel_scan.h"
#include "io/file_backend.h"
#include "metrics/report.h"
#include "service/scan_service.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare {
namespace {

using exec::ScanMode;

/// The part of a service run that Database::Run also reports, laid over a
/// copy of `run` so metrics::BitIdentical compares exactly those fields.
exec::RunResult WithServiceCounters(exec::RunResult run,
                                    const service::ServiceResult& service) {
  run.makespan = service.makespan;
  run.disk = service.disk;
  run.buffer = service.buffer;
  run.ssm = service.ssm;
  run.ism = service.ism;
  return run;
}

/// One-job service options: a single table, a single query template.
service::ServiceOptions OneJob(ScanMode mode, bool index_scan) {
  service::ServiceOptions o;
  o.workload.num_tables = 1;
  o.workload.mdc_every = index_scan ? 1 : 0;
  o.workload.pages_per_table = 96;
  o.workload.seed = 7;
  o.workload.weight_q1 = 0.0;
  o.workload.weight_q6 = index_scan ? 0.0 : 1.0;
  o.workload.weight_range = 0.0;
  o.workload.weight_mid = 0.0;
  o.workload.weight_x1 = index_scan ? 1.0 : 0.0;
  o.workload.weight_x2 = 0.0;
  o.arrival.num_jobs = 1;
  o.arrival.seed = 3;
  o.run.mode = mode;
  o.run.buffer.num_frames = 24;
  o.run.buffer.prefetch_extent_pages = 4;
  return o;
}

struct ParityParam {
  ScanMode mode;
  bool index_scan;
};

class DriverParityTest : public ::testing::TestWithParam<ParityParam> {};

TEST_P(DriverParityTest, OneJobServiceMatchesOneStreamRun) {
  const service::ServiceOptions options =
      OneJob(GetParam().mode, GetParam().index_scan);
  exec::Database db;
  auto tables = service::BuildServiceTables(db.catalog(), options.workload);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  const std::vector<service::JobArrival> schedule =
      service::GenerateArrivalSchedule(options.arrival, options.workload,
                                       *tables);
  ASSERT_EQ(schedule.size(), 1u);
  ASSERT_EQ(schedule[0].query.access == exec::AccessPath::kIndexScan,
            GetParam().index_scan);

  service::ScanService service(&db);
  auto served = service.Run(options, *tables);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->jobs.size(), 1u);
  ASSERT_FALSE(served->jobs[0].shed);
  ASSERT_EQ(served->jobs[0].arrival, schedule[0].at);

  exec::StreamSpec stream;
  stream.start_delay = schedule[0].at;
  stream.queries.push_back(schedule[0].query);
  auto run = db.Run(options.run, {stream});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->streams[0].queries.size(), 1u);

  std::string diff;
  EXPECT_TRUE(metrics::BitIdentical(run->streams[0].queries[0].output,
                                    served->jobs[0].output, &diff))
      << diff;
  EXPECT_TRUE(metrics::BitIdentical(*run, WithServiceCounters(*run, *served),
                                    &diff))
      << diff;
  EXPECT_GT(run->disk.pages_read, 0u);
  if (GetParam().mode == ScanMode::kShared) {
    const uint64_t started = GetParam().index_scan ? run->ism.scans_started
                                                   : run->ssm.scans_started;
    EXPECT_EQ(started, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, DriverParityTest,
    ::testing::Values(ParityParam{ScanMode::kShared, false},
                      ParityParam{ScanMode::kBaseline, false},
                      ParityParam{ScanMode::kShared, true},
                      ParityParam{ScanMode::kBaseline, true}),
    [](const auto& tpi) {
      return std::string(tpi.param.mode == ScanMode::kShared ? "Shared"
                                                             : "Baseline") +
             (tpi.param.index_scan ? "IndexScan" : "TableScan");
    });

// ------------------------------------------------------------ fault reach

/// Arms a device fault on the `nth` disk read of the next run.
void ArmFault(exec::Database* db, uint64_t nth) {
  sim::DiskFaultOptions faults;
  faults.fail_nth_read = nth;
  db->env()->disk().SetFaults(faults);
}

exec::RunConfig Traced(exec::RunConfig config) {
  config.trace.enabled = true;
  return config;
}

class DriverFaultTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPages = 96;

  DriverFaultTest() : db_(testutil::MakeLineitemDb(kPages, 31)) {}

  static exec::RunConfig Config() {
    return testutil::MakeRunConfig(ScanMode::kShared, 24, 8);
  }

  /// Runs `run` clean, then traced under a device fault on `db` (expecting
  /// Corruption), then clean again; returns the two clean results. The
  /// untraced rerun also proves the faulted run detached its tracer from
  /// the disk: a dangling one would be written to (ASan builds catch it).
  template <typename Result, typename RunFn>
  static void FaultThenRerun(exec::Database* db, RunFn run, Result* before,
                             Result* after) {
    auto clean = run(Config());
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    *before = *std::move(clean);

    ArmFault(db, 3);
    auto faulted = run(Traced(Config()));
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), Status::Code::kCorruption)
        << faulted.status().ToString();
    EXPECT_GT(db->env()->disk().faults_injected(), 0u);

    db->env()->disk().ClearFaults();
    auto rerun = run(Config());
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    *after = *std::move(rerun);
  }

  std::unique_ptr<exec::Database> db_;
};

TEST_F(DriverFaultTest, DatabaseRunPullAndPushSim) {
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));
  for (const uint64_t depth : {uint64_t{0}, uint64_t{4}}) {
    SCOPED_TRACE("prefetch_depth " + std::to_string(depth));
    exec::RunResult before;
    exec::RunResult after;
    FaultThenRerun(
        db_.get(),
        [&](exec::RunConfig config) {
          config.io.prefetch_depth = depth;
          return db_->Run(config, streams);
        },
        &before, &after);
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(before, after, &diff)) << diff;
    if (depth > 0) {
      EXPECT_GT(before.io.submitted, 0u);
    }
  }
}

TEST_F(DriverFaultTest, DatabaseRunPushFile) {
  const std::string path = testing::TempDir() + "run_engine_push_file.tbl";
  ASSERT_TRUE(
      io::FileIoBackend::WriteTableFile(*db_->disk_manager(), path).ok());
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));
  exec::RunResult before;
  exec::RunResult after;
  FaultThenRerun(
      db_.get(),
      [&](exec::RunConfig config) {
        config.io.backend = exec::IoOptions::Backend::kFile;
        config.io.file_path = path;
        config.io.prefetch_depth = 4;
        return db_->Run(config, streams);
      },
      &before, &after);
  std::string diff;
  EXPECT_TRUE(metrics::BitIdentical(before, after, &diff)) << diff;
  EXPECT_GT(before.io.submitted, 0u);
  EXPECT_EQ(before.real_io.pages_read, before.disk.pages_read);
  std::remove(path.c_str());
}

service::ServiceOptions TwoTableService() {
  service::ServiceOptions options;
  options.workload.num_tables = 2;
  options.workload.mdc_every = 2;  // Table 0 is MDC: index scans too.
  options.workload.pages_per_table = 48;
  options.arrival.num_jobs = 12;
  options.arrival.rate_per_sec = 400.0;
  return options;
}

TEST_F(DriverFaultTest, ScanServiceRun) {
  const service::ServiceOptions options = TwoTableService();
  exec::Database db;
  auto tables = service::BuildServiceTables(db.catalog(), options.workload);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  service::ScanService service(&db);

  service::ServiceResult clean;
  service::ServiceResult rerun;
  FaultThenRerun(
      &db,
      [&](const exec::RunConfig& config) {
        service::ServiceOptions o = options;
        o.run = config;
        return service.Run(o, *tables);
      },
      &clean, &rerun);
  ASSERT_EQ(clean.jobs.size(), rerun.jobs.size());
  std::string diff;
  for (size_t i = 0; i < clean.jobs.size(); ++i) {
    EXPECT_EQ(clean.jobs[i].shed, rerun.jobs[i].shed);
    EXPECT_EQ(clean.jobs[i].end, rerun.jobs[i].end);
    EXPECT_TRUE(metrics::BitIdentical(clean.jobs[i].output,
                                      rerun.jobs[i].output, &diff))
        << "job " << i << ": " << diff;
  }
  exec::RunResult frame;
  EXPECT_TRUE(metrics::BitIdentical(WithServiceCounters(frame, clean),
                                    WithServiceCounters(frame, rerun), &diff))
      << diff;
}

TEST_F(DriverFaultTest, RunQueryParallel) {
  exec::ParallelScanOptions options;
  options.jobs = 2;
  exec::ParallelQueryResult before;
  exec::ParallelQueryResult after;
  FaultThenRerun(
      db_.get(),
      [&](const exec::RunConfig& config) {
        return exec::RunQueryParallel(db_.get(), config,
                                      workload::MakeQ6Like("lineitem"),
                                      options);
      },
      &before, &after);
  std::string diff;
  EXPECT_TRUE(metrics::BitIdentical(before.output, after.output, &diff))
      << diff;
  EXPECT_EQ(before.metrics.pages_scanned, kPages);
  EXPECT_EQ(after.metrics.pages_scanned, kPages);
}

// Seeded random device faults (DiskFaultOptions::fail_rate) across many
// reads of one run: whichever read fails, the run reports the injected
// Corruption, and the pool and SSM audits that follow every step — the
// failed one included — or, for the morsel-parallel driver, the failed
// run's end, never turn it into an Internal.
constexpr uint64_t kFaultSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

void ArmRandomFaults(exec::Database* db, uint64_t seed) {
  sim::DiskFaultOptions faults;
  faults.fail_rate = 0.1;
  faults.seed = seed;
  db->env()->disk().SetFaults(faults);
}

TEST_F(DriverFaultTest, ScanServiceRandomFaultSweep) {
  service::ServiceOptions options = TwoTableService();
  options.run = Config();
  options.audit_every_n_steps = 1;
  exec::Database db;
  auto tables = service::BuildServiceTables(db.catalog(), options.workload);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  service::ScanService service(&db);
  uint64_t failed_runs = 0;
  for (const uint64_t seed : kFaultSeeds) {
    ArmRandomFaults(&db, seed);
    auto run = service.Run(options, *tables);
    if (run.ok()) continue;
    ++failed_runs;
    EXPECT_EQ(run.status().code(), Status::Code::kCorruption)
        << "seed " << seed << ": " << run.status().ToString();
  }
  db.env()->disk().ClearFaults();
  EXPECT_GT(failed_runs, 0u);
}

TEST_F(DriverFaultTest, RunQueryParallelRandomFaultSweep) {
  exec::ParallelScanOptions options;
  options.jobs = 2;
  uint64_t failed_runs = 0;
  for (const uint64_t seed : kFaultSeeds) {
    ArmRandomFaults(db_.get(), seed);
    auto run = exec::RunQueryParallel(db_.get(), Config(),
                                      workload::MakeQ6Like("lineitem"),
                                      options);
    if (run.ok()) continue;
    ++failed_runs;
    EXPECT_EQ(run.status().code(), Status::Code::kCorruption)
        << "seed " << seed << ": " << run.status().ToString();
  }
  db_->env()->disk().ClearFaults();
  EXPECT_GT(failed_runs, 0u);
}

}  // namespace
}  // namespace scanshare
