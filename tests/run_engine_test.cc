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
//    Internal; so do seeded media faults (PageData after the charge)
//    through every driver, pull and push-sim.
//  * Tie rules: the two orderings the one event loop keeps (an arrival
//    at t beats a step at t; see also stream_executor_test).
//  * Push I/O under the service: push-sim service runs are reproducible
//    field for field, and answer as the pull run does.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
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
  run.io = service.io;
  run.real_io = service.real_io;
  return run;
}

/// Field-for-field equality of two service runs, io and real_io included.
void ExpectSameServiceResult(const service::ServiceResult& a,
                             const service::ServiceResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    const service::JobRecord& x = a.jobs[i];
    const service::JobRecord& y = b.jobs[i];
    const std::string job = "job " + std::to_string(i);
    EXPECT_EQ(x.id, y.id) << job;
    EXPECT_EQ(x.table, y.table) << job;
    EXPECT_EQ(x.client, y.client) << job;
    EXPECT_EQ(x.query, y.query) << job;
    EXPECT_EQ(x.arrival, y.arrival) << job;
    EXPECT_EQ(x.shed, y.shed) << job;
    EXPECT_TRUE(x.shed_reason == y.shed_reason) << job;
    EXPECT_EQ(x.from_queue, y.from_queue) << job;
    EXPECT_EQ(x.admit_at, y.admit_at) << job;
    EXPECT_EQ(x.end, y.end) << job;
    EXPECT_TRUE(x.metrics == y.metrics) << job;
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(x.output, y.output, &diff))
        << job << ": " << diff;
  }
  // AdmissionStats is all uint64_t counters: no padding to compare.
  EXPECT_EQ(0, std::memcmp(&a.admission, &b.admission, sizeof(a.admission)));
  for (const auto& [x, y] : {std::pair{a.sojourn, b.sojourn},
                             std::pair{a.queue_wait, b.queue_wait}}) {
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.p50, y.p50);
    EXPECT_EQ(x.p99, y.p99);
    EXPECT_EQ(x.p999, y.p999);
    EXPECT_EQ(x.max, y.max);
    EXPECT_EQ(x.mean, y.mean);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_TRUE(a.disk == b.disk);
  EXPECT_TRUE(a.buffer == b.buffer);
  EXPECT_TRUE(a.ssm == b.ssm);
  EXPECT_TRUE(a.ism == b.ism);
  EXPECT_TRUE(a.io == b.io);
  EXPECT_TRUE(a.real_io == b.real_io);
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

// The service tie rule: an arrival at time t is admitted, and its cursor
// opened, before a running job's step due at the same t. Job 0's step
// times come from the one-stream run DriverParityTest pins it to; job 1 is
// made to arrive exactly at one of them, and its admission must precede
// the extent read of job 0's step at that time.
TEST(LoopTieRuleTest, ArrivalAtAStepTimeIsAdmittedBeforeTheStep) {
  service::ServiceOptions options = OneJob(ScanMode::kShared, false);
  options.run.trace.enabled = true;
  exec::Database db;
  auto tables = service::BuildServiceTables(db.catalog(), options.workload);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();

  const std::vector<service::JobArrival> first =
      service::GenerateArrivalSchedule(options.arrival, options.workload,
                                       *tables);
  ASSERT_EQ(first[0].at, 0u);
  exec::StreamSpec stream;
  stream.queries.push_back(first[0].query);
  exec::RunConfig traced = options.run;
  traced.record_traces = true;
  auto solo = db.Run(traced, {stream});
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  const auto& samples = solo->streams[0].queries[0].trace;
  ASSERT_GT(samples.size(), 4u);
  // After its third step job 0 stands at `position` and steps next at `at`.
  const sim::Micros at = samples[2].time;
  const sim::PageId position = samples[2].position;

  options.arrival.num_jobs = 2;
  options.arrival.rate_per_sec = 1e6 / (static_cast<double>(at) + 0.25);
  const std::vector<service::JobArrival> schedule =
      service::GenerateArrivalSchedule(options.arrival, options.workload,
                                       *tables);
  ASSERT_EQ(schedule.size(), 2u);
  ASSERT_EQ(schedule[1].at, at);

  service::ScanService service(&db);
  auto served = service.Run(options, *tables);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_FALSE(served->jobs[1].shed);
  EXPECT_EQ(served->jobs[1].admit_at, at);
  const auto& events = served->trace->events();
  size_t admit1 = events.size();
  size_t step_read = events.size();
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.kind == obs::EventKind::kAdmit && e.actor == 1) admit1 = i;
    if (e.kind == obs::EventKind::kPoolMiss && e.arg0 == position &&
        step_read == events.size()) {
      step_read = i;
    }
  }
  ASSERT_LT(admit1, events.size());
  ASSERT_LT(step_read, events.size());
  EXPECT_GE(events[step_read].at, at);  // After the step's SSM update.
  EXPECT_LT(admit1, step_read);
}

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
  const testutil::ScopedTempFile image("run_engine_push_file.tbl");
  const std::string& path = image.path();
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

  for (const uint64_t depth : {uint64_t{0}, uint64_t{4}}) {
    SCOPED_TRACE("prefetch_depth " + std::to_string(depth));
    service::ServiceResult clean;
    service::ServiceResult rerun;
    FaultThenRerun(
        &db,
        [&](const exec::RunConfig& config) {
          service::ServiceOptions o = options;
          o.run = config;
          o.run.io.prefetch_depth = depth;
          return service.Run(o, *tables);
        },
        &clean, &rerun);
    ExpectSameServiceResult(clean, rerun);
    if (depth > 0) {
      EXPECT_GT(clean.io.submitted, 0u);
    }
  }
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

// ------------------------------------------------------- push under service

/// The default WorkloadSpec query mix (Q1, Q6, range, mid, and X1/X2 on the
/// MDC table 0) over four small tables, with a `depth`-extent prefetch
/// window (0 = the pull path).
service::ServiceOptions PushService(uint64_t depth) {
  service::ServiceOptions options;
  options.workload.num_tables = 4;
  options.workload.pages_per_table = 64;
  options.arrival.kind = service::ArrivalKind::kPoissonBurst;
  options.arrival.num_jobs = 40;
  options.arrival.rate_per_sec = 400.0;
  options.run = testutil::MakeRunConfig(ScanMode::kShared, 48, 4);
  options.run.io.prefetch_depth = depth;
  return options;
}

class ServicePushTest : public ::testing::Test {
 protected:
  ServicePushTest() {
    auto tables = service::BuildServiceTables(db_.catalog(),
                                              PushService(0).workload);
    EXPECT_TRUE(tables.ok()) << tables.status().ToString();
    if (tables.ok()) tables_ = *std::move(tables);
  }

  StatusOr<service::ServiceResult> Run(const service::ServiceOptions& o) {
    service::ScanService service(&db_);
    return service.Run(o, tables_);
  }

  exec::Database db_;
  std::vector<service::ServiceTable> tables_;
};

TEST_F(ServicePushTest, PushSimRunsAreIdentical) {
  const service::ServiceOptions options = PushService(4);
  auto a = Run(options);
  auto b = Run(options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameServiceResult(*a, *b);
  // The pipeline really pushed, and index scans were part of the mix.
  EXPECT_GT(a->io.submitted, 0u);
  EXPECT_GT(a->io.prefetch_hits, 0u);
  EXPECT_GT(a->buffer.prefetch_hits, 0u);
  EXPECT_GT(a->ism.scans_started, 0u);
}

TEST_F(ServicePushTest, PushSimAnswersMatchPullWhenNothingQueues) {
  service::ServiceOptions pull_options = PushService(0);
  pull_options.admission.global_cap = 1'000;
  pull_options.admission.per_table_cap = 1'000;
  service::ServiceOptions push_options = pull_options;
  push_options.run.io.prefetch_depth = 4;
  auto pull = Run(pull_options);
  auto push = Run(push_options);
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  for (const service::ServiceResult* r : {&*pull, &*push}) {
    EXPECT_EQ(r->admission.queued, 0u);
    EXPECT_EQ(r->admission.shed, 0u);
  }
  EXPECT_EQ(pull->io.submitted, 0u);
  EXPECT_GT(push->io.submitted, 0u);
  ASSERT_EQ(pull->jobs.size(), push->jobs.size());
  for (size_t i = 0; i < pull->jobs.size(); ++i) {
    EXPECT_EQ(pull->jobs[i].query, push->jobs[i].query);
    testutil::ExpectSameOutput(pull->jobs[i].output, push->jobs[i].output,
                               "job " + std::to_string(i));
  }
}

// ------------------------------------------------------------ media faults

// Seeded media faults (DiskManager::SetPageDataFaultRange) through every
// driver. A media fault fails PageData after the disk charge, when the pool
// or the backend copies the page bytes. Each failed run must report that
// Corruption, never an audit's Internal — the service audits the pool and
// the SSM after every step, the failed one included — and a clean rerun
// after ClearPageDataFaults must reproduce the clean run before the sweep.
template <typename RunFn, typename SameFn>
void MediaFaultSweep(storage::DiskManager* dm, RunFn run, SameFn expect_same) {
  auto clean = run();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  uint64_t failed_runs = 0;
  for (const uint64_t seed : kFaultSeeds) {
    Rng rng(seed);
    const sim::PageId first = rng.Uniform(dm->num_pages());
    dm->SetPageDataFaultRange(first, first + 1 + rng.Uniform(4));
    auto faulted = run();
    dm->ClearPageDataFaults();
    if (faulted.ok()) continue;
    ++failed_runs;
    EXPECT_EQ(faulted.status().code(), Status::Code::kCorruption)
        << "seed " << seed << ": " << faulted.status().ToString();
    auto rerun = run();
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    expect_same(*clean, *rerun);
  }
  EXPECT_GT(failed_runs, 0u);
  EXPECT_GT(dm->page_data_faults_injected(), 0u);
}

TEST_F(DriverFaultTest, MediaFaultSweepDatabaseRun) {
  const auto streams = testutil::StaggeredQ1Q6("lineitem", sim::Millis(50));
  for (const uint64_t depth : {uint64_t{0}, uint64_t{4}}) {
    SCOPED_TRACE("prefetch_depth " + std::to_string(depth));
    exec::RunConfig config = Config();
    config.io.prefetch_depth = depth;
    MediaFaultSweep(
        db_->disk_manager(), [&] { return db_->Run(config, streams); },
        [](const exec::RunResult& before, const exec::RunResult& after) {
          std::string diff;
          EXPECT_TRUE(metrics::BitIdentical(before, after, &diff)) << diff;
        });
  }
}

TEST_F(DriverFaultTest, MediaFaultSweepScanService) {
  service::ServiceOptions options = TwoTableService();
  options.run = Config();
  options.audit_every_n_steps = 1;
  exec::Database db;
  auto tables = service::BuildServiceTables(db.catalog(), options.workload);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  service::ScanService service(&db);
  for (const uint64_t depth : {uint64_t{0}, uint64_t{4}}) {
    SCOPED_TRACE("prefetch_depth " + std::to_string(depth));
    options.run.io.prefetch_depth = depth;
    MediaFaultSweep(
        db.disk_manager(), [&] { return service.Run(options, *tables); },
        ExpectSameServiceResult);
  }
}

TEST_F(DriverFaultTest, MediaFaultSweepRunQueryParallel) {
  exec::ParallelScanOptions options;
  options.jobs = 2;
  MediaFaultSweep(
      db_->disk_manager(),
      [&] {
        return exec::RunQueryParallel(db_.get(), Config(),
                                      workload::MakeQ6Like("lineitem"),
                                      options);
      },
      [](const exec::ParallelQueryResult& before,
         const exec::ParallelQueryResult& after) {
        std::string diff;
        EXPECT_TRUE(metrics::BitIdentical(before.output, after.output, &diff))
            << diff;
        EXPECT_EQ(before.metrics.pages_scanned, after.metrics.pages_scanned);
      });
}

}  // namespace
}  // namespace scanshare
