#include "exec/stream_executor.h"

#include <gtest/gtest.h>

#include "exec/engine.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare::exec {
namespace {

// A database with a small LINEITEM-like table shared by all tests.
class StreamExecutorTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPages = 96;

  StreamExecutorTest() { db_ = testutil::MakeLineitemDb(kPages, 42); }

  RunConfig Config(ScanMode mode, size_t frames = 32) {
    RunConfig c;
    c.mode = mode;
    c.buffer.num_frames = frames;
    c.buffer.prefetch_extent_pages = 8;
    c.series_bucket = sim::Millis(100);
    return c;
  }

  QuerySpec CountQuery() {
    QuerySpec q;
    q.name = "count";
    q.table = "lineitem";
    q.aggs.push_back(AggSpec{"cnt", AggOp::kCount, Expr::Const(0)});
    return q;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(StreamExecutorTest, SingleStreamSingleQuery) {
  StreamSpec s;
  s.queries.push_back(CountQuery());
  auto result = db_->Run(Config(ScanMode::kBaseline), {s});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->makespan, 0u);
  ASSERT_EQ(result->streams.size(), 1u);
  ASSERT_EQ(result->streams[0].queries.size(), 1u);
  const QueryRecord& q = result->streams[0].queries[0];
  EXPECT_EQ(q.name, "count");
  auto table = db_->catalog()->GetTable("lineitem");
  EXPECT_DOUBLE_EQ(q.output.groups[0].values[0],
                   static_cast<double>((*table)->num_tuples));
}

TEST_F(StreamExecutorTest, EmptyStreamsRejected) {
  auto result = db_->Run(Config(ScanMode::kBaseline), {});
  EXPECT_FALSE(result.ok());
}

TEST_F(StreamExecutorTest, UnknownTableFails) {
  StreamSpec s;
  QuerySpec q = CountQuery();
  q.table = "ghost";
  s.queries.push_back(q);
  auto result = db_->Run(Config(ScanMode::kBaseline), {s});
  EXPECT_FALSE(result.ok());
}

TEST_F(StreamExecutorTest, StaggerDelaysStreamStart) {
  StreamSpec s1;
  s1.queries.push_back(CountQuery());
  StreamSpec s2 = s1;
  s2.start_delay = sim::Millis(500);
  auto result = db_->Run(Config(ScanMode::kBaseline), {s1, s2});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->streams[0].start, 0u);
  EXPECT_EQ(result->streams[1].start, sim::Millis(500));
}

TEST_F(StreamExecutorTest, InterQueryDelaySeparatesQueries) {
  StreamSpec fast;
  fast.queries = {CountQuery(), CountQuery()};
  auto without = db_->Run(Config(ScanMode::kBaseline), {fast});
  ASSERT_TRUE(without.ok());

  StreamSpec slow = fast;
  slow.inter_query_delay = sim::Seconds(2);
  auto with = db_->Run(Config(ScanMode::kBaseline), {slow});
  ASSERT_TRUE(with.ok());
  EXPECT_GE(with->makespan, without->makespan + sim::Seconds(2));
}

TEST_F(StreamExecutorTest, QueriesRunInOrderWithinStream) {
  StreamSpec s;
  QuerySpec a = CountQuery();
  a.name = "first";
  QuerySpec b = CountQuery();
  b.name = "second";
  s.queries = {a, b};
  auto result = db_->Run(Config(ScanMode::kBaseline), {s});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->streams[0].queries.size(), 2u);
  EXPECT_EQ(result->streams[0].queries[0].name, "first");
  EXPECT_EQ(result->streams[0].queries[1].name, "second");
  EXPECT_LE(result->streams[0].queries[0].metrics.end_time,
            result->streams[0].queries[1].metrics.start_time);
}

TEST_F(StreamExecutorTest, BaselineStaggeredScansReadTwice) {
  StreamSpec s1;
  s1.queries.push_back(CountQuery());
  // The second stream starts once the first is far past the tiny pool's
  // reach: the baseline re-reads every page (the paper's problem case).
  StreamSpec s2 = s1;
  s2.start_delay = sim::Millis(10);
  auto result = db_->Run(Config(ScanMode::kBaseline, /*frames=*/16), {s1, s2});
  ASSERT_TRUE(result.ok());
  auto table = db_->catalog()->GetTable("lineitem");
  EXPECT_GE(result->disk.pages_read, 2 * (*table)->num_pages * 9 / 10);
}

TEST_F(StreamExecutorTest, SharedModeReducesPhysicalReads) {
  StreamSpec s1;
  s1.queries.push_back(CountQuery());
  StreamSpec s2 = s1;
  s2.start_delay = sim::Millis(10);
  auto base = db_->Run(Config(ScanMode::kBaseline, /*frames=*/16), {s1, s2});
  ASSERT_TRUE(base.ok());
  auto shared = db_->Run(Config(ScanMode::kShared, /*frames=*/16), {s1, s2});
  ASSERT_TRUE(shared.ok());
  // The late scan joins the early one: reads approach 1x the table.
  EXPECT_LT(shared->disk.pages_read, base->disk.pages_read * 7 / 10);
  // Results stay identical.
  EXPECT_DOUBLE_EQ(base->streams[0].queries[0].output.groups[0].values[0],
                   shared->streams[0].queries[0].output.groups[0].values[0]);
}

TEST_F(StreamExecutorTest, RunsAreDeterministic) {
  StreamSpec s;
  s.queries.push_back(CountQuery());
  auto a = db_->Run(Config(ScanMode::kShared), {s, s, s});
  auto b = db_->Run(Config(ScanMode::kShared), {s, s, s});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->makespan, b->makespan);
  EXPECT_EQ(a->disk.pages_read, b->disk.pages_read);
  EXPECT_EQ(a->disk.seeks, b->disk.seeks);
  EXPECT_EQ(a->buffer.hits, b->buffer.hits);
  for (size_t i = 0; i < a->streams.size(); ++i) {
    EXPECT_EQ(a->streams[i].end, b->streams[i].end);
  }
}

TEST_F(StreamExecutorTest, TimeSeriesAccountsAllReads) {
  StreamSpec s;
  s.queries.push_back(CountQuery());
  auto result = db_->Run(Config(ScanMode::kBaseline), {s, s});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->reads_over_time.total(),
                   static_cast<double>(result->disk.pages_read));
  EXPECT_DOUBLE_EQ(result->seeks_over_time.total(),
                   static_cast<double>(result->disk.seeks));
  EXPECT_GT(result->reads_over_time.num_buckets(), 0u);
}

TEST_F(StreamExecutorTest, SsmStatsPopulatedInSharedMode) {
  StreamSpec s;
  s.queries.push_back(CountQuery());
  auto result = db_->Run(Config(ScanMode::kShared), {s, s});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ssm.scans_started, 2u);
  EXPECT_EQ(result->ssm.scans_ended, 2u);
  EXPECT_GT(result->ssm.updates, 0u);
}

TEST_F(StreamExecutorTest, BaselineHasNoSsmActivity) {
  StreamSpec s;
  s.queries.push_back(CountQuery());
  auto result = db_->Run(Config(ScanMode::kBaseline), {s});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ssm.scans_started, 0u);
  EXPECT_EQ(result->ssm.updates, 0u);
}

// The stream tie rule: a stream's query opens on one pop and steps on the
// next, and (t, stream) events break ties toward the lower stream index.
// Two streams due at t0: stream 0 opens, is popped again ahead of stream
// 1's open, and reads its first extent; only then does stream 1 open, and
// its StartScan finds stream 0's first extent read and consumed. (An
// arrival-first rule would open both before either stepped.)
TEST_F(StreamExecutorTest, SimultaneousStreamsOpenAfterLowerStreamSteps) {
  StreamSpec s;
  s.queries.push_back(CountQuery());
  RunConfig config = Config(ScanMode::kShared);
  config.trace.enabled = true;
  auto result = db_->Run(config, {s, s});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  const auto& events = result->trace->events();

  auto first = [&](obs::EventKind kind, auto pred) {
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == kind && pred(events[i])) return i;
    }
    return events.size();
  };
  const auto any = [](const obs::TraceEvent&) { return true; };
  const size_t first_read = first(obs::EventKind::kDiskRead, any);
  const size_t begin1 = first(obs::EventKind::kQueryBegin,
                              [](const obs::TraceEvent& e) { return e.actor == 1; });
  ASSERT_LT(first_read, events.size());
  ASSERT_LT(begin1, events.size());
  EXPECT_LT(first_read, begin1);
  EXPECT_EQ(events[begin1].at, 0u);

  // Stream 1's StartScan (its scan admit, emitted while the cursor opens)
  // comes after stream 0 consumed its whole first extent.
  size_t admit1 = begin1;
  while (admit1 > 0 && events[admit1].kind != obs::EventKind::kScanAdmit) {
    --admit1;
  }
  ASSERT_EQ(events[admit1].kind, obs::EventKind::kScanAdmit);
  auto table = db_->catalog()->GetTable("lineitem");
  ASSERT_TRUE(table.ok());
  const sim::PageId start = (*table)->first_page;
  for (sim::PageId p = start; p < start + 8; ++p) {
    const size_t touched = first(
        obs::EventKind::kPoolHit,
        [&](const obs::TraceEvent& e) { return e.arg0 == p; });
    const size_t missed = first(
        obs::EventKind::kPoolMiss,
        [&](const obs::TraceEvent& e) { return e.arg0 == p; });
    EXPECT_LT(std::min(touched, missed), admit1) << "page " << p;
  }
  EXPECT_EQ(result->ssm.scans_joined, 1u);
}

TEST_F(StreamExecutorTest, MakespanIsMaxStreamEnd) {
  StreamSpec s1;
  s1.queries.push_back(CountQuery());
  StreamSpec s2 = s1;
  s2.start_delay = sim::Seconds(3);
  auto result = db_->Run(Config(ScanMode::kBaseline), {s1, s2});
  ASSERT_TRUE(result.ok());
  sim::Micros max_end = 0;
  for (const auto& st : result->streams) max_end = std::max(max_end, st.end);
  EXPECT_EQ(result->makespan, max_end);
}

}  // namespace
}  // namespace scanshare::exec
