#include "exec/aggregate.h"

#include <gtest/gtest.h>

namespace scanshare::exec {
namespace {

using storage::Column;
using storage::Schema;
using storage::Value;

Schema TestSchema() {
  return Schema({Column::Double("x"), Column::Char("g", 1), Column::Char("h", 1)});
}

std::vector<uint8_t> Encode(const Schema& s, double x, const std::string& g,
                            const std::string& h) {
  std::vector<uint8_t> out;
  EXPECT_TRUE(
      s.EncodeTuple({Value::Double(x), Value::Char(g), Value::Char(h)}, &out).ok());
  return out;
}

TEST(AggregateTest, GlobalSumCountAvg) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"sum", AggOp::kSum, Expr::Column("x")},
                  AggSpec{"cnt", AggOp::kCount, Expr::Const(0)},
                  AggSpec{"avg", AggOp::kAvg, Expr::Column("x")}},
                 {});
  ASSERT_TRUE(agg.Bind(s).ok());
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    auto t = Encode(s, x, "A", "B");
    agg.Consume(s, t.data());
  }
  QueryOutput out = agg.Finish(10);
  EXPECT_EQ(out.rows_scanned, 10u);
  EXPECT_EQ(out.rows_matched, 4u);
  ASSERT_EQ(out.groups.size(), 1u);
  EXPECT_EQ(out.groups[0].key, "");
  EXPECT_DOUBLE_EQ(out.groups[0].values[0], 10.0);
  EXPECT_DOUBLE_EQ(out.groups[0].values[1], 4.0);
  EXPECT_DOUBLE_EQ(out.groups[0].values[2], 2.5);
}

TEST(AggregateTest, MinMax) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"min", AggOp::kMin, Expr::Column("x")},
                  AggSpec{"max", AggOp::kMax, Expr::Column("x")}},
                 {});
  ASSERT_TRUE(agg.Bind(s).ok());
  for (double x : {5.0, -2.0, 9.0, 0.0}) {
    auto t = Encode(s, x, "A", "B");
    agg.Consume(s, t.data());
  }
  QueryOutput out = agg.Finish(4);
  EXPECT_DOUBLE_EQ(out.groups[0].values[0], -2.0);
  EXPECT_DOUBLE_EQ(out.groups[0].values[1], 9.0);
}

TEST(AggregateTest, SingleColumnGroupBy) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"sum", AggOp::kSum, Expr::Column("x")}}, {"g"});
  ASSERT_TRUE(agg.Bind(s).ok());
  agg.Consume(s, Encode(s, 1.0, "A", "x").data());
  agg.Consume(s, Encode(s, 2.0, "B", "x").data());
  agg.Consume(s, Encode(s, 3.0, "A", "x").data());
  QueryOutput out = agg.Finish(3);
  ASSERT_EQ(out.groups.size(), 2u);
  const GroupResult* a = out.FindGroup("A");
  const GroupResult* b = out.FindGroup("B");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(a->values[0], 4.0);
  EXPECT_EQ(a->rows, 2u);
  EXPECT_DOUBLE_EQ(b->values[0], 2.0);
}

TEST(AggregateTest, TwoColumnGroupKeyUsesSeparator) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"cnt", AggOp::kCount, Expr::Const(0)}}, {"g", "h"});
  ASSERT_TRUE(agg.Bind(s).ok());
  agg.Consume(s, Encode(s, 1.0, "A", "F").data());
  agg.Consume(s, Encode(s, 1.0, "A", "O").data());
  agg.Consume(s, Encode(s, 1.0, "A", "F").data());
  QueryOutput out = agg.Finish(3);
  ASSERT_EQ(out.groups.size(), 2u);
  EXPECT_NE(out.FindGroup("A|F"), nullptr);
  EXPECT_NE(out.FindGroup("A|O"), nullptr);
  EXPECT_EQ(out.FindGroup("A|F")->rows, 2u);
}

TEST(AggregateTest, GroupsSortedByKey) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"cnt", AggOp::kCount, Expr::Const(0)}}, {"g"});
  ASSERT_TRUE(agg.Bind(s).ok());
  agg.Consume(s, Encode(s, 1.0, "C", "x").data());
  agg.Consume(s, Encode(s, 1.0, "A", "x").data());
  agg.Consume(s, Encode(s, 1.0, "B", "x").data());
  QueryOutput out = agg.Finish(3);
  ASSERT_EQ(out.groups.size(), 3u);
  EXPECT_EQ(out.groups[0].key, "A");
  EXPECT_EQ(out.groups[1].key, "B");
  EXPECT_EQ(out.groups[2].key, "C");
}

TEST(AggregateTest, ExpressionAggregate) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"sum2x", AggOp::kSum,
                          Expr::Mul(Expr::Column("x"), Expr::Const(2.0))}},
                 {});
  ASSERT_TRUE(agg.Bind(s).ok());
  agg.Consume(s, Encode(s, 3.0, "A", "x").data());
  agg.Consume(s, Encode(s, 4.0, "A", "x").data());
  EXPECT_DOUBLE_EQ(agg.Finish(2).groups[0].values[0], 14.0);
}

TEST(AggregateTest, EmptyInputProducesNoGroups) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"sum", AggOp::kSum, Expr::Column("x")}}, {});
  ASSERT_TRUE(agg.Bind(s).ok());
  QueryOutput out = agg.Finish(0);
  EXPECT_TRUE(out.groups.empty());
  EXPECT_EQ(out.rows_matched, 0u);
}

TEST(AggregateTest, BindRejectsNonCharGroupBy) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"cnt", AggOp::kCount, Expr::Const(0)}}, {"x"});
  EXPECT_EQ(agg.Bind(s).code(), Status::Code::kInvalidArgument);
}

TEST(AggregateTest, BindRejectsUnknownGroupBy) {
  Schema s = TestSchema();
  Aggregator agg({AggSpec{"cnt", AggOp::kCount, Expr::Const(0)}}, {"nope"});
  EXPECT_EQ(agg.Bind(s).code(), Status::Code::kNotFound);
}

// An aggregate expression whose postfix program needs more than 32 stack
// slots: the columnar path has no fixed evaluation stack, so PrepareHot
// must accept it and ConsumeBatch must fold exactly what Consume folds.
TEST(AggregateTest, DeepExpressionBatchMatchesConsume) {
  Schema s = TestSchema();
  // Right-deep chain: every level leaves one operand on the stack while
  // the next level is evaluated, so the program peaks at 41 slots.
  Expr deep = Expr::Column("x");
  for (int i = 0; i < 40; ++i) {
    Expr scaled = Expr::Mul(Expr::Column("x"), Expr::Const(0.1 * (i + 1)));
    deep = i % 2 == 0 ? Expr::Add(std::move(scaled), std::move(deep))
                      : Expr::Sub(std::move(scaled), std::move(deep));
  }
  const std::vector<AggSpec> specs = {
      AggSpec{"sum", AggOp::kSum, deep}, AggSpec{"avg", AggOp::kAvg, deep},
      AggSpec{"min", AggOp::kMin, deep}, AggSpec{"max", AggOp::kMax, deep},
      AggSpec{"cnt", AggOp::kCount, Expr::Const(0)}};
  for (const std::vector<std::string>& group_by :
       {std::vector<std::string>{}, std::vector<std::string>{"g"}}) {
    Aggregator scalar(specs, group_by);
    Aggregator batch(specs, group_by);
    ASSERT_TRUE(scalar.Bind(s).ok());
    ASSERT_TRUE(batch.Bind(s).ok());
    ASSERT_TRUE(batch.PrepareHot(s).ok());

    std::vector<std::vector<uint8_t>> rows;
    for (int i = 0; i < 50; ++i) {
      rows.push_back(Encode(s, 0.37 * i - 5.0, i % 3 == 0 ? "A" : "B", "x"));
    }
    std::vector<const uint8_t*> tuples;
    std::vector<uint8_t> sel;
    for (size_t i = 0; i < rows.size(); ++i) {
      tuples.push_back(rows[i].data());
      sel.push_back(i % 4 == 1 ? 0 : 1);
      if (sel.back()) scalar.Consume(s, rows[i].data());
    }
    batch.ConsumeBatch(tuples.data(), sel.data(), tuples.size());

    const QueryOutput want = scalar.Finish(rows.size());
    const QueryOutput got = batch.Finish(rows.size());
    EXPECT_EQ(got.rows_matched, want.rows_matched);
    ASSERT_EQ(got.groups.size(), want.groups.size());
    for (size_t g = 0; g < got.groups.size(); ++g) {
      EXPECT_EQ(got.groups[g].key, want.groups[g].key);
      EXPECT_EQ(got.groups[g].rows, want.groups[g].rows);
      EXPECT_EQ(got.groups[g].values, want.groups[g].values);
    }
  }
}

TEST(AggregateTest, FindGroupMissingReturnsNull) {
  QueryOutput out;
  EXPECT_EQ(out.FindGroup("Z"), nullptr);
}

}  // namespace
}  // namespace scanshare::exec
