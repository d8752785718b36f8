// Each independent checker accepts the engine's answer and rejects the
// same answer with one element removed or one element added.

#include <gtest/gtest.h>

#include "checks.h"
#include "core/engine.h"
#include "workloads.h"

namespace e2e {
namespace {

using n2j::Value;

/// A value no generated row holds, of the same kind as `v`.
Value Altered(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kString:
      return Value::String(v.string_value() + "-added");
    case Value::Kind::kInt:
      return Value::Int(v.int_value() + 1000000007);
    case Value::Kind::kOid:
      return Value::MakeOidValue(v.oid_value() ^ (uint64_t{1} << 47));
    case Value::Kind::kTuple: {
      std::vector<n2j::Field> fields;
      for (size_t i = 0; i < v.tuple_size(); ++i) {
        fields.emplace_back(v.field_name(i), i == 0 ? Altered(v.field_value(i))
                                                    : v.field_value(i));
      }
      return Value::Tuple(std::move(fields));
    }
    default:
      ADD_FAILURE() << "unexpected element " << Render(v);
      return v;
  }
}

class CheckerTest : public ::testing::TestWithParam<Shape> {
 protected:
  static void SetUpTestSuite() {
    DataSize size;
    size.parts = 200;
    size.suppliers = 50;
    size.deliveries = 200;
    size.xy_rows = 64;
    size.w_rows = 128;
    db_ = MakeDatabase(size, 7).release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Literals Lit() {
    Literals lit;
    lit.date = 940000;  // every delivery, so Q2 answers non-empty
    return lit;
  }

  Value EngineAnswer() const {
    n2j::PlannerOptions planner;
    planner.strategy = n2j::PlanStrategy::kCost;
    n2j::QueryEngine engine(db_, n2j::RewriteOptions(), n2j::EvalOptions(),
                            planner);
    n2j::Result<n2j::QueryReport> r = engine.Run(QueryText(GetParam(), Lit()));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->result : Value();
  }

  static n2j::Database* db_;
};

n2j::Database* CheckerTest::db_ = nullptr;

TEST_P(CheckerTest, AcceptsEngineAnswer) {
  Value want = ExpectedAnswer(GetParam(), Lit(), *db_);
  ASSERT_GT(want.set_size(), 0u);
  EXPECT_EQ(CompareSets(EngineAnswer(), want), "");
}

TEST_P(CheckerTest, RejectsOneElementRemoved) {
  Value got = EngineAnswer();
  ASSERT_GT(got.set_size(), 0u);
  std::vector<Value> elems = got.elements();
  elems.erase(elems.begin() + static_cast<long>(elems.size() / 2));
  EXPECT_NE(CompareSets(Value::Set(std::move(elems)),
                        ExpectedAnswer(GetParam(), Lit(), *db_)),
            "");
}

TEST_P(CheckerTest, RejectsOneElementAdded) {
  Value got = EngineAnswer();
  ASSERT_GT(got.set_size(), 0u);
  std::vector<Value> elems = got.elements();
  elems.push_back(Altered(elems.front()));
  Value more = Value::Set(std::move(elems));
  ASSERT_EQ(more.set_size(), got.set_size() + 1);
  EXPECT_NE(CompareSets(more, ExpectedAnswer(GetParam(), Lit(), *db_)), "");
}

TEST(CompareSetsTest, RejectsNonSetResult) {
  EXPECT_NE(CompareSets(Value::Int(1), Value::EmptySet()), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, CheckerTest, ::testing::ValuesIn(kAllShapes),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(ShapeTag(info.param));
    });

}  // namespace
}  // namespace e2e
