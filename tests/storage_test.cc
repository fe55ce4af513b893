#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace monsoon {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{7});
  Value d(1.5);
  Value s(std::string("hi"));
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt64(), 7);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 1.5);
  EXPECT_EQ(s.AsString(), "hi");
}

TEST(ValueTest, EqualityIsTypeAware) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // int64 vs double
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value("a"), Value(std::string("a")));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("xyz").Hash(), Value("xyz").Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(int64_t{6}).Hash());
  // Int and double of the same numeric value hash differently (they also
  // compare unequal).
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(5.0).Hash());
}

TEST(ValueTest, NegativeZeroHashesLikePositiveZero) {
  // -0.0 == 0.0 under operator==, so hash-partitioned joins must put both
  // in the same bucket; the raw bit patterns differ by the sign bit.
  EXPECT_EQ(Value(-0.0), Value(0.0));
  EXPECT_EQ(Value(-0.0).Hash(), Value(0.0).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{3}).ToString(), "3");
  EXPECT_EQ(Value("x").ToString(), "'x'");
}

TEST(SchemaTest, ColumnLookup) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.ColumnIndex("b").value(), 1u);
  EXPECT_FALSE(schema.ColumnIndex("c").ok());
  EXPECT_TRUE(schema.HasColumn("a"));
  EXPECT_FALSE(schema.HasColumn("z"));
}

TEST(SchemaTest, QualifyPrefixesBareNames) {
  Schema schema({{"a", ValueType::kInt64}, {"x.b", ValueType::kString}});
  Schema qualified = schema.Qualify("t");
  EXPECT_EQ(qualified.column(0).name, "t.a");
  EXPECT_EQ(qualified.column(1).name, "x.b");  // already qualified
}

TEST(SchemaTest, Concat) {
  Schema left({{"a", ValueType::kInt64}});
  Schema right({{"b", ValueType::kDouble}, {"c", ValueType::kString}});
  Schema both = Schema::Concat(left, right);
  ASSERT_EQ(both.num_columns(), 3u);
  EXPECT_EQ(both.column(2).name, "c");
}

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : table_(Schema({{"id", ValueType::kInt64},
                       {"score", ValueType::kDouble},
                       {"name", ValueType::kString}})) {}

  Table table_;
};

TEST_F(TableTest, AppendAndRead) {
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{1}), Value(0.5), Value("one")}).ok());
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{2}), Value(1.5), Value("two")}).ok());
  EXPECT_EQ(table_.num_rows(), 2u);
  EXPECT_EQ(table_.Int64At(0, 0), 1);
  EXPECT_DOUBLE_EQ(table_.DoubleAt(1, 1), 1.5);
  EXPECT_EQ(table_.StringAt(2, 0), "one");
  EXPECT_EQ(table_.ValueAt(2, 1), Value("two"));
}

TEST_F(TableTest, AppendRowRejectsArityMismatch) {
  EXPECT_EQ(table_.AppendRow({Value(int64_t{1})}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TableTest, AppendRowRejectsTypeMismatch) {
  EXPECT_EQ(
      table_.AppendRow({Value("wrong"), Value(0.5), Value("x")}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(table_.num_rows(), 0u) << "failed append must not change the table";
}

TEST_F(TableTest, PopRowRemovesLast) {
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{1}), Value(0.5), Value("a")}).ok());
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{2}), Value(0.6), Value("b")}).ok());
  table_.PopRow();
  EXPECT_EQ(table_.num_rows(), 1u);
  EXPECT_EQ(table_.Int64At(0, 0), 1);
}

TEST_F(TableTest, RowRefAccess) {
  ASSERT_TRUE(table_.AppendRow({Value(int64_t{9}), Value(2.0), Value("r")}).ok());
  RowRef row = table_.row(0);
  EXPECT_EQ(row.GetInt64(0), 9);
  EXPECT_DOUBLE_EQ(row.GetDouble(1), 2.0);
  EXPECT_EQ(row.GetString(2), "r");
}

TEST(TableConcatTest, AppendConcatRow) {
  Table left(Schema({{"a", ValueType::kInt64}}));
  Table right(Schema({{"b", ValueType::kString}}));
  ASSERT_TRUE(left.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(left.AppendRow({Value(int64_t{2})}).ok());
  ASSERT_TRUE(right.AppendRow({Value("x")}).ok());

  Table out(Schema::Concat(left.schema(), right.schema()));
  out.AppendConcatRow(left, 1, right, 0);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Int64At(0, 0), 2);
  EXPECT_EQ(out.StringAt(1, 0), "x");
}

TEST(TableConcatTest, AppendRowFrom) {
  Table src(Schema({{"a", ValueType::kInt64}, {"s", ValueType::kString}}));
  ASSERT_TRUE(src.AppendRow({Value(int64_t{5}), Value("v")}).ok());
  Table dst(src.schema());
  dst.AppendRowFrom(src, 0);
  EXPECT_EQ(dst.num_rows(), 1u);
  EXPECT_EQ(dst.Int64At(0, 0), 5);
}

// Batch appends grow a column geometrically: filling a table batch by
// batch must reallocate at most once per doubling of its row count —
// O(log batches) times, not once per batch (an exact reserve(size + n)
// per batch copies the whole column every time).
// A reallocation is observed as a change of the address of row 0's
// string, which moves exactly when its column's storage moves.
class BatchAppendGrowthTest : public ::testing::Test {
 protected:
  static constexpr size_t kBatches = 250;
  static constexpr size_t kSrcRows = 97;

  void SetUp() override {
    left_ = Table(Schema({{"a", ValueType::kInt64}, {"s", ValueType::kString}}));
    right_ = Table(Schema({{"t", ValueType::kString}, {"d", ValueType::kDouble}}));
    for (size_t i = 0; i < kSrcRows; ++i) {
      const int64_t v = static_cast<int64_t>(i);
      ASSERT_TRUE(left_.AppendRow({Value(v), Value("l" + std::to_string(i))}).ok());
      ASSERT_TRUE(
          right_.AppendRow({Value("r" + std::to_string(i)), Value(0.5 * v)}).ok());
    }
  }

  // Batch b selects 1 + b % 8 rows, scattered over the source.
  static std::vector<uint32_t> BatchRows(size_t b, size_t stride) {
    std::vector<uint32_t> rows(1 + b % 8);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<uint32_t>((b * 13 + i * stride) % kSrcRows);
    }
    return rows;
  }

  // One reallocation per doubling from one row up to `rows`.
  static size_t MaxReallocs(size_t rows) {
    size_t doublings = 0;
    while ((size_t{1} << doublings) < rows) ++doublings;
    return doublings;
  }

  static void ExpectSameCells(const Table& a, const Table& b) {
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_columns(), b.num_columns());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_columns(); ++c) {
        ASSERT_EQ(a.ValueAt(c, r), b.ValueAt(c, r)) << "row " << r << " col " << c;
      }
    }
  }

  Table left_;
  Table right_;
};

TEST_F(BatchAppendGrowthTest, AppendSelectedFromGrowsGeometrically) {
  Table batched(left_.schema());
  Table by_row(left_.schema());
  size_t reallocs = 0;
  const std::string* row0 = nullptr;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<uint32_t> rows = BatchRows(b, 5);
    batched.AppendSelectedFrom(left_, rows.data(), rows.size());
    for (uint32_t r : rows) by_row.AppendRowFrom(left_, r);
    const std::string* now = &batched.StringAt(1, 0);
    if (row0 != nullptr && now != row0) ++reallocs;
    row0 = now;
  }
  EXPECT_LE(reallocs, MaxReallocs(batched.num_rows()))
      << "a batch append reallocated its column " << reallocs << " times in "
      << kBatches << " batches";
  ExpectSameCells(batched, by_row);
}

TEST_F(BatchAppendGrowthTest, AppendConcatSelectedGrowsGeometrically) {
  const Schema out_schema = Schema::Concat(left_.schema(), right_.schema());
  Table batched(out_schema);
  Table by_row(out_schema);
  size_t left_reallocs = 0;
  size_t right_reallocs = 0;
  const std::string* left0 = nullptr;
  const std::string* right0 = nullptr;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<uint32_t> lrows = BatchRows(b, 5);
    std::vector<uint32_t> rrows = BatchRows(b + 3, 11);
    rrows.resize(lrows.size(), 0);
    batched.AppendConcatSelected(left_, lrows.data(), right_, rrows.data(),
                                 lrows.size());
    for (size_t i = 0; i < lrows.size(); ++i) {
      by_row.AppendConcatRow(left_, lrows[i], right_, rrows[i]);
    }
    const std::string* l_now = &batched.StringAt(1, 0);
    const std::string* r_now = &batched.StringAt(2, 0);
    if (left0 != nullptr && l_now != left0) ++left_reallocs;
    if (right0 != nullptr && r_now != right0) ++right_reallocs;
    left0 = l_now;
    right0 = r_now;
  }
  EXPECT_LE(left_reallocs, MaxReallocs(batched.num_rows()));
  EXPECT_LE(right_reallocs, MaxReallocs(batched.num_rows()));
  ExpectSameCells(batched, by_row);
}

TEST(TableMiscTest, ApproxBytesGrowsWithData) {
  Table t(Schema({{"s", ValueType::kString}}));
  size_t empty = t.ApproxBytes();
  ASSERT_TRUE(t.AppendRow({Value(std::string(1000, 'x'))}).ok());
  EXPECT_GT(t.ApproxBytes(), empty + 500);
}

TEST(TableMiscTest, ToStringShowsRowsAndTruncates) {
  Table t(Schema({{"a", ValueType::kInt64}}));
  for (int64_t i = 0; i < 15; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i)}).ok());
  }
  std::string rendered = t.ToString(3);
  EXPECT_NE(rendered.find("rows=15"), std::string::npos);
  EXPECT_NE(rendered.find("more"), std::string::npos);
}

}  // namespace
}  // namespace monsoon
