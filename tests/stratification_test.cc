// Tests for src/core/stratification: finest stratification and projections.
#include <gtest/gtest.h>

#include <numeric>

#include "src/core/stratification.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(StratificationTest, SingleStringAttr) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s, Stratification::Build(t, {"major"}));
  EXPECT_EQ(s.num_strata(), 4u);
  const uint64_t total =
      std::accumulate(s.sizes().begin(), s.sizes().end(), uint64_t{0});
  EXPECT_EQ(total, t.num_rows());
  for (uint64_t sz : s.sizes()) EXPECT_EQ(sz, 2u);
}

TEST(StratificationTest, CompositeKey) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s,
                       Stratification::Build(t, {"major", "college"}));
  // major determines college here, so still 4 strata.
  EXPECT_EQ(s.num_strata(), 4u);
  // Labels render both attributes.
  bool found = false;
  for (size_t c = 0; c < s.num_strata(); ++c) {
    if (s.Label(c) == "CS|Science") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(StratificationTest, IntAttr) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s, Stratification::Build(t, {"age"}));
  EXPECT_EQ(s.num_strata(), 8u);  // all ages distinct
}

TEST(StratificationTest, EmptyAttrsIsOneStratum) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s, Stratification::Build(t, {}));
  EXPECT_EQ(s.num_strata(), 1u);
  EXPECT_EQ(s.sizes()[0], 8u);
  for (size_t r = 0; r < t.num_rows(); ++r) EXPECT_EQ(s.StratumOfRow(r), 0u);
}

TEST(StratificationTest, RowStrataConsistentWithKeys) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s, Stratification::Build(t, {"college"}));
  ASSERT_OK_AND_ASSIGN(const Column* college, t.ColumnByName("college"));
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const uint32_t c = s.StratumOfRow(r);
    EXPECT_EQ(s.key_codes(c)[0], college->GetCode(r));
  }
}

TEST(StratificationTest, RejectsDoubleColumn) {
  Table t = MakeStudentTable();
  EXPECT_FALSE(Stratification::Build(t, {"gpa"}).ok());
  EXPECT_FALSE(Stratification::Build(t, {"missing"}).ok());
}

TEST(StratificationTest, ProjectOntoSubset) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s,
                       Stratification::Build(t, {"major", "college"}));
  ASSERT_OK_AND_ASSIGN(Stratification::Projection proj, s.Project({"college"}));
  EXPECT_EQ(proj.num_parents(), 2u);
  // Parent sizes: 4 rows per college.
  for (uint64_t sz : proj.parent_sizes) EXPECT_EQ(sz, 4u);
  // Every stratum maps to the college its major belongs to.
  for (size_t c = 0; c < s.num_strata(); ++c) {
    const uint32_t parent = proj.stratum_to_parent[c];
    std::string parent_label;
    AppendKeyLabel(proj.parent_key(parent),
                   KeyDictsOf(t, proj.parent_column_indices), &parent_label);
    const std::string strat_label = s.Label(c);
    EXPECT_NE(strat_label.find(parent_label), std::string::npos)
        << strat_label << " vs " << parent_label;
  }
}

// Parent ids follow first-seen stratum order, not sorted key order, and
// parent_codes list each parent's key in the sub-attribute order asked
// for. Ints first appear as 5, 1, 3 and strings as z, y, x, so a sorted
// assignment would differ from the first-seen one in both columns.
TEST(StratificationTest, ProjectParentsFollowFirstSeenOrder) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  TableBuilder builder(schema);
  const std::vector<std::pair<int64_t, std::string>> rows = {
      {5, "z"}, {1, "y"}, {5, "x"}, {3, "z"}, {1, "z"}, {5, "z"}};
  for (const auto& [a, b] : rows) {
    ASSERT_OK(builder.AppendRow({Value(a), Value(b)}));
  }
  Table t = std::move(builder).Finish();
  ASSERT_OK_AND_ASSIGN(Stratification s, Stratification::Build(t, {"a", "b"}));
  ASSERT_EQ(s.num_strata(), 5u);  // (5,z) (1,y) (5,x) (3,z) (1,z)
  ASSERT_OK_AND_ASSIGN(const Column* b, t.ColumnByName("b"));
  const int64_t z = b->LookupCode("z"), y = b->LookupCode("y"),
                x = b->LookupCode("x");

  ASSERT_OK_AND_ASSIGN(Stratification::Projection by_a, s.Project({"a"}));
  EXPECT_EQ(by_a.stratum_to_parent, (std::vector<uint32_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(by_a.parent_codes, (std::vector<int64_t>{5, 1, 3}));
  EXPECT_EQ(by_a.parent_sizes, (std::vector<uint64_t>{3, 2, 1}));

  ASSERT_OK_AND_ASSIGN(Stratification::Projection by_b, s.Project({"b"}));
  EXPECT_EQ(by_b.stratum_to_parent, (std::vector<uint32_t>{0, 1, 2, 0, 0}));
  EXPECT_EQ(by_b.parent_codes, (std::vector<int64_t>{z, y, x}));
  EXPECT_EQ(by_b.parent_sizes, (std::vector<uint64_t>{4, 1, 1}));

  // Sub-attributes in another order than the stratification's: keys are
  // laid out (b, a), and every stratum is its own parent.
  ASSERT_OK_AND_ASSIGN(Stratification::Projection by_ba,
                       s.Project({"b", "a"}));
  EXPECT_EQ(by_ba.stratum_to_parent, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(by_ba.parent_codes,
            (std::vector<int64_t>{z, 5, y, 1, x, 5, z, 3, z, 1}));
  EXPECT_EQ(by_ba.parent_column_indices, (std::vector<size_t>{1, 0}));
  std::string label;
  AppendKeyLabel(by_ba.parent_key(2),
                 KeyDictsOf(t, by_ba.parent_column_indices), &label);
  EXPECT_EQ(label, "x|5");
}

TEST(StratificationTest, ProjectOntoEmptyIsFullTable) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s, Stratification::Build(t, {"major"}));
  ASSERT_OK_AND_ASSIGN(Stratification::Projection proj, s.Project({}));
  EXPECT_EQ(proj.num_parents(), 1u);
  EXPECT_EQ(proj.parent_sizes[0], 8u);
}

TEST(StratificationTest, ProjectRejectsForeignAttr) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s, Stratification::Build(t, {"major"}));
  EXPECT_FALSE(s.Project({"college"}).ok());
}

TEST(StratificationTest, ProjectIdentity) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification s,
                       Stratification::Build(t, {"major", "college"}));
  ASSERT_OK_AND_ASSIGN(Stratification::Projection proj,
                       s.Project({"major", "college"}));
  EXPECT_EQ(proj.num_parents(), s.num_strata());
  for (size_t c = 0; c < s.num_strata(); ++c) {
    EXPECT_EQ(proj.parent_sizes[proj.stratum_to_parent[c]], s.sizes()[c]);
  }
}

TEST(UnionAttrsTest, PreservesOrderAndDedupes) {
  EXPECT_EQ(UnionAttrs({{"a", "b"}, {"b", "c"}, {"a"}}),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(UnionAttrs({}), (std::vector<std::string>{}));
  EXPECT_EQ(UnionAttrs({{}, {"x"}}), (std::vector<std::string>{"x"}));
}

TEST(StratificationTest, LargerTableStrataSizes) {
  Table t = MakeSkewedTable(5, 10);
  ASSERT_OK_AND_ASSIGN(Stratification s, Stratification::Build(t, {"g"}));
  EXPECT_EQ(s.num_strata(), 5u);
  // Group g has (g+1)*10 rows; match by key code.
  for (size_t c = 0; c < s.num_strata(); ++c) {
    const int64_t g = s.key_codes(c)[0];
    EXPECT_EQ(s.sizes()[c], static_cast<uint64_t>((g + 1) * 10));
  }
}

}  // namespace
}  // namespace cvopt
