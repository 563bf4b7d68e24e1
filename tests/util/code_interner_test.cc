#include "util/code_interner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "relational/value.h"
#include "util/rng.h"

namespace cextend {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

std::vector<int64_t> Tuple(const CodeInterner& interner, uint32_t id) {
  auto t = interner.tuple(id);
  return {t.begin(), t.end()};
}

TEST(CodeInternerTest, IdsFollowInsertionOrder) {
  CodeInterner interner(2);
  const std::vector<std::vector<int64_t>> keys = {
      {5, 1}, {1, 5}, {5, 1}, {0, 0}, {1, 5}, {-1, 0}};
  const uint32_t want_id[] = {0, 1, 0, 2, 1, 3};
  const bool want_inserted[] = {true, true, false, true, false, true};
  for (size_t i = 0; i < keys.size(); ++i) {
    CodeInterner::Interned got = interner.Intern(keys[i].data());
    EXPECT_EQ(got.id, want_id[i]) << i;
    EXPECT_EQ(got.inserted, want_inserted[i]) << i;
  }
  ASSERT_EQ(interner.size(), 4u);
  EXPECT_EQ(Tuple(interner, 0), (std::vector<int64_t>{5, 1}));
  EXPECT_EQ(Tuple(interner, 1), (std::vector<int64_t>{1, 5}));
  EXPECT_EQ(Tuple(interner, 2), (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(Tuple(interner, 3), (std::vector<int64_t>{-1, 0}));
}

TEST(CodeInternerTest, FindAfterManyGrowthsMatchesMap) {
  // 60k draws over a small domain: ~20k distinct tuples, so the table grows
  // from 16 slots through 11 doublings while repeats keep arriving.
  CodeInterner interner(3);
  std::map<std::vector<int64_t>, uint32_t> oracle;
  Rng rng(7);
  for (int i = 0; i < 60000; ++i) {
    std::vector<int64_t> key = {rng.UniformInt(0, 40), rng.UniformInt(-3, 3),
                                rng.UniformInt(0, 100)};
    auto [it, inserted] =
        oracle.emplace(key, static_cast<uint32_t>(oracle.size()));
    CodeInterner::Interned got = interner.Intern(key.data());
    ASSERT_EQ(got.id, it->second) << i;
    ASSERT_EQ(got.inserted, inserted) << i;
  }
  ASSERT_EQ(interner.size(), oracle.size());
  for (const auto& [key, id] : oracle) {
    EXPECT_EQ(interner.Find(key.data()), std::optional<uint32_t>(id));
    EXPECT_EQ(Tuple(interner, id), key);
  }
  for (int i = 0; i < 1000; ++i) {
    std::vector<int64_t> absent = {rng.UniformInt(41, 80), 0, 0};
    EXPECT_FALSE(interner.Find(absent.data()).has_value());
  }
}

TEST(CodeInternerTest, ArityZeroHoldsOneTuple) {
  CodeInterner interner(0);
  EXPECT_FALSE(interner.Find(nullptr).has_value());
  CodeInterner::Interned first = interner.Intern(nullptr);
  EXPECT_EQ(first.id, 0u);
  EXPECT_TRUE(first.inserted);
  CodeInterner::Interned again = interner.Intern(nullptr);
  EXPECT_EQ(again.id, 0u);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.Find(nullptr), std::optional<uint32_t>(0));
  EXPECT_TRUE(interner.tuple(0).empty());
}

TEST(CodeInternerTest, ArityOneAndEight) {
  CodeInterner one(1);
  for (int64_t v = 0; v < 1000; ++v) {
    ASSERT_EQ(one.Intern(&v).id, static_cast<uint32_t>(v));
  }
  for (int64_t v = 999; v >= 0; --v) {
    ASSERT_EQ(one.Find(&v), std::optional<uint32_t>(static_cast<uint32_t>(v)));
  }
  const int64_t absent = 1000;
  EXPECT_FALSE(one.Find(&absent).has_value());

  CodeInterner eight(8);
  std::vector<std::vector<int64_t>> keys;
  for (int64_t i = 0; i < 500; ++i) {
    keys.push_back({i, i + 1, i % 3, -i, 0, 7, i * i, i / 2});
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(eight.Intern(keys[i].data()).id, i);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(eight.Find(keys[i].data()), std::optional<uint32_t>(i));
    ASSERT_EQ(Tuple(eight, static_cast<uint32_t>(i)), keys[i]);
  }
}

TEST(CodeInternerTest, NullAndExtremeCodesAreDistinct) {
  // kNullCode is INT64_MIN, which differs from 0 only in the top bit; pairs
  // of such codes must not cancel out in the hash or the compare.
  const int64_t values[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  CodeInterner interner(2);
  std::map<std::vector<int64_t>, uint32_t> oracle;
  for (int64_t a : values) {
    for (int64_t b : values) {
      std::vector<int64_t> key = {a, b};
      auto [it, inserted] =
          oracle.emplace(key, static_cast<uint32_t>(oracle.size()));
      ASSERT_TRUE(inserted);
      CodeInterner::Interned got = interner.Intern(key.data());
      EXPECT_TRUE(got.inserted) << a << "," << b;
      EXPECT_EQ(got.id, it->second);
    }
  }
  EXPECT_EQ(interner.size(), 49u);
  for (const auto& [key, id] : oracle) {
    EXPECT_EQ(interner.Find(key.data()), std::optional<uint32_t>(id));
  }
}

TEST(CodeInternerTest, KeysDifferingOnlyInLastElement) {
  CodeInterner interner(4);
  for (int64_t last = 0; last < 300; ++last) {
    const int64_t key[] = {11, 22, 33, last};
    CodeInterner::Interned got = interner.Intern(key);
    ASSERT_TRUE(got.inserted) << last;
    ASSERT_EQ(got.id, static_cast<uint32_t>(last));
  }
  const int64_t top_bit[] = {11, 22, 33, kMin};
  EXPECT_FALSE(interner.Find(top_bit).has_value());
  for (int64_t last = 0; last < 300; ++last) {
    const int64_t key[] = {11, 22, 33, last};
    ASSERT_EQ(interner.Find(key),
              std::optional<uint32_t>(static_cast<uint32_t>(last)));
  }
}

// ---- InternRows. ----

TEST(InternRowsTest, ClassesFollowFirstRowOrder) {
  // Rows: (5,1) (1,5) (5,1) (0,0) (1,5) (-1,0).
  const std::vector<int64_t> a = {5, 1, 5, 0, 1, -1};
  const std::vector<int64_t> b = {1, 5, 1, 0, 5, 0};
  const std::vector<const int64_t*> columns = {a.data(), b.data()};
  const RowClasses classes = InternRows(a.size(), columns);
  EXPECT_EQ(classes.of_row, (std::vector<uint32_t>{0, 1, 0, 2, 1, 3}));
  EXPECT_EQ(classes.representatives, (std::vector<uint32_t>{0, 1, 3, 5}));
  ASSERT_EQ(classes.size(), 4u);
  ASSERT_EQ(classes.keys.size(), 4u);
  EXPECT_EQ(Tuple(classes.keys, 0), (std::vector<int64_t>{5, 1}));
  EXPECT_EQ(Tuple(classes.keys, 1), (std::vector<int64_t>{1, 5}));
  EXPECT_EQ(Tuple(classes.keys, 2), (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(Tuple(classes.keys, 3), (std::vector<int64_t>{-1, 0}));
}

TEST(InternRowsTest, NullCodeIsNotZero) {
  const std::vector<int64_t> col = {0, kNullCode, 0, kNullCode, 1};
  const std::vector<const int64_t*> columns = {col.data()};
  const RowClasses classes = InternRows(col.size(), columns);
  EXPECT_EQ(classes.of_row, (std::vector<uint32_t>{0, 1, 0, 1, 2}));
  EXPECT_EQ(classes.representatives, (std::vector<uint32_t>{0, 1, 4}));
  EXPECT_EQ(Tuple(classes.keys, 1), (std::vector<int64_t>{kNullCode}));
}

TEST(InternRowsTest, ZeroArityIsOneClass) {
  const RowClasses classes = InternRows(5, std::vector<const int64_t*>{});
  EXPECT_EQ(classes.of_row, (std::vector<uint32_t>(5, 0)));
  EXPECT_EQ(classes.representatives, (std::vector<uint32_t>{0}));
  EXPECT_EQ(classes.keys.arity(), 0u);
}

TEST(InternRowsTest, ZeroRowsAreNoClasses) {
  const std::vector<const int64_t*> columns = {nullptr, nullptr};
  const RowClasses classes = InternRows(0, columns);
  EXPECT_TRUE(classes.of_row.empty());
  EXPECT_TRUE(classes.representatives.empty());
  EXPECT_EQ(classes.size(), 0u);
  EXPECT_EQ(classes.keys.arity(), 2u);
}

TEST(InternRowsTest, FillerFormAgreesWithColumnForm) {
  // The filler derives the same codes on the fly that the columns hold.
  Rng rng(11);
  const size_t n = 5000;
  std::vector<int64_t> x(n), y(n), z(n);
  for (size_t r = 0; r < n; ++r) {
    x[r] = rng.UniformInt(0, 9);
    y[r] = rng.Bernoulli(0.1) ? kNullCode : rng.UniformInt(-2, 2);
    z[r] = rng.UniformInt(0, 3);
  }
  const std::vector<const int64_t*> columns = {x.data(), y.data(), z.data()};
  const RowClasses by_columns = InternRows(n, columns);
  const RowClasses by_filler = InternRows(n, 3, [&](size_t r, int64_t* key) {
    key[0] = x[r];
    key[1] = y[r];
    key[2] = z[r];
  });
  EXPECT_EQ(by_filler.of_row, by_columns.of_row);
  EXPECT_EQ(by_filler.representatives, by_columns.representatives);
  ASSERT_EQ(by_filler.keys.size(), by_columns.keys.size());
  for (uint32_t id = 0; id < by_columns.keys.size(); ++id) {
    EXPECT_EQ(Tuple(by_filler.keys, id), Tuple(by_columns.keys, id));
  }
  // Against a std::map over the same rows: first-row ids and first rows.
  std::map<std::vector<int64_t>, uint32_t> oracle;
  std::vector<uint32_t> first_rows;
  for (size_t r = 0; r < n; ++r) {
    auto [it, inserted] = oracle.emplace(std::vector<int64_t>{x[r], y[r], z[r]},
                                         static_cast<uint32_t>(oracle.size()));
    if (inserted) first_rows.push_back(static_cast<uint32_t>(r));
    ASSERT_EQ(by_columns.of_row[r], it->second) << r;
  }
  EXPECT_EQ(by_columns.representatives, first_rows);
}

}  // namespace
}  // namespace cextend
