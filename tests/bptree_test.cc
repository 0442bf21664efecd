#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/bptree.h"

namespace mtcache {
namespace {

Row K(int64_t v) { return Row{Value::Int(v)}; }
Row K2(int64_t a, const std::string& b) {
  return Row{Value::Int(a), Value::String(b)};
}

TEST(BPlusTreeTest, EmptyTreeIteration) {
  BPlusTree tree(1);
  EXPECT_EQ(tree.size(), 0);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_FALSE(tree.SeekGe(K(0)).Valid());
}

TEST(BPlusTreeTest, InsertAndIterateInOrder) {
  BPlusTree tree(1);
  for (int64_t v : {5, 1, 9, 3, 7}) tree.Insert(K(v), v * 10);
  std::vector<int64_t> keys;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    keys.push_back(it.key()[0].AsInt());
    EXPECT_EQ(it.rowid(), it.key()[0].AsInt() * 10);
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 3, 5, 7, 9}));
}

TEST(BPlusTreeTest, DuplicateKeysAllBothRetained) {
  BPlusTree tree(1);
  tree.Insert(K(4), 1);
  tree.Insert(K(4), 2);
  tree.Insert(K(4), 3);
  std::set<RowId> rids;
  for (auto it = tree.SeekGe(K(4));
       it.Valid() && BPlusTree::ComparePrefix(it.key(), K(4)) == 0;
       it.Next()) {
    rids.insert(it.rowid());
  }
  EXPECT_EQ(rids, (std::set<RowId>{1, 2, 3}));
}

TEST(BPlusTreeTest, SeekGeLandsOnFirstQualifying) {
  BPlusTree tree(1);
  for (int64_t v = 0; v < 100; v += 2) tree.Insert(K(v), v);
  auto it = tree.SeekGe(K(31));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 32);
  it = tree.SeekGe(K(32));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 32);
}

TEST(BPlusTreeTest, SeekGtSkipsEqual) {
  BPlusTree tree(1);
  for (int64_t v = 0; v < 100; v += 2) tree.Insert(K(v), v);
  auto it = tree.SeekGt(K(32));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 34);
}

TEST(BPlusTreeTest, SeekPastEndInvalid) {
  BPlusTree tree(1);
  tree.Insert(K(1), 1);
  EXPECT_FALSE(tree.SeekGe(K(2)).Valid());
  EXPECT_FALSE(tree.SeekGt(K(1)).Valid());
}

TEST(BPlusTreeTest, EraseRemovesOnlyMatchingRid) {
  BPlusTree tree(1);
  tree.Insert(K(4), 1);
  tree.Insert(K(4), 2);
  EXPECT_TRUE(tree.Erase(K(4), 1));
  EXPECT_FALSE(tree.Erase(K(4), 1));
  auto it = tree.SeekGe(K(4));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.rowid(), 2);
  EXPECT_EQ(tree.size(), 1);
}

TEST(BPlusTreeTest, CompositeKeyPrefixSeek) {
  BPlusTree tree(2);
  tree.Insert(K2(1, "a"), 1);
  tree.Insert(K2(1, "b"), 2);
  tree.Insert(K2(2, "a"), 3);
  // Prefix seek on first column only.
  int count = 0;
  for (auto it = tree.SeekGe(K(1));
       it.Valid() && BPlusTree::ComparePrefix(it.key(), K(1)) == 0;
       it.Next()) {
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(BPlusTreeTest, LargeRandomInsertEraseMatchesReferenceModel) {
  BPlusTree tree(1);
  std::multimap<int64_t, RowId> model;
  Random rng(42);
  for (int i = 0; i < 20000; ++i) {
    int64_t k = rng.Uniform(0, 500);
    if (rng.Bernoulli(0.7) || model.empty()) {
      tree.Insert(K(k), i);
      model.emplace(k, i);
    } else {
      // Erase a random existing entry.
      auto mit = model.lower_bound(k);
      if (mit == model.end()) mit = model.begin();
      EXPECT_TRUE(tree.Erase(K(mit->first), mit->second));
      model.erase(mit);
    }
  }
  ASSERT_EQ(tree.size(), static_cast<int64_t>(model.size()));
  // Full-order check.
  auto it = tree.Begin();
  for (const auto& [k, rid] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key()[0].AsInt(), k);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
  // Range check for every key value.
  for (int64_t k = 0; k <= 500; k += 13) {
    std::multiset<RowId> expect;
    for (auto [mk, rid] : model) {
      if (mk == k) expect.insert(rid);
    }
    std::multiset<RowId> got;
    for (auto sit = tree.SeekGe(K(k));
         sit.Valid() && BPlusTree::ComparePrefix(sit.key(), K(k)) == 0;
         sit.Next()) {
      got.insert(sit.rowid());
    }
    EXPECT_EQ(got, expect) << "key " << k;
  }
}

TEST(BPlusTreeTest, SequentialInsertDepthStressAndFullScan) {
  BPlusTree tree(1);
  const int64_t n = 50000;
  for (int64_t v = 0; v < n; ++v) tree.Insert(K(v), v);
  EXPECT_EQ(tree.size(), n);
  int64_t expect = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    ASSERT_EQ(it.key()[0].AsInt(), expect);
    ++expect;
  }
  EXPECT_EQ(expect, n);
  auto it = tree.SeekGe(K(n / 2));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), n / 2);
}

// Differential check against an ordered reference model over (int, string)
// keys with duplicates: random inserts and erases, prefix SeekGe/SeekGt on
// one and on both columns, a key range erased whole (emptying leaves, which
// are freed and unlinked from the leaf chain) and filled again, and
// full-order walks.
TEST(BPlusTreeTest, IntStringKeysMatchOrderedModel) {
  using Entry = std::tuple<int64_t, std::string, RowId>;
  BPlusTree tree(2);
  std::set<Entry> model;
  Random rng(2024);
  RowId next_rid = 0;
  auto random_key = [&rng]() {
    return std::make_pair(rng.Uniform(0, 99),
                          "s" + std::to_string(rng.Uniform(0, 30)));
  };
  auto insert = [&](int64_t a, const std::string& b) {
    RowId rid = next_rid++;
    tree.Insert(K2(a, b), rid);
    model.emplace(a, b, rid);
  };
  auto check_order = [&]() {
    ASSERT_EQ(tree.size(), static_cast<int64_t>(model.size()));
    auto it = tree.Begin();
    for (const auto& [a, b, rid] : model) {
      ASSERT_TRUE(it.Valid());
      ASSERT_EQ(it.key().size(), 2u);
      ASSERT_EQ(it.key()[0].AsInt(), a);
      ASSERT_EQ(it.key()[1].AsString(), b);
      ASSERT_EQ(it.rowid(), rid);
      it.Next();
    }
    EXPECT_FALSE(it.Valid());
  };
  // The tree iterator must walk the model from `from` for a few entries.
  auto expect_at = [&](BPlusTree::Iterator it, std::set<Entry>::iterator from,
                       const std::string& what) {
    for (int step = 0; step < 3; ++step, ++from, it.Next()) {
      if (from == model.end()) {
        EXPECT_FALSE(it.Valid()) << what;
        return;
      }
      ASSERT_TRUE(it.Valid()) << what;
      EXPECT_EQ(it.key()[0].AsInt(), std::get<0>(*from)) << what;
      EXPECT_EQ(it.key()[1].AsString(), std::get<1>(*from)) << what;
      EXPECT_EQ(it.rowid(), std::get<2>(*from)) << what;
    }
  };
  auto check_seeks = [&]() {
    for (int probe = 0; probe < 50; ++probe) {
      auto [a, b] = random_key();
      constexpr RowId kMin = std::numeric_limits<RowId>::min();
      expect_at(tree.SeekGe(K(a)), model.lower_bound({a, "", kMin}),
                "SeekGe " + std::to_string(a));
      expect_at(tree.SeekGt(K(a)), model.lower_bound({a + 1, "", kMin}),
                "SeekGt " + std::to_string(a));
      expect_at(tree.SeekGe(K2(a, b)), model.lower_bound({a, b, kMin}),
                "SeekGe " + std::to_string(a) + "," + b);
      // The least string above b is b followed by a NUL.
      expect_at(tree.SeekGt(K2(a, b)),
                model.lower_bound({a, b + std::string(1, '\0'), kMin}),
                "SeekGt " + std::to_string(a) + "," + b);
    }
  };

  for (int i = 0; i < 8000; ++i) {
    if (rng.Bernoulli(0.65) || model.empty()) {
      auto [a, b] = random_key();
      insert(a, b);
    } else {
      auto [a, b] = random_key();
      auto mit = model.lower_bound({a, b, 0});
      if (mit == model.end()) mit = model.begin();
      const auto& [ea, eb, erid] = *mit;
      ASSERT_TRUE(tree.Erase(K2(ea, eb), erid));
      EXPECT_FALSE(tree.Erase(K2(ea, eb), erid));
      model.erase(mit);
    }
    if (i % 2000 == 1999) {
      check_order();
      check_seeks();
    }
  }

  // Erase every entry with 20 <= a < 60: whole leaves go empty.
  auto lo = model.lower_bound({20, "", std::numeric_limits<RowId>::min()});
  auto hi = model.lower_bound({60, "", std::numeric_limits<RowId>::min()});
  ASSERT_GT(std::distance(lo, hi), 4 * BPlusTree::kFanout);
  for (auto mit = lo; mit != hi;) {
    ASSERT_TRUE(tree.Erase(K2(std::get<0>(*mit), std::get<1>(*mit)),
                           std::get<2>(*mit)));
    mit = model.erase(mit);
  }
  check_order();
  check_seeks();
  auto it = tree.SeekGe(K(20));
  ASSERT_TRUE(it.Valid());
  EXPECT_GE(it.key()[0].AsInt(), 60);

  // Fill the emptied range again.
  for (int i = 0; i < 1500; ++i) {
    insert(rng.Uniform(20, 59), "s" + std::to_string(rng.Uniform(0, 30)));
  }
  check_order();
  check_seeks();

  BPlusTree::Shape shape = tree.ComputeShape();
  EXPECT_EQ(shape.entries, static_cast<int64_t>(model.size()));
  EXPECT_GE(shape.height, 2);
  EXPECT_GE(shape.leaf_nodes * (BPlusTree::kFanout + 1), shape.entries);
  EXPECT_GT(shape.inner_nodes, 0);
  EXPECT_GT(shape.bytes, shape.entries * 2 * static_cast<int64_t>(sizeof(Value)));
}

TEST(BPlusTreeTest, ShapeCountsNodeArraysOfASequentialBuild) {
  BPlusTree tree(1);
  EXPECT_EQ(tree.ComputeShape().height, 1);
  EXPECT_EQ(tree.ComputeShape().leaf_nodes, 1);
  const int64_t n = 10000;
  for (int64_t v = 0; v < n; ++v) tree.Insert(K(v), v);
  BPlusTree::Shape shape = tree.ComputeShape();
  EXPECT_EQ(shape.entries, n);
  EXPECT_EQ(shape.height, 3);
  // A split leaves each half's arrays at the size they hold: a sequential
  // build stores one 16-byte cell and one rowid per entry, plus node headers
  // and the half-full rightmost nodes.
  EXPECT_LE(static_cast<double>(shape.bytes) / n, 16 + 8 + 6);
}

// Erases give memory back: a tree churned down to two entries keeps no node
// arrays sized for the thousand it held, and no emptied leaves.
TEST(BPlusTreeTest, ErasedTreeReleasesItsNodes) {
  BPlusTree tree(1);
  const int64_t n = 1000;
  for (int64_t v = 0; v < n; ++v) tree.Insert(K(v), v);
  const int64_t full_bytes = tree.ComputeShape().bytes;
  for (int64_t v = 1; v < n - 1; ++v) ASSERT_TRUE(tree.Erase(K(v), v));
  BPlusTree::Shape shape = tree.ComputeShape();
  EXPECT_EQ(shape.entries, 2);
  EXPECT_LT(shape.bytes * 10, full_bytes)
      << shape.bytes << " bytes of " << full_bytes;
  std::vector<int64_t> keys;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    keys.push_back(it.key()[0].AsInt());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{0, n - 1}));
  auto it = tree.SeekGe(K(1));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), n - 1);
  // The tree takes entries again, in order, and empties to a lone leaf.
  for (int64_t v = 1; v < n - 1; v += 7) tree.Insert(K(v), v);
  int64_t prev = -1;
  for (auto walk = tree.Begin(); walk.Valid(); walk.Next()) {
    EXPECT_GT(walk.key()[0].AsInt(), prev);
    prev = walk.key()[0].AsInt();
  }
  for (int64_t v = 0; v < n; ++v) tree.Erase(K(v), v);
  EXPECT_EQ(tree.size(), 0);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_EQ(tree.ComputeShape().height, 1);
}

}  // namespace
}  // namespace mtcache
