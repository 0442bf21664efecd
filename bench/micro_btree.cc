// M1 — micro-benchmark: the storage engine's B+-tree.
//
// Keys are built before the timed loops, so the string cases time the tree
// (a copied string key shares its buffer) and not the string allocations.
// The insert cases report `bytes_per_entry`: the heap growth, from glibc's
// mallinfo2, of building one tree of the case's size.

#include <malloc.h>

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "storage/bptree.h"

namespace mtcache {
namespace {

std::vector<Row> SequentialIntKeys(int64_t n) {
  std::vector<Row> keys;
  keys.reserve(n);
  for (int64_t i = 0; i < n; ++i) keys.push_back({Value::Int(i)});
  return keys;
}

std::vector<Row> RandomIntKeys(int64_t n) {
  std::vector<Row> keys;
  keys.reserve(n);
  Random rng(42);
  for (int64_t i = 0; i < n; ++i) {
    keys.push_back({Value::Int(rng.Uniform(0, 1 << 30))});
  }
  return keys;
}

// (int, string) keys in random order with duplicates: an int out of n / 4
// and a word out of 50, as a secondary index on (author, subject) holds.
std::vector<Row> RandomIntStringKeys(int64_t n) {
  std::vector<Row> keys;
  keys.reserve(n);
  Random rng(43);
  for (int64_t i = 0; i < n; ++i) {
    keys.push_back({Value::Int(rng.Uniform(0, n / 4)),
                    Value::String("subject-" +
                                  std::to_string(rng.Uniform(0, 49)))});
  }
  return keys;
}

// Times building a tree from `keys` (rowid = position) and reports the
// bytes per entry one such tree holds.
void RunInserts(benchmark::State& state, const std::vector<Row>& keys) {
  const int width = static_cast<int>(keys.front().size());
  double bytes_per_entry = 0;
  {
    size_t before = mallinfo2().uordblks;
    BPlusTree tree(width);
    for (size_t i = 0; i < keys.size(); ++i) tree.Insert(keys[i], i);
    bytes_per_entry =
        static_cast<double>(mallinfo2().uordblks - before) / keys.size();
  }
  for (auto _ : state) {
    BPlusTree tree(width);
    for (size_t i = 0; i < keys.size(); ++i) tree.Insert(keys[i], i);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
  state.counters["bytes_per_entry"] = bytes_per_entry;
}

void BM_BtreeInsertSequential(benchmark::State& state) {
  RunInserts(state, SequentialIntKeys(state.range(0)));
}
BENCHMARK(BM_BtreeInsertSequential)->Arg(1000)->Arg(10000);

void BM_BtreeInsertRandom(benchmark::State& state) {
  RunInserts(state, RandomIntKeys(state.range(0)));
}
BENCHMARK(BM_BtreeInsertRandom)->Arg(1000)->Arg(10000);

void BM_BtreeInsertIntString(benchmark::State& state) {
  RunInserts(state, RandomIntStringKeys(state.range(0)));
}
BENCHMARK(BM_BtreeInsertIntString)->Arg(1000)->Arg(10000);

// Seeks a random stored key of `keys` after loading them all.
void RunPointSeeks(benchmark::State& state, const std::vector<Row>& keys) {
  BPlusTree tree(static_cast<int>(keys.front().size()));
  for (size_t i = 0; i < keys.size(); ++i) tree.Insert(keys[i], i);
  Random rng(7);
  const int64_t last = static_cast<int64_t>(keys.size()) - 1;
  for (auto _ : state) {
    auto it = tree.SeekGe(keys[rng.Uniform(0, last)]);
    benchmark::DoNotOptimize(it.Valid());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BtreePointSeek(benchmark::State& state) {
  RunPointSeeks(state, SequentialIntKeys(state.range(0)));
}
BENCHMARK(BM_BtreePointSeek)->Arg(10000)->Arg(100000);

void BM_BtreePointSeekIntString(benchmark::State& state) {
  RunPointSeeks(state, RandomIntStringKeys(state.range(0)));
}
BENCHMARK(BM_BtreePointSeekIntString)->Arg(10000)->Arg(100000);

void BM_BtreeRangeScan100(benchmark::State& state) {
  const int64_t n = 100000;
  std::vector<Row> keys = SequentialIntKeys(n);
  BPlusTree tree(1);
  for (int64_t i = 0; i < n; ++i) tree.Insert(keys[i], i);
  Random rng(9);
  for (auto _ : state) {
    int64_t count = 0;
    for (auto it = tree.SeekGe(keys[rng.Uniform(0, n - 101)]);
         it.Valid() && count < 100; it.Next()) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_BtreeRangeScan100);

}  // namespace
}  // namespace mtcache
