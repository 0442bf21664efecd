// Allocation ceilings for the executor's pipeline breakers.
//
// A cache hit should cost what its operators need: hash joins and sorts hold
// references to the rows their children produce instead of copying them,
// joins materialize only the columns the plan above consumes, and copying a
// string Value shares its buffer. Heap allocations are the observable for
// that, and they are deterministic, so this suite counts global operator new
// calls made on the calling thread around one procedure call on a fully
// cached, default-size TPC-W pair at batch capacity 1024, and holds each call
// under a ceiling.
//
// Counts with the arguments used below (one warm call each, batch capacity
// 1024, GCC 12 / libstdc++), at four points:
//                               copying   reference-  shared    in-place
//                               operators holding     string    aggregate
//                                         operators   buffers   reads
//   doSubjectSearch('arts')       1,602       337       243       243
//   doTitleSearch('%shadow%')     2,525       425       288       288
//   doAuthorSearch('shadow%')     1,695       265       195       195
//   getBestSellers('arts')       22,060     2,013     1,558     1,401
// "Shared string buffers" is the 16-byte Value whose string copies share one
// refcounted buffer (a copy allocates nothing). "In-place aggregate reads"
// is HashAggregate reading its group keys from the input row (no string
// rebuilt per key cell) and building a group's state vector only for a new
// group. The ceilings are the latest counts: they are deterministic, so any
// new per-row allocation fails here.
//
// Set MT_PRINT_ALLOCS=1 to print the measured counts.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "repl/replication.h"
#include "tpcw/cache_setup.h"
#include "tpcw/datagen.h"
#include "tpcw/procs.h"

namespace {

thread_local int64_t t_allocations = 0;

}  // namespace

// Counting replacements for the global allocation functions. Only the count
// is added; allocation itself is malloc, as in the default operator new.
void* operator new(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mtcache {
namespace tpcw {
namespace {

class ExecAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new Pair();
    pair_->Build();
  }
  static void TearDownTestSuite() {
    delete pair_;
    pair_ = nullptr;
  }

  // One backend and one cache with every TPC-W read table fully cached.
  // Member order: the MTCache layer and the cache go before replication and
  // the backend.
  struct Pair {
    SimClock clock;
    LinkedServerRegistry links;
    std::unique_ptr<Server> backend;
    std::unique_ptr<Server> cache;
    std::unique_ptr<ReplicationSystem> repl;
    std::unique_ptr<MTCache> mtcache;

    void Build() {
      TpcwConfig config;
      backend = std::make_unique<Server>(ServerOptions{"backend", "dbo", {}},
                                         &clock, &links);
      ASSERT_TRUE(CreateSchema(backend.get()).ok());
      ASSERT_TRUE(GenerateData(backend.get(), config).ok());
      ASSERT_TRUE(CreateProcedures(backend.get(), config).ok());
      clock.AdvanceTo(LoadEndTime(config));
      repl = std::make_unique<ReplicationSystem>(&clock);
      ServerOptions options{"cache1", "dbo", {}};
      options.exec_batch_capacity = RowBatch::kMaxRows;
      cache = std::make_unique<Server>(options, &clock, &links);
      auto setup = MTCache::Setup(cache.get(), backend.get(), repl.get());
      ASSERT_TRUE(setup.ok()) << setup.status().ToString();
      mtcache = setup.ConsumeValue();
      ASSERT_TRUE(SetupTpcwCache(mtcache.get(), config, 1.0).ok());
    }
    ~Pair() {
      mtcache.reset();
      cache.reset();
      repl.reset();
      backend.reset();
    }
  };

  // Allocations of one warm call (the plan is cached by the first call), and
  // its row count through *rows.
  static int64_t CountCall(const std::string& proc, const Value& arg,
                           size_t* rows) {
    auto warm = pair_->cache->CallProcedure(proc, {arg}, nullptr);
    EXPECT_TRUE(warm.ok()) << warm.status().ToString();
    const int64_t before = t_allocations;
    auto r = pair_->cache->CallProcedure(proc, {arg}, nullptr);
    const int64_t count = t_allocations - before;
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    *rows = r.ok() ? r->rows.size() : 0;
    if (std::getenv("MT_PRINT_ALLOCS") != nullptr) {
      std::printf("%s(%s): %lld allocations, %zu rows\n", proc.c_str(),
                  arg.ToString().c_str(), static_cast<long long>(count),
                  *rows);
    }
    return count;
  }

  static Pair* pair_;
};

ExecAllocTest::Pair* ExecAllocTest::pair_ = nullptr;

TEST_F(ExecAllocTest, SubjectSearchUnderCeiling) {
  size_t rows = 0;
  int64_t n = CountCall("dosubjectsearch", Value::String("arts"), &rows);
  EXPECT_GT(rows, 0u);
  EXPECT_LE(n, 243);
}

TEST_F(ExecAllocTest, TitleSearchUnderCeiling) {
  size_t rows = 0;
  int64_t n = CountCall("dotitlesearch",
                        Value::String("%" + TitleWords()[0] + "%"), &rows);
  EXPECT_GT(rows, 0u);
  EXPECT_LE(n, 288);
}

TEST_F(ExecAllocTest, AuthorSearchUnderCeiling) {
  size_t rows = 0;
  int64_t n = CountCall("doauthorsearch",
                        Value::String(TitleWords()[0] + "%"), &rows);
  EXPECT_GT(rows, 0u);
  EXPECT_LE(n, 195);
}

TEST_F(ExecAllocTest, BestSellersUnderCeiling) {
  size_t rows = 0;
  int64_t n = CountCall("getbestsellers", Value::String("arts"), &rows);
  EXPECT_GT(rows, 0u);
  EXPECT_LE(n, 1401);
}

}  // namespace
}  // namespace tpcw
}  // namespace mtcache
