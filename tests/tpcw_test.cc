#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "repl/replication.h"
#include "tpcw/cache_setup.h"
#include "tpcw/datagen.h"
#include "tpcw/procs.h"
#include "tpcw/workload.h"

namespace mtcache {
namespace tpcw {
namespace {

TpcwConfig SmallConfig() {
  TpcwConfig config;
  config.num_items = 200;
  config.num_authors = 50;
  config.num_customers = 300;
  config.num_orders = 260;
  config.best_seller_window = 40;
  return config;
}

class TpcwBackendTest : public ::testing::Test {
 protected:
  TpcwBackendTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_) {}

  void SetUp() override {
    config_ = SmallConfig();
    ASSERT_TRUE(CreateSchema(&backend_).ok());
    ASSERT_TRUE(GenerateData(&backend_, config_).ok());
    ASSERT_TRUE(CreateProcedures(&backend_, config_).ok());
    clock_.AdvanceTo(LoadEndTime(config_));
  }

  int64_t Count(const std::string& table) {
    auto r = backend_.Execute("SELECT COUNT(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  TpcwConfig config_;
};

TEST_F(TpcwBackendTest, DataGeneratedAtConfiguredScale) {
  EXPECT_EQ(Count("item"), config_.num_items);
  EXPECT_EQ(Count("author"), config_.num_authors);
  EXPECT_EQ(Count("customer"), config_.num_customers);
  EXPECT_EQ(Count("orders"), config_.num_orders);
  EXPECT_EQ(Count("cc_xacts"), config_.num_orders);
  EXPECT_GE(Count("order_line"), config_.num_orders);
}

TEST_F(TpcwBackendTest, DataIsDeterministicForSeed) {
  Server other(ServerOptions{"backend2", "dbo", {}}, &clock_);
  ASSERT_TRUE(CreateSchema(&other).ok());
  ASSERT_TRUE(GenerateData(&other, config_).ok());
  auto a = backend_.Execute("SELECT i_title FROM item WHERE i_id = 17");
  auto b = other.Execute("SELECT i_title FROM item WHERE i_id = 17");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows[0][0].AsString(), b->rows[0][0].AsString());
}

TEST_F(TpcwBackendTest, GetBookReturnsItemWithAuthor) {
  auto r = backend_.CallProcedure("getbook", {Value::Int(5)}, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 5);
  EXPECT_FALSE(r->rows[0][8].is_null());  // a_fname
}

TEST_F(TpcwBackendTest, BestSellersRanksBySales) {
  auto r = backend_.CallProcedure(
      "getbestsellers", {Value::String("history")}, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_GE(r->rows[i - 1][4].AsInt(), r->rows[i][4].AsInt());
  }
}

TEST_F(TpcwBackendTest, SearchProceduresReturnBoundedResults) {
  auto subject = backend_.CallProcedure("dosubjectsearch",
                                        {Value::String("arts")}, nullptr);
  ASSERT_TRUE(subject.ok()) << subject.status().ToString();
  EXPECT_LE(subject->rows.size(), 50u);
  auto title = backend_.CallProcedure("dotitlesearch",
                                      {Value::String("%river%")}, nullptr);
  ASSERT_TRUE(title.ok()) << title.status().ToString();
  EXPECT_LE(title->rows.size(), 50u);
  auto author = backend_.CallProcedure("doauthorsearch",
                                       {Value::String("shadow%")}, nullptr);
  ASSERT_TRUE(author.ok()) << author.status().ToString();
}

TEST_F(TpcwBackendTest, CartLifecycleAndOrderPlacement) {
  ASSERT_TRUE(backend_.CallProcedure("createemptycart", {Value::Int(7000)},
                                     nullptr)
                  .ok());
  ASSERT_TRUE(backend_
                  .CallProcedure("additem", {Value::Int(7000), Value::Int(3),
                                             Value::Int(2)},
                                 nullptr)
                  .ok());
  // Adding the same item again increments quantity.
  ASSERT_TRUE(backend_
                  .CallProcedure("additem", {Value::Int(7000), Value::Int(3),
                                             Value::Int(1)},
                                 nullptr)
                  .ok());
  auto cart = backend_.CallProcedure("getcart", {Value::Int(7000)}, nullptr);
  ASSERT_TRUE(cart.ok());
  ASSERT_EQ(cart->rows.size(), 1u);
  EXPECT_EQ(cart->rows[0][1].AsInt(), 3);  // qty 2 + 1
  int64_t orders_before = Count("orders");
  auto order = backend_.CallProcedure(
      "enterorder",
      {Value::Int(900000), Value::Int(1), Value::Int(7000), Value::Int(1),
       Value::Double(82.5)},
      nullptr);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  EXPECT_EQ(Count("orders"), orders_before + 1);
  EXPECT_EQ(Count("shopping_cart_line"), 0);  // cart cleared
  auto lines = backend_.Execute(
      "SELECT ol_qty FROM order_line WHERE ol_o_id = 900000");
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->rows.size(), 1u);
  EXPECT_EQ(lines->rows[0][0].AsInt(), 3);
}

TEST_F(TpcwBackendTest, DriverRunsEveryInteraction) {
  TpcwDriver driver(&backend_, config_, /*seed=*/17);
  for (int i = 0; i < kNumInteractions; ++i) {
    Interaction kind = static_cast<Interaction>(i);
    auto stats = driver.Run(kind);
    ASSERT_TRUE(stats.ok())
        << InteractionName(kind) << ": " << stats.status().ToString();
    EXPECT_GT(stats->local_cost + stats->remote_cost, 0)
        << InteractionName(kind);
  }
}

TEST_F(TpcwBackendTest, MixClassFrequenciesMatchPaperTable) {
  TpcwDriver driver(&backend_, config_, 23);
  const int n = 20000;
  struct {
    WorkloadMix mix;
    double expect;
  } cases[] = {{WorkloadMix::kBrowsing, 0.95},
               {WorkloadMix::kShopping, 0.80},
               {WorkloadMix::kOrdering, 0.50}};
  for (const auto& c : cases) {
    int browse = 0;
    for (int i = 0; i < n; ++i) {
      if (IsBrowseClass(driver.Pick(c.mix))) ++browse;
    }
    EXPECT_NEAR(browse / static_cast<double>(n), c.expect, 0.02)
        << MixName(c.mix);
  }
}

// Per-interaction conformance to the TPC-W §6 mix tables: at 30k draws every
// one of the fourteen interaction frequencies matches MixFraction within a
// 5-sigma binomial band (plus a small floor for the sub-percent rows). The
// draws go through TpcwDriver::Pick, the same path every workload run uses.
TEST_F(TpcwBackendTest, MixInteractionFrequenciesMatchSpecTables) {
  const int n = 30000;
  for (WorkloadMix mix : {WorkloadMix::kBrowsing, WorkloadMix::kShopping,
                          WorkloadMix::kOrdering}) {
    TpcwDriver driver(&backend_, config_, 29);
    int counts[kNumInteractions] = {};
    double total = 0;
    for (int i = 0; i < n; ++i) ++counts[static_cast<int>(driver.Pick(mix))];
    for (int t = 0; t < kNumInteractions; ++t) {
      Interaction kind = static_cast<Interaction>(t);
      double expect = MixFraction(mix, kind);
      total += expect;
      double sigma = std::sqrt(expect * (1 - expect) / n);
      double observed = counts[t] / static_cast<double>(n);
      EXPECT_NEAR(observed, expect, 5 * sigma + 0.001)
          << MixName(mix) << "/" << InteractionName(kind);
    }
    // The frequency table itself is a distribution.
    EXPECT_NEAR(total, 1.0, 1e-9) << MixName(mix);
  }
}

TEST_F(TpcwBackendTest, PickInteractionCoversUnitInterval) {
  // Boundary draws map to valid interactions; 0 maps to the first
  // non-zero-frequency entry and draws just under 1 to the last.
  for (WorkloadMix mix : {WorkloadMix::kBrowsing, WorkloadMix::kShopping,
                          WorkloadMix::kOrdering}) {
    Interaction first = PickInteraction(mix, 0.0);
    Interaction last = PickInteraction(mix, 0.999999999);
    EXPECT_GT(MixFraction(mix, first), 0) << MixName(mix);
    EXPECT_GT(MixFraction(mix, last), 0) << MixName(mix);
  }
}

// Every interaction a mix can draw executes without error against the
// seeded schema — a sustained RunNext stream per mix, long enough that the
// common interactions all occur, plus an explicit pass over all fourteen
// kinds (catching the rare ones a finite stream may miss).
TEST_F(TpcwBackendTest, AllMixInteractionsExecuteWithoutError) {
  int mix_index = 0;
  for (WorkloadMix mix : {WorkloadMix::kBrowsing, WorkloadMix::kShopping,
                          WorkloadMix::kOrdering}) {
    // One driver per mix, each in its own client-id residue class so the
    // three streams' generated carts/orders/customers never collide.
    TpcwDriver driver(&backend_, config_, 31, /*driver_index=*/mix_index++,
                      /*driver_stride=*/3);
    int64_t statements_before = driver.statements_issued();
    for (int i = 0; i < 200; ++i) {
      auto result = driver.RunNext(mix);
      ASSERT_TRUE(result.ok())
          << MixName(mix) << " draw " << i << ": "
          << result.status().ToString();
    }
    EXPECT_GT(driver.statements_issued(), statements_before) << MixName(mix);
    for (int t = 0; t < kNumInteractions; ++t) {
      auto stats = driver.Run(static_cast<Interaction>(t));
      ASSERT_TRUE(stats.ok())
          << MixName(mix) << "/"
          << InteractionName(static_cast<Interaction>(t)) << ": "
          << stats.status().ToString();
    }
  }
}

class TpcwCacheTest : public TpcwBackendTest {
 protected:
  TpcwCacheTest()
      : cache_(ServerOptions{"cache1", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    TpcwBackendTest::SetUp();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    Status s = SetupTpcwCache(mtcache_.get(), config_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
};

// A further cache over a test's backend, executing at batch capacity
// `capacity`; Setup caches `fraction` of each cached table.
struct FractionCache {
  FractionCache(SimClock* clock, int capacity)
      : server(Options(capacity), clock, &links), repl(clock) {}

  static ServerOptions Options(int capacity) {
    ServerOptions options{"cache2", "dbo", {}};
    options.exec_batch_capacity = capacity;
    return options;
  }

  Status Setup(Server* backend, const TpcwConfig& config, double fraction) {
    auto setup = MTCache::Setup(&server, backend, &repl);
    if (!setup.ok()) return setup.status();
    mtcache = setup.ConsumeValue();
    return SetupTpcwCache(mtcache.get(), config, fraction);
  }

  LinkedServerRegistry links;
  Server server;
  ReplicationSystem repl;
  std::unique_ptr<MTCache> mtcache;
};

TEST_F(TpcwCacheTest, CachedViewsPopulated) {
  auto r = cache_.Execute("SELECT COUNT(*) FROM item_cache");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), config_.num_items);
  r = cache_.Execute("SELECT COUNT(*) FROM order_line_cache");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->rows[0][0].AsInt(), 0);
}

TEST_F(TpcwCacheTest, BrowseProceduresRunFullyLocally) {
  for (const char* proc : {"getbook", "getrelated"}) {
    ExecStats stats;
    auto r = cache_.CallProcedure(proc, {Value::Int(5)}, &stats);
    ASSERT_TRUE(r.ok()) << proc << ": " << r.status().ToString();
    EXPECT_DOUBLE_EQ(stats.remote_cost, 0) << proc;
  }
  ExecStats stats;
  auto r = cache_.CallProcedure("getbestsellers", {Value::String("arts")},
                                &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(stats.remote_cost, 0) << "best sellers offloaded";
}

// Renders one result row; NULLs render distinctly from empty strings.
std::string RowText(const Row& row) {
  std::string text;
  for (const Value& v : row) {
    text += v.is_null() ? "<null>" : v.ToString();
    text += '|';
  }
  return text;
}

// Every TPC-W read procedure returns on the cache exactly the rows the
// backend returns, compared whole, and in the same order of its ORDER BY
// keys where it orders. Half-cached tables send the parameterized lookups
// down both ChoosePlan branches, and batch capacities 1, 7 and 1024 move
// every batch boundary.
TEST_F(TpcwCacheTest, CacheResultsMatchBackendResults) {
  // Carts live only on the backend; getcart joins them with cached items.
  constexpr int kCarts = 3;
  for (int cart = 1; cart <= kCarts; ++cart) {
    ASSERT_TRUE(backend_.CallProcedure("createemptycart", {Value::Int(cart)},
                                       nullptr)
                    .ok());
    for (int line = 0; line < 2 * cart; ++line) {
      int item = 1 + (67 * cart + 41 * line) % config_.num_items;
      ASSERT_TRUE(backend_
                      .CallProcedure("additem",
                                     {Value::Int(cart), Value::Int(item),
                                      Value::Int(line + 1)},
                                     nullptr)
                      .ok());
    }
  }
  struct ProcCall {
    std::string proc;
    Value arg;
    std::vector<int> order_by;  // output columns of the ORDER BY; empty = none
  };
  std::vector<ProcCall> calls;
  for (const char* subject : {"arts", "history", "travel"}) {
    calls.push_back({"dosubjectsearch", Value::String(subject), {1}});
    calls.push_back({"getnewproducts", Value::String(subject), {2, 1}});
    calls.push_back({"getbestsellers", Value::String(subject), {4}});
  }
  for (size_t w = 0; w < 3; ++w) {
    const std::string& word = TitleWords()[w];
    calls.push_back({"dotitlesearch", Value::String("%" + word + "%"), {1}});
    calls.push_back({"doauthorsearch", Value::String(word + "%"), {1}});
  }
  // Ids on both sides of the half-cache bound (num_items / 2).
  for (int id : {1, 7, 100, 101, 200}) {
    calls.push_back({"getbook", Value::Int(id), {}});
    calls.push_back({"getrelated", Value::Int(id), {}});
  }
  for (int cart = 1; cart <= kCarts; ++cart) {
    calls.push_back({"getcart", Value::Int(cart), {}});
  }

  for (double fraction : {1.0, 0.5}) {
    for (int capacity : {1, 7, RowBatch::kMaxRows}) {
      SCOPED_TRACE("cached fraction " + std::to_string(fraction) +
                   ", batch capacity " + std::to_string(capacity));
      FractionCache fraction_cache(&clock_, capacity);
      Status s = fraction_cache.Setup(&backend_, config_, fraction);
      ASSERT_TRUE(s.ok()) << s.ToString();
      Server& cache = fraction_cache.server;
      size_t rows_compared = 0;
      for (const ProcCall& call : calls) {
        SCOPED_TRACE(call.proc + "(" + call.arg.ToString() + ")");
        auto local = cache.CallProcedure(call.proc, {call.arg}, nullptr);
        auto remote = backend_.CallProcedure(call.proc, {call.arg}, nullptr);
        ASSERT_TRUE(local.ok()) << local.status().ToString();
        ASSERT_TRUE(remote.ok()) << remote.status().ToString();
        ASSERT_EQ(local->rows.size(), remote->rows.size());
        // Rows tied on the ORDER BY keys may come in either order, so the
        // key sequence is compared in order and the rows as a multiset.
        std::vector<std::string> local_rows;
        std::vector<std::string> remote_rows;
        for (size_t i = 0; i < local->rows.size(); ++i) {
          for (int col : call.order_by) {
            EXPECT_EQ(local->rows[i][col].ToString(),
                      remote->rows[i][col].ToString())
                << "row " << i << ", column " << col;
          }
          local_rows.push_back(RowText(local->rows[i]));
          remote_rows.push_back(RowText(remote->rows[i]));
        }
        std::sort(local_rows.begin(), local_rows.end());
        std::sort(remote_rows.begin(), remote_rows.end());
        EXPECT_EQ(local_rows, remote_rows);
        rows_compared += local_rows.size();
      }
      EXPECT_GT(rows_compared, 100u);
    }
  }
}

// Renders a result as a sorted multiset of rows.
std::vector<std::string> RowMultiset(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const Row& row : r.rows) rows.push_back(RowText(row));
  std::sort(rows.begin(), rows.end());
  return rows;
}

// A ChoosePlan runs only where it beats the remote plan it guards (§5.1).
// With half of each table cached, getbook and getrelated find their key in
// the cache but not the row it joins to (the author, the related item):
// their guard-true branch would ship that whole table to return one row, so
// each runs as one remote query returning one row. A single-table lookup
// still plans its dynamic plan and runs its cached key locally.
TEST_F(TpcwCacheTest, HalfCacheRoutesJoinsWholeAndLookupsDynamically) {
  FractionCache half(&clock_, RowBatch::kMaxRows);
  Status s = half.Setup(&backend_, config_, 0.5);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const int key = 7;  // inside the cached half of every table
  for (const char* proc : {"getbook", "getrelated"}) {
    SCOPED_TRACE(proc);
    ExecStats stats;
    auto local = half.server.CallProcedure(proc, {Value::Int(key)}, &stats);
    auto remote = backend_.CallProcedure(proc, {Value::Int(key)}, nullptr);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(stats.remote_queries, 1);
    EXPECT_LE(stats.rows_transferred, 1);
    EXPECT_EQ(local->rows.size(), 1u);
    EXPECT_EQ(RowMultiset(*local), RowMultiset(*remote));
  }
  const ProcedureDef* stock = half.server.db().catalog().GetProcedure(
      "getstock");
  ASSERT_NE(stock, nullptr);
  auto plan = half.server.Explain(stock->body_source);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->dynamic_plan) << PhysicalToString(*plan->plan);
  ExecStats stats;
  auto local = half.server.CallProcedure("getstock", {Value::Int(key)},
                                         &stats);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(stats.remote_queries, 0);
  EXPECT_EQ(local->rows.size(), 1u);
}

// Join order is chosen by cost, not by the FROM list: every permutation of
// the FROM list of each multi-table TPC-W read has the same estimated cost
// on the backend and on the full cache, and returns the same rows there and
// on the half cache, at every batch capacity. (On the half cache a chain
// with a remote leaf joins in FROM order, so only its rows are compared;
// getcart's shopping_cart_line is never cached, so its cost is compared on
// the backend only.)
TEST_F(TpcwCacheTest, FromOrderChangesNeitherCostNorResults) {
  for (int cart = 1; cart <= 2; ++cart) {
    ASSERT_TRUE(backend_.CallProcedure("createemptycart", {Value::Int(cart)},
                                       nullptr)
                    .ok());
    for (int line = 0; line < 3; ++line) {
      ASSERT_TRUE(backend_
                      .CallProcedure("additem",
                                     {Value::Int(cart),
                                      Value::Int(1 + (53 * cart + 71 * line) %
                                                         config_.num_items),
                                      Value::Int(line + 1)},
                                     nullptr)
                      .ok());
    }
  }
  struct Body {
    std::string name;
    std::string select;             // up to FROM
    std::vector<std::string> from;  // the FROM list's items
    std::string rest;               // WHERE onwards
    std::string param;
    std::vector<Value> args;
    bool cached_cost = true;        // compare the full cache's cost too
  };
  const std::string word = TitleWords()[0];
  const std::string item_author =
      " i.i_id, i.i_title, i.i_cost, a.a_fname, a.a_lname";
  const std::vector<Body> bodies = {
      {"getbestsellers",
       "SELECT TOP 50 i.i_id, i.i_title, a.a_fname, a.a_lname, "
       "SUM(ol.ol_qty) AS total",
       {"order_line ol", "item i", "author a",
        "(SELECT TOP " + std::to_string(config_.best_seller_window) +
            " o_id FROM orders ORDER BY o_date DESC) recent"},
       "WHERE ol.ol_o_id = recent.o_id AND i.i_id = ol.ol_i_id "
       "AND a.a_id = i.i_a_id AND i.i_subject = @p "
       "GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname ORDER BY total DESC",
       "@p",
       {Value::String("arts"), Value::String("history")}},
      {"dosubjectsearch", "SELECT TOP 50" + item_author,
       {"item i", "author a"},
       "WHERE i.i_subject = @p AND a.a_id = i.i_a_id ORDER BY i.i_title",
       "@p",
       {Value::String("arts")}},
      {"dotitlesearch", "SELECT TOP 50" + item_author,
       {"item i", "author a"},
       "WHERE i.i_title LIKE @p AND a.a_id = i.i_a_id ORDER BY i.i_title",
       "@p",
       {Value::String("%" + word + "%")}},
      {"doauthorsearch", "SELECT TOP 50" + item_author,
       {"item i", "author a"},
       "WHERE a.a_lname LIKE @p AND i.i_a_id = a.a_id ORDER BY i.i_title",
       "@p",
       {Value::String(word + "%")}},
      {"getnewproducts",
       "SELECT TOP 50 i.i_id, i.i_title, i.i_pub_date, i.i_cost, a.a_fname, "
       "a.a_lname",
       {"item i", "author a"},
       "WHERE i.i_subject = @p AND a.a_id = i.i_a_id "
       "ORDER BY i.i_pub_date DESC, i.i_title",
       "@p",
       {Value::String("arts")}},
      {"getbook",
       "SELECT i.i_id, i.i_title, i.i_subject, i.i_desc, i.i_cost, i.i_srp, "
       "i.i_pub_date, i.i_stock, a.a_fname, a.a_lname",
       {"item i", "author a"},
       "WHERE i.i_id = @p AND a.a_id = i.i_a_id",
       "@p",
       {Value::Int(7), Value::Int(150)}},
      {"getrelated", "SELECT i2.i_id, i2.i_title, i2.i_cost",
       {"item i1", "item i2"},
       "WHERE i1.i_id = @p AND i1.i_related1 = i2.i_id",
       "@p",
       {Value::Int(7), Value::Int(150)}},
      {"getcart",
       "SELECT scl.scl_i_id, scl.scl_qty, i.i_title, i.i_cost, i.i_srp",
       {"shopping_cart_line scl", "item i"},
       "WHERE scl.scl_sc_id = @p AND i.i_id = scl.scl_i_id",
       "@p",
       {Value::Int(1), Value::Int(2)},
       /*cached_cost=*/false},
      {"getmostrecentorder",
       "SELECT o.o_id, o.o_date, o.o_sub_total, o.o_total, o.o_status, "
       "ol.ol_i_id, ol.ol_qty, i.i_title",
       {"orders o", "order_line ol", "item i"},
       "WHERE o.o_id = @p AND ol.ol_o_id = o.o_id AND i.i_id = ol.ol_i_id",
       "@p",
       {Value::Int(5), Value::Int(200)}},
  };

  std::vector<std::unique_ptr<FractionCache>> caches;
  for (double fraction : {1.0, 0.5}) {
    for (int capacity : {1, 7, RowBatch::kMaxRows}) {
      caches.push_back(std::make_unique<FractionCache>(&clock_, capacity));
      Status s = caches.back()->Setup(&backend_, config_, fraction);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  Server& full_cache = caches[2]->server;  // fraction 1.0, default capacity

  size_t permutations = 0;
  size_t rows_compared = 0;
  for (const Body& body : bodies) {
    std::vector<size_t> order(body.from.size());
    std::iota(order.begin(), order.end(), 0);
    double backend_cost = -1;
    double cache_cost = -1;
    std::vector<std::vector<std::string>> want(body.args.size());
    do {
      std::string sql = body.select + " FROM ";
      for (size_t i = 0; i < order.size(); ++i) {
        sql += (i > 0 ? ", " : "") + body.from[order[i]];
      }
      sql += " " + body.rest;
      SCOPED_TRACE(body.name + ": " + sql);
      ++permutations;
      auto plan = backend_.Explain(sql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      if (backend_cost < 0) backend_cost = plan->est_cost;
      EXPECT_EQ(plan->est_cost, backend_cost) << PhysicalToString(*plan->plan);
      if (body.cached_cost) {
        auto cached = full_cache.Explain(sql);
        ASSERT_TRUE(cached.ok()) << cached.status().ToString();
        if (cache_cost < 0) cache_cost = cached->est_cost;
        EXPECT_EQ(cached->est_cost, cache_cost)
            << PhysicalToString(*cached->plan);
      }
      for (size_t a = 0; a < body.args.size(); ++a) {
        ParamMap params;
        params[body.param] = body.args[a];
        auto reference = backend_.Execute(sql, params, nullptr);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        if (want[a].empty()) want[a] = RowMultiset(*reference);
        EXPECT_EQ(RowMultiset(*reference), want[a]);
        for (size_t c = 0; c < caches.size(); ++c) {
          auto got = caches[c]->server.Execute(sql, params, nullptr);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          // caches: fractions 1.0 then 0.5, each at capacities 1, 7, 1024.
          EXPECT_EQ(RowMultiset(*got), want[a])
              << body.args[a].ToString() << " on cache " << c;
        }
        rows_compared += want[a].size();
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
  EXPECT_EQ(permutations, 24u + 7 * 2u + 6u);
  EXPECT_GT(rows_compared, 100u);
}

// No plan on the TPC-W cache copies a cached view's rows only to rebuild
// them unchanged: an identity projection never reaches a view scan, seek or
// index-NL inner.
bool IsIdentityProjection(const std::vector<BExprPtr>& exprs, int width) {
  if (static_cast<int>(exprs.size()) != width) return false;
  for (int i = 0; i < width; ++i) {
    if (exprs[i]->kind != BoundExprKind::kColumnRef ||
        static_cast<const BoundColumnRef&>(*exprs[i]).ordinal != i) {
      return false;
    }
  }
  return true;
}

// Counts the view accesses under `op` and fails on any that carries an
// identity projection.
void ExpectNoIdentityViewProjection(const PhysicalOp& op, int* view_accesses) {
  const TableDef* def = nullptr;
  const std::vector<BExprPtr>* projection = nullptr;
  if (op.kind == PhysicalKind::kSeqScan) {
    def = static_cast<const PhysSeqScan&>(op).def;
    projection = &static_cast<const PhysSeqScan&>(op).pushed_projection;
  } else if (op.kind == PhysicalKind::kIndexSeek) {
    def = static_cast<const PhysIndexSeek&>(op).def;
    projection = &static_cast<const PhysIndexSeek&>(op).pushed_projection;
  } else if (op.kind == PhysicalKind::kIndexNLJoin) {
    def = static_cast<const PhysIndexNLJoin&>(op).inner_def;
    projection = &static_cast<const PhysIndexNLJoin&>(op).inner_projection;
  }
  if (def != nullptr && def->kind == RelationKind::kCachedView) {
    ++*view_accesses;
    EXPECT_FALSE(IsIdentityProjection(*projection, def->schema.num_columns()))
        << PhysicalOpLabel(op);
  }
  for (const auto& child : op.children) {
    ExpectNoIdentityViewProjection(*child, view_accesses);
  }
}

TEST_F(TpcwCacheTest, ViewServedPlansCarryNoIdentityProjection) {
  int view_accesses = 0;
  for (const std::string& proc : ProceduresToCopy()) {
    const ProcedureDef* def = cache_.db().catalog().GetProcedure(proc);
    ASSERT_NE(def, nullptr) << proc;
    // getmostrecentorder's body is a script; every other body is one SELECT.
    if (proc == "getmostrecentorder") continue;
    auto plan = cache_.Explain(def->body_source);
    ASSERT_TRUE(plan.ok()) << proc << ": " << plan.status().ToString();
    SCOPED_TRACE(proc + ":\n" + PhysicalToString(*plan->plan));
    ExpectNoIdentityViewProjection(*plan->plan, &view_accesses);
  }
  EXPECT_GE(view_accesses, 10);
}

TEST_F(TpcwCacheTest, ViewServedPlansMatchBackendShapes) {
  // The cache plans a query over a cached table as the backend plans it
  // over the table: one scan with one pushed projection, or none at all.
  auto plan = cache_.Explain("SELECT o_id FROM orders");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(PhysicalOpLabel(*plan->plan),
            "SeqScan(orders_cache) [proj: orders_cache.o_id]");
  EXPECT_EQ(PhysicalPlanSize(*plan->plan), 1);
  auto all = cache_.Explain("SELECT * FROM item");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(PhysicalOpLabel(*all->plan), "SeqScan(item_cache)");
  EXPECT_EQ(PhysicalPlanSize(*all->plan), 1);
}

// Labels of every node of `op`, depth first.
void CollectLabels(const PhysicalOp& op, std::vector<std::string>* labels) {
  labels->push_back(PhysicalOpLabel(op));
  for (const auto& child : op.children) CollectLabels(*child, labels);
}

bool HasLabel(const PhysicalOp& op, const std::string& label) {
  std::vector<std::string> labels;
  CollectLabels(op, &labels);
  return std::find(labels.begin(), labels.end(), label) != labels.end();
}

// Top-N: a Sort under a Limit keeps only the limit's rows. The searches'
// TOP 50 reaches through the select list's projection, and BestSellers'
// derived table of recent orders keeps its window.
TEST_F(TpcwCacheTest, SortsUnderTopPlanAsTopN) {
  for (const char* proc : {"dosubjectsearch", "dotitlesearch",
                           "doauthorsearch", "getnewproducts"}) {
    const ProcedureDef* def = cache_.db().catalog().GetProcedure(proc);
    ASSERT_NE(def, nullptr) << proc;
    auto plan = cache_.Explain(def->body_source);
    ASSERT_TRUE(plan.ok()) << proc << ": " << plan.status().ToString();
    EXPECT_TRUE(HasLabel(*plan->plan, "Sort(top 50)"))
        << proc << ":\n" << PhysicalToString(*plan->plan);
  }
  const ProcedureDef* best = cache_.db().catalog().GetProcedure(
      "getbestsellers");
  ASSERT_NE(best, nullptr);
  auto plan = cache_.Explain(best->body_source);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string window =
      "Sort(top " + std::to_string(config_.best_seller_window) + ")";
  EXPECT_TRUE(HasLabel(*plan->plan, window)) << PhysicalToString(*plan->plan);
  EXPECT_TRUE(HasLabel(*plan->plan, "Sort(top 50)"))
      << PhysicalToString(*plan->plan);
}

// EXPLAIN ANALYZE runs the plan EXPLAIN shows: the profiled executor runs
// the same Top-N sort as the unprofiled one.
TEST_F(TpcwCacheTest, ExplainAnalyzeShowsTheSameTopN) {
  const std::string sql =
      "SELECT TOP 50 i.i_id, i.i_title, i.i_cost, a.a_fname, a.a_lname "
      "FROM item i, author a WHERE i.i_subject = 'arts' AND "
      "a.a_id = i.i_a_id ORDER BY i.i_title";
  auto has_top_n = [](const QueryResult& r) {
    for (const Row& row : r.rows) {
      if (row[0].AsString().find("Sort(top 50)") != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  auto plain = cache_.Execute("EXPLAIN " + sql);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_TRUE(has_top_n(*plain));
  auto analyzed = cache_.Execute("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(has_top_n(*analyzed));
  auto rows = cache_.Execute(sql);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(rows->rows.size(), 0u);
}

// A join's output list takes the place of any column selection above it:
// the commuted hash join emits (left, right) order itself, and no
// pure-column Project sits directly on a join in any cached plan.
void ExpectNoProjectionOverJoin(const PhysicalOp& op, int* joins) {
  auto is_join = [](const PhysicalOp& o) {
    return o.kind == PhysicalKind::kHashJoin ||
           o.kind == PhysicalKind::kNLJoin ||
           o.kind == PhysicalKind::kIndexNLJoin;
  };
  if (is_join(op)) ++*joins;
  if (op.kind == PhysicalKind::kProject && is_join(*op.children[0])) {
    bool selection = true;
    for (const auto& e : static_cast<const PhysProject&>(op).exprs) {
      if (e->kind != BoundExprKind::kColumnRef) selection = false;
    }
    EXPECT_FALSE(selection) << "column selection over "
                            << PhysicalOpLabel(*op.children[0]);
  }
  for (const auto& child : op.children) {
    ExpectNoProjectionOverJoin(*child, joins);
  }
}

TEST_F(TpcwCacheTest, JoinsOverCachedViewsFeedNoRestoreProject) {
  int joins = 0;
  for (const std::string& proc : ProceduresToCopy()) {
    const ProcedureDef* def = cache_.db().catalog().GetProcedure(proc);
    ASSERT_NE(def, nullptr) << proc;
    if (proc == "getmostrecentorder") continue;  // a script, not one SELECT
    auto plan = cache_.Explain(def->body_source);
    ASSERT_TRUE(plan.ok()) << proc << ": " << plan.status().ToString();
    SCOPED_TRACE(proc + ":\n" + PhysicalToString(*plan->plan));
    ExpectNoProjectionOverJoin(*plan->plan, &joins);
  }
  EXPECT_GE(joins, 6);
}

TEST_F(TpcwCacheTest, UpdatesFlowThroughCacheToBackendAndBack) {
  // Customer table is not cached: getcustomer is copied and runs locally,
  // fetching remotely. Order placement forwards to the backend and then
  // replicates into orders_cache / order_line_cache.
  TpcwDriver driver(&cache_, config_, 99);
  auto stats = driver.Run(Interaction::kBuyConfirm);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->remote_cost, 0);
  auto backend_count = backend_.Execute("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(backend_count.ok());
  EXPECT_EQ(backend_count->rows[0][0].AsInt(), config_.num_orders + 1);
  // Cached copy is stale until replication runs.
  auto cache_count = cache_.Execute("SELECT COUNT(*) FROM orders_cache");
  ASSERT_TRUE(cache_count.ok());
  EXPECT_EQ(cache_count->rows[0][0].AsInt(), config_.num_orders);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  cache_count = cache_.Execute("SELECT COUNT(*) FROM orders_cache");
  ASSERT_TRUE(cache_count.ok());
  EXPECT_EQ(cache_count->rows[0][0].AsInt(), config_.num_orders + 1);
}

TEST_F(TpcwCacheTest, FreshnessClauseSeesNewOrdersImmediately) {
  // An order placed through the cache is visible to a freshness-bounded
  // query right away (it bypasses the now-stale orders_cache), while the
  // unconstrained query is served the stale cached copy until replication.
  TpcwDriver driver(&cache_, config_, 5);
  ASSERT_TRUE(driver.Run(Interaction::kBuyConfirm).ok());
  clock_.Advance(30);
  auto stale = cache_.Execute("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows[0][0].AsInt(), config_.num_orders);
  auto fresh = cache_.Execute(
      "SELECT COUNT(*) FROM orders WITH MAXSTALENESS 5");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->rows[0][0].AsInt(), config_.num_orders + 1);
}

TEST_F(TpcwCacheTest, ProcedurePlansCachedAcrossCalls) {
  int64_t misses_before = cache_.plan_cache_stats().misses;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cache_.CallProcedure("getbook", {Value::Int(i + 1)}, nullptr).ok());
  }
  // One optimization for the procedure's SELECT, not five.
  EXPECT_EQ(cache_.plan_cache_stats().misses, misses_before + 1);
}

TEST_F(TpcwCacheTest, CachedViewsConvergeUnderMixedWorkloadStress) {
  // End-to-end stress: 200 mixed interactions through the cache with
  // periodic replication; afterwards every cached view must equal the
  // select-project of its backend base table, row for row.
  TpcwDriver driver(&cache_, config_, 4242);
  for (int i = 0; i < 200; ++i) {
    auto result = driver.RunNext(WorkloadMix::kOrdering);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    if (i % 7 == 6) {
      clock_.Advance(0.5);
      ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    }
  }
  clock_.Advance(0.5);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ASSERT_EQ(repl_.PendingChanges(), 0);

  auto canonical = [](Server* server, const std::string& sql) {
    auto r = server->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::vector<std::string> rows;
    if (r.ok()) {
      for (const Row& row : r->rows) {
        std::string s;
        for (const Value& v : row) s += v.ToSqlLiteral() + "|";
        rows.push_back(std::move(s));
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (const char* table : {"item", "author", "orders", "order_line"}) {
    EXPECT_EQ(canonical(&cache_,
                        "SELECT * FROM " + std::string(table) + "_cache"),
              canonical(&backend_, "SELECT * FROM " + std::string(table)))
        << table << " diverged after the stress run";
  }
  // Interactions really happened: orders grew.
  auto grown = backend_.Execute("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(grown.ok());
  EXPECT_GT(grown->rows[0][0].AsInt(), config_.num_orders);
}

TEST_F(TpcwCacheTest, DriverWorkloadRunsAgainstCache) {
  TpcwDriver driver(&cache_, config_, 7);
  double local = 0;
  double remote = 0;
  for (int i = 0; i < 60; ++i) {
    auto result = driver.RunNext(WorkloadMix::kShopping);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    local += result->second.local_cost;
    remote += result->second.remote_cost;
    if (i % 20 == 19) {
      ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    }
  }
  // The Shopping mix is read-dominated: most work lands on the cache server.
  EXPECT_GT(local, remote);
}

}  // namespace
}  // namespace tpcw
}  // namespace mtcache
