// Replication pipeline walkthrough: publications, articles, the log reader,
// the distribution database, and commit-order apply — section 2.2 of the
// paper, observable step by step.
//
//   ./build/examples/replication_pipeline

#include <cstdio>

#include "repl/replication.h"

using namespace mtcache;

namespace {
void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}
}  // namespace

int main() {
  SimClock clock;
  LinkedServerRegistry links;
  Server publisher(ServerOptions{"publisher", "dbo", {}}, &clock, &links);
  Server subscriber(ServerOptions{"subscriber", "dbo", {}}, &clock, &links);
  ReplicationSystem repl(&clock);

  Must(publisher.ExecuteScript(
           "CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(30), "
           "type VARCHAR(10), price FLOAT)"),
       "publisher schema");
  Must(subscriber.ExecuteScript(
           "CREATE TABLE tire_parts (id INT PRIMARY KEY, name VARCHAR(30), "
           "price FLOAT)"),
       "subscriber schema");

  // Article: a select-project over `part` — only tires, without the type
  // column (articles "may contain only a subset of the columns and rows").
  Article article;
  article.name = "tires";
  article.def.base_table = "part";
  article.def.columns = {"id", "name", "price"};
  article.def.predicates = {{"type", CompareOp::kEq, Value::String("tire")}};
  auto sub = repl.Subscribe(&publisher, article, &subscriber, "tire_parts");
  Must(sub.status(), "subscribe");
  std::printf("Subscription %lld: part(type='tire') -> tire_parts\n\n",
              static_cast<long long>(*sub));

  // A committed transaction with mixed changes.
  Must(publisher.ExecuteScript(R"sql(
    BEGIN TRANSACTION;
    INSERT INTO part VALUES (1, 'all-season', 'tire', 89.0);
    INSERT INTO part VALUES (2, 'wiper blade', 'wiper', 12.0);
    INSERT INTO part VALUES (3, 'snow', 'tire', 120.0);
    COMMIT;
  )sql"),
       "txn 1");
  // And one that rolls back (must never ship).
  Must(publisher.ExecuteScript(
           "BEGIN TRANSACTION; "
           "INSERT INTO part VALUES (4, 'phantom', 'tire', 1.0); "
           "ROLLBACK;"),
       "txn 2");

  std::printf("Publisher log before the log reader runs: %lld records\n",
              static_cast<long long>(publisher.db().log().size()));

  clock.Advance(0.4);  // the agents wake up 0.4s after the commits
  ExecStats reader_cost;
  Must(repl.RunLogReader(&publisher, &reader_cost), "log reader");
  std::printf("Log reader: scanned %lld records, enqueued %lld changes "
              "(%.0f work units on the publisher)\n",
              static_cast<long long>(repl.metrics().records_scanned),
              static_cast<long long>(repl.metrics().changes_enqueued),
              reader_cost.local_cost);
  std::printf("Distribution database now holds %lld pending changes\n",
              static_cast<long long>(repl.PendingChanges()));

  ExecStats apply_cost;
  Must(repl.RunDistributionAgent(&subscriber, &apply_cost), "agent");
  std::printf("Agent applied %lld txns / %lld changes "
              "(%.0f work units on the subscriber)\n\n",
              static_cast<long long>(repl.metrics().txns_applied),
              static_cast<long long>(repl.metrics().changes_applied),
              apply_cost.local_cost);

  auto rows = subscriber.Execute("SELECT id, name, price FROM tire_parts "
                                 "ORDER BY id");
  Must(rows.status(), "query");
  std::printf("Subscriber contents (tires only, no type column):\n");
  for (const Row& row : rows->rows) {
    std::printf("  %lld | %s | %s\n",
                static_cast<long long>(row[0].AsInt()),
                std::string(row[1].AsString()).c_str(),
                row[2].ToString().c_str());
  }
  std::printf("\nPropagation latency (commit to commit): %.2f s\n",
              repl.metrics().AvgLatency());

  // Updates that move rows across the article boundary.
  Must(publisher.ExecuteScript(
           "UPDATE part SET type = 'retired' WHERE id = 1"),
       "boundary update");
  Must(repl.RunOnce(nullptr, nullptr), "round");
  auto count = subscriber.Execute("SELECT COUNT(*) FROM tire_parts");
  Must(count.status(), "count");
  std::printf("After re-typing part 1 away from 'tire': %lld rows remain\n",
              static_cast<long long>(count->rows[0][0].AsInt()));
  std::printf("Publisher log after distribution (truncated): %lld records\n",
              static_cast<long long>(publisher.db().log().size()));
  return 0;
}
