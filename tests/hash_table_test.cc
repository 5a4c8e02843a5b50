// Hash-table tests (DESIGN.md §18): the in-place key hash equals RowHash over
// the materialized key, RowHashTable keeps per-key insertion order, every
// hash operator matches its reference, and monitored TPC-H and spilling
// GROUP BY runs reproduce recorded checkpoint states, traces and rows
// (ctest -L hash).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/monitor.h"
#include "exec/aggregate.h"
#include "exec/exchange.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/row_hash_table.h"
#include "exec/scan.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sql/planner.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace qprog {
namespace {

using testutil::B;
using testutil::D;
using testutil::Dt;
using testutil::I;
using testutil::N;
using testutil::S;

// ---------------------------------------------------------------------------
// Hash identity: RowKey::Hash() == RowHash()(materialized key)
// ---------------------------------------------------------------------------

std::vector<ExprPtr> Cols(std::initializer_list<size_t> cols) {
  std::vector<ExprPtr> out;
  for (size_t c : cols) out.push_back(eb::Col(c));
  return out;
}

void ExpectHashIdentity(const std::vector<ExprPtr>& exprs, const Row& row) {
  RowKey key(exprs);
  key.Load(row);
  Row materialized;
  for (const ExprPtr& e : exprs) materialized.push_back(e->Eval(row));
  EXPECT_EQ(key.Hash(), RowHash()(materialized)) << RowToString(row);
  EXPECT_TRUE(RowEq()(key.Materialize(), materialized)) << RowToString(row);
  EXPECT_TRUE(key.Equals(materialized));
  bool any_null = false;
  for (const Value& v : materialized) any_null = any_null || v.is_null();
  EXPECT_EQ(key.HasNull(), any_null);
}

TEST(RowKeyTest, InPlaceHashEqualsRowHashForEveryType) {
  const std::string long_text(40, 'x');  // past the small-string buffer
  const Row row = {N(),           B(true),        B(false),   I(1),
                   D(1.0),        D(-0.0),        D(0.0),     Dt("1995-03-15"),
                   S("short"),    S(long_text),   I(-42),     D(2.5)};
  for (size_t c = 0; c < row.size(); ++c) {
    ExpectHashIdentity(Cols({c}), row);
  }
  // Multi-column keys, including repeated and NULL columns.
  ExpectHashIdentity(Cols({3, 8}), row);
  ExpectHashIdentity(Cols({0, 1, 7, 9}), row);
  ExpectHashIdentity(Cols({9, 9, 5, 2, 11}), row);
  // The zero-width key of a scalar aggregate.
  ExpectHashIdentity({}, row);
}

TEST(RowKeyTest, GroupingEqualValuesHashAlike) {
  // 1 (BIGINT) and 1.0 (DOUBLE) group together, as do -0.0 and 0.0.
  const Row row = {I(1), D(1.0), D(-0.0), D(0.0), I(0)};
  std::vector<size_t> hashes;
  for (size_t c : {0, 1}) {
    RowKey key(std::vector<size_t>{c});
    key.Load(row);
    hashes.push_back(key.Hash());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  RowKey neg(std::vector<size_t>{2});
  RowKey pos(std::vector<size_t>{3});
  RowKey zero(std::vector<size_t>{4});
  neg.Load(row);
  pos.Load(row);
  zero.Load(row);
  EXPECT_EQ(neg.Hash(), pos.Hash());
  EXPECT_EQ(neg.Hash(), zero.Hash());
  EXPECT_TRUE(neg.Equals(pos));
  EXPECT_TRUE(neg.Equals(zero));
}

TEST(RowKeyTest, ExpressionKeysHashLikeTheirValues) {
  const Row row = {I(7), S("abcdefghijklmnopqrstuvwxyz"), D(3.5), N()};
  std::vector<ExprPtr> exprs;
  exprs.push_back(eb::Add(eb::Col(0), eb::Int(1)));  // evaluated
  exprs.push_back(eb::Col(1));                       // read in place
  exprs.push_back(eb::Mul(eb::Col(2), eb::Dbl(2.0)));
  exprs.push_back(eb::Add(eb::Col(3), eb::Int(1)));  // NULL result
  ExpectHashIdentity(exprs, row);

  // The scratch row is reused: a second Load re-evaluates.
  RowKey key(exprs);
  key.Load(row);
  const size_t first = key.Hash();
  const Row other = {I(8), S("abcdefghijklmnopqrstuvwxyz"), D(3.5), I(1)};
  key.Load(other);
  EXPECT_NE(key.Hash(), first);
  EXPECT_FALSE(key.HasNull());
  ExpectHashIdentity(exprs, other);
}

// ---------------------------------------------------------------------------
// RowHashTable: per-key insertion order, growth, clear
// ---------------------------------------------------------------------------

// Inserts rows' column-0 keys; returns each key's entry chain.
std::vector<std::vector<uint32_t>> Chains(const RowHashTable& table,
                                          const std::vector<Row>& rows,
                                          const std::vector<Row>& probes) {
  RowKey stored(std::vector<size_t>{0});
  RowKey probe(std::vector<size_t>{0});
  std::vector<std::vector<uint32_t>> out;
  for (const Row& p : probes) {
    probe.Load(p);
    const RowHashTable::Slot* slot = table.Find(probe.Hash(), [&](uint32_t e) {
      stored.Load(rows[e]);
      return probe.Equals(stored);
    });
    std::vector<uint32_t> chain;
    if (slot != nullptr) {
      for (uint32_t e = slot->first; e != RowHashTable::kEnd; e = table.next(e)) {
        chain.push_back(e);
      }
      EXPECT_EQ(chain.size(), slot->count);
      EXPECT_EQ(chain.back(), slot->last);
    }
    out.push_back(chain);
  }
  return out;
}

void Insert(RowHashTable* table, std::vector<Row>* rows, Row row) {
  RowKey key(std::vector<size_t>{0});
  RowKey stored(std::vector<size_t>{0});
  key.Load(row);
  bool inserted = false;
  RowHashTable::Slot* slot = table->FindOrInsert(
      key.Hash(),
      [&](uint32_t e) {
        stored.Load((*rows)[e]);
        return key.Equals(stored);
      },
      &inserted);
  EXPECT_EQ(table->Append(slot), rows->size());
  rows->push_back(std::move(row));
}

TEST(RowHashTableTest, DuplicateKeysComeBackInInsertionOrder) {
  RowHashTable table;
  std::vector<Row> rows;
  // Keys b, a, b, c, a, b, with 1 and 1.0 as one key.
  for (const Row& r : std::vector<Row>{{S("b"), I(0)}, {S("a"), I(1)},
                                       {S("b"), I(2)}, {I(1), I(3)},
                                       {S("a"), I(4)}, {S("b"), I(5)},
                                       {D(1.0), I(6)}}) {
    Insert(&table, &rows, r);
  }
  EXPECT_EQ(table.num_keys(), 3u);
  auto chains = Chains(table, rows, {{S("b")}, {S("a")}, {I(1)}, {S("zz")}});
  EXPECT_EQ(chains[0], (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_EQ(chains[1], (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(chains[2], (std::vector<uint32_t>{3, 6}));
  EXPECT_TRUE(chains[3].empty());

  table.Clear();
  rows.clear();
  EXPECT_EQ(table.num_keys(), 0u);
  EXPECT_TRUE(Chains(table, rows, {{S("b")}})[0].empty());
  Insert(&table, &rows, {S("a"), I(0)});
  EXPECT_EQ(Chains(table, rows, {{S("a")}})[0], (std::vector<uint32_t>{0}));
}

TEST(RowHashTableTest, GrowsOverKeysSharingOneGracePartition) {
  // Keys whose RowHash all route to Grace partition 0 — the table a spilled
  // partition rebuilds — still spread and stay findable across growth.
  RowHashTable table;
  std::vector<Row> rows;
  std::vector<Row> probes;
  for (int64_t k = 0; probes.size() < 5000; ++k) {
    if (GracePartitionIndex(RowHash()(Row{I(k)}), 0, 8) != 0) continue;
    probes.push_back({I(k)});
    Insert(&table, &rows, {I(k), I(1)});
    Insert(&table, &rows, {I(k), I(2)});
  }
  EXPECT_EQ(table.num_keys(), 5000u);
  auto chains = Chains(table, rows, probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(chains[i].size(), 2u);
    EXPECT_EQ(rows[chains[i][0]][1].int64_value(), 1);
    EXPECT_EQ(rows[chains[i][1]][1].int64_value(), 2);
    EXPECT_TRUE(RowEq()(Row{rows[chains[i][0]][0]}, probes[i]));
  }
}

TEST(RowHashTableTest, AnUnfilledInsertSlotStaysEmpty) {
  RowHashTable table;
  std::vector<Row> keys;
  RowKey key(std::vector<size_t>{0});
  Row row = {I(5)};
  key.Load(row);
  bool inserted = false;
  FindGroup(&table, keys, key, &inserted);
  EXPECT_TRUE(inserted);  // left alone, as a spilled new key is
  EXPECT_EQ(table.num_keys(), 0u);
  RowHashTable::Slot* slot = FindGroup(&table, keys, key, &inserted);
  EXPECT_TRUE(inserted);
  AddGroup(&table, slot, &keys, key);
  FindGroup(&table, keys, key, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(table.num_keys(), 1u);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0][0].int64_value(), 5);
}

// ---------------------------------------------------------------------------
// Joins: HashJoin == NestedLoopsJoin, NULL keys never match
// ---------------------------------------------------------------------------

Table KeyedTable(const char* name, int rows, int domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> data;
  for (int i = 0; i < rows; ++i) {
    Value key = rng.Bernoulli(0.1) ? N() : I(rng.UniformInt(0, domain - 1));
    // Column 2 mixes the key's type: BIGINT on even rows, DOUBLE on odd.
    Value mixed = key.is_null() ? N()
                  : (i % 2 == 0)
                      ? key
                      : D(static_cast<double>(key.int64_value()));
    data.push_back({key, I(i), mixed});
  }
  return testutil::MakeTable(name, {"k", "tag", "km"}, std::move(data));
}

std::vector<Row> RunRows(PhysicalPlan* plan) {
  exec::DriveResult r = exec::Drive(plan, {.collect_rows = true});
  EXPECT_TRUE(r.ok()) << r.status;
  return std::move(r.rows);
}

TEST(HashJoinTableTest, EveryJoinTypeMatchesNestedLoops) {
  Table probe = KeyedTable("p", 300, 40, 11);
  Table build = KeyedTable("b", 200, 40, 12);
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    for (size_t build_col : {0u, 2u}) {  // BIGINT keys, then mixed 1 / 1.0
      SCOPED_TRACE(std::string(JoinTypeToString(type)) + " build col " +
                   std::to_string(build_col));
      // Residual over (probe ++ build): probe.tag < build.tag.
      PhysicalPlan nl(std::make_unique<NestedLoopsJoin>(
          std::make_unique<SeqScan>(&probe), std::make_unique<SeqScan>(&build),
          eb::And(eb::Eq(eb::Col(0), eb::Col(3 + build_col)),
                  eb::Lt(eb::Col(1), eb::Col(4))),
          type));
      std::vector<ExprPtr> pk, bk;
      pk.push_back(eb::Col(0));
      bk.push_back(eb::Col(build_col));
      PhysicalPlan hash(std::make_unique<HashJoin>(
          std::make_unique<SeqScan>(&probe), std::make_unique<SeqScan>(&build),
          std::move(pk), std::move(bk), type, eb::Lt(eb::Col(1), eb::Col(4))));
      std::vector<Row> expected = RunRows(&nl);
      std::vector<Row> got = RunRows(&hash);
      ASSERT_FALSE(expected.empty());
      // Both stream the probe side in order and emit one probe row's matches
      // in build order, so even the order agrees.
      EXPECT_EQ(testutil::RowsToString(got), testutil::RowsToString(expected));
    }
  }
}

TEST(HashJoinTableTest, ExpressionKeysMatchNestedLoops) {
  Table probe = KeyedTable("p", 200, 30, 21);
  Table build = KeyedTable("b", 150, 30, 22);
  // probe.k + 1 = build.k * 1 (both sides evaluated into scratch rows).
  PhysicalPlan nl(std::make_unique<NestedLoopsJoin>(
      std::make_unique<SeqScan>(&probe), std::make_unique<SeqScan>(&build),
      eb::Eq(eb::Add(eb::Col(0), eb::Int(1)), eb::Mul(eb::Col(3), eb::Int(1))),
      JoinType::kLeftOuter));
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Add(eb::Col(0), eb::Int(1)));
  bk.push_back(eb::Mul(eb::Col(0), eb::Int(1)));
  PhysicalPlan hash(std::make_unique<HashJoin>(
      std::make_unique<SeqScan>(&probe), std::make_unique<SeqScan>(&build),
      std::move(pk), std::move(bk), JoinType::kLeftOuter));
  EXPECT_EQ(testutil::RowsToString(RunRows(&hash)),
            testutil::RowsToString(RunRows(&nl)));
}

// ---------------------------------------------------------------------------
// Aggregates: group order
// ---------------------------------------------------------------------------

std::vector<AggregateDesc> CountSum() {
  std::vector<AggregateDesc> aggs;
  aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
  aggs.emplace_back(AggFunc::kSum, eb::Col(1), "total");
  return aggs;
}

Table OrderTable() {
  // Keys in first-seen order 3, NULL, 1.0 (== 1), 2.
  return testutil::MakeTable(
      "o", {"k", "v"},
      {{I(3), I(1)}, {N(), I(2)}, {D(1.0), I(3)}, {I(3), I(4)}, {I(2), I(5)},
       {I(1), I(6)}, {N(), I(7)}});
}

TEST(AggregateTableTest, HashAndPartialAggregateEmitFirstSeenOrder) {
  Table t = OrderTable();
  const char* expected = "(3, 2, 5)\n(NULL, 2, 9)\n(1, 2, 9)\n(2, 1, 5)\n";
  PhysicalPlan hash(std::make_unique<HashAggregate>(
      std::make_unique<SeqScan>(&t), Cols({0}), std::vector<std::string>{"k"},
      CountSum()));
  EXPECT_EQ(testutil::RowsToString(RunRows(&hash)), expected);
  PhysicalPlan partial(std::make_unique<PartialAggregate>(
      std::make_unique<SeqScan>(&t), Cols({0}), std::vector<std::string>{"k"},
      CountSum()));
  EXPECT_EQ(testutil::RowsToString(RunRows(&partial)), expected);
}

TEST(AggregateTableTest, FinalAggregateEmitsSortedGroups) {
  Table t = OrderTable();
  std::vector<OperatorPtr> producers;
  for (size_t p = 0; p < 2; ++p) {
    // Two range partitions of the table, each pre-aggregated.
    producers.push_back(std::make_unique<PartialAggregate>(
        std::make_unique<SeqScan>(&t, nullptr, p * 4,
                                  std::min<size_t>(t.num_rows(), p * 4 + 4)),
        Cols({0}), std::vector<std::string>{"k"}, CountSum()));
  }
  PhysicalPlan plan(std::make_unique<FinalAggregate>(
      std::make_unique<Exchange>(std::move(producers), std::vector<size_t>{0},
                                 2),
      1, std::vector<std::string>{"k"}, CountSum()));
  EXPECT_EQ(testutil::RowsToString(RunRows(&plan)),
            "(NULL, 2, 9)\n(1, 2, 9)\n(2, 1, 5)\n(3, 2, 5)\n");
}

// ---------------------------------------------------------------------------
// Recorded runs: checkpoint states, traces and rows
// ---------------------------------------------------------------------------

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

class RecordedRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.005;
    Status s = tpch::GenerateTpch(config, db_);
    QPROG_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  struct Config {
    size_t batch_size;
    int pool_threads;
  };

  /// One fingerprint of a run under `config`: the monitored run's trace
  /// JSONL, then every node's ProgressState fields the bounds read (among
  /// them max_multiplicity and groups_so_far) at each checkpoint of a
  /// second, observed run, then its per-node getnext counts, total(Q) and
  /// rows. `soft_budget` > 0 runs under that buffered-row budget with a
  /// SpillManager attached.
  static std::string Fingerprint(const std::function<PhysicalPlan()>& make_plan,
                                 const Config& config, uint64_t soft_budget,
                                 const std::string& tag) {
    constexpr uint64_t kInterval = 997;
    WorkerPool pool(config.pool_threads);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("qprog_hash_table_" + tag);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string out;
    {
      SpillManager spill(dir.string());
      QueryGuard guard;
      guard.set_max_buffered_rows(soft_budget);
      PhysicalPlan plan = make_plan();
      JsonlStringSink sink;
      TelemetryCollector collector(&sink);
      MonitorOptions mo;
      mo.telemetry = &collector;
      mo.batch_size = config.batch_size;
      mo.worker_pool = &pool;
      if (soft_budget > 0) {
        mo.guard = &guard;
        mo.spill_manager = &spill;
      }
      ProgressMonitor m =
          ProgressMonitor::WithEstimators(&plan, {"dne", "pmax", "safe"}, mo);
      ProgressReport report = m.Run(kInterval);
      EXPECT_TRUE(report.completed()) << tag;
      out += sink.data();
    }
    {
      SpillManager spill(dir.string());
      QueryGuard guard;
      guard.set_max_buffered_rows(soft_budget);
      PhysicalPlan plan = make_plan();
      ExecContext ctx;
      ctx.set_worker_pool(&pool);
      if (soft_budget > 0) {
        ctx.set_guard(&guard);
        ctx.set_spill_manager(&spill);
      }
      ctx.SetWorkObserver(kInterval, [&](uint64_t work) {
        out += "checkpoint " + std::to_string(work) + ":";
        for (PhysicalOperator* node : plan.nodes()) {
          ProgressState st;
          node->FillProgressState(ctx, &st);
          out += " [" + std::to_string(node->node_id()) + " " +
                 std::to_string(st.rows_produced) + " " +
                 std::to_string(st.build_done) + " " +
                 std::to_string(st.build_rows) + " " +
                 std::to_string(st.max_multiplicity) + " " +
                 std::to_string(st.groups_so_far) + " " +
                 std::to_string(st.spill_rows_pending) + " " +
                 std::to_string(st.spill_rows_unread) + "]";
        }
        out += "\n";
      });
      exec::DriveResult r =
          exec::Drive(&plan, {.ctx = &ctx,
                              .batch_size = config.batch_size,
                              .collect_rows = true});
      EXPECT_TRUE(r.ok()) << tag << ": " << r.status;
      out += "work " + std::to_string(r.work) + "\n";
      for (PhysicalOperator* node : plan.nodes()) {
        out += "node " + std::to_string(node->node_id()) + " " +
               std::to_string(ctx.rows_produced(node->node_id())) + "\n";
      }
      out += testutil::RowsToString(r.rows);
    }
    std::filesystem::remove_all(dir);
    return out;
  }

  /// Runs `make_plan` at batch {0, 1024} x pool {1, 4}: every fingerprint
  /// must be byte-identical, and its digest the recorded one.
  static void ExpectRecorded(const std::function<PhysicalPlan()>& make_plan,
                             uint64_t soft_budget, const std::string& tag,
                             uint64_t recorded_digest) {
    const std::string reference =
        Fingerprint(make_plan, {0, 1}, soft_budget, tag);
    EXPECT_EQ(Fnv1a(reference), recorded_digest)
        << tag << " (" << reference.size() << " bytes)";
    for (Config config : {Config{1024, 1}, Config{0, 4}, Config{1024, 4}}) {
      EXPECT_EQ(Fingerprint(make_plan, config, soft_budget, tag), reference)
          << tag << " at batch " << config.batch_size << ", pool "
          << config.pool_threads;
    }
  }

  static PhysicalPlan Tpch(int q) {
    StatusOr<PhysicalPlan> plan = tpch::BuildQuery(q, *db_);
    QPROG_CHECK(plan.ok());
    return std::move(plan).value();
  }

  static PhysicalPlan Sql(const std::string& query, size_t partitions) {
    StatusOr<PhysicalPlan> plan =
        sql::PlanSql(query, *db_, sql::PlanOptions{.partitions = partitions});
    QPROG_CHECK(plan.ok());
    return std::move(plan).value();
  }

  static Database* db_;
};

Database* RecordedRunTest::db_ = nullptr;

// The recorded digests were taken from the engine before RowHashTable, when
// every hash operator kept a Row-keyed std::unordered_map: the table change
// leaves getnext counts, checkpoints, traces and rows exactly as they were.

TEST_F(RecordedRunTest, TpchQ3) {
  ExpectRecorded([] { return Tpch(3); }, 0, "q3", 0x6A3D1CBEC37B7FA9ULL);
}

TEST_F(RecordedRunTest, TpchQ5) {
  ExpectRecorded([] { return Tpch(5); }, 0, "q5", 0x0F69E341C33C751AULL);
}

TEST_F(RecordedRunTest, TpchQ3WithSpilledJoin) {
  ExpectRecorded([] { return Tpch(3); }, 400, "q3_spill", 0x4598926C698BA201ULL);
}

TEST_F(RecordedRunTest, SpillingGroupBy) {
  ExpectRecorded(
      [] {
        return Sql(
            "SELECT l_orderkey, count(*), sum(l_quantity) FROM lineitem "
            "GROUP BY l_orderkey",
            0);
      },
      2000, "groupby_spill", 0xC061EC42C5BA693DULL);
}

TEST_F(RecordedRunTest, PartitionedGroupBy) {
  ExpectRecorded(
      [] {
        return Sql(
            "SELECT l_partkey, count(*), avg(l_extendedprice), "
            "min(l_shipdate) FROM lineitem GROUP BY l_partkey",
            4);
      },
      0, "groupby_exchange", 0x71EC27DD2AB50D46ULL);
}

}  // namespace
}  // namespace qprog
