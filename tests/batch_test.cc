// Batched execution byte-identity suite (DESIGN.md §15): the batch path is
// an exact emulation of the tuple-at-a-time engine, so rows, getnext
// counters, checkpoints, estimator scores, and v4 traces must be
// byte-identical at every batch size and pool size; mid-batch faults,
// cancellation, deadlines, and budget trips must split the batch at the
// exact row the tuple engine would have stopped at.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/monitor.h"
#include "exec/aggregate.h"
#include "exec/batch.h"
#include "exec/fault_injector.h"
#include "exec/filter_project.h"
#include "exec/join.h"
#include "exec/plan.h"
#include "exec/query_guard.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "exec/worker_pool.h"
#include "index/ordered_index.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"
#include "tests/test_util.h"

namespace qprog {
namespace {

using testutil::I;
using testutil::S;

const size_t kBatchSizes[] = {1, 64, 1024};
const int kPoolSizes[] = {1, 4};

/// n rows of (i, i mod buckets), scrambled enough that filters select
/// non-contiguous prefixes.
Table Numbers(int64_t n, int64_t buckets) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows.push_back({I(i), I(i % buckets)});
  return testutil::MakeTable("t", {"a", "b"}, std::move(rows));
}

/// scan -> filter(b > cut) -> project(b, a): the fully fused chain shape.
PhysicalPlan FusablePlan(const Table* t, int64_t cut) {
  auto scan = std::make_unique<SeqScan>(t);
  auto filter = std::make_unique<Filter>(
      std::move(scan), eb::Gt(eb::Col(1, "b"), eb::Int(cut)));
  std::vector<ExprPtr> exprs;
  exprs.push_back(eb::Col(1, "b"));
  exprs.push_back(eb::Col(0, "a"));
  return PhysicalPlan(std::make_unique<Project>(
      std::move(filter), std::move(exprs),
      std::vector<std::string>{"b", "a"}));
}

PhysicalPlan JoinPlan(const Table* probe, const Table* build, JoinType type) {
  std::vector<ExprPtr> pk, bk;
  pk.push_back(eb::Col(1));
  bk.push_back(eb::Col(1));
  // Fusable probe subtree (scan -> filter), so the batched join exercises
  // the fused in-memory probe pulls.
  auto probe_scan = std::make_unique<SeqScan>(probe);
  auto probe_filter = std::make_unique<Filter>(
      std::move(probe_scan), eb::Gt(eb::Col(0, "a"), eb::Int(-1)));
  return PhysicalPlan(std::make_unique<HashJoin>(
      std::move(probe_filter), std::make_unique<SeqScan>(build),
      std::move(pk), std::move(bk), type));
}

struct RunResult {
  std::string rows;
  uint64_t work = 0;
  std::vector<uint64_t> node_rows;
  StatusCode code = StatusCode::kOk;
};

/// Runs `make_plan` batched (0 = tuple) and snapshots everything the
/// accounting contract promises is batch-size-invariant.
RunResult RunBatched(const std::function<PhysicalPlan()>& make_plan,
                     size_t batch_size,
                     const std::function<void(ExecContext*)>& configure =
                         nullptr) {
  PhysicalPlan plan = make_plan();
  ExecContext ctx;
  if (configure) configure(&ctx);
  std::vector<Row> rows;
  exec::Drive(&plan,
              {.ctx = &ctx,
               .batch_size = batch_size,
               .sink = [&rows](const Row& r) { rows.push_back(r); }});
  RunResult result;
  result.rows = testutil::RowsToString(rows);
  result.work = ctx.work();
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    result.node_rows.push_back(ctx.rows_produced(static_cast<int>(i)));
  }
  result.code = ctx.status().code();
  return result;
}

void ExpectSameRun(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.rows, want.rows) << "output rows diverged";
  EXPECT_EQ(got.work, want.work) << "total work diverged";
  EXPECT_EQ(got.node_rows, want.node_rows) << "per-node counters diverged";
  EXPECT_EQ(got.code, want.code) << "termination status diverged";
}

// ---------------------------------------------------------------------------
// Plain execution identity
// ---------------------------------------------------------------------------

TEST(BatchIdentityTest, FusedScanFilterProjectMatchesTupleExactly) {
  Table t = Numbers(5000, 97);
  auto make = [&] { return FusablePlan(&t, 30); };
  RunResult reference = RunBatched(make, 0);
  ASSERT_EQ(reference.code, StatusCode::kOk);
  EXPECT_EQ(reference.work, 5000u + reference.node_rows[1]);  // scan + filter
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs), reference);
  }
}

TEST(BatchIdentityTest, LimitStopsAtTheSameRowAndWork) {
  // A limit mid-chain must not let the batch overscan: stopping after k rows
  // has to leave cursor_/work exactly where the tuple engine leaves them.
  Table t = Numbers(5000, 97);
  auto make = [&] {
    auto scan = std::make_unique<SeqScan>(&t);
    auto filter = std::make_unique<Filter>(
        std::move(scan), eb::Gt(eb::Col(1, "b"), eb::Int(50)));
    return PhysicalPlan(std::make_unique<Limit>(std::move(filter), 123));
  };
  RunResult reference = RunBatched(make, 0);
  ASSERT_EQ(reference.code, StatusCode::kOk);
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs), reference);
  }
}

TEST(BatchIdentityTest, MergedScanPredicateCountsEveryExaminedRow) {
  // Predicate pushed into the scan: batch kernels must keep charging one
  // getnext per *examined* base row, not per emitted row.
  Table t = Numbers(3000, 10);
  auto make = [&] {
    auto scan = std::make_unique<SeqScan>(
        &t, eb::Eq(eb::Col(1, "b"), eb::Int(3)));
    std::vector<ExprPtr> exprs;
    exprs.push_back(eb::Col(0, "a"));
    return PhysicalPlan(std::make_unique<Project>(
        std::move(scan), std::move(exprs), std::vector<std::string>{"a"}));
  };
  RunResult reference = RunBatched(make, 0);
  ASSERT_EQ(reference.code, StatusCode::kOk);
  EXPECT_EQ(reference.node_rows[1], 3000u);  // every base row examined
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs), reference);
  }
}

TEST(BatchIdentityTest, HashJoinProbeMatchesForEveryJoinType) {
  Table probe = Numbers(700, 60);
  Table build = Numbers(500, 60);
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    SCOPED_TRACE(JoinTypeToString(type));
    auto make = [&] { return JoinPlan(&probe, &build, type); };
    RunResult reference = RunBatched(make, 0);
    ASSERT_EQ(reference.code, StatusCode::kOk);
    for (size_t bs : kBatchSizes) {
      SCOPED_TRACE("batch=" + std::to_string(bs));
      ExpectSameRun(RunBatched(make, bs), reference);
    }
  }
}

TEST(BatchIdentityTest, AggregateRootRunsThroughTheGenericAdapter) {
  // HashAggregate has no native NextBatch: the default adapter must still
  // produce identical rows and counters at every batch size.
  Table t = Numbers(2000, 37);
  auto make = [&] {
    std::vector<ExprPtr> groups;
    groups.push_back(eb::Col(1));
    std::vector<AggregateDesc> aggs;
    aggs.emplace_back(AggFunc::kCount, nullptr, "cnt");
    aggs.emplace_back(AggFunc::kSum, eb::Col(0), "total");
    return PhysicalPlan(std::make_unique<HashAggregate>(
        std::make_unique<SeqScan>(&t), std::move(groups),
        std::vector<std::string>{"g"}, std::move(aggs)));
  };
  RunResult reference = RunBatched(make, 0);
  ASSERT_EQ(reference.code, StatusCode::kOk);
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs), reference);
  }
}

// ---------------------------------------------------------------------------
// Paper identities (Section 2.2) at every batch size
// ---------------------------------------------------------------------------

TEST(BatchIdentityTest, Example2TotalHoldsAtEveryBatchSize) {
  // total(Q) = N + 1 + matches, the paper's Example 2 identity, must come
  // out of the batched drivers unchanged.
  const int64_t n = 2000;
  const int64_t matches = 500;
  std::vector<Row> r1_rows;
  for (int64_t i = 0; i < n; ++i) r1_rows.push_back({I(i + 1000000)});
  r1_rows[n / 2] = {I(42)};
  Table r1 = testutil::MakeTable("r1", {"a"}, std::move(r1_rows));
  std::vector<Row> r2_rows;
  for (int64_t i = 0; i < matches; ++i) r2_rows.push_back({I(42)});
  for (int64_t i = matches; i < n; ++i) r2_rows.push_back({I(-i)});
  Table r2 = testutil::MakeTable("r2", {"b"}, std::move(r2_rows));
  OrderedIndex idx(&r2, 0);
  auto make = [&] {
    auto scan = std::make_unique<SeqScan>(&r1);
    auto sigma = std::make_unique<Filter>(
        std::move(scan), eb::Eq(eb::Col(0, "a"), eb::Int(42)));
    auto seek = std::make_unique<IndexSeek>(&idx);
    return PhysicalPlan(std::make_unique<IndexNestedLoopsJoin>(
        std::move(sigma), std::move(seek), eb::Col(0, "a")));
  };
  for (size_t bs : {size_t{0}, size_t{1}, size_t{64}, size_t{1024},
                    size_t{4096}}) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    RunResult r = RunBatched(make, bs);
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_EQ(r.work, static_cast<uint64_t>(n + 1 + matches));
  }
}

// ---------------------------------------------------------------------------
// Monitored runs: checkpoints, scores, mu, and traces
// ---------------------------------------------------------------------------

TEST(BatchIdentityTest, MonitoredTraceByteIdenticalAcrossBatchAndPoolSizes) {
  // The strongest statement of the §15 contract: the full typed trace —
  // every checkpoint, bound refinement, spill event and estimator
  // evaluation — is byte-identical at every (batch size, pool size), so a
  // replayed score from a batched parallel run is the tuple serial score.
  std::vector<Row> rows;
  for (int64_t i = 899; i >= 0; --i) rows.push_back({I(i % 101), I(i)});
  Table t = testutil::MakeTable("k", {"k", "v"}, std::move(rows));
  std::string reference_trace;
  std::string reference_tsv;
  uint64_t reference_total = 0;
  double reference_mu = 0;
  bool have_reference = false;
  for (int threads : kPoolSizes) {
    for (size_t bs : {size_t{0}, size_t{1}, size_t{64}, size_t{1024}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(bs));
      std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("qprog_batch_trace_" + std::to_string(threads) + "_" +
           std::to_string(bs));
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      SpillManager spill(dir.string());
      QueryGuard guard;
      guard.set_max_buffered_rows(64);
      WorkerPool pool(threads);
      std::vector<SortKey> keys;
      keys.emplace_back(eb::Col(0));
      PhysicalPlan plan(std::make_unique<Sort>(std::make_unique<SeqScan>(&t),
                                               std::move(keys)));
      JsonlStringSink sink;
      TelemetryCollector collector(&sink);
      MonitorOptions mo;
      mo.guard = &guard;
      mo.spill_manager = &spill;
      mo.worker_pool = &pool;
      mo.telemetry = &collector;
      mo.batch_size = bs;
      ProgressMonitor m =
          ProgressMonitor::WithEstimators(&plan, {"dne", "pmax", "safe"}, mo);
      ProgressReport r = m.Run(100);
      ASSERT_TRUE(r.completed()) << r.status.ToString();
      for (const Checkpoint& cp : r.checkpoints) {
        // Curr <= LB <= UB must hold at every checkpoint on the batch path.
        EXPECT_LE(static_cast<double>(cp.work), cp.work_lb + 1e-9);
        EXPECT_LE(cp.work_lb, cp.work_ub + 1e-9);
      }
      if (!have_reference) {
        have_reference = true;
        reference_trace = sink.data();
        reference_tsv = r.ToTsv();
        reference_total = r.total_work;
        reference_mu = r.mu;
        EXPECT_FALSE(reference_trace.empty());
      } else {
        EXPECT_EQ(sink.data(), reference_trace) << "trace diverged";
        EXPECT_EQ(r.ToTsv(), reference_tsv) << "estimator scores diverged";
        EXPECT_EQ(r.total_work, reference_total) << "total(Q) diverged";
        EXPECT_EQ(r.mu, reference_mu) << "mu diverged";
      }
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(BatchIdentityTest, CheckpointWorkValuesIdenticalForFusedChain) {
  Table t = Numbers(5000, 97);
  auto run = [&](size_t bs) {
    PhysicalPlan plan = FusablePlan(&t, 30);
    MonitorOptions mo;
    mo.batch_size = bs;
    ProgressMonitor m =
        ProgressMonitor::WithEstimators(&plan, {"dne", "safe"}, mo);
    ProgressReport r = m.Run(500);
    EXPECT_TRUE(r.completed()) << r.status.ToString();
    std::vector<uint64_t> works;
    for (const Checkpoint& cp : r.checkpoints) works.push_back(cp.work);
    return std::make_tuple(works, r.ToTsv(), r.mu);
  };
  auto reference = run(0);
  ASSERT_FALSE(std::get<0>(reference).empty());
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    EXPECT_EQ(run(bs), reference);
  }
}

// ---------------------------------------------------------------------------
// Mid-batch splits: fault, cancel, deadline, budget
// ---------------------------------------------------------------------------

TEST(BatchSplitTest, InjectedFaultSurfacesAtTheExactRow) {
  Table t = Numbers(5000, 97);
  for (const char* site : {faults::kSeqScanNext, faults::kFilterNext,
                           faults::kProjectNext}) {
    SCOPED_TRACE(site);
    // Fire mid-way through a 1024-batch so the split lands inside a batch.
    FaultInjector fi(11);
    FaultSpec spec;
    spec.site = site;
    spec.fail_on_hit = 700;
    fi.Arm(spec);
    auto configure = [&](ExecContext* ctx) {
      fi.Reset();  // identical hit schedule for every run
      ctx->set_fault_injector(&fi);
    };
    auto make = [&] { return FusablePlan(&t, 30); };
    RunResult reference = RunBatched(make, 0, configure);
    ASSERT_EQ(reference.code, StatusCode::kInternal);
    for (size_t bs : kBatchSizes) {
      SCOPED_TRACE("batch=" + std::to_string(bs));
      ExpectSameRun(RunBatched(make, bs, configure), reference);
    }
  }
}

TEST(BatchSplitTest, TransientFaultSplitsLikePermanent) {
  // Operator-site faults are sticky execution errors either way; the batch
  // must stop on the same hit index regardless of the fault class.
  Table t = Numbers(4000, 53);
  FaultInjector fi(7);
  FaultSpec spec;
  spec.site = faults::kSeqScanNext;
  spec.fail_on_hit = 1234;
  spec.fault_class = FaultClass::kTransient;
  spec.transient_failures = 2;
  fi.Arm(spec);
  auto configure = [&](ExecContext* ctx) {
    fi.Reset();
    ctx->set_fault_injector(&fi);
  };
  auto make = [&] { return FusablePlan(&t, 10); };
  RunResult reference = RunBatched(make, 0, configure);
  ASSERT_NE(reference.code, StatusCode::kOk);
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs, configure), reference);
  }
}

TEST(BatchSplitTest, MidBatchCancelHonoredAtTheSameWorkCrossing) {
  Table t = Numbers(6000, 97);
  QueryGuard guard;
  auto configure = [&](ExecContext* ctx) {
    guard.ResetCancel();
    ctx->set_guard(&guard);
    // Cancel at a work crossing that lands mid-1024-batch; the observer runs
    // synchronously inside CountRow, so the request is raised at exactly the
    // same row at every batch size.
    ctx->SetWorkObserver(64, [&](uint64_t work) {
      if (work >= 3000) guard.RequestCancel();
    });
  };
  auto make = [&] { return FusablePlan(&t, 5); };
  RunResult reference = RunBatched(make, 0, configure);
  ASSERT_EQ(reference.code, StatusCode::kCancelled);
  EXPECT_GT(reference.work, 0u);
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs, configure), reference);
  }
}

TEST(BatchSplitTest, ExpiredDeadlineTripsAtTheFirstGuardCheck) {
  // An already-expired deadline trips at the first guard-check crossing —
  // a fixed work index, so the batched runs must stop at the same row.
  Table t = Numbers(4000, 97);
  QueryGuard guard;
  guard.set_check_interval(128);
  guard.set_deadline(QueryGuard::Clock::now() - std::chrono::milliseconds(1));
  auto configure = [&](ExecContext* ctx) { ctx->set_guard(&guard); };
  auto make = [&] { return FusablePlan(&t, 5); };
  RunResult reference = RunBatched(make, 0, configure);
  ASSERT_EQ(reference.code, StatusCode::kDeadlineExceeded);
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs, configure), reference);
  }
}

TEST(BatchSplitTest, WorkBudgetExhaustsOnTheSameRow) {
  Table t = Numbers(5000, 97);
  QueryGuard guard;
  guard.set_max_work(2777);  // lands mid-batch at size 1024
  auto configure = [&](ExecContext* ctx) { ctx->set_guard(&guard); };
  auto make = [&] { return FusablePlan(&t, 5); };
  RunResult reference = RunBatched(make, 0, configure);
  ASSERT_EQ(reference.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(reference.work, 2777u);
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs, configure), reference);
  }
}

// ---------------------------------------------------------------------------
// Telemetry equivalence and SQL-session parity
// ---------------------------------------------------------------------------

TEST(BatchTelemetryTest, CallAndRowCountersMatchTupleTelemetry) {
  // Per-batch telemetry must preserve tuple-exact next_calls (including the
  // final end-observing call) and rows_returned for every node.
  Table t = Numbers(3000, 97);
  auto collect = [&](size_t bs) {
    PhysicalPlan plan = FusablePlan(&t, 30);
    TelemetryCollector collector;
    ExecContext ctx;
    ctx.set_telemetry(&collector);
    exec::Drive(&plan, {.ctx = &ctx, .batch_size = bs});
    std::vector<std::pair<uint64_t, uint64_t>> per_node;
    for (size_t i = 0; i < plan.num_nodes(); ++i) {
      const OperatorStats& s = collector.stats(static_cast<int>(i));
      per_node.emplace_back(s.next_calls, s.rows_returned);
    }
    return per_node;
  };
  auto reference = collect(0);
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    EXPECT_EQ(collect(bs), reference);
  }
  // And the batch path actually batched: far fewer NextBatch calls than
  // rows at size 1024.
  PhysicalPlan plan = FusablePlan(&t, 30);
  TelemetryCollector collector;
  ExecContext ctx;
  ctx.set_telemetry(&collector);
  uint64_t produced =
      exec::Drive(&plan, {.ctx = &ctx, .batch_size = 1024}).root_rows;
  ASSERT_GT(produced, 1024u);
  const OperatorStats& root = collector.stats(0);
  EXPECT_GT(root.next_batches, 0u);
  EXPECT_LT(root.next_batches, produced / 512);
}

TEST(BatchSessionTest, SqlSessionResultsIdenticalWithBatchingOn) {
  Database db;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back({I(i), I(i % 13), S("name-" + std::to_string(i % 7))});
  }
  QPROG_CHECK(
      db.AddTable(testutil::MakeTable("items", {"id", "grp", "name"},
                                      std::move(rows)))
          .ok());
  const char* kQueries[] = {
      "SELECT id, name FROM items WHERE grp = 3",
      "SELECT grp, COUNT(*) FROM items GROUP BY grp ORDER BY grp",
      "SELECT id FROM items WHERE id < 100 LIMIT 17",
  };
  for (const char* query : kQueries) {
    SCOPED_TRACE(query);
    sql::SessionOptions tuple_opts;
    sql::SqlSession tuple_session(&db, tuple_opts);
    auto want = tuple_session.Execute(query);
    ASSERT_TRUE(want.ok()) << want.status();
    for (size_t bs : kBatchSizes) {
      SCOPED_TRACE("batch=" + std::to_string(bs));
      sql::SessionOptions batch_opts;
      batch_opts.batch_size = bs;
      sql::SqlSession session(&db, batch_opts);
      auto got = session.Execute(query);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(testutil::RowsToString(got.value()),
                testutil::RowsToString(want.value()));
    }
    // Monitored runs: scores and totals are batch-size-invariant too.
    sql::QueryOptions qo;
    auto want_report = tuple_session.ExecuteMonitored(query, qo);
    ASSERT_TRUE(want_report.ok()) << want_report.status();
    sql::SessionOptions batch_opts;
    batch_opts.batch_size = 1024;
    sql::SqlSession session(&db, batch_opts);
    auto got_report = session.ExecuteMonitored(query, qo);
    ASSERT_TRUE(got_report.ok()) << got_report.status();
    EXPECT_EQ(got_report->total_work, want_report->total_work);
    EXPECT_EQ(got_report->root_rows, want_report->root_rows);
    EXPECT_EQ(got_report->ToTsv(), want_report->ToTsv());
  }
}

// ---------------------------------------------------------------------------
// Pruned scans (DESIGN.md §17): narrower rows, same fused kernels
// ---------------------------------------------------------------------------

/// Monitored run with a typed trace: (trace, estimator scores, total(Q)).
std::tuple<std::string, std::string, uint64_t> TracedRun(
    const std::function<PhysicalPlan()>& make_plan, size_t batch_size) {
  PhysicalPlan plan = make_plan();
  JsonlStringSink sink;
  TelemetryCollector collector(&sink);
  MonitorOptions mo;
  mo.telemetry = &collector;
  mo.batch_size = batch_size;
  ProgressMonitor m =
      ProgressMonitor::WithEstimators(&plan, {"dne", "pmax", "safe"}, mo);
  ProgressReport r = m.Run(100);
  EXPECT_TRUE(r.completed()) << r.status.ToString();
  return {sink.data(), r.ToTsv(), r.total_work};
}

/// Rows, counters and the full trace at batch {1, 64, 1024} match the tuple
/// path's byte for byte.
void ExpectBatchIdentity(const std::function<PhysicalPlan()>& make) {
  RunResult reference = RunBatched(make, 0);
  ASSERT_EQ(reference.code, StatusCode::kOk);
  ASSERT_FALSE(reference.rows.empty());
  auto reference_trace = TracedRun(make, 0);
  ASSERT_FALSE(std::get<0>(reference_trace).empty());
  for (size_t bs : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(bs));
    ExpectSameRun(RunBatched(make, bs), reference);
    EXPECT_EQ(TracedRun(make, bs), reference_trace) << "trace diverged";
  }
}

class PrunedScanBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Row> fact;
    for (int64_t i = 0; i < 3000; ++i) {
      fact.push_back({I(i), I(i % 41), I((i * 7919) % 1000),
                      S("note-" + std::to_string(i % 13))});
    }
    std::vector<Row> dim;
    for (int64_t g = 0; g < 41; g += 2) {
      dim.push_back({I(g), S("label-" + std::to_string(g)),
                     S("filler-" + std::to_string(g * 3))});
    }
    QPROG_CHECK(db_.AddTable(testutil::MakeTable(
                                 "fact", {"id", "grp", "pad", "note"},
                                 std::move(fact)))
                    .ok());
    QPROG_CHECK(db_.AddTable(testutil::MakeTable(
                                 "dim", {"grp", "label", "filler"},
                                 std::move(dim)))
                    .ok());
    HistogramStatisticsGenerator gen(8);
    for (const std::string& name : db_.TableNames()) {
      db_.SetStats(name, gen.Generate(*db_.GetTable(name)));
    }
  }

  PhysicalPlan Plan(const std::string& query) const {
    StatusOr<PhysicalPlan> plan = sql::PlanSql(query, db_);
    QPROG_CHECK_MSG(plan.ok(), "%s", plan.status().ToString().c_str());
    return std::move(plan.value());
  }

  Database db_;
};

TEST_F(PrunedScanBatchTest, SqlProjectOverPrunedScanStaysFused) {
  const std::string query = "SELECT note, id FROM fact WHERE pad < 700";
  PhysicalPlan plan = Plan(query);
  ASSERT_EQ(plan.num_nodes(), 2u) << plan.ToString();
  ASSERT_EQ(plan.root()->kind(), OpKind::kProject);
  const auto* scan = static_cast<const SeqScan*>(plan.nodes()[1]);
  ASSERT_TRUE(scan->pruned());
  EXPECT_EQ(scan->output_schema().num_fields(), 2u);  // id, note
  EXPECT_NE(FusedChain::TryBuild(plan.root()), nullptr);
  ExpectBatchIdentity([&] { return Plan(query); });
}

TEST_F(PrunedScanBatchTest, HashJoinProbeOverPrunedScanStaysFused) {
  // The planner's join shape — pruned scans on both sides — as the root, so
  // the batched join pulls its probe side through the fused kernel.
  const Table* fact = db_.GetTable("fact");
  const Table* dim = db_.GetTable("dim");
  auto make = [&] {
    auto probe = std::make_unique<SeqScan>(
        fact, eb::Lt(eb::Col(2, "pad"), eb::Int(900)));
    probe->set_output_columns({0, 1, 3});  // id, grp, note
    auto build = std::make_unique<SeqScan>(dim);
    build->set_output_columns({0, 1});  // grp, label
    std::vector<ExprPtr> pk, bk;
    pk.push_back(eb::Col(1, "grp"));
    bk.push_back(eb::Col(0, "grp"));
    return PhysicalPlan(std::make_unique<HashJoin>(
        std::move(probe), std::move(build), std::move(pk), std::move(bk),
        JoinType::kInner));
  };
  PhysicalPlan plan = make();
  EXPECT_EQ(plan.root()->output_schema().num_fields(), 5u);
  EXPECT_NE(FusedChain::TryBuild(plan.root()->child(0)), nullptr);
  ExpectBatchIdentity(make);

  // The SQL form of the same join: pruned on both sides, identical rows.
  const std::string query =
      "SELECT f.id, f.note, d.label FROM fact f, dim d "
      "WHERE f.grp = d.grp AND f.pad < 900";
  PhysicalPlan sql_plan = Plan(query);
  for (const PhysicalOperator* op : sql_plan.nodes()) {
    if (op->kind() == OpKind::kSeqScan) {
      EXPECT_TRUE(static_cast<const SeqScan*>(op)->pruned())
          << sql_plan.ToString();
    }
  }
  ExpectBatchIdentity([&] { return Plan(query); });
}

TEST_F(PrunedScanBatchTest, FilterAndLimitOverPrunedScanGatherIntoTheSlot) {
  // Only pass-through levels above the leaf: the pruned scan gathers
  // straight into the batch slot, and a Project deeper down reads scratch.
  const Table* fact = db_.GetTable("fact");
  auto make_filter = [&] {
    auto scan = std::make_unique<SeqScan>(
        fact, eb::Gt(eb::Col(2, "pad"), eb::Int(100)));
    scan->set_output_columns({3, 1});  // note, grp
    auto filter = std::make_unique<Filter>(
        std::move(scan), eb::Lt(eb::Col(1, "grp"), eb::Int(20)));
    return PhysicalPlan(std::make_unique<Limit>(std::move(filter), 900));
  };
  PhysicalPlan plan = make_filter();
  EXPECT_NE(FusedChain::TryBuild(plan.root()), nullptr);
  ExpectBatchIdentity(make_filter);

  auto make_project = [&] {
    auto scan = std::make_unique<SeqScan>(fact);
    scan->set_output_columns({1, 3});  // grp, note
    auto filter = std::make_unique<Filter>(
        std::move(scan), eb::Eq(eb::Col(0, "grp"), eb::Int(5)));
    std::vector<ExprPtr> exprs;
    exprs.push_back(eb::Col(1, "note"));
    return PhysicalPlan(std::make_unique<Project>(
        std::move(filter), std::move(exprs),
        std::vector<std::string>{"note"}));
  };
  ExpectBatchIdentity(make_project);
}

}  // namespace
}  // namespace qprog
