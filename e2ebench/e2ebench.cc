// e2ebench: the end-to-end SQL workload benchmark through QueryServer.
//
// One process generates seeded skewed TPC-H data (z = 2, the paper's skew),
// starts a QueryServer configured for one workload, checks every template's
// result against a serial reference, warms up, and then drives a closed loop
// of queries for a fixed time. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (latency, throughput,
// CPU, memory, estimator error, ETA coverage, set-up time); with --trace 1
// the run is traced from the outside — spans around every call into a layer
// plus a per-query TelemetryCollector — and the metrics are per layer.
// README.md beside this file documents every workload and metric.
//
//   e2ebench --workload tpch_serial --seed 1 --seconds 10 --trace 0
//
// Exit status: 0 when every query passed every check, 1 when any check
// failed (the result line is still printed), 2 on bad arguments; a set-up
// error (dbgen, reference or planning failure) aborts. Nothing is printed in
// the last two cases.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "exec/plan.h"
#include "exec/worker_pool.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "server/query_server.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "storage/catalog.h"
#include "tpch/dbgen.h"

namespace qprog {
namespace e2ebench {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Template {
  const char* name;
  const char* sql;
  /// Output columns the query orders by (empty = no ORDER BY): the result
  /// must match the reference in this column sequence, not only as a
  /// multiset.
  std::vector<size_t> order_cols;
};

const Template kQ1 = {
    "q1",
    "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
    "sum(l_extendedprice) AS sum_base_price, "
    "sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price, "
    "avg(l_discount) AS avg_disc, count(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
    "GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus",
    {0, 1}};

const Template kQ3 = {
    "q3",
    "SELECT l_orderkey, o_orderdate, o_shippriority, "
    "sum(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM customer c, orders o, lineitem l "
    "WHERE c.c_mktsegment = 'BUILDING' AND c.c_custkey = o.o_custkey "
    "AND l.l_orderkey = o.o_orderkey "
    "AND o.o_orderdate < DATE '1995-03-15' "
    "AND l.l_shipdate > DATE '1995-03-15' "
    "GROUP BY l_orderkey, o_orderdate, o_shippriority",
    {}};

const Template kQ5 = {
    "q5",
    "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM customer c, orders o, lineitem l, supplier s, nation n, region r "
    "WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey "
    "AND l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey "
    "AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey "
    "AND r.r_name = 'ASIA' "
    "AND o.o_orderdate >= DATE '1994-01-01' "
    "AND o.o_orderdate < DATE '1995-01-01' "
    "GROUP BY n_name ORDER BY revenue DESC",
    {1}};

const Template kQ6 = {
    "q6",
    "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= DATE '1994-01-01' "
    "AND l_shipdate < DATE '1995-01-01' "
    "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
    {}};

const Template kQ10 = {
    "q10",
    "SELECT c_custkey, sum(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM orders o, customer c, lineitem l, nation n "
    "WHERE o.o_custkey = c.c_custkey AND l.l_orderkey = o.o_orderkey "
    "AND c.c_nationkey = n.n_nationkey "
    "AND o.o_orderdate >= DATE '1993-10-01' "
    "AND o.o_orderdate < DATE '1994-01-01' "
    "AND l.l_returnflag = 'R' GROUP BY c_custkey",
    {}};

const Template kQ12 = {
    "q12",
    "SELECT l_shipmode, count(*) FROM lineitem l, orders o "
    "WHERE l.l_orderkey = o.o_orderkey "
    "AND l.l_shipmode IN ('MAIL', 'SHIP') "
    "AND l.l_commitdate < l.l_receiptdate "
    "AND l.l_shipdate < l.l_commitdate "
    "AND l.l_receiptdate >= DATE '1994-01-01' "
    "AND l.l_receiptdate < DATE '1995-01-01' "
    "GROUP BY l_shipmode ORDER BY l_shipmode",
    {0}};

const Template kQ19 = {
    "q19",
    "SELECT sum(l_extendedprice * (1 - l_discount)) FROM lineitem l, part p "
    "WHERE l.l_partkey = p.p_partkey "
    "AND l.l_shipinstruct = 'DELIVER IN PERSON' "
    "AND l.l_shipmode IN ('AIR', 'REG AIR') AND ("
    "(p.p_brand = 'Brand#12' AND p.p_container IN ('SM CASE', 'SM BOX', "
    "'SM PACK', 'SM PKG') AND l.l_quantity BETWEEN 1 AND 11 AND p.p_size "
    "BETWEEN 1 AND 5) OR "
    "(p.p_brand = 'Brand#23' AND p.p_container IN ('MED BAG', 'MED BOX', "
    "'MED PKG', 'MED PACK') AND l.l_quantity BETWEEN 10 AND 20 AND p.p_size "
    "BETWEEN 1 AND 10) OR "
    "(p.p_brand = 'Brand#34' AND p.p_container IN ('LG CASE', 'LG BOX', "
    "'LG PACK', 'LG PKG') AND l.l_quantity BETWEEN 20 AND 30 AND p.p_size "
    "BETWEEN 1 AND 15))",
    {}};

const Template kGroupByPartkey = {
    "groupby_partkey",
    "SELECT l_partkey, count(*) AS n, sum(l_quantity) AS qty "
    "FROM lineitem GROUP BY l_partkey",
    {}};

const Template kGroupByOrderkey = {
    "groupby_orderkey",
    "SELECT l_orderkey, count(*) AS n, "
    "sum(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM lineitem GROUP BY l_orderkey",
    {}};

const Template kSortByPrice = {
    "sort_price",
    "SELECT l_orderkey, l_extendedprice FROM lineitem "
    "WHERE l_quantity < 10 ORDER BY l_extendedprice",
    {1}};

struct Workload {
  const char* name;
  /// An odd number of equally weighted templates, so the p50 and p90 ranks
  /// fall inside one template's latency cluster rather than between two.
  std::vector<Template> templates;
  size_t sessions = 1;
  /// Client slots, each a closed loop with one query outstanding.
  size_t outstanding = 1;
  /// Worker-pool threads; -1 = nproc - sessions - 1, which leaves one core
  /// to the client thread and the rest of the host; a pool that filled every
  /// core made latency far noisier (README.md, "Noise").
  int pool_threads = 0;
  size_t partitions = 0;
  GovernorOptions governor;
  /// SubmitOptions::soft_budget_rows of every query (0 = the server's
  /// default, the admission prediction).
  uint64_t soft_budget_rows = 0;
  /// total(Q) must equal the reference exactly (no spill, no revocation).
  bool exact_work = false;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w(4);
  w[0].name = "tpch_serial";
  w[0].templates = {kQ1, kQ3, kQ5, kQ6, kQ10, kQ12, kQ19};
  w[0].exact_work = true;

  w[1].name = "groupby_parallel";
  w[1].templates = {kQ1, kGroupByPartkey, kGroupByOrderkey};
  w[1].pool_threads = -1;
  w[1].partitions = 4;
  w[1].exact_work = true;

  // Every query asks for exactly the revocation floor, so the pool holds two
  // grants: the third session waits in Acquire for a release, and no grant
  // is ever revoked (see spill_revoke).
  w[2].name = "spill_fleet";
  w[2].templates = {kGroupByOrderkey, kGroupByPartkey, kQ3, kQ1,
                    kSortByPrice};
  w[2].sessions = 3;
  w[2].outstanding = 3;
  w[2].soft_budget_rows = 8000;
  w[2].governor.pool_rows = 2 * w[2].soft_budget_rows;
  w[2].governor.min_grant_rows = w[2].soft_budget_rows;

  // Not in BENCHMARK.json: spill_fleet with revocation. Grants follow the
  // admission prediction and are revoked down to 2000 rows between sessions,
  // which now and then aborts a revoked query (README.md, "A defect this
  // benchmark shows").
  w[3] = w[2];
  w[3].name = "spill_revoke";
  w[3].soft_budget_rows = 0;
  w[3].governor.pool_rows = 20000;
  w[3].governor.min_grant_rows = 2000;
  return w;
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// A time-bounded run keeps going past --seconds until this many timed
/// queries completed, so that ten lie beyond the p90 rank.
constexpr uint64_t kMinQueries = 100;
/// Set-ups per process; set-up time is their median.
constexpr int kSetupReps = 3;
/// dbgen seed. The database is fixed, like a TPC-H database, so that
/// run-to-run spread measures the program and not the data, and the
/// estimator-error metrics repeat exactly across runs; --seed varies the
/// query stream.
constexpr uint64_t kDataSeed = 19940704;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  double sf = 0.03;
  /// Stop after this many timed queries (0 = run for --seconds).
  uint64_t max_queries = 0;
  /// Self-test knob: corrupts three templates' references, one for each
  /// kind of result check (see CorruptReferences).
  bool corrupt_reference = false;
  std::string spill_dir = ".e2ebench_spill";
  std::string spans_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--corrupt-reference") {
      o->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    std::string v = argv[++i];
    if (key == "--workload") {
      o->workload = v;
    } else if (key == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (key == "--trace") {
      o->trace = std::atoi(v.c_str());
    } else if (key == "--sf") {
      o->sf = std::atof(v.c_str());
    } else if (key == "--max-queries") {
      o->max_queries = std::strtoull(v.c_str(), nullptr, 10);
    } else if (key == "--spill-dir") {
      o->spill_dir = v;
    } else if (key == "--spans-out") {
      o->spans_out = v;
    } else if (key == "--git-sha") {
      o->git_sha = v;
    } else if (key == "--source-digest") {
      o->source_digest = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (o->workload.empty() || (o->trace != 0 && o->trace != 1) ||
      (o->seconds <= 0 && o->max_queries == 0) || o->sf <= 0) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--sf F] [--max-queries N] "
                 "[--spill-dir D] [--spans-out FILE] "
                 "[--corrupt-reference]\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Linear interpolation between the closest ranks (p in [0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Result checks
// ---------------------------------------------------------------------------

/// Relative tolerance for DOUBLE values: partitioned and spilled aggregates
/// add the same terms in another order, which moves the last bits of a sum.
constexpr double kRelTol = 1e-9;

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == TypeId::kDouble || b.type() == TypeId::kDouble) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    return std::fabs(x - y) <=
           kRelTol * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a.EqualsForGrouping(b);
}

bool RowLess(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i].is_null() || b[i].is_null()) {
      if (a[i].is_null() != b[i].is_null()) return a[i].is_null();
      continue;
    }
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

/// Empty when `got` matches the reference: equal as multisets (`want_sorted`
/// is the reference sorted by RowLess) and, for ordered templates, equal in
/// the sequence of ORDER BY columns (ties may come out in any order).
std::string CompareRows(std::vector<Row> got, const std::vector<Row>& want,
                        const std::vector<Row>& want_sorted,
                        const std::vector<size_t>& order_cols) {
  if (got.size() != want.size()) {
    return StringPrintf("%zu rows, reference has %zu", got.size(),
                        want.size());
  }
  for (size_t i = 0; i < got.size() && !order_cols.empty(); ++i) {
    for (size_t c : order_cols) {
      if (!SameValue(got[i][c], want[i][c])) {
        return StringPrintf("row %zu out of order: %s vs reference %s", i,
                            RowToString(got[i]).c_str(),
                            RowToString(want[i]).c_str());
      }
    }
  }
  std::sort(got.begin(), got.end(), RowLess);
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameRow(got[i], want_sorted[i])) {
      return StringPrintf("row %s vs reference %s", RowToString(got[i]).c_str(),
                          RowToString(want_sorted[i]).c_str());
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Set-up: data, references, plan shapes, server
// ---------------------------------------------------------------------------

struct Reference {
  std::vector<Row> rows;         // in production order
  std::vector<Row> rows_sorted;  // sorted by RowLess
  uint64_t work = 0;  // total(Q) of the workload-shaped plan run serially
};

/// Operator names and tree edges of a template's plan under the workload's
/// PlanOptions, in pre-order (node id = index) — the shape the server runs,
/// used to turn a TelemetryCollector's inclusive times into self times.
struct PlanShape {
  std::vector<std::string> op;
  std::vector<std::vector<int>> children;
};

PlanShape ShapeOf(const PhysicalPlan& plan) {
  PlanShape s;
  for (const PhysicalOperator* node : plan.nodes()) {
    std::string label = node->label();
    s.op.push_back(label.substr(0, label.find('(')));
    std::vector<int> kids;
    for (size_t c = 0; c < node->num_children(); ++c) {
      kids.push_back(node->child(c)->node_id());
    }
    s.children.push_back(std::move(kids));
  }
  return s;
}

/// The reference rows come from the serial plan (no partitions, no pool, no
/// memory budget); the reference work from the workload-shaped plan run
/// serially, whose getnext counts the pooled run must reproduce exactly.
StatusOr<Reference> ComputeReference(const Database& db, const Template& t,
                                     size_t partitions) {
  Reference ref;
  QPROG_ASSIGN_OR_RETURN(PhysicalPlan plan, sql::PlanSql(t.sql, db));
  exec::DriveOptions d;
  d.collect_rows = true;
  exec::DriveResult r = exec::Drive(&plan, d);
  QPROG_RETURN_IF_ERROR(r.status);
  ref.rows = std::move(r.rows);
  ref.work = r.work;
  if (partitions > 1) {
    sql::PlanOptions po;
    po.partitions = partitions;
    QPROG_ASSIGN_OR_RETURN(PhysicalPlan shaped, sql::PlanSql(t.sql, db, po));
    exec::DriveResult rs = exec::Drive(&shaped, exec::DriveOptions{});
    QPROG_RETURN_IF_ERROR(rs.status);
    ref.work = rs.work;
  }
  ref.rows_sorted = ref.rows;
  std::sort(ref.rows_sorted.begin(), ref.rows_sorted.end(), RowLess);
  return ref;
}

struct Env {
  // Destruction runs bottom-up: the server drains before the pool and the
  // database it borrows go away.
  std::unique_ptr<Database> db;
  std::unique_ptr<WorkerPool> pool;
  std::unique_ptr<QueryServer> server;
  std::vector<Reference> refs;
  std::vector<PlanShape> shapes;
  ExecutionConfig config;
};

/// Counts every query the process submits and every check that failed.
struct Tally {
  std::mutex mu;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& what, const std::string& failure) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (failure.empty()) return;
    if (++failed <= 10) {
      std::fprintf(stderr, "CHECK FAILED %s: %s\n", what.c_str(),
                   failure.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// One query through the server
// ---------------------------------------------------------------------------

struct CheckpointSample {
  uint64_t work = 0;
  double eta = 0, eta_lo = 0, eta_hi = 0;
  uint64_t t_ns = 0;
};

struct QueryRun {
  size_t tmpl = 0;
  bool traced = false;
  uint64_t ticket = 0;
  uint64_t t_submit = 0;     // before Submit
  uint64_t t_submitted = 0;  // after Submit returned
  uint64_t t_done = 0;       // after Wait returned
  std::vector<CheckpointSample> cps;
  std::string bounds_failure;  // first Curr <= LB <= UB violation
  std::unique_ptr<TelemetryCollector> telemetry;
  QueryResult result;
};

/// Submits one query and waits for it. Every client slot has exactly one
/// query outstanding, so Wait returns when this ticket is done, never later
/// because of another ticket.
void RunQuery(QueryServer* server, const Workload& w, const Template& t,
              bool monitored, bool traced, QueryRun* run) {
  SubmitOptions so;
  so.monitored = monitored;
  so.soft_budget_rows = w.soft_budget_rows;
  if (traced) {
    run->telemetry = std::make_unique<TelemetryCollector>();
    so.telemetry = run->telemetry.get();
  }
  if (monitored) {
    so.checkpoint_listener = [run](const Checkpoint& cp) {
      CheckpointSample s;
      s.t_ns = MonotonicNanos();
      s.work = cp.work;
      s.eta = cp.eta_seconds;
      s.eta_lo = cp.eta_lo_seconds;
      s.eta_hi = cp.eta_hi_seconds;
      if (run->bounds_failure.empty() &&
          !(static_cast<double>(cp.work) <= cp.work_lb + 1e-9 &&
            cp.work_lb <= cp.work_ub + 1e-9)) {
        run->bounds_failure = StringPrintf(
            "Curr <= LB <= UB violated at work %llu: LB %.17g UB %.17g",
            static_cast<unsigned long long>(cp.work), cp.work_lb, cp.work_ub);
      }
      run->cps.push_back(s);
    };
  }
  run->traced = traced;
  run->t_submit = MonotonicNanos();
  run->ticket = server->Submit("bench", t.sql, std::move(so));
  run->t_submitted = MonotonicNanos();
  run->result = server->Wait(run->ticket);
  run->t_done = MonotonicNanos();
}

/// Empty when a monitored run passed: OK status, completed, bounds held at
/// every checkpoint, the reference's row count, and — where the workload
/// promises it — the reference's exact total(Q).
std::string CheckMonitored(const Workload& w, const Reference& ref,
                           const QueryRun& run) {
  const QueryResult& r = run.result;
  if (!r.status.ok()) return "status " + r.status.ToString();
  if (!r.report.completed()) return "run did not complete";
  if (!run.bounds_failure.empty()) return run.bounds_failure;
  if (r.report.root_rows != ref.rows.size()) {
    return StringPrintf("root_rows %llu, reference has %zu",
                        static_cast<unsigned long long>(r.report.root_rows),
                        ref.rows.size());
  }
  if (w.exact_work && r.report.total_work != ref.work) {
    return StringPrintf("total_work %llu, reference has %llu",
                        static_cast<unsigned long long>(r.report.total_work),
                        static_cast<unsigned long long>(ref.work));
  }
  if (r.report.FindEstimator("dne") < 0 || r.report.FindEstimator("safe") < 0) {
    return "report lacks the dne/safe estimators";
  }
  return "";
}

/// Runs every template once through the server, all submitted together when
/// the workload has several client slots, and checks each result.
void RunPass(const Workload& w, Env* env, bool monitored, Tally* tally) {
  const size_t n = w.templates.size();
  std::vector<QueryRun> runs(n);
  auto one = [&](size_t i) {
    runs[i].tmpl = i;
    RunQuery(env->server.get(), w, w.templates[i], monitored, false,
             &runs[i]);
  };
  if (w.outstanding > 1) {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) threads.emplace_back(one, i);
    for (std::thread& th : threads) th.join();
  } else {
    for (size_t i = 0; i < n; ++i) one(i);
  }
  for (size_t i = 0; i < n; ++i) {
    const Reference& ref = env->refs[i];
    std::string failure;
    if (monitored) {
      failure = CheckMonitored(w, ref, runs[i]);
    } else if (!runs[i].result.status.ok()) {
      failure = "status " + runs[i].result.status.ToString();
    } else {
      failure = CompareRows(std::move(runs[i].result.rows), ref.rows,
                            ref.rows_sorted, w.templates[i].order_cols);
    }
    tally->Add(StringPrintf("%s %s pass", w.templates[i].name,
                            monitored ? "warm-up" : "result"),
               failure);
  }
}

/// Corrupts one reference per kind of result check, each of which the result
/// pass must then report: the first template loses a row (row count), the
/// next ordered template has two rows of different order keys swapped
/// (ORDER BY sequence; the multiset is unchanged), and the next template
/// with a DOUBLE value outside its ORDER BY columns has it moved by about
/// 1e-6 relative, far beyond kRelTol (value comparison; the row count and
/// the order are unchanged).
void CorruptReferences(const Workload& w, std::vector<Reference>* refs) {
  auto resort = [](Reference* ref) {
    ref->rows_sorted = ref->rows;
    std::sort(ref->rows_sorted.begin(), ref->rows_sorted.end(), RowLess);
  };
  QPROG_CHECK(!(*refs)[0].rows.empty());
  (*refs)[0].rows.pop_back();
  resort(&(*refs)[0]);

  size_t swapped = 0;
  for (size_t t = 1; t < refs->size() && swapped == 0; ++t) {
    std::vector<Row>& rows = (*refs)[t].rows;
    for (size_t i = 0; i + 1 < rows.size() && swapped == 0; ++i) {
      for (size_t c : w.templates[t].order_cols) {
        if (!SameValue(rows[i][c], rows[i + 1][c])) {
          std::swap(rows[i], rows[i + 1]);
          swapped = t;
          break;
        }
      }
    }
  }
  QPROG_CHECK_MSG(swapped != 0, "no ordered template to corrupt");

  bool scaled = false;
  for (size_t t = 1; t < refs->size() && !scaled; ++t) {
    if (t == swapped) continue;
    const std::vector<size_t>& order = w.templates[t].order_cols;
    for (Row& row : (*refs)[t].rows) {
      for (size_t c = 0; c < row.size() && !scaled; ++c) {
        if (row[c].type() == TypeId::kDouble &&
            std::find(order.begin(), order.end(), c) == order.end()) {
          row[c] = Value::Double(row[c].AsDouble() * (1 + 1e-6) + 1e-6);
          scaled = true;
        }
      }
    }
    if (scaled) resort(&(*refs)[t]);
  }
  QPROG_CHECK_MSG(scaled, "no template with a DOUBLE value to corrupt");
}

/// Everything set-up covers: dbgen (indexes and stats included), the
/// references, the plan shapes, server start, the result pass (unmonitored,
/// under the workload's own configuration) and one monitored warm-up pass,
/// which also warms the admission priors.
void Setup(const Workload& w, const Options& o, Env* env, Tally* tally) {
  env->db = std::make_unique<Database>();
  tpch::TpchConfig cfg;
  cfg.scale_factor = o.sf;
  cfg.z = 2.0;
  cfg.seed = kDataSeed;
  Status s = tpch::GenerateTpch(cfg, env->db.get());
  QPROG_CHECK_MSG(s.ok(), "dbgen: %s", s.ToString().c_str());

  env->refs.clear();
  env->shapes.clear();
  sql::PlanOptions po;
  po.partitions = w.partitions;
  for (const Template& t : w.templates) {
    StatusOr<Reference> ref = ComputeReference(*env->db, t, w.partitions);
    QPROG_CHECK_MSG(ref.ok(), "reference %s: %s", t.name,
                    ref.status().ToString().c_str());
    env->refs.push_back(std::move(ref).value());
    StatusOr<PhysicalPlan> plan = sql::PlanSql(t.sql, *env->db, po);
    QPROG_CHECK(plan.ok());
    env->shapes.push_back(ShapeOf(plan.value()));
  }
  if (o.corrupt_reference) CorruptReferences(w, &env->refs);

  int threads = w.pool_threads;
  if (threads < 0) {
    threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) -
                              static_cast<int>(w.sessions) - 1);
  }
  env->config = ExecutionConfig{};
  if (threads > 0) {
    env->pool = std::make_unique<WorkerPool>(threads);
    env->config.worker_pool = env->pool.get();
  }
  env->config.partitions = w.partitions;

  ServerOptions so;
  static_cast<ExecutionConfig&>(so) = env->config;
  so.sessions = w.sessions;
  so.governor = w.governor;
  so.admission.seed = o.seed;
  so.spill_dir = o.spill_dir;
  env->server = std::make_unique<QueryServer>(env->db.get(), so);

  RunPass(w, env, /*monitored=*/false, tally);
  RunPass(w, env, /*monitored=*/true, tally);
}

// ---------------------------------------------------------------------------
// The timed closed loop
// ---------------------------------------------------------------------------

/// What one timed query leaves behind once checked.
struct QuerySummary {
  size_t tmpl = 0;
  bool traced = false;
  double latency_ms = 0;
  double submit_us = 0;
  double start_wait_ms = 0;
  uint64_t work = 0;
  uint64_t spill_work = 0;
  size_t checkpoints = 0;
  double dne_avg_abs_err = 0;
  double safe_max_ratio_err = 1;
  uint64_t eta_in = 0, eta_n = 0;            // band held the remaining time
  uint64_t eta_in_last = 0, eta_n_last = 0;  // same, last decile of work
  std::vector<double> eta_rel_widths;
  // Traced queries only:
  std::map<std::string, double> self_ms;  // per operator name
  double exec_ms = 0;                     // root operator's inclusive time
  uint64_t spill_bytes = 0;
  uint64_t spill_rows = 0;
};

QuerySummary Summarize(const Env& env, const QueryRun& run) {
  QuerySummary q;
  q.tmpl = run.tmpl;
  q.traced = run.traced;
  q.latency_ms = static_cast<double>(run.t_done - run.t_submit) / 1e6;
  q.submit_us = static_cast<double>(run.t_submitted - run.t_submit) / 1e3;
  uint64_t first = run.cps.empty() ? run.t_done : run.cps.front().t_ns;
  q.start_wait_ms = static_cast<double>(first - run.t_submitted) / 1e6;
  const ProgressReport& rep = run.result.report;
  q.work = rep.total_work;
  q.spill_work = rep.spill_work;
  q.checkpoints = rep.checkpoints.size();
  int dne = rep.FindEstimator("dne");
  int safe = rep.FindEstimator("safe");
  if (dne >= 0) q.dne_avg_abs_err = rep.Metrics(dne).avg_abs_err;
  if (safe >= 0) q.safe_max_ratio_err = rep.Metrics(safe).max_ratio_err;
  for (const CheckpointSample& cp : run.cps) {
    if (!std::isfinite(cp.eta_lo) || !std::isfinite(cp.eta_hi)) continue;
    double remaining = static_cast<double>(run.t_done - cp.t_ns) / 1e9;
    bool in = cp.eta_lo <= remaining && remaining <= cp.eta_hi;
    ++q.eta_n;
    q.eta_in += in;
    if (q.work > 0 && static_cast<double>(cp.work) >=
                          0.9 * static_cast<double>(q.work)) {
      ++q.eta_n_last;
      q.eta_in_last += in;
    }
    if (cp.eta > 0) q.eta_rel_widths.push_back((cp.eta_hi - cp.eta_lo) / cp.eta);
  }
  const TelemetryCollector* tc = run.telemetry.get();
  const PlanShape& shape = env.shapes[run.tmpl];
  if (tc != nullptr && tc->num_nodes() == shape.op.size()) {
    auto inclusive = [&](int n) {
      const OperatorStats& s = tc->stats(n);
      return static_cast<double>(s.open_ns + s.next_ns + s.close_ns);
    };
    for (size_t n = 0; n < shape.op.size(); ++n) {
      double self = inclusive(static_cast<int>(n));
      for (int c : shape.children[n]) self -= inclusive(c);
      q.self_ms[shape.op[n]] += std::max(0.0, self) / 1e6;
      q.spill_bytes += tc->stats(static_cast<int>(n)).spill_bytes;
      q.spill_rows += tc->stats(static_cast<int>(n)).spill_rows_written;
    }
    q.exec_ms = inclusive(0) / 1e6;
  } else if (tc != nullptr) {
    std::fprintf(stderr, "warning: traced query ran %zu nodes, plan has %zu\n",
                 tc->num_nodes(), shape.op.size());
  }
  return q;
}

/// Spans are kept in memory and written when the run ends. Timed spans carry
/// start/end on the benchmark's monotonic clock; spans derived from a
/// query's TelemetryCollector carry a duration only.
struct Span {
  uint64_t ticket = 0;
  std::string name;
  std::string parent;
  uint64_t start_ns = 0, end_ns = 0;  // 0/0 = duration-only
  double dur_ns = 0;
  std::string tmpl;  // template name, on root spans
};

Span TimedSpan(uint64_t ticket, std::string name, std::string parent,
               uint64_t start_ns, uint64_t end_ns) {
  Span s;
  s.ticket = ticket;
  s.name = std::move(name);
  s.parent = std::move(parent);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  return s;
}

Span DurationSpan(uint64_t ticket, std::string name, std::string parent,
                  double dur_ns) {
  Span s;
  s.ticket = ticket;
  s.name = std::move(name);
  s.parent = std::move(parent);
  s.dur_ns = dur_ns;
  return s;
}

struct LoopResult {
  std::vector<QuerySummary> queries;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t revocations = 0;
  std::vector<double> fleet_us;
  std::vector<Span> spans;
};

LoopResult RunLoop(const Workload& w, const Options& o, Env* env, bool traced,
                   double seconds, Tally* tally) {
  const size_t n_templates = w.templates.size();
  LoopResult out;
  std::mutex mu;
  uint64_t next = 0;
  bool stopped = false;
  // The query stream: rounds of every template once, each round in an order
  // drawn from --seed.
  std::mt19937_64 rng(o.seed);
  std::vector<size_t> round(n_templates);
  // An untraced run needs kMinQueries for its p90; a traced run needs an
  // even number of rounds, so every template runs traced and untraced
  // equally often.
  const uint64_t min_queries = traced ? 2 * n_templates : kMinQueries;
  const uint64_t round_multiple = traced ? 2 * n_templates : n_templates;
  const uint64_t start = MonotonicNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  const double cpu0 = CpuSeconds();
  const uint64_t rev0 = env->server->governor().revocations();

  auto slot = [&]() {
    for (;;) {
      QueryRun run;
      uint64_t i;
      {
        std::lock_guard<std::mutex> lock(mu);
        // Stop only on a round boundary, so every template runs equally
        // often and the percentile ranks stay inside one cluster.
        bool done = o.max_queries > 0
                        ? next >= o.max_queries
                        : next % round_multiple == 0 && next >= min_queries &&
                              MonotonicNanos() >= deadline;
        if (stopped || done) {
          stopped = true;
          return;
        }
        i = next++;
        if (i % n_templates == 0) {
          std::iota(round.begin(), round.end(), size_t{0});
          std::shuffle(round.begin(), round.end(), rng);
        }
        run.tmpl = round[i % n_templates];
      }
      // Traced runs alternate traced and untraced queries per template
      // (the template count is odd), giving the tracing overhead.
      bool trace_this = traced && ((i / n_templates) + run.tmpl) % 2 == 0;
      RunQuery(env->server.get(), w, w.templates[run.tmpl], true, trace_this,
               &run);
      std::string failure = CheckMonitored(w, env->refs[run.tmpl], run);
      tally->Add(StringPrintf("%s timed query", w.templates[run.tmpl].name),
                 failure);
      QuerySummary q = Summarize(*env, run);
      std::lock_guard<std::mutex> lock(mu);
      // Every query gets its root span (the client already times it); only
      // traced queries get children.
      const std::string qn = trace_this ? "query" : "query.untraced";
      out.spans.push_back(
          TimedSpan(run.ticket, qn, "", run.t_submit, run.t_done));
      out.spans.back().tmpl = w.templates[run.tmpl].name;
      if (trace_this) {
        out.spans.push_back(TimedSpan(run.ticket, "server.submit", qn,
                                      run.t_submit, run.t_submitted));
        uint64_t first = run.cps.empty() ? run.t_done : run.cps.front().t_ns;
        out.spans.push_back(TimedSpan(run.ticket, "server.start_wait", qn,
                                      run.t_submitted, first));
        out.spans.push_back(
            DurationSpan(run.ticket, "exec.run", qn, q.exec_ms * 1e6));
        for (const auto& [op, ms] : q.self_ms) {
          out.spans.push_back(DurationSpan(run.ticket, "exec.self." + op,
                                           "exec.run", ms * 1e6));
        }
      }
      out.queries.push_back(std::move(q));
    }
  };

  std::atomic<bool> sampling{traced};
  std::thread sampler;
  if (traced) {
    // Fleet() as an operator's dashboard would poll it.
    sampler = std::thread([&]() {
      while (sampling.load()) {
        uint64_t t0 = MonotonicNanos();
        FleetReport f = env->server->Fleet();
        double us = static_cast<double>(MonotonicNanos() - t0) / 1e3;
        {
          std::lock_guard<std::mutex> lock(mu);
          out.fleet_us.push_back(us);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  std::vector<std::thread> slots;
  for (size_t s = 0; s < w.outstanding; ++s) slots.emplace_back(slot);
  for (std::thread& th : slots) th.join();
  const uint64_t end = MonotonicNanos();
  sampling.store(false);
  if (sampler.joinable()) sampler.join();

  out.wall_s = static_cast<double>(end - start) / 1e9;
  out.cpu_s = CpuSeconds() - cpu0;
  out.revocations = env->server->governor().revocations() - rev0;
  return out;
}

/// Mean over templates of the per-template mean of `f` — with equal template
/// weights, a per-query mean that does not shift with how many of each
/// template a time-bounded run happened to finish. Each template's mean is
/// its first value plus the mean deviation from it, so a template whose
/// queries all give the same value (getnext counts on one session) yields
/// that value bit for bit, whatever the query count.
template <typename F>
double TemplateMean(const std::vector<QuerySummary>& qs, size_t n_templates,
                    F f) {
  std::vector<double> first(n_templates, 0), dev(n_templates, 0),
      cnt(n_templates, 0);
  for (const QuerySummary& q : qs) {
    double v = f(q);
    if (cnt[q.tmpl] == 0) first[q.tmpl] = v;
    dev[q.tmpl] += v - first[q.tmpl];
    cnt[q.tmpl] += 1;
  }
  std::vector<double> means;
  for (size_t t = 0; t < n_templates; ++t) {
    if (cnt[t] > 0) means.push_back(first[t] + dev[t] / cnt[t]);
  }
  return Mean(means);
}

// ---------------------------------------------------------------------------
// Traced legs outside the server
// ---------------------------------------------------------------------------

struct SqlLeg {
  double parse_us = 0;
  double plan_us = 0;
  std::vector<Span> spans;
};

/// sql::Parse and sql::PlanSelect with the workload's PlanOptions, repeated
/// per template; reports the mean over templates of the per-template median.
SqlLeg RunSqlLeg(const Workload& w, const Env& env, double seconds) {
  SqlLeg leg;
  const size_t n = w.templates.size();
  std::vector<std::vector<double>> parse(n), plan(n);
  sql::PlanOptions po;
  po.partitions = w.partitions;
  const uint64_t deadline =
      MonotonicNanos() + static_cast<uint64_t>(seconds * 1e9);
  for (int rep = 0; rep < 5 || MonotonicNanos() < deadline; ++rep) {
    for (size_t t = 0; t < n; ++t) {
      uint64_t t0 = MonotonicNanos();
      StatusOr<sql::SelectStmt> stmt = sql::Parse(w.templates[t].sql);
      uint64_t t1 = MonotonicNanos();
      QPROG_CHECK(stmt.ok());
      StatusOr<PhysicalPlan> p = sql::PlanSelect(stmt.value(), *env.db, po);
      uint64_t t2 = MonotonicNanos();
      QPROG_CHECK(p.ok());
      parse[t].push_back(static_cast<double>(t1 - t0) / 1e3);
      plan[t].push_back(static_cast<double>(t2 - t1) / 1e3);
      if (rep == 0) {
        leg.spans.push_back(TimedSpan(0, "sql.parse", "", t0, t1));
        leg.spans.push_back(TimedSpan(0, "sql.plan", "", t1, t2));
      }
    }
  }
  std::vector<double> pm, lm;
  for (size_t t = 0; t < n; ++t) {
    pm.push_back(Median(parse[t]));
    lm.push_back(Median(plan[t]));
  }
  leg.parse_us = Mean(pm);
  leg.plan_us = Mean(lm);
  return leg;
}

struct CoreLeg {
  double checkpoint_us = 0;
  double estimator_eval_us = 0;
  double monitor_overhead_pct = 0;
};

/// One SqlSession per template with the workload's engine configuration and
/// a MetricsRegistry: Execute and ExecuteMonitored alternate, giving the
/// checkpoint and estimator-evaluation histograms and the monitor overhead.
CoreLeg RunCoreLeg(const Workload& w, const Env& env, double seconds,
                   Tally* tally) {
  CoreLeg leg;
  const size_t n = w.templates.size();
  MetricsRegistry registry;
  sql::SessionOptions so;
  static_cast<ExecutionConfig&>(so) = env.config;
  so.metrics_registry = &registry;
  sql::SqlSession session(env.db.get(), so);
  std::vector<std::vector<double>> plain(n), monitored(n);
  const uint64_t deadline =
      MonotonicNanos() + static_cast<uint64_t>(seconds * 1e9);
  for (int rep = 0; rep < 1 || MonotonicNanos() < deadline; ++rep) {
    for (size_t t = 0; t < n; ++t) {
      for (int k = 0; k < 2; ++k) {
        bool mon = (k + rep) % 2 == 1;
        const Template& tm = w.templates[t];
        uint64_t t0 = MonotonicNanos();
        std::string failure;
        if (mon) {
          StatusOr<ProgressReport> r = session.ExecuteMonitored(tm.sql);
          if (!r.ok()) {
            failure = r.status().ToString();
          } else if (r->root_rows != env.refs[t].rows.size()) {
            failure = "root_rows differ from the reference";
          }
        } else {
          StatusOr<std::vector<Row>> r = session.Execute(tm.sql);
          if (!r.ok()) {
            failure = r.status().ToString();
          } else if (r->size() != env.refs[t].rows.size()) {
            failure = "row count differs from the reference";
          }
        }
        double ms = static_cast<double>(MonotonicNanos() - t0) / 1e6;
        tally->Add(StringPrintf("%s session leg", tm.name), failure);
        (mon ? monitored : plain)[t].push_back(ms);
      }
    }
  }
  double sum_plain = 0, sum_mon = 0;
  for (size_t t = 0; t < n; ++t) {
    sum_plain += Median(plain[t]);
    sum_mon += Median(monitored[t]);
  }
  leg.monitor_overhead_pct = 100.0 * (sum_mon / sum_plain - 1.0);
  if (const LatencyHistogram* h = registry.FindHistogram("checkpoint_ns")) {
    leg.checkpoint_us = h->mean() / 1e3;
  }
  if (const LatencyHistogram* h = registry.FindHistogram("estimator_eval_ns")) {
    leg.estimator_eval_us = h->mean() / 1e3;
  }
  return leg;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  // JSON has no infinity or NaN; a metric without samples reads 0.
  return std::isfinite(v) ? StringPrintf("%.17g", v) : std::string("0");
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::string line = StringPrintf(
        "{\"ticket\":%llu,\"name\":%s,\"parent\":%s",
        static_cast<unsigned long long>(s.ticket), JsonString(s.name).c_str(),
        JsonString(s.parent).c_str());
    if (s.end_ns > 0) {
      line += StringPrintf(",\"start_ns\":%llu,\"end_ns\":%llu",
                           static_cast<unsigned long long>(s.start_ns),
                           static_cast<unsigned long long>(s.end_ns));
    } else {
      line += ",\"dur_ns\":" + JsonNumber(s.dur_ns);
    }
    if (!s.tmpl.empty()) line += ",\"template\":" + JsonString(s.tmpl);
    line += "}\n";
    std::fputs(line.c_str(), f);
  }
  std::fclose(f);
}

std::vector<Metric> EndToEndMetrics(const Workload& w, const LoopResult& loop,
                                    double setup_s) {
  const size_t n = w.templates.size();
  std::vector<double> lat;
  double safe_max = 1;
  uint64_t eta_in = 0, eta_n = 0;
  for (const QuerySummary& q : loop.queries) {
    lat.push_back(q.latency_ms);
    safe_max = std::max(safe_max, q.safe_max_ratio_err);
    eta_in += q.eta_in;
    eta_n += q.eta_n;
  }
  double done = static_cast<double>(loop.queries.size());
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Percentile(lat, 0.5), "ms"},
      {"latency_p90_ms", Percentile(lat, 0.9), "ms"},
      {"throughput_qps", done / loop.wall_s, "1/s"},
      {"cpu_ms_per_query", 1e3 * loop.cpu_s / std::max(1.0, done), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"dne_abs_err_avg",
       TemplateMean(loop.queries, n,
                    [](const QuerySummary& q) { return q.dne_avg_abs_err; }),
       "fraction"},
      {"safe_ratio_err_max", safe_max, "ratio"},
      {"eta_coverage",
       eta_n > 0 ? static_cast<double>(eta_in) / static_cast<double>(eta_n)
                 : 0,
       "fraction"},
  };
}

const char* const kSelfTimeOps[] = {
    "SeqScan",       "Filter",           "Project",
    "HashJoin",      "HashAggregate",    "Sort",
    "PartialAggregate", "Exchange",      "FinalAggregate"};

std::vector<Metric> PerLayerMetrics(const Workload& w, const LoopResult& loop,
                                    const SqlLeg& sql_leg,
                                    const CoreLeg& core_leg,
                                    const Tally& tally) {
  const size_t n = w.templates.size();
  std::vector<QuerySummary> traced, untraced;
  for (const QuerySummary& q : loop.queries) {
    (q.traced ? traced : untraced).push_back(q);
  }
  std::vector<double> submit, start_wait, widths, attributed;
  uint64_t last_in = 0, last_n = 0;
  double untraced_ms = 0, untraced_work = 0;
  for (const QuerySummary& q : loop.queries) {
    submit.push_back(q.submit_us);
    start_wait.push_back(q.start_wait_ms);
    widths.insert(widths.end(), q.eta_rel_widths.begin(),
                  q.eta_rel_widths.end());
    last_in += q.eta_in_last;
    last_n += q.eta_n_last;
    if (q.traced) {
      // Covered: the Submit call plus the plan's inclusive execution time.
      attributed.push_back(
          std::min(1.0, (q.submit_us / 1e3 + q.exec_ms) / q.latency_ms));
    } else {
      untraced_ms += q.latency_ms;
      untraced_work += static_cast<double>(q.work);
    }
  }
  // Tracing overhead from per-template medians, traced vs untraced.
  double sum_traced = 0, sum_untraced = 0;
  for (size_t t = 0; t < n; ++t) {
    std::vector<double> a, b;
    for (const QuerySummary& q : loop.queries) {
      if (q.tmpl == t) (q.traced ? a : b).push_back(q.latency_ms);
    }
    if (a.empty() || b.empty()) continue;
    sum_traced += Median(a);
    sum_untraced += Median(b);
  }
  std::vector<Metric> m = {
      {"sql.parse_us", sql_leg.parse_us, "us"},
      {"sql.plan_us", sql_leg.plan_us, "us"},
      {"server.submit_us", Median(submit), "us"},
      {"server.start_wait_ms", Median(start_wait), "ms"},
      {"server.revocations", static_cast<double>(loop.revocations), "count"},
      {"server.fleet_report_us", Median(loop.fleet_us), "us"},
      {"exec.work_per_query",
       TemplateMean(loop.queries, n,
                    [](const QuerySummary& q) {
                      return static_cast<double>(q.work);
                    }),
       "count"},
      {"exec.ns_per_getnext",
       untraced_work > 0 ? 1e6 * untraced_ms / untraced_work : 0, "ns"},
  };
  for (const char* op : kSelfTimeOps) {
    m.push_back({std::string("exec.self_ms.") + op,
                 TemplateMean(traced, n,
                              [op](const QuerySummary& q) {
                                auto it = q.self_ms.find(op);
                                return it == q.self_ms.end() ? 0.0
                                                             : it->second;
                              }),
                 "ms"});
  }
  std::vector<Metric> rest = {
      {"exec.cpu_util", loop.cpu_s / loop.wall_s, "cpu_s/s"},
      {"exec.spill_work_per_query",
       TemplateMean(loop.queries, n,
                    [](const QuerySummary& q) {
                      return static_cast<double>(q.spill_work);
                    }),
       "count"},
      {"storage.spill_bytes_per_query",
       TemplateMean(traced, n,
                    [](const QuerySummary& q) {
                      return static_cast<double>(q.spill_bytes);
                    }),
       "B"},
      {"storage.spill_rows_per_query",
       TemplateMean(traced, n,
                    [](const QuerySummary& q) {
                      return static_cast<double>(q.spill_rows);
                    }),
       "count"},
      {"core.checkpoints_per_query",
       TemplateMean(loop.queries, n,
                    [](const QuerySummary& q) {
                      return static_cast<double>(q.checkpoints);
                    }),
       "count"},
      {"core.checkpoint_us", core_leg.checkpoint_us, "us"},
      {"core.estimator_eval_us", core_leg.estimator_eval_us, "us"},
      {"core.monitor_overhead_pct", core_leg.monitor_overhead_pct, "%"},
      {"obs.telemetry_overhead_pct",
       sum_untraced > 0 ? 100.0 * (sum_traced / sum_untraced - 1.0) : 0, "%"},
      {"obs.eta_rel_width", Median(widths), "ratio"},
      {"obs.eta_coverage_last_decile",
       last_n > 0 ? static_cast<double>(last_in) / static_cast<double>(last_n)
                  : 0,
       "fraction"},
      {"trace.attributed_frac", Median(attributed), "fraction"},
      {"failed_frac",
       static_cast<double>(tally.failed) /
           static_cast<double>(std::max<uint64_t>(1, tally.attempted)),
       "fraction"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  std::vector<Workload> all = Workloads();
  const Workload* w = nullptr;
  for (const Workload& cand : all) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(o.spill_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create spill dir %s\n", o.spill_dir.c_str());
    return 2;
  }

  Tally tally;
  // Set-up runs several times from scratch; set-up time is their median and
  // the last one's server serves the timed loop.
  std::vector<double> setup_times;
  auto env = std::make_unique<Env>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    env = std::make_unique<Env>();
    uint64_t t0 = MonotonicNanos();
    Setup(*w, o, env.get(), &tally);
    setup_times.push_back(static_cast<double>(MonotonicNanos() - t0) / 1e9);
  }

  std::vector<Metric> metrics;
  size_t timed_queries = 0;
  if (o.trace == 0) {
    LoopResult loop = RunLoop(*w, o, env.get(), false, o.seconds, &tally);
    timed_queries = loop.queries.size();
    metrics = EndToEndMetrics(*w, loop, Median(setup_times));
    if (!o.spans_out.empty()) WriteSpans(o.spans_out, loop.spans);
  } else {
    // The traced closed loop gets most of the time; the two legs outside
    // the server share the rest.
    LoopResult loop =
        RunLoop(*w, o, env.get(), true, 0.6 * o.seconds, &tally);
    timed_queries = loop.queries.size();
    SqlLeg sql_leg = RunSqlLeg(*w, *env, 0.1 * o.seconds);
    CoreLeg core_leg = RunCoreLeg(*w, *env, 0.3 * o.seconds, &tally);
    metrics = PerLayerMetrics(*w, loop, sql_leg, core_leg, tally);
    if (!o.spans_out.empty()) {
      std::vector<Span> spans = std::move(loop.spans);
      spans.insert(spans.end(), sql_leg.spans.begin(), sql_leg.spans.end());
      WriteSpans(o.spans_out, spans);
    }
  }
  env.reset();

  std::printf(
      "{\"provenance\":{\"git_sha\":%s,\"source_digest\":%s,"
      "\"build_type\":%s,\"compiler\":%s,\"nproc\":%u,\"workload\":%s,"
      "\"seed\":%llu,\"sf\":%s,\"seconds\":%s,\"trace\":%d,"
      "\"timed_queries\":%zu,\"setup_reps\":%d,\"runs\":1}}\n",
      JsonString(o.git_sha).c_str(), JsonString(o.source_digest).c_str(),
      JsonString(E2EBENCH_BUILD_TYPE).c_str(),
      JsonString(E2EBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(), JsonString(w->name).c_str(),
      static_cast<unsigned long long>(o.seed), JsonNumber(o.sf).c_str(),
      JsonNumber(o.seconds).c_str(), o.trace, timed_queries, kSetupReps);

  const bool correct = tally.failed == 0;
  std::string line = StringPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += StringPrintf("%s: {\"value\": %s, \"unit\": %s}",
                         JsonString(metrics[i].name).c_str(),
                         JsonNumber(metrics[i].value).c_str(),
                         JsonString(metrics[i].unit).c_str());
  }
  line += "}}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench
}  // namespace qprog

int main(int argc, char** argv) { return qprog::e2ebench::Main(argc, argv); }
