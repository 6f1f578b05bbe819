// ssb_bench: the one SSB benchmark every speed claim in this repository is
// measured with. perfbench/README.md documents the workloads, the metrics,
// which per-layer metric should move which end-to-end metric, and the
// reference figures; perfbench/run.py builds this binary and runs it.
//
//   ssb_bench --workload hot-cs --seed 7 --seconds 10 --trace 0
//
// One workload per process. A run sets its store up three times (setup_s
// is the median), checks every answer it gets against a computation made
// apart from the engine, measures closed-loop clients for --seconds, and
// prints one JSON line as the last line of stdout:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones. A traced run alternates traced and untraced
// rounds, so the tracing overhead is measured in the same process. All
// timing is taken here, around the bench's own calls into each module's
// public functions; nothing inside the engine is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gather.h"
#include "core/scan.h"
#include "engine/engine.h"
#include "plan/physical.h"
#include "plan/validate.h"
#include "shard/scatter.h"
#include "shard/sharded_store.h"
#include "ssb/generator.h"
#include "ssb/mutations.h"
#include "ssb/queries.h"
#include "ssb/reference.h"
#include "util/rng.h"

using namespace cstore;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

constexpr const char* kWorkloads[] = {"hot-cs", "cold-io", "mixed-rw",
                                      "concurrent-shared"};

constexpr const char* kUsage =
    "usage: ssb_bench --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n"
    "                 [--trace-out PATH]\n"
    "\n"
    "  --workload   hot-cs | cold-io | mixed-rw | concurrent-shared\n"
    "  --seed       seed of the generated SSB data and mutation stream\n"
    "               (default 1)\n"
    "  --seconds    length of the measured phase (default 10)\n"
    "  --trace      0: print end-to-end metrics; 1: print per-layer metrics\n"
    "               from a run that alternates traced and untraced rounds\n"
    "  --trace-out  with --trace 1, write the recorded spans here (JSON "
    "lines)\n";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseUnsigned(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

/// Parses argv into `args`. Returns an exit code when the process should
/// stop (0 after --help, 2 on a bad command line), nullopt to run.
std::optional<int> ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "ssb_bench: %s needs a value\n%s", flag.c_str(),
                   kUsage);
      return 2;
    }
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &n)) {
      args->seed = n;
    } else if (flag == "--seconds" && ParseUnsigned(value, &n) && n >= 1 &&
               n <= 3600) {
      args->seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "ssb_bench: bad flag or value: %s %s\n%s",
                   flag.c_str(), value.c_str(), kUsage);
      return 2;
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                args->workload) == std::end(kWorkloads)) {
    std::fprintf(stderr, "ssb_bench: unknown or missing --workload '%s'\n%s",
                 args->workload.c_str(), kUsage);
    return 2;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Tracing: spans around the bench's calls into each layer, kept in memory.
// ---------------------------------------------------------------------------

/// Name of the span around one measured round of a client.
constexpr const char* kRoundSpan = "round";

class Tracer {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    double start = 0;
    double end = 0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  /// Whether the calling thread's current round is traced.
  static void SetThreadActive(bool active) { t_active_ = active; }

  void Enable() { enabled_ = true; }

  /// Opens a span on the calling thread (its parent is the innermost open
  /// span there). Returns -1 when tracing is off for this thread.
  int64_t Begin(const char* layer, const char* name, uint64_t request) {
    if (!enabled_ || !t_active_) return -1;
    const int64_t parent = t_stack_.empty() ? -1 : t_stack_.back();
    std::lock_guard<std::mutex> lock(mu_);
    if (request == 0 && parent >= 0) {
      request = spans_[static_cast<size_t>(parent)].request;
    }
    spans_.push_back(Span{layer, name, Now(), 0, parent, request});
    const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
    t_stack_.push_back(id);
    return id;
  }

  void End(int64_t id) {
    const double end = Now();
    t_stack_.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = end;
  }

  /// Self time (duration minus the time its child spans cover) summed per
  /// layer, in milliseconds, over the spans inside measured rounds (set-up
  /// and the oracles are left out). A span's children run on its own
  /// thread one after another, so they never overlap.
  std::map<std::string, double> SelfMsByLayer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    std::vector<size_t> root(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // A parent opens before its children, so its root is already known.
      root[i] = s.parent < 0 ? i : root[static_cast<size_t>(s.parent)];
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (std::strcmp(spans_[root[i]].name, kRoundSpan) != 0) continue;
      self[s.layer] += std::max(0.0, s.end - s.start - child[i]) * 1e3;
    }
    return self;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes every span as one JSON object per line (times in microseconds
  /// from the first span).
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": %lld, \"request\": %llu, "
                   "\"layer\": \"%s\", \"name\": \"%s\", \"start_us\": %.1f, "
                   "\"end_us\": %.1f}\n",
                   i, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.layer, s.name,
                   (s.start - t0) * 1e6, (s.end - t0) * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  static thread_local bool t_active_;
  static thread_local std::vector<int64_t> t_stack_;
  bool enabled_ = false;
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

thread_local bool Tracer::t_active_ = true;
thread_local std::vector<int64_t> Tracer::t_stack_;

Tracer g_tracer;
std::atomic<uint64_t> g_next_request{1};

class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, uint64_t request = 0)
      : id_(g_tracer.Begin(layer, name, request)) {}
  ~ScopedSpan() {
    if (id_ >= 0) g_tracer.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Quantile by linear interpolation between order statistics (0 for an
/// empty sample).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The mix's latency quantile: each plan's own quantile over its samples,
/// averaged over the plans. Every pass runs every plan once, so each plan
/// weighs the same; unlike a quantile of the pooled samples, the figure
/// does not jump when a plan's latency crosses another's.
double MixQuantile(const std::map<std::string, std::vector<double>>& by_plan,
                   double q) {
  if (by_plan.empty()) return 0;
  double sum = 0;
  for (const auto& [id, samples] : by_plan) sum += Quantile(samples, q);
  return sum / static_cast<double>(by_plan.size());
}

double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

// ---------------------------------------------------------------------------
// Workload specifications.
// ---------------------------------------------------------------------------

/// Everything that sets a workload's input apart. Thread counts are totals:
/// no workload runs more than four threads at once.
struct Spec {
  double scale_factor = 0.25;
  unsigned shards = 1;
  col::CompressionMode compression = col::CompressionMode::kFull;
  bool build_rows = false;
  /// Buffer-pool frames per shard (column store, and row store when built).
  size_t pool_pages = 4096;
  /// Simulated device bandwidth (0 = free I/O).
  double disk_mbps = 0;
  /// Threads a set-up or merge encodes columns with.
  unsigned load_threads = 4;
  /// cold-io: the client's thread budget per query. Three, not four: the
  /// simulated disk busy-waits, and with every core spinning any other load
  /// on the machine stretched whole runs by 30-50%.
  unsigned query_threads = 1;
};

Spec SpecFor(const std::string& workload) {
  Spec s;
  if (workload == "cold-io") {
    s.shards = 4;
    s.build_rows = true;
    s.pool_pages = 48;
    s.disk_mbps = 200;
    s.query_threads = 3;
  } else if (workload == "mixed-rw") {
    s.shards = 4;
    s.pool_pages = 1024;
    // Merges rebuild beside two one-thread readers: 2 + 2 threads.
    s.load_threads = 2;
  } else if (workload == "concurrent-shared") {
    s.compression = col::CompressionMode::kNone;
    s.pool_pages = 256;
    s.disk_mbps = 200;
  }
  return s;
}

/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr unsigned kMaxThreads = 4;

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

struct Built {
  ssb::SsbData base;  ///< the generated data, for the oracles
  std::unique_ptr<shard::ShardedStore> store;
  double generate_s = 0;
  double open_s = 0;
};

Built SetUp(const Spec& spec, uint64_t seed) {
  ScopedSpan span("bench", "setup");
  Built b;
  ssb::GenParams params;
  params.scale_factor = spec.scale_factor;
  params.seed = seed;
  double t0 = Now();
  ssb::SsbData data;
  {
    ScopedSpan s("ssb", "Generate");
    data = ssb::Generate(params);
  }
  b.generate_s = Now() - t0;
  b.base = data;

  shard::ShardedStore::Options options;
  options.num_shards = spec.shards;
  options.store.build_column = true;
  options.store.build_rows = spec.build_rows;
  options.store.compression = spec.compression;
  options.store.pool_pages = spec.pool_pages;
  options.store.load_threads = spec.load_threads;
  // StoreOptions::pool_pages does not reach the row store (Store::
  // BuildVersion passes row_options through), so the row pool is set to
  // the same per-shard budget here.
  options.store.row_options.pool_pages = spec.pool_pages;
  options.store.row_options.load_threads = spec.load_threads;
  t0 = Now();
  {
    ScopedSpan s("shard", "ShardedStore::Open");
    auto opened = shard::ShardedStore::Open(std::move(data), options);
    if (!opened.ok()) {
      std::fprintf(stderr, "ssb_bench: ShardedStore::Open failed: %s\n",
                   opened.status().ToString().c_str());
      std::exit(1);
    }
    b.store = std::move(opened).ValueOrDie();
  }
  b.open_s = Now() - t0;
  if (spec.disk_mbps > 0) {
    for (const auto& shard : b.store->Pin().shards) {
      shard.version->column_db->files().SetSimulatedDiskBandwidth(
          spec.disk_mbps);
      if (shard.version->row_db != nullptr) {
        shard.version->row_db->files().SetSimulatedDiskBandwidth(
            spec.disk_mbps);
      }
    }
  }
  return b;
}

uint64_t FileManagerBytes(const storage::FileManager& files) {
  uint64_t bytes = 0;
  for (size_t f = 0; f < files.num_files(); ++f) {
    bytes += files.FileBytes(static_cast<storage::FileId>(f));
  }
  return bytes;
}

/// Bytes in every built database's files, all shards.
double StoredMb(shard::ShardedStore* store) {
  uint64_t bytes = 0;
  for (const auto& shard : store->Pin().shards) {
    bytes += FileManagerBytes(shard.version->column_db->files());
    if (shard.version->row_db != nullptr) {
      bytes += FileManagerBytes(shard.version->row_db->files());
    }
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

template <typename Fn>
void ForEachPool(shard::ShardedStore* store, Fn fn) {
  for (const auto& shard : store->Pin().shards) {
    fn(shard.version->column_db->pool());
    if (shard.version->row_db != nullptr) fn(shard.version->row_db->pool());
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Queries and their oracle.
// ---------------------------------------------------------------------------

/// fig_scale's orderdate probes: SUM(revenue) by year over an orderdate
/// window the shard manifest can prune on.
plan::Plan YearProbe(const std::string& id, int64_t lo_year, int64_t hi_year) {
  return plan::PlanBuilder(id)
      .Scan("lineorder")
      .Join("date", "orderdate", "datekey")
      .Where(plan::Predicate::IntRange("lineorder", "orderdate",
                                       lo_year * 10000 + 101,
                                       hi_year * 10000 + 1231))
      .GroupBy("date", "year")
      .Sum("lineorder", "revenue")
      .Build();
}

struct Probe {
  int64_t lo_year;
  int64_t hi_year;
};

/// Reference hashes of `plans` over `data` (ssb::ReferenceExecute: hash
/// maps and row loops over the generated vectors, not the engine).
std::map<std::string, uint64_t> ReferenceHashes(
    const ssb::SsbData& data, const std::vector<plan::Plan>& plans) {
  std::map<std::string, uint64_t> hashes;
  for (const plan::Plan& p : plans) {
    ScopedSpan span("ssb", "ReferenceExecute");
    hashes[p.id()] = ssb::ReferenceExecute(data, p).Hash();
  }
  return hashes;
}

[[noreturn]] void WrongAnswer(const plan::Plan& p, const std::string& where,
                              const std::string& detail) {
  std::fprintf(stderr, "ssb_bench: WRONG ANSWER: query %s (%s): %s\n%s\n",
               p.id().c_str(), where.c_str(), detail.c_str(),
               p.ToString().c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

std::string HashPair(uint64_t got, uint64_t want) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "hash %016llx, expected %016llx",
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  return buf;
}

// ---------------------------------------------------------------------------
// Per-client tallies.
// ---------------------------------------------------------------------------

/// What one client thread measured; merged after the threads join.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Latencies by plan id.
  using ByPlan = std::map<std::string, std::vector<double>>;
  ByPlan cs_ms;        ///< CS queries, the end-to-end series
  ByPlan parallel_ms;  ///< hot-cs (traced): CS at four threads
  ByPlan row_ms;       ///< cold-io: design T
  std::vector<double> insert_ms;
  std::vector<double> delete_ms;
  std::vector<double> merge_s;
  std::vector<double> traced_ms;    ///< CS samples of traced rounds
  std::vector<double> untraced_ms;  ///< CS samples of untraced rounds

  uint64_t queries = 0;  ///< successful queries, every design
  uint64_t cs_queries = 0;
  core::QueryStats cs_sum;   ///< summed over CS queries
  core::QueryStats all_sum;  ///< summed over every query
  double budget_sum = 0;
  uint64_t shards_pruned = 0;
  double skew_sum = 0;
  uint64_t skew_n = 0;
  double unmerged_sum = 0;
  uint64_t unmerged_n = 0;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    using Samples = std::vector<double> Tally::*;
    for (ByPlan Tally::*m : {&Tally::cs_ms, &Tally::parallel_ms,
                             &Tally::row_ms}) {
      for (const auto& [id, v] : o.*m) {
        std::vector<double>& dst = (this->*m)[id];
        dst.insert(dst.end(), v.begin(), v.end());
      }
    }
    for (Samples s : {&Tally::insert_ms, &Tally::delete_ms, &Tally::merge_s,
                      &Tally::traced_ms, &Tally::untraced_ms}) {
      (this->*s).insert((this->*s).end(), (o.*s).begin(), (o.*s).end());
    }
    queries += o.queries;
    cs_queries += o.cs_queries;
    cs_sum += o.cs_sum;
    all_sum += o.all_sum;
    budget_sum += o.budget_sum;
    shards_pruned += o.shards_pruned;
    skew_sum += o.skew_sum;
    skew_n += o.skew_n;
    unmerged_sum += o.unmerged_sum;
    unmerged_n += o.unmerged_n;
  }
};

enum class Series { kCs, kParallel, kRow };

/// Runs one query through `session`, timing the Session::Run call. Returns
/// the outcome, or nullopt when the engine returned a non-OK Status (a
/// failed operation).
std::optional<engine::QueryOutcome> RunQuery(engine::Session* session,
                                             const plan::Plan& p,
                                             Series series, bool traced,
                                             Tally* t) {
  ++t->attempted;
  const uint64_t request = g_next_request.fetch_add(1);
  const double t0 = Now();
  Result<engine::QueryOutcome> r = [&] {
    ScopedSpan span(series == Series::kRow ? "row" : "engine",
                    "Session::Run", request);
    return session->Run(p);
  }();
  const double ms = (Now() - t0) * 1e3;
  if (!r.ok()) {
    ++t->failed;
    std::fprintf(stderr, "ssb_bench: query %s failed: %s\n", p.id().c_str(),
                 r.status().ToString().c_str());
    return std::nullopt;
  }
  engine::QueryOutcome out = std::move(r).ValueOrDie();
  ++t->queries;
  t->all_sum += out.stats;
  t->budget_sum += out.thread_budget;
  switch (series) {
    case Series::kCs:
      t->cs_ms[p.id()].push_back(ms);
      (traced ? t->traced_ms : t->untraced_ms).push_back(ms);
      break;
    case Series::kParallel:
      t->parallel_ms[p.id()].push_back(ms);
      break;
    case Series::kRow:
      t->row_ms[p.id()].push_back(ms);
      break;
  }
  if (series != Series::kRow) {
    ++t->cs_queries;
    t->cs_sum += out.stats;
  }
  uint64_t max_examined = 0;
  uint64_t sum_examined = 0;
  uint64_t live = 0;
  for (const core::ShardBill& bill : out.shard_bills) {
    if (bill.pruned) {
      ++t->shards_pruned;
      continue;
    }
    ++live;
    max_examined = std::max(max_examined, bill.stats.values_examined);
    sum_examined += bill.stats.values_examined;
  }
  if (live > 0 && sum_examined > 0) {
    t->skew_sum += static_cast<double>(max_examined) * static_cast<double>(live) /
                   static_cast<double>(sum_examined);
    ++t->skew_n;
  }
  return out;
}

/// Runs `fn(traced)` for whole rounds until `deadline`. In a traced run,
/// odd rounds are untraced, so traced and untraced samples interleave.
template <typename Fn>
void RunRounds(double deadline, bool trace, Fn fn) {
  uint64_t round = 0;
  do {
    const bool traced = trace && round % 2 == 0;
    Tracer::SetThreadActive(traced);
    {
      ScopedSpan span("bench", kRoundSpan);
      fn(traced);
    }
    ++round;
  } while (Now() < deadline);
  Tracer::SetThreadActive(true);
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs): direct calls into plan, core and shard.
// ---------------------------------------------------------------------------

struct LayerProbes {
  double lower_us = 0;
  double scan_ms_1t = 0, scan_ms_4t = 0;
  double gather_ms_1t = 0, gather_ms_4t = 0;
  double pin_us = 0;
};

/// plan::Validate + plan::LowerToPhysical, per plan.
double ProbeLowering(const plan::Catalog& catalog,
                     const std::vector<plan::Plan>& plans) {
  constexpr int kReps = 20;
  const double t0 = Now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const plan::Plan& p : plans) {
      ScopedSpan span("plan", "Validate+LowerToPhysical");
      CSTORE_CHECK(plan::Validate(p, catalog).ok());
      CSTORE_CHECK(plan::LowerToPhysical(p).ok());
    }
  }
  return (Now() - t0) * 1e6 / (kReps * static_cast<double>(plans.size()));
}

/// core::ParallelScanInt and core::ParallelGatherInts on shard 0's fact
/// columns, at one and four threads: a bit-packed quantity scan, the
/// sorted RLE orderdate scan, and gathers of orderdate (RLE) and revenue at
/// the ~half of all rows with quantity < 25.
void ProbeCore(const shard::ShardedStore::ShardPin& shard, LayerProbes* out) {
  const col::ColumnTable& fact = shard.version->column_db->lineorder();
  const size_t rows = fact.num_rows();
  core::IntPredicate quantity;
  quantity.kind = core::IntPredicate::Kind::kRange;
  quantity.lo = 1;
  quantity.hi = 24;
  core::IntPredicate orderdate;
  orderdate.kind = core::IntPredicate::Kind::kRange;
  orderdate.lo = 19940101;
  orderdate.hi = 19941231;
  constexpr int kReps = 5;
  for (unsigned threads : {1u, kMaxThreads}) {
    std::vector<double> scan_ms, gather_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      core::ExecContext ctx;
      util::BitVector sel(rows);
      util::BitVector dates(rows);
      double t0 = Now();
      {
        ScopedSpan span("core", "ParallelScanInt");
        CSTORE_CHECK(core::ParallelScanInt(fact.column("quantity"), quantity,
                                           true, threads, &sel, &ctx)
                         .ok());
        CSTORE_CHECK(core::ParallelScanInt(fact.column("orderdate"),
                                           orderdate, true, threads, &dates,
                                           &ctx)
                         .ok());
      }
      scan_ms.push_back((Now() - t0) * 1e3);
      std::vector<int64_t> a, b;
      t0 = Now();
      {
        ScopedSpan span("core", "ParallelGatherInts");
        CSTORE_CHECK(core::ParallelGatherInts(fact.column("orderdate"), sel,
                                              threads, &a, &ctx)
                         .ok());
        CSTORE_CHECK(core::ParallelGatherInts(fact.column("revenue"), sel,
                                              threads, &b, &ctx)
                         .ok());
      }
      gather_ms.push_back((Now() - t0) * 1e3);
    }
    (threads == 1 ? out->scan_ms_1t : out->scan_ms_4t) = Median(scan_ms);
    (threads == 1 ? out->gather_ms_1t : out->gather_ms_4t) = Median(gather_ms);
  }
}

double ProbePin(shard::ShardedStore* store) {
  constexpr int kPins = 2000;
  const double t0 = Now();
  for (int i = 0; i < kPins; ++i) {
    ScopedSpan span("shard", "ShardedStore::Pin");
    shard::ShardedStore::Pinned pin = store->Pin();
    CSTORE_CHECK(!pin.shards.empty());
  }
  return (Now() - t0) * 1e6 / kPins;
}

LayerProbes RunLayerProbes(shard::ShardedStore* store,
                           const std::vector<plan::Plan>& plans) {
  LayerProbes probes;
  const shard::ShardedStore::Pinned pin = store->Pin();
  probes.lower_us = ProbeLowering(pin.shards[0].version->catalog, plans);
  ProbeCore(pin.shards[0], &probes);
  probes.pin_us = ProbePin(store);
  return probes;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Run {
  const Args& args;
  const Spec& spec;
  Built& built;
  std::vector<plan::Plan> plans;  ///< the mix (plus probes on cold-io)
  std::map<std::string, uint64_t> expected;
};

struct Outcome {
  Tally tally;
  double wall_s = 0;  ///< length of the measured phase
  LayerProbes probes;
  shard::ShardedStore::MergeStats merges;
  double pool_hits = 0;
  double pool_misses = 0;
  /// concurrent-shared (traced): device pages per query with shared scans
  /// over those of the private-scan twin phase.
  double shared_page_ratio = 0;
};

void CheckHash(const Run& run, const plan::Plan& p,
               const engine::QueryOutcome& out, const std::string& where) {
  const uint64_t want = run.expected.at(p.id());
  const uint64_t got = out.result.Hash();
  if (got != want) WrongAnswer(p, where, HashPair(got, want));
}

void ResetPoolCounters(shard::ShardedStore* store) {
  ForEachPool(store, [](storage::BufferPool& pool) { pool.ResetCounters(); });
}

void ReadPoolCounters(shard::ShardedStore* store, Outcome* out) {
  ForEachPool(store, [&](storage::BufferPool& pool) {
    out->pool_hits += static_cast<double>(pool.hits());
    out->pool_misses += static_cast<double>(pool.misses());
  });
}

/// hot-cs: one client runs the 13-query mix at one thread (the paper's
/// protocol) over a one-shard compressed column store whose pool holds the
/// working set (free I/O). A traced run also runs every pass at four
/// threads: that series moved between 15 and 23 ms from run to run on one
/// seed (the 4-thread gather fault, README), too wide for any bound, so it
/// is a per-layer figure and the end-to-end series is the serial one.
Outcome RunHotCs(Run& run) {
  Outcome out;
  engine::Engine engine;
  shard::RegisterShardedDesigns(&engine, run.built.store.get());
  auto session = engine.OpenSession("CS");
  session->config() = core::ExecConfig::AllOn();
  auto pass = [&](unsigned threads, bool traced, Tally* t) {
    session->config().num_threads = threads;
    for (const plan::Plan& p : run.plans) {
      auto r = RunQuery(session.get(), p,
                        threads == 1 ? Series::kCs : Series::kParallel, traced,
                        t);
      if (r) CheckHash(run, p, *r, threads == 1 ? "1 thread" : "4 threads");
    }
  };
  Tally warm;
  if (run.args.trace) pass(kMaxThreads, false, &warm);
  pass(1, false, &warm);
  ResetPoolCounters(run.built.store.get());
  const double t0 = Now();
  const double deadline = t0 + run.args.seconds;
  RunRounds(deadline, run.args.trace, [&](bool traced) {
    if (run.args.trace) pass(kMaxThreads, traced, &out.tally);
    pass(1, traced, &out.tally);
  });
  out.wall_s = Now() - t0;
  ReadPoolCounters(run.built.store.get(), &out);
  return out;
}

/// cold-io: one client at three threads, the mix plus two orderdate probes
/// on the column store (CS) and the traditional row store (T) over four
/// orderdate-year shards; a pool of a few percent of the data, cleared at
/// the start of every pass, and a 200 MB/s simulated disk.
Outcome RunColdIo(Run& run, const std::map<std::string, Probe>& probes) {
  Outcome out;
  shard::ShardedStore* store = run.built.store.get();
  engine::Engine engine;
  shard::RegisterShardedDesigns(&engine, store);
  auto cs = engine.OpenSession("CS");
  auto row = engine.OpenSession("T");
  for (engine::Session* s : {cs.get(), row.get()}) {
    s->config() = core::ExecConfig::AllOn();
    s->config().num_threads = run.spec.query_threads;
  }
  const shard::Manifest manifest = store->manifest();
  auto clear_pools = [&] {
    ScopedSpan span("storage", "BufferPool::Clear");
    ForEachPool(store, [](storage::BufferPool& pool) {
      CSTORE_CHECK(pool.Clear().ok());
    });
  };
  auto check_bills = [&](const plan::Plan& p, const engine::QueryOutcome& o,
                         const std::string& design) {
    for (const core::ShardBill& bill : o.shard_bills) {
      if (bill.pruned && bill.stats.pages_read != 0) {
        WrongAnswer(p, design, "pruned shard " + std::to_string(bill.shard) +
                                   " billed device pages");
      }
    }
    auto probe = probes.find(p.id());
    if (probe == probes.end()) return;
    for (const core::ShardBill& bill : o.shard_bills) {
      const shard::ShardInfo& info = manifest.shards.at(bill.shard);
      const bool meets = info.year_lo <= probe->second.hi_year &&
                         probe->second.lo_year <= info.year_hi;
      if (bill.pruned == meets) {
        WrongAnswer(p, design,
                    "shard " + std::to_string(bill.shard) +
                        (meets ? " meets the probe but was pruned"
                               : " misses the probe but was not pruned"));
      }
    }
  };
  auto pass = [&](engine::Session* s, Series series, bool traced, Tally* t) {
    clear_pools();
    for (const plan::Plan& p : run.plans) {
      auto r = RunQuery(s, p, series, traced, t);
      if (!r) continue;
      CheckHash(run, p, *r, s->design_name());
      check_bills(p, *r, s->design_name());
    }
  };
  Tally warm;
  pass(cs.get(), Series::kCs, false, &warm);
  ResetPoolCounters(store);
  const double t0 = Now();
  const double deadline = t0 + run.args.seconds;
  // A T pass costs about as much as eight CS passes; five CS passes per
  // round give each CS plan about twenty samples a run.
  constexpr int kCsPassesPerRound = 5;
  RunRounds(deadline, run.args.trace, [&](bool traced) {
    for (int i = 0; i < kCsPassesPerRound; ++i) {
      pass(cs.get(), Series::kCs, traced, &out.tally);
    }
    pass(row.get(), Series::kRow, traced, &out.tally);
  });
  out.wall_s = Now() - t0;
  ReadPoolCounters(store, &out);
  return out;
}

/// mixed-rw: one writer applying a seeded ssb::MutationStream (256-row
/// inserts, every 4th op a delete) with a MergeOnce after every
/// kOpsPerMerge ops, and two reader sessions at one thread each running a
/// rotated mix, over four compressed shards.
Outcome RunMixedRw(Run& run) {
  constexpr size_t kBatchRows = 256;
  constexpr int kOpsPerMerge = 32;
  constexpr unsigned kReaders = 2;
  constexpr size_t kSampledEpochs = 2;
  Outcome out;
  shard::ShardedStore* store = run.built.store.get();
  engine::Engine engine;
  engine.AttachStore(store);
  shard::RegisterShardedDesigns(&engine, store);

  struct Observation {
    size_t plan;
    uint64_t epoch;
    uint64_t hash;
  };
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<Tally> tallies(kReaders + 1);
  std::mutex ops_mu;
  std::vector<ssb::MutationOp> ops;  // guarded by ops_mu while threads run

  // Merges rebuild on the writer's thread alone, so the workload stays at
  // three busy threads.
  const double t0 = Now();
  const double deadline = t0 + run.args.seconds;
  std::thread writer([&] {
    Tally& t = tallies[kReaders];
    auto session = engine.OpenSession("CS");
    ssb::MutationStream stream(run.built.base, run.args.seed * 2654435761u + 1);
    RunRounds(deadline, run.args.trace, [&](bool) {
      for (int i = 0; i < kOpsPerMerge; ++i) {
        ssb::MutationOp op;
        {
          ScopedSpan span("ssb", "MutationStream::Next");
          op = stream.Next(kBatchRows);
        }
        const bool insert = op.kind == ssb::MutationOp::Kind::kInsert;
        ++t.attempted;
        const double w0 = Now();
        Result<engine::WriteOutcome> w = [&] {
          ScopedSpan span("delta",
                          insert ? "Session::Insert" : "Session::Delete",
                          g_next_request.fetch_add(1));
          return insert ? session->Insert("lineorder", op.rows)
                        : session->Delete("lineorder", op.predicate);
        }();
        const double ms = (Now() - w0) * 1e3;
        if (!w.ok()) {
          ++t.failed;
          std::fprintf(stderr, "ssb_bench: write failed: %s\n",
                       w.status().ToString().c_str());
          continue;
        }
        (insert ? t.insert_ms : t.delete_ms).push_back(ms);
        op.epoch = w.ValueOrDie().epoch;
        std::lock_guard<std::mutex> lock(ops_mu);
        ops.push_back(std::move(op));
      }
      ++t.attempted;
      const double m0 = Now();
      Status merged;
      {
        ScopedSpan span("delta", "ShardedStore::MergeOnce",
                        g_next_request.fetch_add(1));
        merged = store->MergeOnce();
      }
      if (merged.ok()) {
        t.merge_s.push_back(Now() - m0);
      } else {
        ++t.failed;
        std::fprintf(stderr, "ssb_bench: MergeOnce failed: %s\n",
                     merged.ToString().c_str());
      }
    });
  });
  // The writer may finish its last merge after the readers stop; qps
  // counts reader time only.
  std::vector<double> reader_end(kReaders, t0);
  std::vector<std::thread> readers;
  for (unsigned c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      auto session = engine.OpenSession("CS");
      session->config() = core::ExecConfig::AllOn();
      session->config().num_threads = 1;
      Tally& t = tallies[c];
      const size_t n = run.plans.size();
      RunRounds(deadline, run.args.trace, [&](bool traced) {
        for (size_t i = 0; i < n; ++i) {
          const size_t qi = (i + c * n / kReaders) % n;
          t.unmerged_sum += static_cast<double>(store->unmerged_rows());
          ++t.unmerged_n;
          auto r = RunQuery(session.get(), run.plans[qi], Series::kCs, traced,
                            &t);
          if (r) {
            observed[c].push_back(
                Observation{qi, r->snapshot_epoch, r->result.Hash()});
          }
        }
      });
      reader_end[c] = Now();
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  out.wall_s = *std::max_element(reader_end.begin(), reader_end.end()) - t0;
  for (const Tally& t : tallies) out.tally.Merge(t);
  if (run.args.trace) out.probes = RunLayerProbes(store, run.plans);
  ReadPoolCounters(store, &out);

  // Readers that pinned the same epoch agree.
  std::map<std::pair<uint64_t, size_t>, uint64_t> seen;
  std::set<uint64_t> epochs;
  for (const auto& obs : observed) {
    for (const Observation& o : obs) {
      epochs.insert(o.epoch);
      auto [it, fresh] = seen.emplace(std::make_pair(o.epoch, o.plan), o.hash);
      if (!fresh && it->second != o.hash) {
        WrongAnswer(run.plans[o.plan],
                    "readers at epoch " + std::to_string(o.epoch) + " disagree",
                    HashPair(o.hash, it->second));
      }
    }
  }
  // Reader answers at a seeded sample of pinned epochs equal the reference
  // over the serial replay of the applied ops.
  std::vector<uint64_t> candidates(epochs.begin(), epochs.end());
  util::Rng rng(run.args.seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t k = 0; k < kSampledEpochs && !candidates.empty(); ++k) {
    const size_t pick = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(candidates.size()) - 1));
    const uint64_t epoch = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    ssb::SsbData replay;
    {
      ScopedSpan span("ssb", "ReplayAt");
      replay = ssb::ReplayAt(run.built.base, ops, epoch);
    }
    for (const auto& [key, hash] : seen) {
      if (key.first != epoch) continue;
      const plan::Plan& p = run.plans[key.second];
      ScopedSpan span("ssb", "ReferenceExecute");
      const uint64_t want = ssb::ReferenceExecute(replay, p).Hash();
      if (hash != want) {
        WrongAnswer(p, "reader at epoch " + std::to_string(epoch),
                    HashPair(hash, want));
      }
    }
  }
  // After a final merge every query equals the reference over the replay.
  Tally final_tally;
  ++final_tally.attempted;
  Status merged;
  {
    ScopedSpan span("delta", "ShardedStore::MergeOnce");
    merged = store->MergeOnce();
  }
  if (!merged.ok()) {
    ++final_tally.failed;
    std::fprintf(stderr, "ssb_bench: final MergeOnce failed: %s\n",
                 merged.ToString().c_str());
  }
  auto session = engine.OpenSession("CS");
  session->config() = core::ExecConfig::AllOn();
  session->config().num_threads = 1;
  std::vector<std::pair<const plan::Plan*, uint64_t>> finals;
  uint64_t final_epoch = 0;
  for (const plan::Plan& p : run.plans) {
    auto r = RunQuery(session.get(), p, Series::kCs, false, &final_tally);
    if (!r) continue;
    final_epoch = r->snapshot_epoch;
    finals.emplace_back(&p, r->result.Hash());
  }
  ssb::SsbData replay;
  {
    ScopedSpan span("ssb", "ReplayAt");
    replay = ssb::ReplayAt(run.built.base, ops, final_epoch);
  }
  for (const auto& [p, hash] : finals) {
    ScopedSpan span("ssb", "ReferenceExecute");
    const uint64_t want = ssb::ReferenceExecute(replay, *p).Hash();
    if (hash != want) WrongAnswer(*p, "after the final merge", HashPair(hash, want));
  }
  out.tally.attempted += final_tally.attempted;
  out.tally.failed += final_tally.failed;
  out.merges = store->merge_stats();
  return out;
}

/// kClients sessions at one thread each, each running the rotated mix for
/// whole rounds until `seconds` have passed, on a cold pool. Returns the
/// wall time of the phase.
double RunClients(Run& run, bool shared_scans, double seconds, Tally* tally) {
  constexpr unsigned kClients = 4;
  shard::ShardedStore* store = run.built.store.get();
  {
    ScopedSpan span("storage", "BufferPool::Clear");
    ForEachPool(store, [](storage::BufferPool& pool) {
      CSTORE_CHECK(pool.Clear().ok());
    });
  }
  engine::EngineOptions options;
  options.shared_scans = shared_scans;
  engine::Engine engine(options);
  shard::RegisterShardedDesigns(&engine, store);
  std::vector<Tally> tallies(kClients);
  const double t0 = Now();
  const double deadline = t0 + seconds;
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = engine.OpenSession("CS");
      session->config() = core::ExecConfig::AllOn();
      session->config().num_threads = 1;
      const size_t n = run.plans.size();
      RunRounds(deadline, run.args.trace, [&](bool traced) {
        for (size_t i = 0; i < n; ++i) {
          const plan::Plan& p = run.plans[(i + c * n / kClients) % n];
          auto r = RunQuery(session.get(), p, Series::kCs, traced,
                            &tallies[c]);
          if (r) CheckHash(run, p, *r, "client " + std::to_string(c));
        }
      });
    });
  }
  for (std::thread& t : clients) t.join();
  for (const Tally& t : tallies) tally->Merge(t);
  return Now() - t0;
}

/// concurrent-shared: four client sessions at one thread each run a
/// rotated mix with engine shared scans on, over a one-shard uncompressed
/// column store whose pool is a few percent of the data (200 MB/s disk).
/// A traced run follows with a private-scan twin phase of the same length,
/// to compare the device pages the two read.
Outcome RunConcurrentShared(Run& run) {
  Outcome out;
  shard::ShardedStore* store = run.built.store.get();
  ResetPoolCounters(store);
  out.wall_s = RunClients(run, true, run.args.seconds, &out.tally);
  ReadPoolCounters(store, &out);
  if (run.args.trace) {
    Tally twin;
    RunClients(run, false, run.args.seconds, &twin);
    const double shared = PerOp(out.tally.all_sum.pages_read, out.tally.queries);
    const double priv = PerOp(twin.all_sum.pages_read, twin.queries);
    out.shared_page_ratio = priv == 0 ? 0 : shared / priv;
    out.tally.attempted += twin.attempted;
    out.tally.failed += twin.failed;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the result line. A run that reaches it answered every query
/// correctly: a wrong answer exits before.
void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": true";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (std::optional<int> code = ParseArgs(argc, argv, &args)) return *code;
  if (args.trace) g_tracer.Enable();
  const Spec spec = SpecFor(args.workload);
  const bool cold_io = args.workload == "cold-io";

  std::vector<plan::Plan> plans = ssb::AllQueries();
  std::map<std::string, Probe> probes;
  if (cold_io) {
    probes = {{"S93", {1993, 1993}}, {"S9495", {1994, 1995}}};
    for (const auto& [id, probe] : probes) {
      plans.push_back(YearProbe(id, probe.lo_year, probe.hi_year));
    }
  }

  // Set up kSetups times; the last store is the one measured.
  std::vector<double> setup_s, generate_s, open_s;
  Built built;
  for (int i = 0; i < kSetups; ++i) {
    built.store.reset();
    built = SetUp(spec, args.seed);
    generate_s.push_back(built.generate_s);
    open_s.push_back(built.open_s);
    setup_s.push_back(built.generate_s + built.open_s);
  }
  std::fprintf(stderr,
               "ssb_bench: %s seed %llu: SF %.2f, %u shard(s), setup %.2f s "
               "(generate %.2f + open %.2f)\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               spec.scale_factor, spec.shards, Median(setup_s),
               Median(generate_s), Median(open_s));
  const double stored_mb = StoredMb(built.store.get());

  Run run{args, spec, built, plans, {}};
  if (args.workload != "mixed-rw") {
    run.expected = ReferenceHashes(built.base, plans);
  }

  Outcome out;
  if (args.workload == "hot-cs") {
    out = RunHotCs(run);
  } else if (cold_io) {
    out = RunColdIo(run, probes);
  } else if (args.workload == "mixed-rw") {
    out = RunMixedRw(run);
  } else {
    out = RunConcurrentShared(run);
  }
  if (args.trace && args.workload != "mixed-rw") {
    out.probes = RunLayerProbes(built.store.get(), plans);
  }
  const Tally& t = out.tally;
  std::fprintf(stderr,
               "ssb_bench: %llu ops attempted, %llu failed, %llu queries in "
               "%.2f s\n",
               static_cast<unsigned long long>(t.attempted),
               static_cast<unsigned long long>(t.failed),
               static_cast<unsigned long long>(t.queries), out.wall_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"cs_query_ms_p50", MixQuantile(t.cs_ms, 0.5), "ms"},
        {"cs_query_ms_p90", MixQuantile(t.cs_ms, 0.9), "ms"},
        {"qps", PerOp(static_cast<double>(t.queries), 1) / out.wall_s, "1/s"},
        {"stored_mb", stored_mb, "MB"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const double cs = static_cast<double>(std::max<uint64_t>(t.cs_queries, 1));
    const double all = static_cast<double>(std::max<uint64_t>(t.queries, 1));
    std::map<std::string, double> self = g_tracer.SelfMsByLayer();
    const double untraced = Median(t.untraced_ms);
    metrics = {
        {"ssb.generate_s", Median(generate_s), "s"},
        {"shard.open_s", Median(open_s), "s"},
        {"plan.lower_us", out.probes.lower_us, "us"},
        {"core.values_scanned", t.cs_sum.values_scanned / cs, "count"},
        {"core.values_gathered", t.cs_sum.values_gathered / cs, "count"},
        {"core.rows_aggregated", t.cs_sum.rows_aggregated / cs, "count"},
        {"core.values_examined", t.cs_sum.values_examined / cs, "count"},
        {"core.pages_scanned", t.cs_sum.pages_scanned / cs, "count"},
        {"core.pages_skipped", t.cs_sum.pages_skipped / cs, "count"},
        {"core.scan_ms_1t", out.probes.scan_ms_1t, "ms"},
        {"core.scan_ms_4t", out.probes.scan_ms_4t, "ms"},
        {"core.gather_ms_1t", out.probes.gather_ms_1t, "ms"},
        {"core.gather_ms_4t", out.probes.gather_ms_4t, "ms"},
        {"core.parallel_query_ms_p50", MixQuantile(t.parallel_ms, 0.5), "ms"},
        {"row.query_ms_p50", MixQuantile(t.row_ms, 0.5), "ms"},
        {"storage.pages_read", t.all_sum.pages_read / all, "count"},
        {"storage.bytes_read",
         t.all_sum.pages_read * static_cast<double>(storage::kPageSize) / all,
         "bytes"},
        {"storage.pages_written", t.all_sum.pages_written / all, "count"},
        {"storage.pool_hit_ratio",
         out.pool_hits + out.pool_misses == 0
             ? 0
             : out.pool_hits / (out.pool_hits + out.pool_misses),
         "ratio"},
        {"storage.shared_page_ratio", out.shared_page_ratio, "ratio"},
        {"shard.shards_pruned", t.shards_pruned / all, "count"},
        {"shard.values_skew", PerOp(t.skew_sum, t.skew_n), "ratio"},
        {"shard.pin_us", out.probes.pin_us, "us"},
        {"delta.rows_scanned", t.cs_sum.delta_rows_scanned / cs, "count"},
        {"delta.unmerged_rows", PerOp(t.unmerged_sum, t.unmerged_n), "count"},
        {"delta.insert_ms", Median(t.insert_ms), "ms"},
        {"delta.delete_ms", Median(t.delete_ms), "ms"},
        {"delta.merge_s", Median(t.merge_s), "s"},
        {"delta.shards_rebuilt", static_cast<double>(out.merges.shards_rebuilt),
         "count"},
        {"delta.shards_skipped", static_cast<double>(out.merges.shards_skipped),
         "count"},
        {"engine.admission_wait_ms",
         t.all_sum.admission_wait_seconds * 1e3 / all, "ms"},
        {"engine.thread_budget", t.budget_sum / all, "threads"},
    };
    for (const char* layer : {"ssb", "plan", "engine", "shard", "delta", "core",
                              "storage", "row"}) {
      metrics.push_back({std::string(layer) + ".self_ms", self[layer], "ms"});
    }
    metrics.push_back({"trace.spans", static_cast<double>(g_tracer.size()),
                       "count"});
    metrics.push_back(
        {"trace.overhead_pct",
         untraced == 0 ? 0 : (Median(t.traced_ms) / untraced - 1) * 100, "%"});
    if (!args.trace_out.empty() && !g_tracer.Write(args.trace_out)) {
      std::fprintf(stderr, "ssb_bench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  PrintResult(t.attempted, t.failed, metrics);
  return 0;
}
