// End-to-end benchmark of the C2LSH index as a library and as a TCP service.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// Every workload builds its index over a fixed synthetic dataset, drives it
// with query streams drawn from --seed, and checks every answer. The served
// workload runs a real serve::Server over PosixTransport loopback in this
// process, with one client thread and connection per core; the embedded
// workload calls the library directly.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. README.md explains each workload and metric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_lib.h"
#include "src/baselines/linear_scan.h"
#include "src/core/disk_index.h"
#include "src/core/index.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/transport_posix.h"
#include "src/vector/distance.h"
#include "src/vector/ground_truth.h"
#include "src/vector/synthetic.h"

namespace perfbench {
namespace {

using c2lsh::C2lshIndex;
using c2lsh::C2lshOptions;
using c2lsh::Dataset;
using c2lsh::DiskC2lshIndex;
using c2lsh::FloatMatrix;
using c2lsh::Neighbor;
using c2lsh::NeighborList;
using c2lsh::ObjectId;
using c2lsh::Status;
using Clock = std::chrono::steady_clock;

constexpr size_t kN = 20000;          // objects per dataset
constexpr size_t kK = 10;             // neighbors per query
constexpr size_t kPoolQueries = 100;  // distinct queries the stream draws from
constexpr size_t kTenants = 8;
constexpr int kSetupReps = 5;         // set-ups per run; setup_s is their median
constexpr size_t kWarmupQueries = 8;  // warm-up queries inside each set-up
constexpr double kTailPercentile = 90.0;
constexpr double kWindowSeconds = 1.0;  // query_qps is the median window rate
constexpr double kCapacityShare = 1.0 / 3;  // of --seconds: the served closed loop
constexpr size_t kOpenWindows = 3;  // served latencies: median of the window percentiles
constexpr uint64_t kWireDeadlineMicros = 30'000'000;  // far above any healthy latency
constexpr uint64_t kIndexSeed = 42;   // hash functions: fixed, like the probe table
constexpr uint64_t kDataSeed = 42;    // dataset and query pool: fixed, like the probe table
constexpr size_t kRefQueries = 50;    // queries behind each reference row

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  c2lsh::DatasetProfile profile;
  bool served;
  size_t pool_pages;  // BufferPool frames (served)
  double rate;        // fixed-rate phase arrivals per second (served)
};

// The fixed rate is a constant, never derived from a run's own capacity:
// about a quarter of the query_qps the parent commit measured on a shared
// 4-core host (45-65/s), so that a slower host moves latency by its service
// time more than by a queue growing behind the per-index lock. It is the
// lowest rate that still gives each of the kOpenWindows windows of a 30 s
// run the 100 samples a p90 needs: 20 s of arrivals at 15/s, whose due
// times fall exactly 100 to a window.
const Workload kWorkloads[] = {
    {"embedded_mnist", c2lsh::DatasetProfile::kMnist, false, 0, 0.0},
    {"serve_warm_audio", c2lsh::DatasetProfile::kAudio, true, 65536, 15.0},
};

// ---------------------------------------------------------------------------
// Small helpers

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void DieIf(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration Duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) Die("cannot remove " + dir + ": " + ec.message());
}

// An empty directory at `dir`, whatever was there before.
void FreshDir(const std::string& dir) {
  RemoveDir(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir + ": " + ec.message());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

size_t CoreCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 4 : hw, 1, 8);
}

C2lshOptions IndexOptions() {
  C2lshOptions o;  // the paper defaults the in-tree benches use
  o.w = 1.0;
  o.c = 2.0;
  o.delta = 0.1;
  o.seed = kIndexSeed;
  return o;
}

// Registry counters by name; deltas are taken around a phase.
uint64_t CounterValue(const char* name) {
  c2lsh::obs::Counter* c = c2lsh::obs::MetricsRegistry::Global().GetCounter(name, "");
  return c != nullptr ? c->value() : 0;
}

struct CounterSet {
  std::vector<const char*> names;
  std::vector<uint64_t> base;

  explicit CounterSet(std::vector<const char*> n) : names(std::move(n)) {
    for (const char* name : names) base.push_back(CounterValue(name));
  }
  uint64_t Delta(const char* name) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (std::strcmp(names[i], name) == 0) return CounterValue(name) - base[i];
    }
    Die(std::string("counter not tracked: ") + name);
  }
};

// A registry histogram's bucket counts at construction; Percentile()
// interpolates inside the bucket over the counts observed since.
class HistogramDelta {
 public:
  explicit HistogramDelta(const char* name)
      : h_(c2lsh::obs::MetricsRegistry::Global().GetHistogram(name, "")), base_(kBuckets) {
    for (size_t i = 0; i < kBuckets; ++i) base_[i] = h_->BucketCount(i);
  }
  uint64_t Count() const {
    uint64_t n = 0;
    for (size_t i = 0; i < kBuckets; ++i) n += h_->BucketCount(i) - base_[i];
    return n;
  }
  double Percentile(double p) const {
    std::vector<uint64_t> d(kBuckets);
    uint64_t total = 0;
    for (size_t i = 0; i < kBuckets; ++i) total += d[i] = h_->BucketCount(i) - base_[i];
    if (total == 0) return 0.0;
    const double target = p / 100.0 * static_cast<double>(total);
    uint64_t cum = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (d[i] == 0) continue;
      if (static_cast<double>(cum + d[i]) >= target) {
        const double lo = i == 0 ? 0.0 : c2lsh::obs::Histogram::BucketUpperBound(i - 1);
        if (i + 1 == kBuckets) return lo;
        const double hi = c2lsh::obs::Histogram::BucketUpperBound(i);
        const double frac = (target - static_cast<double>(cum)) / static_cast<double>(d[i]);
        return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      }
      cum += d[i];
    }
    return 0.0;
  }

 private:
  static constexpr size_t kBuckets = c2lsh::obs::Histogram::kNumBuckets;
  c2lsh::obs::Histogram* h_;
  std::vector<uint64_t> base_;
};

// ---------------------------------------------------------------------------
// Report: every metric is printed as a readable line; the final JSON line
// carries the group the run was asked for.

struct Metric {
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit,
           const std::string& note = "") {
    metrics_[name] = Metric{value, unit};
    std::printf("  %-42s %14.6f %-6s %s\n", name.c_str(), value, unit, note.c_str());
  }
  // A percentile of `samples` under the rule of bench_lib.h; the note names
  // its sample count and the highest percentile the count could publish.
  void AddPercentile(const std::string& name, const std::vector<double>& samples,
                     double p, const char* unit) {
    const perfbench::Percentile q = PercentileOf(samples, p);
    char note[160];
    std::snprintf(note, sizeof(note), "p%g of n=%zu (%zu beyond; highest publishable p%g)",
                  p, q.samples, q.beyond, HighestPublishable(q.samples));
    AddPublished(name, q, p, unit, note);
  }
  // The median over windows of `window_s` of each window's percentile
  // (bench_lib.h).
  void AddWindowedPercentile(const std::string& name, const std::vector<double>& at_s,
                             const std::vector<double>& samples, double seconds,
                             double window_s, double p, const char* unit) {
    const perfbench::Percentile q = WindowedPercentile(at_s, samples, seconds, window_s, p);
    char note[160];
    std::snprintf(note, sizeof(note), "median of per-window p%g, n=%zu in %.0f windows of %gs",
                  p, q.samples, seconds / window_s, window_s);
    AddPublished(name, q, p, unit, note);
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& unpublished() const { return unpublished_; }

 private:
  // Records `q`; one the rule does not publish is listed, which makes the
  // run's result incorrect.
  void AddPublished(const std::string& name, const perfbench::Percentile& q, double p,
                    const char* unit, const char* note) {
    if (q.published) {
      Add(name, q.value, unit, note);
      return;
    }
    unpublished_.push_back(name);
    Add(name, q.value, unit,
        "UNPUBLISHED: too few samples for p" + std::to_string(static_cast<int>(p)));
  }

  std::map<std::string, Metric> metrics_;
  std::vector<std::string> unpublished_;
};

const char* const kEndToEnd[] = {
    "query_qps", "query_p50_ms", "recall_at_10", "overall_ratio",
    "setup_s",   "peak_rss_mb",  "index_bytes_per_data_byte",
};

const char* const kPerLayer[] = {
    "serve.client_send_us", "serve.client_wait_ms", "serve.overhead_ms",
    "serve.admission_wait_p90_ms", "serve.shed_total", "core.disk_query_ms",
    "core.mem_query_ms", "core.rounds_per_query", "core.collision_increments_per_query",
    "core.candidates_verified_per_query", "core.buckets_scanned_per_query",
    "core.batch_ms_per_query", "core.batch_shared_scan_hit_ratio",
    "storage.pool_fetches_per_query", "storage.pool_hit_rate", "storage.page_reads_per_query",
    "storage.pool_evictions_per_query", "util.retries_total",
    "baselines.linear_scan_ms_per_query", "ref.serial_query_ms", "ref.batch1_query_ms",
    "ref.batch_whole_ms_per_query", "ref.disk_warm_query_ms", "bench.generator_lag_p90_ms",
    "bench.failed_frac", "bench.latency_samples", "bench.query_p90_ms", "trace.serve_self_ms",
    "trace.admission_self_ms", "trace.query_self_ms", "trace.round_self_ms",
    "trace.buffer_pool_self_ms", "trace.page_file_self_ms", "trace.wal_self_ms",
    "trace.batch_self_ms", "trace.thread_pool_self_ms", "trace.pool_hit_events",
    "trace.dropped_events", "trace.overhead_frac", "trace.unresolved_layers",
};

// ---------------------------------------------------------------------------
// Output checks

struct Quality {
  double recall_sum = 0.0;
  double ratio_sum = 0.0;
  size_t queries = 0;
  double recall() const { return queries ? recall_sum / queries : 0.0; }
  double ratio() const { return queries ? ratio_sum / queries : 0.0; }
};

// Shared failure ledger: every op that errored, was shed, came back tagged
// partial, or failed an output check. The first few reasons are printed.
class Ledger {
 public:
  void Attempt(size_t n = 1) { attempted_.fetch_add(n, std::memory_order_relaxed); }
  void Fail(const std::string& why) {
    const uint64_t f = failed_.fetch_add(1, std::memory_order_relaxed);
    if (f < 10) {
      std::lock_guard<std::mutex> lock(mu_);
      std::fprintf(stderr, "perfbench: failed op: %s\n", why.c_str());
    }
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0}, failed_{0};
  std::mutex mu_;
};

// Structural checks every answer must pass: k results, ascending, distinct
// valid ids, and each distance equal to the distance recomputed exactly.
std::string CheckAnswer(const Dataset& data, const float* q, const NeighborList& got) {
  if (got.size() != kK) return "answer has " + std::to_string(got.size()) + " neighbors";
  std::set<ObjectId> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id >= data.size()) return "unknown id " + std::to_string(got[i].id);
    const float* v = data.object(got[i].id);
    if (!ids.insert(got[i].id).second) return "duplicate id " + std::to_string(got[i].id);
    if (i > 0 && got[i].dist < got[i - 1].dist) return "answer not sorted";
    const double exact = c2lsh::L2(q, v, data.dim());
    if (std::fabs(exact - got[i].dist) > 1e-5 * std::max(1.0, exact)) {
      return "distance of id " + std::to_string(got[i].id) + " is " +
             std::to_string(got[i].dist) + ", exact " + std::to_string(exact);
    }
  }
  return "";
}

// Quality against exact ground truth; fails an answer that claims to beat it.
std::string Score(const NeighborList& got, const NeighborList& truth, Quality* quality) {
  std::set<ObjectId> true_ids;
  for (const Neighbor& n : truth) true_ids.insert(n.id);
  size_t hits = 0;
  double ratio = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].dist < truth[i].dist * (1.0 - 1e-5) - 1e-6) {
      return "neighbor " + std::to_string(i) + " closer than the exact one";
    }
    hits += true_ids.count(got[i].id);
    ratio += truth[i].dist > 0 ? got[i].dist / truth[i].dist : 1.0;
  }
  quality->recall_sum += static_cast<double>(hits) / kK;
  quality->ratio_sum += ratio / static_cast<double>(got.size());
  ++quality->queries;
  return "";
}

// ---------------------------------------------------------------------------
// Traced run: a poller drains the span rings while the traced phase runs, so
// a query that emits more events than one ring holds is still seen whole.
// Events lost to a ring wrap between polls are counted per thread; every
// layer that emitted on such a thread is reported as unresolved (-1).

class TraceHarvest {
 public:
  TraceHarvest() = default;
  TraceHarvest(const TraceHarvest&) = delete;
  TraceHarvest& operator=(const TraceHarvest&) = delete;
  ~TraceHarvest() {
    if (poller_.joinable()) Stop();
  }

  void Start() {
    for (const auto& e : c2lsh::obs::Tracer::Global().SnapshotAll()) {
      uint64_t& next = next_seq_[e.tid];
      next = std::max(next, e.seq + 1);
    }
    stop_ = false;
    poller_ = std::thread([this] {
      while (!stop_.load()) {
        Poll();
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  void Stop() {
    stop_ = true;
    poller_.join();
    Poll();
  }

  std::map<uint8_t, uint64_t> SelfTicks() const { return FoldSelfTime(spans_); }
  uint64_t pool_hits() const { return pool_hits_; }
  uint64_t dropped() const { return dropped_; }
  bool Lossy(size_t layer) const { return lossy_layers_.count(static_cast<uint8_t>(layer)) > 0; }

 private:
  void Poll() {
    const std::vector<c2lsh::obs::TraceEvent> events = c2lsh::obs::Tracer::Global().SnapshotAll();
    const std::map<uint32_t, uint64_t> next = next_seq_;
    auto expected = [&](uint32_t tid) {
      auto it = next.find(tid);
      return it == next.end() ? uint64_t{0} : it->second;
    };
    std::map<uint32_t, uint64_t> lowest;  // first unseen seq per thread
    for (const auto& e : events) {
      if (e.seq < expected(e.tid)) continue;
      auto it = lowest.find(e.tid);
      if (it == lowest.end() || e.seq < it->second) lowest[e.tid] = e.seq;
      uint64_t& n = next_seq_[e.tid];
      n = std::max(n, e.seq + 1);
      const uint8_t layer = static_cast<uint8_t>(e.subsystem);
      tid_layers_[e.tid].insert(layer);
      if (e.kind == c2lsh::obs::TraceEventKind::kSpan) {
        spans_.push_back(FoldSpan{e.tid, e.seq, e.start_ticks, e.dur_ticks, layer});
      } else if (e.kind == c2lsh::obs::TraceEventKind::kInstant &&
                 std::strcmp(e.name, "pool_hit") == 0) {
        ++pool_hits_;
      }
    }
    for (const auto& [tid, lo] : lowest) {
      if (lo > expected(tid)) {
        dropped_ += lo - expected(tid);
        lossy_tids_.insert(tid);
      }
    }
    for (uint32_t tid : lossy_tids_) {
      for (uint8_t layer : tid_layers_[tid]) lossy_layers_.insert(layer);
    }
  }

  std::map<uint32_t, uint64_t> next_seq_;  // first unseen seq per ring
  std::map<uint32_t, std::set<uint8_t>> tid_layers_;
  std::set<uint32_t> lossy_tids_;
  std::set<uint8_t> lossy_layers_;
  std::vector<FoldSpan> spans_;
  uint64_t pool_hits_ = 0;
  uint64_t dropped_ = 0;
  std::atomic<bool> stop_{false};
  std::thread poller_;  // last: it runs Poll() over the members above
};

void ReportTrace(Report& report, const TraceHarvest& harvest, size_t queries) {
  const double us_per_tick = c2lsh::obs::TraceClock::Calibrate().micros_per_tick;
  const std::map<uint8_t, uint64_t> self = harvest.SelfTicks();
  using c2lsh::obs::SpanSubsystem;
  const std::pair<const char*, SpanSubsystem> layers[] = {
      {"trace.serve_self_ms", SpanSubsystem::kServe},
      {"trace.admission_self_ms", SpanSubsystem::kAdmission},
      {"trace.query_self_ms", SpanSubsystem::kQuery},
      {"trace.round_self_ms", SpanSubsystem::kRound},
      {"trace.buffer_pool_self_ms", SpanSubsystem::kBufferPool},
      {"trace.page_file_self_ms", SpanSubsystem::kPageFile},
      {"trace.wal_self_ms", SpanSubsystem::kWal},
      {"trace.batch_self_ms", SpanSubsystem::kBatch},
      {"trace.thread_pool_self_ms", SpanSubsystem::kThreadPool},
  };
  const double q = static_cast<double>(std::max<size_t>(1, queries));
  size_t unresolved = 0;
  for (const auto& [name, sub] : layers) {
    const uint8_t id = static_cast<uint8_t>(sub);
    if (harvest.Lossy(id)) {
      ++unresolved;
      report.Add(name, -1.0, "ms", "UNRESOLVED: its thread lost events to a ring wrap");
      continue;
    }
    auto it = self.find(id);
    const double ticks = it == self.end() ? 0.0 : static_cast<double>(it->second);
    report.Add(name, ticks * us_per_tick / 1e3 / q, "ms",
               "self time per query over " + std::to_string(queries) + " traced queries");
  }
  report.Add("trace.pool_hit_events", static_cast<double>(harvest.pool_hits()) / q, "count",
             "pool_hit instants per query");
  report.Add("trace.dropped_events", static_cast<double>(harvest.dropped()), "count",
             "events overwritten before the poller read them");
  report.Add("trace.unresolved_layers", static_cast<double>(unresolved), "count");
}

// ---------------------------------------------------------------------------
// Served workloads

struct CallTiming {
  double send_us = 0.0;  // EncodeRequest + WriteFrame
  double wait_ms = 0.0;  // ReadFrame
};

class Client {
 public:
  Client(c2lsh::Transport* transport, const std::string& address) {
    auto conn = transport->Connect(address, c2lsh::Deadline::AfterMillis(5000));
    DieIf(conn.status(), "connect");
    conn_ = std::move(conn).value();
  }

  c2lsh::Result<c2lsh::serve::Response> Call(const c2lsh::serve::Request& req,
                                             CallTiming* timing) {
    const auto t0 = Clock::now();
    const std::string body = c2lsh::serve::EncodeRequest(req);
    C2LSH_RETURN_IF_ERROR(
        c2lsh::serve::WriteFrame(*conn_, body, c2lsh::Deadline::AfterMillis(60000)));
    const auto t1 = Clock::now();
    std::string frame;
    bool eof = false;
    C2LSH_RETURN_IF_ERROR(
        c2lsh::serve::ReadFrame(*conn_, &frame, &eof, c2lsh::Deadline::AfterMillis(60000)));
    const auto t2 = Clock::now();
    if (eof) return Status::IOError("server closed the connection");
    c2lsh::serve::Response resp;
    C2LSH_RETURN_IF_ERROR(c2lsh::serve::DecodeResponse(
        reinterpret_cast<const uint8_t*>(frame.data()), frame.size(), &resp));
    if (timing != nullptr) {
      timing->send_us = Seconds(t0, t1) * 1e6;
      timing->wait_ms = Seconds(t1, t2) * 1e3;
    }
    return resp;
  }

 private:
  std::unique_ptr<c2lsh::Connection> conn_;
};

// Samples of one phase, one entry per checked call (lag_ms: per send).
struct Samples {
  std::vector<double> query_ms, send_us, wait_ms, lag_ms;
  std::vector<double> at_s;  // from the phase start: completion (closed loop), due (open)
  void Merge(const Samples& o) {
    for (auto [dst, src] : {std::pair{&query_ms, &o.query_ms}, {&send_us, &o.send_us},
                            {&wait_ms, &o.wait_ms}, {&lag_ms, &o.lag_ms},
                            {&at_s, &o.at_s}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }
};

// Runs fn(t, &samples) on threads t = 0..threads-1 and merges their samples.
template <typename Fn>
Samples RunThreads(size_t threads, Fn fn) {
  std::vector<Samples> per(threads);
  std::vector<std::thread> ts;
  for (size_t t = 0; t < threads; ++t) ts.emplace_back([&, t] { fn(t, &per[t]); });
  for (std::thread& th : ts) th.join();
  Samples all;
  for (const Samples& s : per) all.Merge(s);
  return all;
}

// A closed loop: each of `threads` threads calls call(t, rng) back to back
// for `seconds`, drawing from its own stream `stream` of the seed. `call`
// returns whether the call passed its checks; each one that did is timed.
template <typename Call>
Samples ClosedLoop(size_t threads, double seconds, uint64_t seed, int stream, Call call) {
  const auto start = Clock::now();
  const auto stop = start + Duration(seconds);
  return RunThreads(threads, [&](size_t t, Samples* s) {
    Rng rng = Rng::Stream(seed, 1000 + t + 100 * stream);
    while (Clock::now() < stop) {
      const auto t0 = Clock::now();
      if (!call(t, rng)) continue;
      const auto t1 = Clock::now();
      s->query_ms.push_back(Seconds(t0, t1) * 1e3);
      s->at_s.push_back(Seconds(start, t1));
    }
  });
}

// Completed calls per second: the median window rate, robust to a few
// seconds of outside interference.
double MedianRate(const Samples& s, double seconds) {
  return MedianWindowRate(s.at_s, seconds, kWindowSeconds);
}

// The tracing overhead of a closed loop, loop(seconds, stream) -> Samples:
// 1 - traced / untraced completions. After a discarded warm-up part, the
// loop runs in four pairs of parts, untraced and traced, on one request
// stream, in the order U T, T U, U T, T U, so that a steady drift of the
// host's speed cancels; the median of the four pairs' ratios keeps a step
// in the host's speed, which moves one pair, from moving the result.
// Leaves tracing off.
template <typename Loop>
double TracingOverhead(double seconds, int stream, Loop loop) {
  c2lsh::obs::Tracer& tracer = c2lsh::obs::Tracer::Global();
  const double part_s = seconds / 9;
  loop(part_s, stream);
  std::vector<double> ratios;
  for (int pair = 0; pair < 4; ++pair) {
    double done[2] = {0.0, 0.0};  // untraced, traced
    for (int k = 0; k < 2; ++k) {
      const bool on = (k == 1) != (pair % 2 == 1);
      tracer.SetMode(on ? c2lsh::obs::TraceMode::kAlways : c2lsh::obs::TraceMode::kOff);
      done[on] = static_cast<double>(loop(part_s, stream).at_s.size());
    }
    ratios.push_back(done[1] / std::max(1.0, done[0]));
  }
  tracer.SetMode(c2lsh::obs::TraceMode::kOff);
  return 1.0 - Median(ratios);
}

class ServedRun {
 public:
  ServedRun(const Workload& w, const Dataset& data, const FloatMatrix& pool,
            const std::vector<NeighborList>& gt, uint64_t seed, size_t threads,
            const std::string& workdir, Ledger* ledger)
      : w_(w), data_(data), pool_(pool), gt_(gt), seed_(seed), threads_(threads),
        workdir_(workdir), ledger_(ledger), query_zipf_(pool.num_rows(), 1.0),
        tenant_zipf_(kTenants, 1.0) {}

  ServedRun(const ServedRun&) = delete;
  ServedRun& operator=(const ServedRun&) = delete;
  ~ServedRun() { TearDown(); }

  // Build + Server::Start + AddIndex + warm-up; returns seconds.
  double SetUp(int rep, Report* report) {
    TearDown();
    dir_ = workdir_ + "/" + w_.name + "-" + std::to_string(rep);
    FreshDir(dir_);
    const auto t0 = Clock::now();
    auto index = DiskC2lshIndex::Build(data_, IndexOptions(), dir_ + "/index.pf",
                                       w_.pool_pages, /*store_vectors=*/true);
    DieIf(index.status(), "DiskC2lshIndex::Build");
    const double index_bytes = static_cast<double>(index->FilePages()) *
                               static_cast<double>(IndexOptions().page_bytes);
    c2lsh::serve::ServerOptions opts;
    opts.address = "127.0.0.1:0";
    opts.transport = &transport_;
    opts.max_connections = threads_ + 4;
    opts.admission.per_tenant.max_in_flight = threads_;
    opts.admission.per_tenant.max_queue = 64;
    opts.admission.per_tenant.queue_timeout_millis = 30000.0;
    opts.admission.overflow = opts.admission.per_tenant;
    auto server = c2lsh::serve::Server::Start(opts);
    DieIf(server.status(), "Server::Start");
    server_ = std::move(server).value();
    DieIf(server_->AddIndex("main", std::move(index).value()), "AddIndex");
    clients_.clear();
    for (size_t t = 0; t < threads_; ++t) {
      clients_.push_back(std::make_unique<Client>(&transport_, server_->address()));
    }
    for (size_t i = 0; i < std::min(kWarmupQueries, pool_.num_rows()); ++i) {
      QueryOnce(*clients_[0], i, 0, nullptr);
    }
    const double s = Seconds(t0, Clock::now());
    if (report != nullptr) {
      report->Add("index_bytes_per_data_byte",
                  index_bytes / (static_cast<double>(kN * data_.dim()) * 4.0), "ratio",
                  "FilePages x page bytes / (n d 4)");
    }
    return s;
  }

  // One pass over the whole pool in order: warms the pool, scores quality,
  // records the reference answer of each query (the first set-up's; later
  // set-ups must answer the same), and gives the deterministic per-query
  // work counts.
  Quality QualityPass(Report* report) {
    CounterSet c({"disk_c2lsh_rounds_total", "disk_c2lsh_collision_increments_total",
                  "disk_c2lsh_candidates_verified_total", "disk_c2lsh_buckets_scanned_total",
                  "disk_c2lsh_queries_total"});
    Quality quality;
    std::vector<NeighborList> answers(pool_.num_rows());
    for (size_t i = 0; i < pool_.num_rows(); ++i) {
      if (QueryOnce(*clients_[0], i, 0, nullptr, &answers[i])) {
        (void)Score(answers[i], gt_[i], &quality);
      }
    }
    if (reference_.empty()) reference_ = std::move(answers);
    const double q = static_cast<double>(std::max<uint64_t>(1, c.Delta("disk_c2lsh_queries_total")));
    if (report != nullptr) {
      report->Add("core.rounds_per_query", c.Delta("disk_c2lsh_rounds_total") / q, "count");
      report->Add("core.collision_increments_per_query",
                  c.Delta("disk_c2lsh_collision_increments_total") / q, "count");
      report->Add("core.candidates_verified_per_query",
                  c.Delta("disk_c2lsh_candidates_verified_total") / q, "count");
      report->Add("core.buckets_scanned_per_query",
                  c.Delta("disk_c2lsh_buckets_scanned_total") / q, "count");
    }
    return quality;
  }

  // Closed loop: each connection sends back to back for `seconds`.
  Samples Capacity(double seconds, int stream) {
    return ClosedLoop(threads_, seconds, seed_, stream, [&](size_t t, Rng& rng) {
      const size_t q = query_zipf_.Draw(rng);
      const uint32_t tenant = static_cast<uint32_t>(tenant_zipf_.Draw(rng));
      return QueryOnce(*clients_[t], q, tenant, nullptr);
    });
  }

  // The seeded open-loop schedule of `arrivals` requests at the fixed rate.
  std::vector<Arrival> Schedule(size_t arrivals) const {
    return MakeSchedule(seed_, w_.rate, arrivals, query_zipf_, tenant_zipf_);
  }

  // Open loop over schedule[begin, end), started now as if at the due time
  // of slot `begin`; latencies from each arrival's due time. Samples keep
  // their due time in the whole schedule.
  Samples FixedRate(const std::vector<Arrival>& schedule, size_t begin, size_t end) {
    std::atomic<size_t> next{begin};
    const auto start = Clock::now() + std::chrono::milliseconds(20) -
                       Duration(static_cast<double>(begin) / w_.rate);
    return RunThreads(threads_, [&](size_t t, Samples* s) {
      for (size_t i = next++; i < end; i = next++) {
        const Arrival& a = schedule[i];
        const auto due = start + Duration(a.due_s);
        std::this_thread::sleep_until(due);
        s->lag_ms.push_back(Seconds(due, Clock::now()) * 1e3);
        CallTiming timing;
        if (QueryOnce(*clients_[t], a.query, a.tenant, &timing)) {
          s->query_ms.push_back(Seconds(due, Clock::now()) * 1e3);
          s->send_us.push_back(timing.send_us);
          s->wait_ms.push_back(timing.wait_ms);
          s->at_s.push_back(a.due_s);
        }
      }
    });
  }

  // The pool in order, one query at a time on one connection, for at least
  // 20 queries and `seconds` (the traced attribution phase). Returns the
  // number of queries sent.
  size_t Sequential(double seconds) {
    const auto stop = Clock::now() + Duration(seconds);
    size_t sent = 0;
    for (; sent < 20 || Clock::now() < stop; ++sent) {
      QueryOnce(*clients_[0], sent % pool_.num_rows(), 0, nullptr);
    }
    return sent;
  }

  void TearDown() {
    clients_.clear();
    if (server_ != nullptr) {
      const c2lsh::serve::DrainReport r = server_->Drain();
      if (r.leaked_tickets != 0) ledger_->Fail("drain leaked tickets");
      server_.reset();
    }
    if (!dir_.empty()) RemoveDir(dir_);
    dir_.clear();
  }

 private:
  c2lsh::serve::Request QueryRequest(const float* v, uint32_t tenant) const {
    c2lsh::serve::Request req;
    req.type = c2lsh::serve::MsgType::kQuery;
    req.tenant = "tenant-" + std::to_string(tenant);
    req.index = "main";
    req.deadline_micros = kWireDeadlineMicros;
    req.k = static_cast<uint32_t>(kK);
    req.vector.assign(v, v + data_.dim());
    return req;
  }

  // One checked query of pool entry `q`: status OK, not tagged partial, a
  // well-formed answer with exact distances, never closer than the exact
  // neighbors, and (once the quality pass recorded it) the same answer as the
  // first one to this query. False if it failed; the ledger has the reason.
  bool QueryOnce(Client& client, size_t q, uint32_t tenant, CallTiming* timing,
                 NeighborList* out = nullptr) {
    ledger_->Attempt();
    const float* v = pool_.row(q);
    auto resp = client.Call(QueryRequest(v, tenant), timing);
    if (!resp.ok()) {
      ledger_->Fail("query transport: " + resp.status().ToString());
      return false;
    }
    if (resp->code != c2lsh::StatusCode::kOk) {
      ledger_->Fail("query status " + std::to_string(static_cast<int>(resp->code)) + ": " +
                    resp->message);
      return false;
    }
    if (c2lsh::serve::IsEarlyStop(resp->termination)) {
      ledger_->Fail("query came back tagged partial");
      return false;
    }
    Quality ignored;
    std::string bad = CheckAnswer(data_, v, resp->neighbors);
    if (bad.empty()) bad = Score(resp->neighbors, gt_[q], &ignored);
    if (bad.empty() && !reference_.empty() && !reference_[q].empty() &&
        !(reference_[q] == resp->neighbors)) {
      bad = "answer differs from the first answer to the same query";
    }
    if (!bad.empty()) {
      ledger_->Fail(bad);
      return false;
    }
    if (out != nullptr) *out = std::move(resp->neighbors);
    return true;
  }

  const Workload& w_;
  const Dataset& data_;
  const FloatMatrix& pool_;
  const std::vector<NeighborList>& gt_;
  uint64_t seed_;
  size_t threads_;
  std::string workdir_;
  Ledger* ledger_;
  Zipf query_zipf_, tenant_zipf_;
  std::vector<NeighborList> reference_;
  c2lsh::serve::PosixTransport transport_;
  std::unique_ptr<c2lsh::serve::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Reference rows: the probe table's columns on this workload's dataset, next
// to the linear-scan floor. Each is the best of three passes over the same
// kRefQueries queries.

template <typename Fn>
double BestMsPerQuery(size_t queries, Fn pass) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    pass();
    best = std::min(best, Seconds(t0, Clock::now()) * 1e3 / static_cast<double>(queries));
  }
  return best;
}

void ReferenceRows(const Dataset& data, const FloatMatrix& pool, const C2lshIndex* mem_index,
                   const std::string& workdir, Ledger* ledger, Report* report) {
  const size_t nq = std::min(kRefQueries, pool.num_rows());
  auto sub = FloatMatrix::Create(nq, pool.dim());
  DieIf(sub.status(), "reference queries");
  for (size_t i = 0; i < nq; ++i) std::memcpy(sub->mutable_row(i), pool.row(i), pool.dim() * 4);

  std::unique_ptr<C2lshIndex> owned;
  if (mem_index == nullptr) {
    auto built = C2lshIndex::Build(data, IndexOptions());
    DieIf(built.status(), "C2lshIndex::Build");
    owned = std::make_unique<C2lshIndex>(std::move(built).value());
    mem_index = owned.get();
  }
  std::vector<NeighborList> serial(nq);
  report->Add("ref.serial_query_ms", BestMsPerQuery(nq, [&] {
                C2lshIndex::Searcher searcher(mem_index);
                for (size_t i = 0; i < nq; ++i) {
                  auto r = searcher.Query(data, sub->row(i), kK);
                  DieIf(r.status(), "serial query");
                  serial[i] = std::move(r).value();
                }
              }), "ms", "Searcher::Query, one thread");
  auto check_batch = [&](const std::vector<NeighborList>& got, const char* what) {
    for (size_t i = 0; i < nq; ++i) {
      if (!(got[i] == serial[i])) ledger->Fail(std::string(what) + " differs from serial Query");
    }
  };
  C2lshIndex::BatchQueryOptions one;
  one.batch_size = 1;
  one.num_shards = 1;
  report->Add("ref.batch1_query_ms", BestMsPerQuery(nq, [&] {
                auto r = mem_index->QueryBatch(data, *sub, kK, one);
                DieIf(r.status(), "QueryBatch bs=1");
                check_batch(*r, "QueryBatch bs=1");
              }), "ms", "QueryBatch batch_size=1, one shard");
  report->Add("ref.batch_whole_ms_per_query", BestMsPerQuery(nq, [&] {
                auto r = mem_index->QueryBatch(data, *sub, kK);
                DieIf(r.status(), "QueryBatch");
                check_batch(*r, "QueryBatch");
              }), "ms", "QueryBatch, whole batch, default shards");

  const std::string dir = workdir + "/reference";
  FreshDir(dir);
  {
    auto disk = DiskC2lshIndex::Build(data, IndexOptions(), dir + "/index.pf", 65536, true);
    DieIf(disk.status(), "reference DiskC2lshIndex::Build");
    auto pass = [&] {
      for (size_t i = 0; i < nq; ++i) {
        auto r = disk->Query(sub->row(i), kK);
        DieIf(r.status(), "disk query");
      }
    };
    pass();  // warm the pool
    report->Add("ref.disk_warm_query_ms", BestMsPerQuery(nq, pass), "ms",
                "DiskC2lshIndex::Query, stored vectors, warm 65536-page pool");
  }
  RemoveDir(dir);

  c2lsh::LinearScan scan;
  report->Add("baselines.linear_scan_ms_per_query", BestMsPerQuery(nq, [&] {
                for (size_t i = 0; i < nq; ++i) {
                  auto r = scan.Search(data, sub->row(i), kK);
                  DieIf(r.status(), "linear scan");
                }
              }), "ms", "exact scan, one thread");
}

// ---------------------------------------------------------------------------
// Workload runs

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

void RunServed(const Workload& w, const Args& args, const Dataset& data, const FloatMatrix& pool,
               const std::vector<NeighborList>& gt, Ledger* ledger, Report* report) {
  const size_t threads = CoreCount();
  ServedRun run(w, data, pool, gt, args.seed, threads, args.workdir, ledger);
  const double capacity_s = kCapacityShare * args.seconds;
  const double fixed_s = args.seconds - capacity_s;
  const std::vector<Arrival> schedule =
      run.Schedule(static_cast<size_t>(std::llround(w.rate * fixed_s)));

  // Each set-up builds a fresh index whose page frames land elsewhere in
  // memory, and on the reference host the closed-loop rate differed by up
  // to a quarter from one set-up's index to the next. So the timed phases
  // are cut into one part per set-up, run right after it, and joined on one
  // timeline: the median window rate and the window percentiles then span
  // every set-up's index and most of the run's length.
  std::vector<double> setups;
  Quality quality;
  Samples capacity, fixed, last_fixed;
  std::unique_ptr<CounterSet> c;
  std::unique_ptr<HistogramDelta> disk_ms, admit_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    setups.push_back(run.SetUp(rep, last ? report : nullptr));
    quality = run.QualityPass(last ? report : nullptr);
    // The per-layer figures come from the last set-up's timed phases:
    // registry counters over both, histograms and client timings over the
    // fixed rate, read as soon as they end so the checks after them do not
    // leak in.
    if (last) {
      c = std::make_unique<CounterSet>(std::vector<const char*>{
          "buffer_pool_hits_total", "buffer_pool_misses_total", "buffer_pool_evictions_total",
          "page_file_reads_total", "retry_retries_total", "admission_shed_queue_full_total",
          "admission_shed_timeout_total", "disk_c2lsh_queries_total"});
    }
    const double part_s = capacity_s / kSetupReps;
    Samples cap = run.Capacity(part_s, rep);
    for (double& at : cap.at_s) at += rep * part_s;
    capacity.Merge(cap);
    if (last) {
      disk_ms = std::make_unique<HistogramDelta>("disk_c2lsh_query_millis");
      admit_ms = std::make_unique<HistogramDelta>("admission_queue_wait_millis");
    }
    last_fixed = run.FixedRate(schedule, schedule.size() * rep / kSetupReps,
                               schedule.size() * (rep + 1) / kSetupReps);
    fixed.Merge(last_fixed);
  }
  std::map<std::string, uint64_t> d;
  for (const char* name : c->names) d[name] = c->Delta(name);
  const double disk_p50 = disk_ms->Percentile(50.0);
  const uint64_t disk_n = disk_ms->Count();
  const double admit_p90 = admit_ms->Percentile(kTailPercentile);
  const uint64_t admit_n = admit_ms->Count();

  report->Add("query_qps", MedianRate(capacity, capacity_s), "1/s",
              "closed loop, " + std::to_string(threads) + " connections");
  const double window_s = fixed_s / kOpenWindows;
  report->AddWindowedPercentile("query_p50_ms", fixed.at_s, fixed.query_ms, fixed_s, window_s,
                                50.0, "ms");
  report->Add("recall_at_10", quality.recall(), "ratio",
              "over " + std::to_string(quality.queries) + " distinct queries");
  report->Add("overall_ratio", quality.ratio(), "ratio");
  report->Add("setup_s", Median(setups), "s", "median of " + std::to_string(kSetupReps));

  if (!args.trace) return;
  const double served_queries =
      static_cast<double>(std::max<uint64_t>(1, d["disk_c2lsh_queries_total"]));
  const double fetches =
      static_cast<double>(d["buffer_pool_hits_total"] + d["buffer_pool_misses_total"]);
  const double wait_p50 = PercentileOf(last_fixed.wait_ms, 50.0).value;
  report->AddPercentile("serve.client_send_us", last_fixed.send_us, 50.0, "us");
  report->AddPercentile("serve.client_wait_ms", last_fixed.wait_ms, 50.0, "ms");
  report->Add("serve.overhead_ms", wait_p50 - disk_p50, "ms", "client wait p50 - disk query p50");
  report->Add("serve.admission_wait_p90_ms", admit_p90, "ms",
              "registry histogram, n=" + std::to_string(admit_n));
  report->Add("serve.shed_total",
              static_cast<double>(d["admission_shed_queue_full_total"] +
                                  d["admission_shed_timeout_total"]),
              "count");
  report->Add("core.disk_query_ms", disk_p50, "ms",
              "registry histogram p50, n=" + std::to_string(disk_n));
  report->Add("core.mem_query_ms", 0.0, "ms", "not on this path");
  report->Add("core.batch_ms_per_query", 0.0, "ms", "not on this path");
  report->Add("core.batch_shared_scan_hit_ratio", 0.0, "ratio", "not on this path");
  report->Add("storage.pool_fetches_per_query", fetches / served_queries, "count");
  report->Add("storage.pool_hit_rate", fetches > 0 ? d["buffer_pool_hits_total"] / fetches : 0.0,
              "ratio");
  report->Add("storage.page_reads_per_query", d["page_file_reads_total"] / served_queries,
              "count");
  report->Add("storage.pool_evictions_per_query",
              d["buffer_pool_evictions_total"] / served_queries, "count");
  report->Add("util.retries_total", static_cast<double>(d["retry_retries_total"]), "count");
  report->AddWindowedPercentile("bench.query_p90_ms", fixed.at_s, fixed.query_ms, fixed_s,
                                window_s, kTailPercentile, "ms");
  report->AddPercentile("bench.generator_lag_p90_ms", fixed.lag_ms, kTailPercentile, "ms");
  report->Add("bench.latency_samples", static_cast<double>(fixed.query_ms.size()), "count");

  // Traced: the closed loop with and without tracing (the overhead), then a
  // sequential pass with the ring poller running (the attribution).
  const double overhead = TracingOverhead(
      0.3 * args.seconds, kSetupReps, [&](double s, int stream) { return run.Capacity(s, stream); });
  c2lsh::obs::Tracer::Global().SetMode(c2lsh::obs::TraceMode::kAlways);
  TraceHarvest harvest;
  harvest.Start();
  const size_t traced = run.Sequential(0.25 * args.seconds);
  harvest.Stop();
  c2lsh::obs::Tracer::Global().SetMode(c2lsh::obs::TraceMode::kOff);
  ReportTrace(*report, harvest, traced);
  report->Add("trace.overhead_frac", overhead, "ratio", "1 - traced/untraced closed-loop rate");
  run.TearDown();
  ReferenceRows(data, pool, nullptr, args.workdir, ledger, report);
}

void RunEmbedded(const Args& args, const Dataset& data, const FloatMatrix& pool,
                 const std::vector<NeighborList>& gt, Ledger* ledger, Report* report) {
  const size_t threads = CoreCount();
  std::vector<double> setups;
  std::unique_ptr<C2lshIndex> index;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    index.reset();
    const auto t0 = Clock::now();
    auto built = C2lshIndex::Build(data, IndexOptions());
    DieIf(built.status(), "C2lshIndex::Build");
    index = std::make_unique<C2lshIndex>(std::move(built).value());
    C2lshIndex::Searcher warm(index.get());
    for (size_t i = 0; i < std::min(kWarmupQueries, pool.num_rows()); ++i) {
      DieIf(warm.Query(data, pool.row(i), kK).status(), "warm-up query");
    }
    setups.push_back(Seconds(t0, Clock::now()));
  }

  // Quality pass with the deterministic work counts.
  CounterSet work({"c2lsh_rounds_total", "c2lsh_collision_increments_total",
                   "c2lsh_candidates_verified_total", "c2lsh_buckets_scanned_total",
                   "c2lsh_queries_total"});
  Quality quality;
  std::vector<NeighborList> reference(pool.num_rows());
  {
    C2lshIndex::Searcher searcher(index.get());
    for (size_t i = 0; i < pool.num_rows(); ++i) {
      ledger->Attempt();
      auto r = searcher.Query(data, pool.row(i), kK);
      if (!r.ok()) {
        ledger->Fail("query: " + r.status().ToString());
        continue;
      }
      std::string bad = CheckAnswer(data, pool.row(i), *r);
      if (bad.empty()) bad = Score(*r, gt[i], &quality);
      if (!bad.empty()) ledger->Fail(bad);
      reference[i] = std::move(r).value();
    }
  }
  const double pq = static_cast<double>(std::max<uint64_t>(1, work.Delta("c2lsh_queries_total")));
  std::map<std::string, double> per_query;
  for (const char* name : work.names) per_query[name] = work.Delta(name) / pq;

  // Closed loop: one Searcher per thread, timed per call.
  HistogramDelta mem_ms("c2lsh_query_millis");
  const Zipf zipf(pool.num_rows(), 1.0);
  std::vector<std::unique_ptr<C2lshIndex::Searcher>> searchers;
  for (size_t t = 0; t < threads; ++t) {
    searchers.push_back(std::make_unique<C2lshIndex::Searcher>(index.get()));
  }
  auto closed_loop = [&](double seconds, int stream) {
    return ClosedLoop(threads, seconds, args.seed, stream, [&](size_t t, Rng& rng) {
      const size_t q = zipf.Draw(rng);
      ledger->Attempt();
      auto r = searchers[t]->Query(data, pool.row(q), kK);
      if (!r.ok()) {
        ledger->Fail("query: " + r.status().ToString());
        return false;
      }
      if (!(*r == reference[q])) {
        ledger->Fail("answer differs from the first answer to the same query");
        return false;
      }
      return true;
    });
  };
  const Samples loop = closed_loop(args.seconds, 0);
  const double qps = MedianRate(loop, args.seconds);

  report->Add("query_qps", qps, "1/s", std::to_string(threads) + " threads, closed loop");
  report->AddWindowedPercentile("query_p50_ms", loop.at_s, loop.query_ms, args.seconds,
                                kWindowSeconds, 50.0, "ms");
  report->Add("recall_at_10", quality.recall(), "ratio",
              "over " + std::to_string(quality.queries) + " distinct queries");
  report->Add("overall_ratio", quality.ratio(), "ratio");
  report->Add("setup_s", Median(setups), "s", "median of " + std::to_string(kSetupReps));
  report->Add("index_bytes_per_data_byte",
              static_cast<double>(index->MemoryBytes()) /
                  (static_cast<double>(kN * data.dim()) * 4.0),
              "ratio", "MemoryBytes / (n d 4)");

  if (!args.trace) return;
  const std::pair<const char*, const char*> absent[] = {
      {"serve.client_send_us", "us"},
      {"serve.client_wait_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.admission_wait_p90_ms", "ms"},
      {"serve.shed_total", "count"},
      {"core.disk_query_ms", "ms"},
      {"storage.pool_fetches_per_query", "count"},
      {"storage.pool_hit_rate", "ratio"},
      {"storage.page_reads_per_query", "count"},
      {"storage.pool_evictions_per_query", "count"},
      {"util.retries_total", "count"},
      {"bench.generator_lag_p90_ms", "ms"},
  };
  for (const auto& [name, unit] : absent) report->Add(name, 0.0, unit, "not on this path");
  report->Add("core.mem_query_ms", mem_ms.Percentile(50.0), "ms",
              "registry histogram p50, n=" + std::to_string(mem_ms.Count()));
  report->Add("core.rounds_per_query", per_query["c2lsh_rounds_total"], "count");
  report->Add("core.collision_increments_per_query",
              per_query["c2lsh_collision_increments_total"], "count");
  report->Add("core.candidates_verified_per_query",
              per_query["c2lsh_candidates_verified_total"], "count");
  report->Add("core.buckets_scanned_per_query", per_query["c2lsh_buckets_scanned_total"],
              "count");

  // One QueryBatch over the whole pool, timed from outside.
  CounterSet batch({"c2lsh_batch_shared_scan_hits_total", "c2lsh_batch_scan_groups_total"});
  const auto b0 = Clock::now();
  auto batched = index->QueryBatch(data, pool, kK);
  const double batch_ms = Seconds(b0, Clock::now()) * 1e3;
  DieIf(batched.status(), "QueryBatch");
  ledger->Attempt(pool.num_rows());
  for (size_t i = 0; i < pool.num_rows(); ++i) {
    if (!((*batched)[i] == reference[i])) ledger->Fail("QueryBatch differs from Query");
  }
  const double groups = static_cast<double>(batch.Delta("c2lsh_batch_scan_groups_total"));
  report->Add("core.batch_ms_per_query", batch_ms / static_cast<double>(pool.num_rows()), "ms",
              "one QueryBatch over " + std::to_string(pool.num_rows()) + " queries");
  report->Add("core.batch_shared_scan_hit_ratio",
              groups > 0 ? batch.Delta("c2lsh_batch_shared_scan_hits_total") / groups : 0.0,
              "ratio");
  report->Add("bench.latency_samples", static_cast<double>(loop.query_ms.size()), "count");
  report->AddWindowedPercentile("bench.query_p90_ms", loop.at_s, loop.query_ms, args.seconds,
                                kWindowSeconds, kTailPercentile, "ms");

  // Traced: the closed loop with and without tracing (the overhead), then a
  // sequential pass with the poller: each query once through
  // Searcher::Query and once inside one QueryBatch.
  const double overhead = TracingOverhead(0.3 * args.seconds, 1, closed_loop);
  c2lsh::obs::Tracer::Global().SetMode(c2lsh::obs::TraceMode::kAlways);
  TraceHarvest harvest;
  harvest.Start();
  size_t traced = 0;
  {
    C2lshIndex::Searcher searcher(index.get());
    const auto stop = Clock::now() + Duration(0.2 * args.seconds);
    while (traced < pool.num_rows() && (traced < 20 || Clock::now() < stop)) {
      DieIf(searcher.Query(data, pool.row(traced), kK).status(), "traced query");
      ++traced;
    }
  }
  {
    auto sub = FloatMatrix::Create(traced, pool.dim());
    DieIf(sub.status(), "traced batch");
    for (size_t i = 0; i < traced; ++i) std::memcpy(sub->mutable_row(i), pool.row(i), pool.dim() * 4);
    DieIf(index->QueryBatch(data, *sub, kK).status(), "traced QueryBatch");
  }
  harvest.Stop();
  c2lsh::obs::Tracer::Global().SetMode(c2lsh::obs::TraceMode::kOff);
  ReportTrace(*report, harvest, traced);
  report->Add("trace.overhead_frac", overhead, "ratio", "1 - traced/untraced closed-loop rate");
  ReferenceRows(data, pool, index.get(), args.workdir, ledger, report);
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::atof(v.c_str());
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--workdir") args.workdir = v;
    else Die("unknown flag " + k);
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.seconds <= 0) Die("--seconds must be positive");

  std::printf("perfbench: workload %s seed %" PRIu64 " seconds %g trace %d cores %zu\n",
              w->name, args.seed, args.seconds, args.trace ? 1 : 0, CoreCount());
  // The dataset and the query pool are fixed; --seed drives what is drawn
  // from them: the zipf query and tenant streams and the send schedule.
  auto pd = c2lsh::MakeProfileDataset(w->profile, kN, kPoolQueries, kDataSeed);
  DieIf(pd.status(), "MakeProfileDataset");
  auto gt = c2lsh::ComputeGroundTruth(pd->data, pd->queries, kK);
  DieIf(gt.status(), "ComputeGroundTruth");

  Ledger ledger;
  Report report;
  if (w->served) {
    RunServed(*w, args, pd->data, pd->queries, *gt, &ledger, &report);
  } else {
    RunEmbedded(args, pd->data, pd->queries, *gt, &ledger, &report);
  }
  report.Add("peak_rss_mb", PeakRssMb(), "MB", "VmHWM");
  const double failed_frac = static_cast<double>(ledger.failed()) /
                             static_cast<double>(std::max<uint64_t>(1, ledger.attempted()));
  if (args.trace) report.Add("bench.failed_frac", failed_frac, "ratio");

  const bool correct = ledger.failed() == 0 && report.unpublished().empty();
  for (const std::string& u : report.unpublished()) {
    std::fprintf(stderr, "perfbench: %s has too few samples to publish\n", u.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name) {
    auto it = report.metrics().find(name);
    if (it == report.metrics().end()) Die(std::string("metric not measured: ") + name);
    if (!std::isfinite(it->second.value)) Die(std::string("metric is not finite: ") + name);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name, it->second.value, it->second.unit.c_str());
    json += buf;
    first = false;
  };
  if (args.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
