#include "src/core/index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/core/batch.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/vector/distance.h"

namespace c2lsh {
namespace {

// Registry handles for the mutation path, resolved once per process. Query
// instruments live with the round engine (batch::MemoryInstruments).
struct CoreMetrics {
  obs::Counter* compaction_runs;
  obs::Histogram* compaction_millis;
  obs::Gauge* overlay_entries;
  obs::Gauge* tombstones;
};

const CoreMetrics& Metrics() {
  static const CoreMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return CoreMetrics{
        r.GetCounter("c2lsh_compaction_runs_total",
                     "In-memory index compactions completed"),
        r.GetHistogram("c2lsh_compaction_millis",
                       "In-memory index compaction duration in milliseconds"),
        r.GetGauge("c2lsh_overlay_entries",
                   "Dynamic inserts awaiting compaction, summed over tables"),
        r.GetGauge("c2lsh_tombstones",
                   "Objects deleted but not yet compacted away"),
    };
  }();
  return m;
}

}  // namespace

C2lshIndex::C2lshIndex(C2lshOptions options, C2lshDerived derived, PStableFamily family,
                       std::vector<BucketTable> tables, size_t num_objects, size_t dim,
                       long long radius_cap)
    : options_(options),
      derived_(derived),
      family_(std::move(family)),
      tables_(std::move(tables)),
      num_objects_(num_objects),
      dim_(dim),
      radius_cap_(radius_cap),
      page_model_(options.page_bytes) {}

// Moves exist for factory returns only (the atomic and the writer Mutex are
// not movable themselves); the contract that no other thread touches either
// object during a move makes the relaxed load/fresh-Mutex exchange safe.
C2lshIndex::C2lshIndex(C2lshIndex&& other) noexcept
    : options_(std::move(other.options_)),
      derived_(other.derived_),
      family_(std::move(other.family_)),
      tables_(std::move(other.tables_)),
      num_objects_(other.num_objects_.load(std::memory_order_relaxed)),
      dim_(other.dim_),
      radius_cap_(other.radius_cap_),
      page_model_(other.page_model_) {}

C2lshIndex& C2lshIndex::operator=(C2lshIndex&& other) noexcept {
  if (this != &other) {
    options_ = std::move(other.options_);
    derived_ = other.derived_;
    family_ = std::move(other.family_);
    tables_ = std::move(other.tables_);
    num_objects_.store(other.num_objects_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    dim_ = other.dim_;
    radius_cap_ = other.radius_cap_;
    page_model_ = other.page_model_;
  }
  return *this;
}

Result<C2lshIndex> C2lshIndex::Build(const Dataset& data, const C2lshOptions& options,
                                     size_t num_threads) {
  C2LSH_ASSIGN_OR_RETURN(C2lshDerived derived, ComputeDerivedParams(options, data.size()));
  // Offsets span the whole radius schedule (see C2lshOptions::
  // max_radius_exponent): b* ~ U[0, w * c^{t*}).
  long long radius_cap = 1;
  const long long c_int = static_cast<long long>(std::llround(options.c));
  for (int i = 0; i < options.max_radius_exponent; ++i) radius_cap *= c_int;
  C2LSH_ASSIGN_OR_RETURN(
      PStableFamily family,
      PStableFamily::Sample(derived.m, data.dim(), options.w, options.seed,
                            static_cast<double>(radius_cap)));

  // Parallel build on the shared worker pool (no per-call thread creation).
  // `tables` is shared across pool lanes without a mutex because the sharing
  // is disjoint by construction: lane t writes only slots i with
  // i % lanes == t, the vector is never resized while the ParallelFor runs,
  // and ParallelFor's completion barrier publishes every slot to this thread
  // (the src/util/thread_pool.h determinism contract). `family` and `data`
  // are read-only. The race lane (race_stress_test.cc,
  // ParallelBuildMatchesSerialReference) re-checks this partitioning under
  // TSan. `num_threads` bounds concurrency by bounding the lane count; the
  // pool itself is clamped to hardware concurrency.
  std::vector<BucketTable> tables(derived.m);
  auto build_table = [&](size_t i) {
    const std::vector<BucketId> buckets = family.BucketColumn(data.vectors(), i);
    std::vector<std::pair<BucketId, ObjectId>> pairs;
    pairs.reserve(buckets.size());
    for (size_t r = 0; r < buckets.size(); ++r) {
      pairs.emplace_back(buckets[r], static_cast<ObjectId>(r));
    }
    tables[i] = BucketTable::Build(std::move(pairs));
  };
  const size_t lanes =
      std::min(num_threads == 0 ? derived.m : num_threads, derived.m);
  if (lanes <= 1) {
    for (size_t i = 0; i < derived.m; ++i) build_table(i);
  } else {
    ThreadPool::Shared().ParallelFor(lanes, [&](size_t t) {
      for (size_t i = t; i < derived.m; i += lanes) build_table(i);
    });
  }

  return C2lshIndex(options, derived, std::move(family), std::move(tables), data.size(),
                    data.dim(), radius_cap);
}

Result<C2lshIndex> C2lshIndex::FromParts(const C2lshOptions& options,
                                         const C2lshDerived& derived,
                                         PStableFamily family,
                                         std::vector<BucketTable> tables,
                                         size_t num_objects, size_t dim,
                                         long long radius_cap) {
  if (tables.size() != family.size() || tables.size() != derived.m) {
    return Status::InvalidArgument("C2lshIndex::FromParts: table/function count mismatch");
  }
  if (dim != family.dim()) {
    return Status::InvalidArgument("C2lshIndex::FromParts: dim mismatch");
  }
  if (radius_cap < 1) {
    return Status::InvalidArgument("C2lshIndex::FromParts: radius_cap must be >= 1");
  }
  return C2lshIndex(options, derived, std::move(family), std::move(tables), num_objects,
                    dim, radius_cap);
}

Status C2lshIndex::CheckDataset(const Dataset& data, size_t n) const {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("C2LSH query: dataset dim mismatch");
  }
  if (data.size() < n) {
    return Status::InvalidArgument(
        "C2LSH query: dataset has fewer objects than the index — pass the dataset the "
        "index was built on (plus any inserted rows)");
  }
  return Status::OK();
}

Result<NeighborList> C2lshIndex::QueryOne(const Dataset& data, const float* query,
                                          size_t k, double radius,
                                          const std::function<bool(ObjectId)>* filter,
                                          C2lshQueryStats* stats, obs::QueryTrace* trace,
                                          const QueryContext* ctx) const {
  if (radius <= 0 && k == 0) return Status::InvalidArgument("C2LSH query: k must be positive");
  batch::MemorySource source(*this, data, batch::MemoryInstruments());
  C2LSH_RETURN_IF_ERROR(CheckDataset(data, source.num_objects));
  batch::Block block;
  block.queries = query;
  block.num_queries = 1;
  block.qstride = dim_;
  block.k = k;
  block.radius = radius;
  block.ctxs = &ctx;
  block.traces = &trace;
  block.filter = filter;
  NeighborList result;
  batch::QueryRecord record;
  C2LSH_RETURN_IF_ERROR(batch::RunBatchBlock(source, block, &result, &record));
  if (stats != nullptr) *stats = record.base;
  return result;
}

Result<NeighborList> C2lshIndex::Query(const Dataset& data, const float* query, size_t k,
                                       C2lshQueryStats* stats, obs::QueryTrace* trace,
                                       const QueryContext* ctx) const {
  return QueryOne(data, query, k, /*radius=*/0, /*filter=*/nullptr, stats, trace, ctx);
}

Result<NeighborList> C2lshIndex::FilteredQuery(
    const Dataset& data, const float* query, size_t k,
    const std::function<bool(ObjectId)>& filter, C2lshQueryStats* stats) const {
  if (!filter) {
    return Status::InvalidArgument("FilteredQuery: filter must be callable");
  }
  return QueryOne(data, query, k, /*radius=*/0, &filter, stats, /*trace=*/nullptr,
                  /*ctx=*/nullptr);
}

Result<NeighborList> C2lshIndex::RangeQuery(const Dataset& data, const float* query,
                                            double radius, C2lshQueryStats* stats,
                                            const QueryContext* ctx) const {
  if (!(radius > 0.0)) {
    return Status::InvalidArgument("RangeQuery: radius must be positive");
  }
  return QueryOne(data, query, /*k=*/0, radius, /*filter=*/nullptr, stats,
                  /*trace=*/nullptr, ctx);
}

// Not a rehash loop: one fixed-radius pass with a mid-scan exit on the first
// hit, so it keeps its own counts instead of running through the engine.
Result<Neighbor> C2lshIndex::DecisionQuery(const Dataset& data, const float* query,
                                           long long R, C2lshQueryStats* stats,
                                           const QueryContext* ctx) const {
  if (R <= 0) return Status::InvalidArgument("DecisionQuery: R must be positive");
  // Frozen view, same scheme as every query: count first, then pin each
  // table.
  const size_t n = num_objects();
  C2LSH_RETURN_IF_ERROR(CheckDataset(data, n));
  C2lshQueryStats local_stats;
  C2lshQueryStats* st = (stats != nullptr) ? stats : &local_stats;
  *st = C2lshQueryStats();
  st->rounds = 1;
  st->final_radius = R;

  std::vector<BucketTable::Snapshot> snaps;
  snaps.reserve(tables_.size());
  for (const BucketTable& table : tables_) snaps.push_back(table.snapshot());
  std::vector<uint32_t> counts(n, 0);

  std::vector<BucketId> qbuckets;
  family_.BucketAll(query, &qbuckets);

  const uint32_t l = static_cast<uint32_t>(derived_.l);
  const double cr = derived_.model.c * static_cast<double>(R);
  const size_t fp_budget =
      1 + static_cast<size_t>(std::ceil(derived_.beta * static_cast<double>(n)));
  const uint64_t vector_pages = page_model_.PagesPerVector(dim_);

  Neighbor best{0, std::numeric_limits<float>::infinity()};
  bool have_hit = false;
  size_t verified = 0;
  Termination early_stop = Termination::kNone;

  for (size_t i = 0; i < tables_.size() && !have_hit && verified < fp_budget &&
                     early_stop == Termination::kNone;
       ++i) {
    const BucketRange range = IntervalForRadius(qbuckets[i], R, radius_cap_);
    ++st->index_pages;  // per-table descent
    const size_t range_entries = snaps[i].EntriesInRange(range.lo, range.hi);
    if (range_entries > 0) {
      st->index_pages += page_model_.PagesForEntries(range_entries, sizeof(ObjectId));
    }
    snaps[i].ForEachInRange(range.lo, range.hi, [&](ObjectId id) {
      if (static_cast<size_t>(id) >= n) return;  // inserted after this query started
      ++st->collision_increments;
      if (ctx != nullptr && early_stop == Termination::kNone) {
        early_stop = ctx->CheckEvery(st->collision_increments);
      }
      if (have_hit || verified >= fp_budget || early_stop != Termination::kNone) return;
      if (++counts[id] == l) {
        const double dist = L2(query, data.object(id), dim_);
        ++verified;
        ++st->candidates_verified;
        st->data_pages += vector_pages;
        if (dist <= cr) {
          best = Neighbor{id, static_cast<float>(dist)};
          have_hit = true;
        }
      }
    });
  }
  st->buckets_scanned = st->collision_increments;
  if (early_stop != Termination::kNone) st->termination = early_stop;
  if (have_hit) return best;
  if (IsEarlyStop(early_stop)) {
    // Interrupted before a hit surfaced: NOT a verified "no" — the stats
    // carry kDeadline/kCancelled so callers can tell the two apart.
    return Status::NotFound("decision query stopped early (deadline/cancel) at radius " +
                            std::to_string(R));
  }
  return Status::NotFound("no object within distance c*R surfaced at radius " +
                          std::to_string(R));
}

std::vector<uint32_t> C2lshIndex::CollisionCountsAtRadius(const float* query,
                                                          long long R) const {
  std::vector<uint32_t> counts(num_objects(), 0);
  std::vector<BucketId> qbuckets;
  family_.BucketAll(query, &qbuckets);
  for (size_t i = 0; i < tables_.size(); ++i) {
    const BucketRange range = IntervalForRadius(qbuckets[i], R, radius_cap_);
    tables_[i].ForEachInRange(range.lo, range.hi, [&](ObjectId id) {
      if (id < counts.size()) ++counts[id];
    });
  }
  return counts;
}

Status C2lshIndex::Insert(ObjectId id, const float* v) {
  std::vector<BucketId> buckets;
  family_.BucketAll(v, &buckets);
  MutexLock lock(&writer_mu_);
  for (size_t i = 0; i < tables_.size(); ++i) {
    tables_[i].Insert(buckets[i], id);
  }
  // Publication order matters: the release-store of the count happens after
  // every table published its new version, so a query that admits `id` by
  // `id < num_objects()` is guaranteed to find its entries (see num_objects()).
  if (static_cast<size_t>(id) + 1 > num_objects()) {
    num_objects_.store(static_cast<size_t>(id) + 1, std::memory_order_release);
  }
  UpdateMutationGauges();
  return Status::OK();
}

Status C2lshIndex::Delete(ObjectId id) {
  MutexLock lock(&writer_mu_);
  if (static_cast<size_t>(id) >= num_objects()) {
    return Status::NotFound("Delete: object id " + std::to_string(id) +
                            " was never registered with this index");
  }
  for (BucketTable& table : tables_) {
    table.Delete(id);
  }
  UpdateMutationGauges();
  return Status::OK();
}

void C2lshIndex::Compact() {
  obs::ScopedSpan compact_span(obs::SpanSubsystem::kCompaction, "compact");
  MutexLock lock(&writer_mu_);
  Timer timer;
  for (BucketTable& table : tables_) {
    table.Compact();
  }
  // Trailing deletes lower the high-water: every table holds the same id
  // set, so the front table's largest live id is the index's.
  if (!tables_.empty()) {
    const long long max_live = tables_.front().snapshot().MaxLiveId();
    num_objects_.store(static_cast<size_t>(max_live + 1), std::memory_order_release);
  }
  const CoreMetrics& m = Metrics();
  m.compaction_runs->Increment();
  m.compaction_millis->Observe(timer.ElapsedMillis());
  UpdateMutationGauges();
}

void C2lshIndex::UpdateMutationGauges() const {
  size_t overlay = 0;
  for (const BucketTable& table : tables_) overlay += table.OverlayEntries();
  const CoreMetrics& m = Metrics();
  m.overlay_entries->Set(static_cast<double>(overlay));
  // Every table tombstones the same id set; the front table's count is the
  // index-wide number of pending deletes.
  m.tombstones->Set(tables_.empty()
                        ? 0.0
                        : static_cast<double>(tables_.front().NumTombstones()));
}

C2lshIndex::IndexStats C2lshIndex::ComputeStats() const {
  IndexStats s;
  s.num_tables = tables_.size();
  if (tables_.empty()) return s;
  s.min_buckets = std::numeric_limits<size_t>::max();
  double bucket_sum = 0.0;
  double mean_size_sum = 0.0;
  for (size_t i = 0; i < tables_.size(); ++i) {
    // One snapshot per table so each table's figures are internally
    // consistent even while mutators run.
    const BucketTable::Snapshot snap = tables_[i].snapshot();
    if (i == 0) s.entries_per_table = snap.num_entries();
    const size_t buckets = snap.num_buckets();
    bucket_sum += static_cast<double>(buckets);
    s.min_buckets = std::min(s.min_buckets, buckets);
    s.max_buckets = std::max(s.max_buckets, buckets);
    if (buckets > 0) {
      mean_size_sum +=
          static_cast<double>(snap.num_entries()) / static_cast<double>(buckets);
    }
    s.max_bucket_size = std::max(s.max_bucket_size, snap.MaxBucketSize());
    s.overlay_entries += snap.OverlayEntries();
  }
  s.mean_buckets_per_table = bucket_sum / static_cast<double>(tables_.size());
  s.mean_bucket_size = mean_size_sum / static_cast<double>(tables_.size());
  return s;
}

size_t C2lshIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const BucketTable& table : tables_) {
    bytes += table.MemoryBytes();
  }
  // Hash functions, including the packed (aligned, padded) projection
  // matrix behind BucketAll/BucketColumn.
  bytes += family_.MemoryBytes();
  return bytes;
}

}  // namespace c2lsh
