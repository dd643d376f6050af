// The round engine: the one c-k-ANN round loop behind every C2LSH query, in
// memory and on disk. A single Query is a block of one query on one shard;
// C2lshIndex::QueryBatch runs co-resident blocks with shared scans and table
// sharding.
//
// C2LSH's dynamic collision counting makes the rehash round the natural
// synchronization boundary: a query's verified set at the end of a round is
// {id : cumulative collision count >= l}, which does not depend on the order
// the increments arrived in, and the T1/T2 termination tests are evaluated
// only at round end over that set. The engine exploits this twice:
//
//  * Shared scans. All co-resident queries advance through the radii
//    R = 1, c, c^2, ... in lockstep. Within a round, queries whose delta
//    interval lands on the same bucket run of the same table are grouped,
//    and each distinct run is scanned ONCE — the single pass feeds every
//    grouped query's collision counts. Per-query I/O accounting (index
//    pages, buckets scanned) is still charged per query, exactly as if the
//    query ran alone.
//
//  * Table sharding. The m tables are partitioned across N shards (shard s
//    owns tables i with i % N == s) and scanned by a reusable worker pool
//    (src/util/thread_pool.h). Phase A: each shard scans its tables into
//    shard-private buffers — no shared counters, no atomics in the hot path.
//    Phase B: each query (one owner per counter) merges all shards' buffers,
//    increments its counts, and verifies candidates crossing l. T1/T2/
//    exhausted decisions are made on the merged counts at the round barrier.
//
// Determinism contract: because the verified set is increment-order-
// independent, the merged per-round state — counts, verified set, found
// set, stats totals — is identical for every shard count, pool size, and
// scan order, and the final ranking is fixed by the total order
// NeighborLess (distance, then id). Results and stats are therefore
// bitwise-identical for every batch_size/num_shards/pool configuration, and
// equal to the naive reference C2LSH in tests/reference_c2lsh.h (checked in
// batch_engine_test.cc, including under TSan).
//
// Per-query QueryContext semantics: the full deadline/cancellation/page-
// budget check runs at every round boundary, the cancellation token is
// polled on every collision increment (during the Phase B merge), and the
// clock is read every kCheckIntervalMask+1 increments
// (QueryContext::CheckEvery). A query that expires goes inactive with its
// partial results and the usual kDeadline/kCancelled termination — its
// batchmates are unaffected. (Mid-flight wall-clock expiry is inherently not
// reproducible; deterministic context states — pre-cancelled tokens,
// pre-expired deadlines, page budgets — terminate identically in every
// configuration, as the budget is checked only at round boundaries on
// order-independent page totals.)
//
// The engine has two seams, both in Source: where bucket runs come from
// (pinned memory snapshots, or disk entry pages through the BufferPool) and
// where candidate vectors come from (the caller's Dataset, or the disk data
// segment). A source reports failures per range and per vector: Corruption
// drops the table (or candidate) for that query and flags it degraded; an
// Unavailable the query's own context caused (an abandoned retry, an
// expired deadline) becomes its early stop; any other error fails it.

#pragma once
#ifndef C2LSH_CORE_BATCH_H_
#define C2LSH_CORE_BATCH_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "src/core/index.h"
#include "src/core/params.h"
#include "src/core/virtual_rehash.h"
#include "src/lsh/pstable.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/query_context.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"
#include "src/vector/types.h"

namespace c2lsh {
namespace batch {

/// One query's record: the algorithmic stats plus what a storage source adds
/// (measured pool traffic, degraded-query accounting). DiskC2lshIndex exposes
/// it as DiskQueryStats.
struct QueryRecord {
  /// Rounds, candidates, etc. On disk, index_pages here is the MEASURED
  /// pool-miss count of the bucket scans.
  C2lshQueryStats base;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  /// Degraded-query accounting: when an index or data page fails its
  /// checksum mid-query, the query drops the affected table (or candidate)
  /// instead of aborting — the results are still genuine neighbors with
  /// exact distances, but possibly fewer of them. `degraded` is the signal
  /// that the answer may be incomplete; it is NEVER silently wrong.
  bool degraded = false;
  uint64_t tables_skipped = 0;      ///< hash tables dropped on a corrupt page
  uint64_t candidates_skipped = 0;  ///< candidates dropped on a corrupt data page
};

/// The registry instruments one family of queries flushes into at query end
/// (the hot round loop never touches an atomic). The registry deduplicates
/// by name, so every source of the same family lands in one set.
struct QueryInstruments {
  const char* site;  ///< query span name and flight-recorder anomaly site
  obs::Counter* queries;
  obs::Counter* rounds;
  obs::Counter* collision_increments;
  obs::Counter* candidates_verified;
  obs::Counter* buckets_scanned;
  obs::Counter* t1;
  obs::Counter* t2;
  obs::Counter* exhausted;
  obs::Counter* deadline;
  obs::Counter* cancelled;
  obs::Histogram* latency;
  /// Disk only (null otherwise): degraded-query accounting.
  obs::Counter* degraded_queries = nullptr;
  obs::Counter* tables_skipped = nullptr;
  obs::Counter* candidates_skipped = nullptr;
  /// QueryBatch only (null otherwise).
  obs::Counter* batch_queries = nullptr;
  obs::Histogram* batch_latency = nullptr;
};

/// In-memory single queries (c2lsh_*), QueryBatch queries (c2lsh_* plus
/// c2lsh_batch_*), and disk queries (disk_c2lsh_*).
const QueryInstruments& MemoryInstruments();
const QueryInstruments& BatchInstruments();
const QueryInstruments& DiskInstruments();

/// The engine-level batch instruments (blocks, shared scans, QueryBatch
/// gauges).
struct EngineInstruments {
  obs::Counter* blocks;
  obs::Counter* scan_groups;
  obs::Counter* shared_scan_hits;
  obs::Gauge* batch_size;
  obs::Gauge* num_shards;
  obs::Gauge* pool_threads;
};
const EngineInstruments& Engine();

/// One scan of one bucket run: the live ids (in scan order) plus the cost
/// every member query is charged for it.
struct BucketScan {
  std::vector<ObjectId> ids;
  uint64_t index_pages = 0;      ///< pages this run costs each member
  uint64_t buckets_scanned = 0;  ///< live entries enumerated
  size_t table = 0;
  Status status;  ///< non-OK: the scan stopped there (ids hold what it read)
};

/// Where a block's bucket runs and candidate vectors come from. Scan may run
/// concurrently on distinct tables (one shard each) and Vector concurrently
/// for distinct queries; sources that cannot (the disk) run blocks of one
/// query on one shard.
class Source {
 public:
  Source(const PStableFamily& family, const C2lshDerived& derived,
         size_t num_objects, long long radius_cap, uint64_t descent_pages,
         const QueryInstruments& instruments)
      : family(family),
        derived(derived),
        num_objects(num_objects),
        radius_cap(radius_cap),
        descent_pages(descent_pages),
        instruments(instruments) {}
  virtual ~Source() = default;

  /// Appends the ids of table `table`'s live entries with bucket in `range`
  /// to out->ids and sets the scan's cost. Ids >= num_objects are skipped
  /// (objects published after the block fixed its view).
  virtual Status Scan(size_t table, const BucketRange& range, BucketScan* out) = 0;

  /// True once `range` spans every entry table `table` holds: later rounds
  /// cannot add collisions from it.
  virtual bool Covers(size_t table, const BucketRange& range) const = 0;

  /// Points *vec at candidate `id`'s vector and adds its fetch cost to *pages.
  virtual Status Vector(ObjectId id, const float** vec, uint64_t* pages) = 0;

  /// Pages charged against QueryContext::io_page_budget so far.
  virtual uint64_t BudgetPages(const C2lshQueryStats& st) const {
    return st.total_pages();
  }

  /// Completes a finished query's record (measured pool traffic).
  virtual void Finish(QueryRecord* /*record*/) const {}

  const PStableFamily& family;
  const C2lshDerived& derived;
  const size_t num_objects;      ///< the block's frozen object count
  const long long radius_cap;
  const uint64_t descent_pages;  ///< per-query table-descent charge
  const QueryInstruments& instruments;
};

/// One co-resident block of queries and how it stops.
struct Block {
  const float* queries = nullptr;  ///< num_queries rows, qstride floats apart
  size_t num_queries = 0;
  size_t qstride = 0;
  /// k-ANN: the k nearest verified candidates, T1/T2/exhausted termination.
  size_t k = 0;
  /// > 0 selects the range stop policy instead: every verified object within
  /// `radius`, rounds up to the first scheduled R >= radius.
  double radius = 0;
  /// nullptr, or one nullable context per query.
  const QueryContext* const* ctxs = nullptr;
  /// nullptr, or one nullable per-round trace per query.
  obs::QueryTrace* const* traces = nullptr;
  /// Optional verification gate: rejected ids get no distance, and T2
  /// counts only accepted ids.
  const std::function<bool(ObjectId)>* filter = nullptr;
  size_t num_shards = 1;         ///< in [1, num_tables]
  ThreadPool* pool = nullptr;    ///< nullptr runs every phase inline
};

/// Runs `block` to completion through the shared-scan, sharded round loop
/// described above, writing results[i] and records[i] for every block query
/// i. Returns the first failed query's error (a source error that is neither
/// a corruption to skip nor the query's own early stop); the other queries'
/// outputs are still written.
Status RunBatchBlock(Source& source, const Block& block, NeighborList* results,
                     QueryRecord* records);

/// The in-memory source: pinned table snapshots (bulk AppendRangeTo scans,
/// modelled page charges) and the caller's Dataset.
class MemorySource final : public Source {
 public:
  MemorySource(const C2lshIndex& index, const Dataset& data,
               const QueryInstruments& instruments);

  Status Scan(size_t table, const BucketRange& range, BucketScan* out) override;
  bool Covers(size_t table, const BucketRange& range) const override;
  Status Vector(ObjectId id, const float** vec, uint64_t* pages) override;

 private:
  std::vector<BucketTable::Snapshot> snaps_;
  const Dataset& data_;
  PageModel page_model_;
  uint64_t vector_pages_;
};

}  // namespace batch
}  // namespace c2lsh

#endif  // C2LSH_CORE_BATCH_H_
