// The round engine behind every C2LSH query. See src/core/batch.h for the
// architecture and the determinism contract.

#include "src/core/batch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/span.h"
#include "src/storage/page_model.h"
#include "src/util/timer.h"
#include "src/vector/distance.h"
#include "src/vector/matrix.h"

namespace c2lsh {
namespace batch {
namespace {

QueryInstruments Register(const std::string& prefix, const std::string& what,
                          const char* site) {
  auto& r = obs::MetricsRegistry::Global();
  auto counter = [&](const char* name, const std::string& help) {
    return r.GetCounter(prefix + name, help);
  };
  QueryInstruments m{
      site,
      counter("_queries_total", what + " C2LSH queries answered"),
      counter("_rounds_total", "Virtual-rehashing rounds executed (" + what + " queries)"),
      counter("_collision_increments_total",
              "Collision-counter increments (" + what + " queries)"),
      counter("_candidates_verified_total",
              "Exact distance verifications (" + what + " queries)"),
      counter("_buckets_scanned_total", "Hash buckets visited (" + what + " queries)"),
      counter("_queries_t1_total", what + " queries terminated by T1 (k verified within c*R)"),
      counter("_queries_t2_total",
              what + " queries terminated by T2 (k + beta*n candidate budget)"),
      counter("_queries_exhausted_total",
              what + " queries that covered every readable bucket of every table"),
      counter("_queries_deadline_total",
              what + " queries stopped by a deadline or page budget (partial results)"),
      counter("_queries_cancelled_total",
              what + " queries cooperatively cancelled (partial results)"),
      r.GetHistogram(prefix + "_query_millis",
                     what + " C2LSH query latency in milliseconds"),
  };
  return m;
}

// One co-resident query's execution state across rounds.
//
// Collision counts are a plain zero-initialized array: a state is built
// fresh per query, so one memset is cheaper than an epoch-stamped counter's
// extra load on every one of the ~10^5..10^6 random-access increments a
// query performs. There is no verified bitmap either: counts are monotone
// (+1 per collision), so `++count == l` fires exactly once per id — letting
// counts run past l changes no observable output (found set, stats,
// termination) and keeps a second random load out of the hot loop.
struct QueryState {
  std::vector<uint32_t> counts;   ///< per-id collision count this query
  std::vector<BucketRange> prev;  ///< per-table interval already scanned
  /// Per table: kOpen, kCovered once this query's interval covers every
  /// entry the table holds (coverage is monotone over a pinned view, so a
  /// covered table contributes nothing in any later round and Phase A skips
  /// it), or kDropped once a corrupt page took it out of this query.
  std::vector<uint8_t> table_state;
  size_t uncovered = 0;  ///< tables still open at this round's interval
  NeighborList found;
  QueryRecord record;
  Termination early_stop = Termination::kNone;
  Status status;  ///< non-OK: the query failed
  bool sampled = false;
  uint64_t trace_id = 0;
  double millis = 0;
};

constexpr uint8_t kOpen = 0;
constexpr uint8_t kCovered = 1;
constexpr uint8_t kDropped = 2;
constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();

// What one shard hands one query at a phase barrier: the indices (into the
// shard's BucketScan pool, in the query's own (table, left, right) order) of
// the runs this query consumes, the number of its tables in this shard still
// uncovered, and whether a failed scan halted the query's scans here. Written
// by exactly one shard in Phase A, read by exactly one query in Phase B — the
// ParallelFor barrier between the phases is the only synchronization needed.
struct ShardDelta {
  std::vector<uint32_t> group_ixs;
  uint32_t uncovered = 0;
  bool halted = false;
};

// One shard's per-table grouping scratch, reused across tables and rounds:
// one slot per non-empty delta side, in (active query, left, right) order.
// Sort-based grouping over these flat arrays replaces a keyed map — no node
// allocations on the per-round hot path.
struct ShardScratch {
  std::vector<std::pair<BucketId, BucketId>> side_keys;
  std::vector<uint32_t> side_q;   // owning query of each side
  std::vector<uint32_t> side_ix;  // resolved BucketScan index, or kNoGroup
  std::vector<uint32_t> order;    // sort permutation over sides
  std::vector<uint32_t> failed;   // queries whose scan of this table failed
};

// A source error's meaning for the query that hit it: its early stop when the
// query's own context ended it — an expired deadline or cancellation, or a
// retry the context abandoned (still Unavailable, possibly *before* the
// deadline strictly expires, when the remaining budget cannot cover the next
// backoff) — and kNone when the error must fail the query.
Termination AsEarlyStop(const Status& s, const QueryContext* ctx) {
  if (ctx == nullptr) return Termination::kNone;
  const Termination now = ctx->CheckNow();
  if (now != Termination::kNone) return now;
  return s.IsUnavailable() ? Termination::kDeadline : Termination::kNone;
}

void Flush(const QueryInstruments& m, const QueryRecord& rec, double millis,
           uint64_t exemplar_id) {
  const C2lshQueryStats& st = rec.base;
  m.queries->Increment();
  m.rounds->Increment(st.rounds);
  m.collision_increments->Increment(st.collision_increments);
  m.candidates_verified->Increment(st.candidates_verified);
  m.buckets_scanned->Increment(st.buckets_scanned);
  switch (st.termination) {
    case Termination::kT1:
      m.t1->Increment();
      break;
    case Termination::kT2:
      m.t2->Increment();
      break;
    case Termination::kExhausted:
      m.exhausted->Increment();
      break;
    case Termination::kDeadline:
      m.deadline->Increment();
      break;
    case Termination::kCancelled:
      m.cancelled->Increment();
      break;
    case Termination::kNone:
      break;
  }
  m.latency->Observe(millis, exemplar_id);
  if (m.degraded_queries != nullptr) {
    if (rec.degraded) m.degraded_queries->Increment();
    m.tables_skipped->Increment(rec.tables_skipped);
    m.candidates_skipped->Increment(rec.candidates_skipped);
  }
  if (m.batch_queries != nullptr) {
    m.batch_queries->Increment();
    m.batch_latency->Observe(millis);
  }
}

// Runs fn(0..n-1) on the pool, or inline without one.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  // analyze-ok(cancellation-cadence): dispatch over the block's shards or active queries; each body polls per increment in the Phase B merge.
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace

const QueryInstruments& MemoryInstruments() {
  static const QueryInstruments m = Register("c2lsh", "In-memory", "c2lsh_query");
  return m;
}

const QueryInstruments& BatchInstruments() {
  static const QueryInstruments m = [] {
    QueryInstruments b = MemoryInstruments();
    auto& r = obs::MetricsRegistry::Global();
    b.batch_queries = r.GetCounter("c2lsh_batch_queries_total",
                                   "Queries answered through QueryBatch");
    b.batch_latency =
        r.GetHistogram("c2lsh_batch_query_millis",
                       "Per-query completion latency within a batch block (ms)");
    return b;
  }();
  return m;
}

const QueryInstruments& DiskInstruments() {
  static const QueryInstruments m = [] {
    QueryInstruments d = Register("disk_c2lsh", "Disk", "disk_c2lsh_query");
    auto& r = obs::MetricsRegistry::Global();
    d.degraded_queries = r.GetCounter("disk_c2lsh_degraded_queries_total",
                                      "Disk queries answered while skipping corrupt pages");
    d.tables_skipped = r.GetCounter("disk_c2lsh_tables_skipped_total",
                                    "Hash tables dropped mid-query on a corrupt index page");
    d.candidates_skipped =
        r.GetCounter("disk_c2lsh_candidates_skipped_total",
                     "Candidates dropped mid-query on a corrupt data page");
    return d;
  }();
  return m;
}

const EngineInstruments& Engine() {
  static const EngineInstruments m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return EngineInstruments{
        r.GetCounter("c2lsh_batch_blocks_total",
                     "Co-resident execution blocks run by the round engine"),
        r.GetCounter("c2lsh_batch_scan_groups_total",
                     "Distinct (table, bucket-run) scans performed by the round engine"),
        r.GetCounter("c2lsh_batch_shared_scan_hits_total",
                     "Bucket-run scans saved by sharing (group members beyond the first)"),
        r.GetGauge("c2lsh_batch_size",
                   "Co-resident queries per execution block (last QueryBatch)"),
        r.GetGauge("c2lsh_batch_num_shards",
                   "Table shards per execution block (last QueryBatch)"),
        r.GetGauge("c2lsh_thread_pool_threads",
                   "Worker threads in the pool serving QueryBatch"),
    };
  }();
  return m;
}

MemorySource::MemorySource(const C2lshIndex& index, const Dataset& data,
                           const QueryInstruments& instruments)
    // The frozen view: the object count is read once (here, in the base)
    // and every table is pinned once, after it. A concurrent Insert
    // publishes its table versions *before* raising the count, so an id
    // below the count always has its entries — entries from newer table
    // versions with id >= n are skipped until a later query picks up the
    // larger n.
    : Source(index.family(), index.derived(), index.num_objects(), index.radius_cap(),
             /*descent_pages=*/index.num_tables(), instruments),
      data_(data),
      page_model_(index.options().page_bytes),
      vector_pages_(page_model_.PagesPerVector(index.dim())) {
  snaps_.reserve(index.num_tables());
  for (size_t i = 0; i < index.num_tables(); ++i) snaps_.push_back(index.table(i).snapshot());
}

Status MemorySource::Scan(size_t table, const BucketRange& range, BucketScan* out) {
  // I/O model: the per-table bucket directories are memory-resident (the
  // paper keeps them cached the same way), so a scan charges only the entry
  // pages it reads; the one-time descent is descent_pages.
  const BucketTable::Snapshot& snap = snaps_[table];
  const size_t entries = snap.EntriesInRange(range.lo, range.hi);
  out->index_pages =
      entries > 0 ? page_model_.PagesForEntries(entries, sizeof(ObjectId)) : 0;
  // The bulk append is one sequential copy of the flat run's contiguous
  // slice in the common no-deletes case.
  out->buckets_scanned = snap.AppendRangeTo(range.lo, range.hi, num_objects, &out->ids);
  return Status::OK();
}

bool MemorySource::Covers(size_t table, const BucketRange& range) const {
  const BucketTable::Snapshot& snap = snaps_[table];
  return snap.num_buckets() == 0 ||
         snap.EntriesInRange(range.lo, range.hi) >= snap.num_entries();
}

Status MemorySource::Vector(ObjectId id, const float** vec, uint64_t* pages) {
  *vec = data_.object(id);
  *pages += vector_pages_;
  return Status::OK();
}

Status RunBatchBlock(Source& source, const Block& block, NeighborList* results,
                     QueryRecord* records) {
  const size_t nq = block.num_queries;
  const size_t n = source.num_objects;
  const size_t m = source.family.size();
  const size_t dim = source.family.dim();
  const uint32_t l = static_cast<uint32_t>(source.derived.l);
  const double c = source.derived.model.c;
  const long long c_int = static_cast<long long>(std::llround(c));
  const bool range_policy = block.radius > 0.0;
  const size_t k = range_policy ? std::numeric_limits<size_t>::max() : block.k;
  // k-ANN keeps every verified candidate (T2 counts them); a range query
  // keeps only those within its radius.
  const double keep_within =
      range_policy ? block.radius : std::numeric_limits<double>::infinity();
  // T2 threshold: k + beta*n candidates, capped at the object count so the
  // loop always terminates (full coverage verifies everyone).
  const size_t t2_threshold =
      range_policy
          ? std::numeric_limits<size_t>::max()
          : std::min<size_t>(n, k + static_cast<size_t>(std::ceil(
                                        source.derived.beta * static_cast<double>(n))));
  const QueryInstruments& inst = source.instruments;
  auto ctx_of = [&](size_t q) {
    return block.ctxs != nullptr ? block.ctxs[q] : nullptr;
  };
  auto trace_of = [&](size_t q) {
    return block.traces != nullptr ? block.traces[q] : nullptr;
  };

  // Span sampling is independent of the caller's QueryTrace: the tracer
  // decides per query, and the id attributes that query's spans, its
  // latency exemplar, and any anomaly dump to one timeline. A block of one
  // is that query's span; a larger block gets its own.
  std::vector<QueryState> states(nq);
  bool block_sampled = false;
  for (size_t q = 0; q < nq; ++q) {
    QueryState& qs = states[q];
    const QueryContext* ctx = ctx_of(q);
    qs.sampled = obs::Tracer::Global().SampleQuery(ctx);
    qs.trace_id = ctx != nullptr && ctx->trace_id != 0
                      ? ctx->trace_id
                      : (qs.sampled ? obs::Tracer::Global().NextQueryId() : 0);
    block_sampled = block_sampled || qs.sampled;
  }
  const bool single = nq == 1;
  const uint64_t block_id =
      single ? states[0].trace_id
             : (block_sampled ? obs::Tracer::Global().NextQueryId() : 0);
  obs::ScopedSpan block_span(single ? obs::SpanSubsystem::kQuery : obs::SpanSubsystem::kBatch,
                             single ? inst.site : "batch_block", block_id, block_sampled);
  Timer block_timer;

  // Layer 1: one query-major GEMM-style projection pass buckets the whole
  // block — qbuckets[q * m + i] is bit-identical to per-query BucketAll.
  std::vector<BucketId> qbuckets;
  source.family.BucketAllMulti(block.queries, nq, block.qstride, &qbuckets);

  const size_t S = std::max<size_t>(1, std::min(block.num_shards, std::max<size_t>(m, 1)));
  for (size_t q = 0; q < nq; ++q) {
    QueryState& qs = states[q];
    qs.counts.assign(n, 0);
    qs.prev.assign(m, BucketRange{});
    qs.table_state.assign(m, kOpen);
    if (!range_policy) qs.found.reserve(t2_threshold + m);
    qs.record.base.index_pages += source.descent_pages;
    if (obs::QueryTrace* trace = trace_of(q)) trace->Clear();
  }

  // deltas[s][q]: shard s's round contribution to query q (indices into
  // groups_pool[s]). The pools keep their buffers across rounds so the
  // steady state allocates nothing.
  std::vector<std::vector<ShardDelta>> deltas(S, std::vector<ShardDelta>(nq));
  std::vector<std::vector<BucketScan>> groups_pool(S);
  std::vector<ShardScratch> shard_scratch(S);
  std::vector<uint64_t> shard_scan_groups(S, 0);
  std::vector<uint64_t> shard_shared_hits(S, 0);

  std::vector<uint32_t> active;
  active.reserve(nq);
  for (size_t q = 0; q < nq; ++q) active.push_back(static_cast<uint32_t>(q));

  auto finalize = [&](uint32_t q) {
    QueryState& qs = states[q];
    // Only the k nearest survive; NeighborLess is a total order (distance,
    // then id), so the ranking is unique regardless of verification order.
    if (qs.found.size() > k) {
      std::partial_sort(qs.found.begin(), qs.found.begin() + static_cast<std::ptrdiff_t>(k),
                        qs.found.end(), NeighborLess());
      qs.found.resize(k);
    } else {
      std::sort(qs.found.begin(), qs.found.end(), NeighborLess());
    }
    results[q] = std::move(qs.found);
    source.Finish(&qs.record);
    records[q] = qs.record;
    qs.millis = block_timer.ElapsedMillis();
    if (obs::QueryTrace* trace = trace_of(q)) {
      trace->termination = qs.record.base.termination;
      trace->total_millis = qs.millis;
      trace->pool_hits = qs.record.pool_hits;
      trace->pool_misses = qs.record.pool_misses;
      trace->degraded = qs.record.degraded;
    }
    if (qs.status.ok()) Flush(inst, qs.record, qs.millis, qs.trace_id);
  };
  // Retires finished queries — or, with `all`, every query (sequential, so
  // metric flush order is deterministic).
  auto retire = [&](bool all) {
    size_t w = 0;
    // analyze-ok(cancellation-cadence): O(active) bookkeeping at the round boundary — the boundary rechecks every remaining query's ctx at the top of the next iteration.
    for (uint32_t q : active) {
      const QueryState& qs = states[q];
      if (all || qs.record.base.termination != Termination::kNone || !qs.status.ok()) {
        finalize(q);
      } else {
        active[w++] = q;
      }
    }
    active.resize(w);
  };

  long long R = 1;
  Timer round_timer;
  std::vector<C2lshQueryStats> round_before(nq);
  while (!active.empty()) {
    // Round boundary: the full context check (deadline, cancellation, page
    // budget) per query. A pre-expired context runs zero rounds and returns
    // empty; its batchmates are untouched.
    // analyze-ok(cancellation-cadence): this loop IS the round-boundary poll — ctx->Check for every active query.
    for (uint32_t q : active) {
      QueryState& qs = states[q];
      const QueryContext* ctx = ctx_of(q);
      if (ctx != nullptr) qs.early_stop = ctx->Check(source.BudgetPages(qs.record.base));
      qs.record.base.termination = qs.early_stop;
    }
    retire(/*all=*/false);
    if (active.empty()) break;
    obs::ScopedSpan round_span(obs::SpanSubsystem::kRound, single ? "round" : "batch_round",
                               block_id, block_sampled);
    round_timer.Reset();
    // analyze-ok(cancellation-cadence): O(active) per-round bookkeeping; polls happen in the Phase B merge and at the round boundary.
    for (uint32_t q : active) {
      C2lshQueryStats& st = states[q].record.base;
      ++st.rounds;
      st.final_radius = R;
      states[q].uncovered = 0;
      if (trace_of(q) != nullptr) round_before[q] = st;
    }

    // A round runs as Phase A + Phase B over chunks of tables. A block
    // buffers its whole round in one chunk, so every shard scans in one
    // parallel pass and co-resident queries share runs; a lone query on one
    // shard has nothing to share, so it consumes each table's runs right
    // after scanning them and holds one table's ids at a time.
    const size_t span = (single && S == 1) ? 1 : std::max<size_t>(m, 1);
    // analyze-ok(cancellation-cadence): the chunk walk of one round; Phase B polls per increment and the disk source checks its context before every range.
    for (size_t t0 = 0; t0 < m; t0 += span) {
      const size_t t1 = std::min(m, t0 + span);

      // Phase A — sharded shared scans. Shard s owns tables i % S == s; for
      // each owned table it groups the active queries by identical delta
      // range and scans each distinct range ONCE, into a single group-owned
      // id buffer every member consumes by reference in Phase B. Writes are
      // confined to the shard's own deltas[s] row and groups_pool[s], each
      // query's own prev/table_state elements of the shard's tables, and the
      // shard's own metric slots — disjoint by construction (the
      // thread_pool.h ParallelFor contract).
      obs::ScopedSpan phase_a_span(obs::SpanSubsystem::kBatch, "phase_a_scan", block_id,
                                   block_sampled && !single);
      ParallelFor(block.pool, S, [&](size_t s) {
        std::vector<BucketScan>& pool_s = groups_pool[s];
        size_t used = 0;    // BucketScan slots consumed this chunk
        uint64_t refs = 0;  // (query, run) memberships this chunk
        // analyze-ok(cancellation-cadence): O(active) reset of this shard's per-query round slots.
        for (uint32_t q : active) {
          ShardDelta& d = deltas[s][q];
          d.group_ixs.clear();
          d.uncovered = 0;
          d.halted = false;
        }
        auto& [side_keys, side_q, side_ix, order, failed] = shard_scratch[s];
        // analyze-ok(cancellation-cadence): Phase A only groups and scans one round's bounded delta ranges; the consuming Phase B merge polls per increment (CheckEvery), the disk source checks its context before every range, and the round boundary runs the full ctx Check.
        for (size_t i = t0 + (s + S - t0 % S) % S; i < t1; i += S) {
          side_keys.clear();
          side_q.clear();
          failed.clear();
          // analyze-ok(cancellation-cadence): one bounded pass over this round's active queries — grouping plus at most one scan per distinct delta range; per-query polls happen in the Phase B merge and at the round boundary.
          for (uint32_t q : active) {
            QueryState& qs = states[q];
            // A covered table stays covered (the interval only grows over the
            // pinned view): no new entries, no pages, nothing to do. A dropped
            // table is out of the query for good.
            if (qs.table_state[i] != kOpen || deltas[s][q].halted ||
                qs.early_stop != Termination::kNone || !qs.status.ok()) {
              continue;
            }
            const BucketRange next =
                IntervalForRadius(qbuckets[q * m + i], R, source.radius_cap);
            const RangeDelta delta = ComputeRangeDelta(qs.prev[i], next);
            qs.prev[i] = next;
            if (!delta.left.empty()) {
              side_keys.emplace_back(delta.left.lo, delta.left.hi);
              side_q.push_back(q);
            }
            if (!delta.right.empty()) {
              side_keys.emplace_back(delta.right.lo, delta.right.hi);
              side_q.push_back(q);
            }
            if (source.Covers(i, next)) {
              qs.table_state[i] = kCovered;
            } else {
              ++deltas[s][q].uncovered;
            }
          }
          const size_t num_sides = side_keys.size();
          order.resize(num_sides);
          for (size_t e = 0; e < num_sides; ++e) order[e] = static_cast<uint32_t>(e);
          std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
            return side_keys[a] < side_keys[b];
          });
          side_ix.assign(num_sides, kNoGroup);
          // Walk the sorted runs: each distinct (lo, hi) is scanned once and
          // every side in it takes the scan's index. A query's left side sorts
          // before its right side, so once a scan fails, the failing query's
          // later runs (this table after a corrupt page, everything after an
          // early stop) are skipped unless a healthy batchmate still needs them.
          // analyze-ok(cancellation-cadence): at most one bounded scan per distinct delta range this round; per-query ctx polls happen in the Phase B merge and at the round boundary.
          for (size_t e = 0; e < num_sides;) {
            const std::pair<BucketId, BucketId> key = side_keys[order[e]];
            size_t end = e;
            bool needed = false;
            for (; end < num_sides && side_keys[order[end]] == key; ++end) {
              const uint32_t q = side_q[order[end]];
              needed = needed || (!deltas[s][q].halted &&
                                  std::find(failed.begin(), failed.end(), q) == failed.end());
            }
            if (needed) {
              const uint32_t ix = static_cast<uint32_t>(used++);
              if (pool_s.size() <= ix) pool_s.emplace_back();
              BucketScan& g = pool_s[ix];
              g.ids.clear();
              g.index_pages = 0;
              g.buckets_scanned = 0;
              g.table = i;
              g.status = source.Scan(i, BucketRange{key.first, key.second}, &g);
              // analyze-ok(cancellation-cadence): O(group members) bookkeeping over one scan's sides.
              for (size_t f = e; f < end; ++f) {
                const uint32_t q = side_q[order[f]];
                side_ix[order[f]] = ix;
                if (g.status.IsCorruption()) {
                  failed.push_back(q);
                } else if (!g.status.ok()) {
                  deltas[s][q].halted = true;
                }
              }
            }
            e = end;
          }
          // Fan the indices back out in the original (query, left, right)
          // order, so each query consumes its runs exactly as it would scan
          // its own delta ranges alone.
          for (size_t e = 0; e < num_sides; ++e) {
            if (side_ix[e] == kNoGroup) continue;
            deltas[s][side_q[e]].group_ixs.push_back(side_ix[e]);
            ++refs;
          }
        }
        shard_scan_groups[s] += used;
        shard_shared_hits[s] += refs - used;
      });
      phase_a_span.End();

      // Phase B — per-query merge. Each query (one owner per counter, no
      // atomics) consumes every shard's buffer with the full cadence:
      // cancellation polled every increment, the clock every
      // kCheckIntervalMask+1 increments. The round-end verified set is
      // increment-order-independent, so the merge order (shard 0..S-1, scan
      // order within) yields the same state as any interleaving.
      obs::ScopedSpan phase_b_span(obs::SpanSubsystem::kBatch, "phase_b_merge", block_id,
                                   block_sampled && !single);
      ParallelFor(block.pool, active.size(), [&](size_t a) {
        const uint32_t q = active[a];
        QueryState& qs = states[q];
        QueryRecord& rec = qs.record;
        C2lshQueryStats& st = rec.base;
        const QueryContext* ctx = ctx_of(q);
        const float* query = block.queries + q * block.qstride;
        // analyze-ok(cancellation-cadence): O(S + groups) bookkeeping sweep over this chunk's group indices; the increment loop below polls per increment.
        for (size_t s = 0; s < S; ++s) {
          const ShardDelta& d = deltas[s][q];
          qs.uncovered += d.uncovered;
          for (uint32_t ix : d.group_ixs) {
            const BucketScan& g = groups_pool[s][ix];
            st.index_pages += g.index_pages;
            st.buckets_scanned += g.buckets_scanned;
          }
        }
        // Verification gate. Returns false when the query must stop consuming
        // (its early stop, or a failure).
        auto verify = [&](ObjectId id) {
          if (block.filter != nullptr && !(*block.filter)(id)) {
            return true;  // rejected at the gate: no distance computed
          }
          const float* vec = nullptr;
          if (Status s = source.Vector(id, &vec, &st.data_pages); !s.ok()) {
            if (s.IsCorruption()) {
              // The candidate's stored vector is unreadable: drop it and flag
              // the answer degraded rather than compute a distance from
              // garbage bytes.
              rec.degraded = true;
              ++rec.candidates_skipped;
              return true;
            }
            qs.early_stop = AsEarlyStop(s, ctx);
            if (qs.early_stop == Termination::kNone) qs.status = s;
            return false;
          }
          const double dist = L2(query, vec, dim);
          ++st.candidates_verified;
          if (dist <= keep_within) qs.found.push_back(Neighbor{id, static_cast<float>(dist)});
          return true;
        };
        uint32_t* const counts = qs.counts.data();
        bool stopped = false;
        // analyze-ok(cancellation-cadence): walks this round's runs in order; the per-id loops inside poll per increment.
        for (size_t s = 0; s < S && !stopped; ++s) {
          // analyze-ok(cancellation-cadence): same walk, one shard's runs.
          for (uint32_t ix : deltas[s][q].group_ixs) {
            const BucketScan& g = groups_pool[s][ix];
            if (qs.table_state[g.table] == kDropped) continue;
            if (ctx == nullptr) {
              // Fast path — no context, so nothing can stop the merge
              // mid-stream but a failing source: the increment tally is
              // hoisted per run and the inner loop is just the count update
              // and the ==l transition.
              st.collision_increments += g.ids.size();
              // analyze-ok(cancellation-cadence): this query has no QueryContext — there is nothing to poll.
              for (ObjectId id : g.ids) {
                if (++counts[id] == l && !verify(id)) {
                  stopped = true;
                  break;
                }
              }
            } else {
              for (ObjectId id : g.ids) {
                ++st.collision_increments;
                qs.early_stop = ctx->CheckEvery(st.collision_increments);
                if (qs.early_stop != Termination::kNone ||
                    (++counts[id] == l && !verify(id))) {
                  stopped = true;
                  break;
                }
              }
            }
            if (stopped) break;
            if (g.status.IsCorruption()) {
              // A table page failed its checksum: drop the table for the rest
              // of the query, counted as covered. Counts only ever come from
              // verified page reads, so dropping can under-count (fewer
              // candidates, flagged degraded) but never mis-count.
              if (qs.table_state[g.table] == kOpen) --qs.uncovered;
              qs.table_state[g.table] = kDropped;
              rec.degraded = true;
              ++rec.tables_skipped;
            } else if (!g.status.ok()) {
              qs.early_stop = AsEarlyStop(g.status, ctx);
              if (qs.early_stop == Termination::kNone) qs.status = g.status;
              stopped = true;
              break;
            }
          }
        }
      });
      phase_b_span.End();
    }

    // Round end: T1 > T2 > early stop > exhausted. T1 is evaluated even
    // after an early stop, so a query whose partial merge already proved the
    // answer gets the full-quality termination; the early stop beats
    // kExhausted because an interrupted round never finished its tables. A
    // range query runs every round up to the first scheduled R >= radius:
    // there an in-range object's collision probability is >= p1 per table,
    // so P1's recall bound applies.
    const double cr = c * static_cast<double>(R);
    const bool range_done =
        range_policy && (static_cast<double>(R) >= block.radius || R > source.radius_cap);
    // analyze-ok(cancellation-cadence): O(active) round-end evaluation over verified candidates; the next round boundary rechecks every ctx.
    for (uint32_t q : active) {
      QueryState& qs = states[q];
      C2lshQueryStats& st = qs.record.base;
      if (range_policy) {
        st.termination = qs.early_stop;
      } else if (qs.status.ok()) {
        size_t within = 0;
        for (const Neighbor& nb : qs.found) {
          if (nb.dist <= cr) ++within;
          if (within >= k) break;
        }
        if (within >= k) {
          st.termination = Termination::kT1;
        } else if (qs.found.size() >= t2_threshold) {
          st.termination = Termination::kT2;  // the false-positive budget is spent
        } else if (qs.early_stop != Termination::kNone) {
          st.termination = qs.early_stop;
        } else if (qs.uncovered == 0) {
          st.termination = Termination::kExhausted;
        }
      }
      if (obs::QueryTrace* trace = trace_of(q)) {
        // Trace spans are deltas of the running stats, so tracing adds no
        // work inside the merge.
        const C2lshQueryStats& before = round_before[q];
        obs::QueryRoundSpan span;
        span.radius = R;
        span.buckets_scanned = st.buckets_scanned - before.buckets_scanned;
        span.collision_increments = st.collision_increments - before.collision_increments;
        span.candidates_verified = st.candidates_verified - before.candidates_verified;
        span.index_pages = st.index_pages - before.index_pages;
        span.t1_fired = st.termination == Termination::kT1;
        span.t2_fired = st.termination == Termination::kT2;
        span.millis = round_timer.ElapsedMillis();
        trace->rounds.push_back(span);
      }
    }
    retire(range_done);
    R *= c_int;
  }

  uint64_t scan_groups = 0;
  uint64_t shared_hits = 0;
  for (size_t s = 0; s < S; ++s) {
    scan_groups += shard_scan_groups[s];
    shared_hits += shard_shared_hits[s];
  }
  const EngineInstruments& em = Engine();
  em.scan_groups->Increment(scan_groups);
  em.shared_scan_hits->Increment(shared_hits);
  em.blocks->Increment();

  // End the block span before the anomaly hook: a flight dump snapshots the
  // rings, and an open span has not reached its ring yet.
  block_span.End();
  Status first_error;
  // analyze-ok(cancellation-cadence): O(block) post-query bookkeeping — error collection and anomaly hooks after every query finished.
  for (size_t q = 0; q < nq; ++q) {
    const QueryState& qs = states[q];
    if (!qs.status.ok()) {
      if (first_error.ok()) first_error = qs.status;
      continue;
    }
    if (!obs::FlightRecorder::Global().enabled()) continue;
    if (const obs::QueryTrace* trace = trace_of(q)) {
      obs::MaybeRecordQueryAnomaly(inst.site, qs.trace_id, *trace);
    } else {
      obs::QueryTrace anomaly_trace;
      anomaly_trace.termination = qs.record.base.termination;
      anomaly_trace.total_millis = qs.millis;
      anomaly_trace.pool_hits = qs.record.pool_hits;
      anomaly_trace.pool_misses = qs.record.pool_misses;
      anomaly_trace.degraded = qs.record.degraded;
      obs::MaybeRecordQueryAnomaly(inst.site, qs.trace_id, anomaly_trace);
    }
  }
  return first_error;
}

}  // namespace batch

Result<std::vector<NeighborList>> C2lshIndex::QueryBatch(
    const Dataset& data, const FloatMatrix& queries, size_t k,
    const BatchQueryOptions& options, std::vector<C2lshQueryStats>* stats) const {
  if (k == 0) return Status::InvalidArgument("C2LSH query: k must be positive");
  if (queries.dim() != dim_) {
    return Status::InvalidArgument("QueryBatch: query dim mismatch");
  }
  batch::MemorySource source(*this, data, batch::BatchInstruments());
  C2LSH_RETURN_IF_ERROR(CheckDataset(data, source.num_objects));
  const size_t nq = queries.num_rows();
  if (!options.contexts.empty() && options.contexts.size() != nq) {
    return Status::InvalidArgument(
        "QueryBatch: contexts must be empty or hold one (nullable) pointer per query row");
  }
  std::vector<NeighborList> results(nq);
  std::vector<batch::QueryRecord> records(nq);
  if (stats != nullptr) stats->assign(nq, C2lshQueryStats());
  if (nq == 0) return results;

  ThreadPool* pool = (options.pool != nullptr) ? options.pool : &ThreadPool::Shared();
  const size_t m = tables_.size();
  size_t num_shards = (options.num_shards != 0) ? options.num_shards : pool->num_threads();
  num_shards = std::max<size_t>(1, std::min(num_shards, std::max<size_t>(m, 1)));
  const size_t block_size = (options.batch_size != 0) ? options.batch_size : nq;

  const batch::EngineInstruments& em = batch::Engine();
  em.batch_size->Set(static_cast<double>(std::min(block_size, nq)));
  em.num_shards->Set(static_cast<double>(num_shards));
  em.pool_threads->Set(static_cast<double>(pool->num_threads()));

  for (size_t start = 0; start < nq; start += block_size) {
    batch::Block block;
    block.queries = queries.row(start);
    block.num_queries = std::min(block_size, nq - start);
    block.qstride = queries.dim();
    block.k = k;
    block.ctxs = options.contexts.empty() ? nullptr : options.contexts.data() + start;
    block.num_shards = num_shards;
    block.pool = pool;
    C2LSH_RETURN_IF_ERROR(batch::RunBatchBlock(source, block, results.data() + start,
                                               records.data() + start));
  }
  if (stats != nullptr) {
    for (size_t q = 0; q < nq; ++q) (*stats)[q] = records[q].base;
  }
  return results;
}

}  // namespace c2lsh
