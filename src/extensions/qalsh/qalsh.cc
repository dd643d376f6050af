#include "src/extensions/qalsh/qalsh.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/obs/registry.h"
#include "src/util/math.h"
#include "src/util/random.h"
#include "src/util/timer.h"
#include "src/vector/distance.h"
#include "src/vector/simd.h"

namespace c2lsh {

namespace {
// Chunk size bounding the stack scratch of blocked projection passes.
constexpr size_t kProjectionChunk = 256;

// Registry handles resolved once; per-query stats are flushed in one pass at
// query end so the scan loops never touch an atomic.
struct QalshMetrics {
  obs::Counter* queries;
  obs::Counter* rounds;
  obs::Counter* collision_increments;
  obs::Counter* candidates_verified;
  obs::Counter* t1;
  obs::Counter* t2;
  obs::Counter* exhausted;
  obs::Counter* deadline;
  obs::Counter* cancelled;
  obs::Histogram* latency;
};

const QalshMetrics& Metrics() {
  static const QalshMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    QalshMetrics mm;
    mm.queries = r.GetCounter("qalsh_queries_total", "QALSH queries answered");
    mm.rounds = r.GetCounter("qalsh_rounds_total", "QALSH virtual-rehashing rounds run");
    mm.collision_increments = r.GetCounter("qalsh_collision_increments_total",
                                           "QALSH collision-counter increments");
    mm.candidates_verified = r.GetCounter("qalsh_candidates_verified_total",
                                          "QALSH candidates verified by exact distance");
    mm.t1 = r.GetCounter("qalsh_queries_t1_total", "QALSH queries terminated by T1");
    mm.t2 = r.GetCounter("qalsh_queries_t2_total", "QALSH queries terminated by T2");
    mm.exhausted = r.GetCounter("qalsh_queries_exhausted_total",
                                "QALSH queries that scanned every projection column");
    mm.deadline = r.GetCounter(
        "qalsh_queries_deadline_total",
        "QALSH queries stopped by a deadline or page budget (partial results)");
    mm.cancelled = r.GetCounter("qalsh_queries_cancelled_total",
                                "QALSH queries cooperatively cancelled (partial results)");
    mm.latency = r.GetHistogram("qalsh_query_millis", "QALSH query latency (ms)");
    return mm;
  }();
  return m;
}

void FlushQueryMetrics(const QalshQueryStats& st, double millis) {
  const QalshMetrics& m = Metrics();
  m.queries->Increment();
  m.rounds->Increment(st.rounds);
  m.collision_increments->Increment(st.collision_increments);
  m.candidates_verified->Increment(st.candidates_verified);
  switch (st.termination) {
    case Termination::kT1: m.t1->Increment(); break;
    case Termination::kT2: m.t2->Increment(); break;
    case Termination::kExhausted: m.exhausted->Increment(); break;
    case Termination::kDeadline: m.deadline->Increment(); break;
    case Termination::kCancelled: m.cancelled->Increment(); break;
    case Termination::kNone: break;
  }
  m.latency->Observe(millis);
}
}  // namespace

double QalshCollisionProbability(double s, double w, double p) {
  if (s <= 0.0) return 1.0;
  if (p == 1.0) {
    // Cauchy 1-stable: projection difference ~ Cauchy(0, s).
    return (2.0 / M_PI) * std::atan(w / (2.0 * s));
  }
  return 2.0 * NormalCdf(w / (2.0 * s)) - 1.0;
}

Result<QalshDerived> ComputeQalshParams(const QalshOptions& options, size_t n) {
  if (n == 0) return Status::InvalidArgument("QALSH: dataset must be non-empty");
  if (!(options.w > 0.0)) {
    return Status::InvalidArgument("QALSH: w must be positive");
  }
  if (!(options.c > 1.0)) {
    return Status::InvalidArgument("QALSH: c must exceed 1 (any real value), got " +
                                   std::to_string(options.c));
  }
  if (options.p != 1.0 && options.p != 2.0) {
    return Status::InvalidArgument("QALSH: p must be 1 (Manhattan) or 2 (Euclidean)");
  }
  if (options.max_rounds < 1) {
    return Status::InvalidArgument("QALSH: max_rounds must be positive");
  }
  QalshDerived d;
  d.p1 = QalshCollisionProbability(1.0, options.w, options.p);
  d.p2 = QalshCollisionProbability(options.c, options.w, options.p);
  d.beta = (options.beta > 0.0) ? options.beta : 100.0 / static_cast<double>(n);
  if (d.beta * static_cast<double>(n) < 1.0) {
    return Status::InvalidArgument("QALSH: the false-positive budget beta*n must be >= 1");
  }
  if (d.beta >= 1.0) d.beta = 0.999;
  C2LSH_ASSIGN_OR_RETURN(d.counting,
                         ComputeCountingParams(d.p1, d.p2, options.delta, d.beta));
  return d;
}

QalshIndex::QalshIndex(QalshOptions options, QalshDerived derived,
                       std::vector<std::vector<float>> projections,
                       std::vector<ProjectionColumn> columns, size_t num_objects,
                       size_t dim)
    : options_(options),
      derived_(derived),
      projections_(std::move(projections)),
      packed_stride_(AlignedStride<float>(dim)),
      columns_(std::move(columns)),
      num_objects_(num_objects),
      dim_(dim),
      page_model_(options.page_bytes),
      counts_(num_objects, 0),
      epochs_(num_objects, 0),
      verified_(num_objects, 0) {
  packed_.assign(projections_.size() * packed_stride_, 0.0f);
  for (size_t i = 0; i < projections_.size(); ++i) {
    std::copy(projections_[i].begin(), projections_[i].end(),
              packed_.begin() + i * packed_stride_);
  }
}

Result<QalshIndex> QalshIndex::Build(const Dataset& data, const QalshOptions& options) {
  C2LSH_ASSIGN_OR_RETURN(QalshDerived derived, ComputeQalshParams(options, data.size()));
  const size_t m = derived.counting.m;
  const size_t n = data.size();
  const size_t dim = data.dim();

  Rng rng(options.seed);
  std::vector<std::vector<float>> projections(m);
  std::vector<ProjectionColumn> columns(m);
  for (size_t i = 0; i < m; ++i) {
    if (options.p == 1.0) {
      // Cauchy samples via the inverse CDF: tan(pi * (U - 1/2)).
      projections[i].resize(dim);
      for (size_t j = 0; j < dim; ++j) {
        projections[i][j] =
            static_cast<float>(std::tan(M_PI * (rng.Uniform(0.0, 1.0) - 0.5)));
      }
    } else {
      rng.GaussianVector(dim, &projections[i]);
    }
    ProjectionColumn& col = columns[i];
    col.values.resize(n);
    col.ids.resize(n);
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<float> raw(n);
    double proj[kProjectionChunk];
    for (size_t start = 0; start < n; start += kProjectionChunk) {
      const size_t count = std::min(kProjectionChunk, n - start);
      simd::Active().dot_rows(data.vectors().row(start), count, dim, dim,
                              projections[i].data(), proj);
      for (size_t r = 0; r < count; ++r) {
        raw[start + r] = static_cast<float>(proj[r]);
      }
    }
    std::sort(order.begin(), order.end(),
              [&raw](size_t a, size_t b) { return raw[a] < raw[b]; });
    for (size_t r = 0; r < n; ++r) {
      col.values[r] = raw[order[r]];
      col.ids[r] = static_cast<ObjectId>(order[r]);
    }
  }
  return QalshIndex(options, derived, std::move(projections), std::move(columns), n, dim);
}

Result<NeighborList> QalshIndex::Query(const Dataset& data, const float* query, size_t k,
                                       QalshQueryStats* stats,
                                       const QueryContext* ctx) const {
  if (k == 0) return Status::InvalidArgument("QALSH query: k must be positive");
  if (data.dim() != dim_) {
    return Status::InvalidArgument("QALSH query: dataset dim mismatch");
  }
  if (data.size() < num_objects_) {
    return Status::InvalidArgument("QALSH query: dataset smaller than the index");
  }
  QalshQueryStats local;
  QalshQueryStats* st = (stats != nullptr) ? stats : &local;
  *st = QalshQueryStats();
  Timer query_timer;

  const size_t m = columns_.size();
  const uint32_t l = static_cast<uint32_t>(derived_.counting.l);
  const double c = options_.c;
  const double w = options_.w;
  const size_t t2_threshold = std::min<size_t>(
      num_objects_,
      k + static_cast<size_t>(std::ceil(derived_.beta * static_cast<double>(num_objects_))));

  // Per-query lazy-reset scratch.
  ++epoch_;
  if (epoch_ == 0) {
    std::fill(epochs_.begin(), epochs_.end(), 0);
    std::fill(counts_.begin(), counts_.end(), 0);
    epoch_ = 1;
  }
  for (ObjectId id : touched_) verified_[id] = 0;
  touched_.clear();

  // Query projections — one blocked matrix-vector pass over the packed
  // projection matrix — then initial cursors at the query's insertion point.
  std::vector<double> qproj(m);
  for (size_t start = 0; start < m; start += kProjectionChunk) {
    const size_t count = std::min(kProjectionChunk, m - start);
    simd::Active().dot_rows(packed_.data() + start * packed_stride_, count,
                            packed_stride_, dim_, query, qproj.data() + start);
  }
  cursors_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const auto& vals = columns_[i].values;
    const size_t pos = static_cast<size_t>(
        std::lower_bound(vals.begin(), vals.end(), static_cast<float>(qproj[i])) -
        vals.begin());
    cursors_[i] = Cursor{pos, pos};
    ++st->index_pages;  // per-column descent to the query's position
  }

  NeighborList found;
  found.reserve(t2_threshold + m);
  const uint64_t vector_pages = page_model_.PagesPerVector(dim_);
  const size_t entries_per_page = std::max<size_t>(
      1, page_model_.EntriesPerPage(sizeof(float) + sizeof(ObjectId)));

  // Cooperative-stop state, same contract as the C2LSH round engine:
  // cancellation polled every increment (an acquire load), the clock only
  // every kCheckIntervalMask+1 increments (QueryContext::CheckEvery).
  Termination early_stop = Termination::kNone;

  auto count_one = [&](ObjectId id) {
    ++st->collision_increments;
    if (ctx != nullptr) {
      early_stop = ctx->CheckEvery(st->collision_increments);
      if (early_stop != Termination::kNone) return;
    }
    if (verified_[id] != 0) return;
    if (epochs_[id] != epoch_) {
      epochs_[id] = epoch_;
      counts_[id] = 0;
    }
    if (++counts_[id] == l) {
      verified_[id] = 1;
      touched_.push_back(id);
      const double dist = options_.p == 1.0 ? L1(query, data.object(id), dim_)
                                            : L2(query, data.object(id), dim_);
      found.push_back(Neighbor{id, static_cast<float>(dist)});
      ++st->candidates_verified;
      st->data_pages += vector_pages;
    }
  };

  double R = 1.0;
  int round = 0;
  while (true) {
    // Round boundary: the full context check (deadline, cancellation, page
    // budget against the modelled page count). A pre-expired context runs
    // zero rounds and returns empty.
    if (ctx != nullptr && early_stop == Termination::kNone) {
      early_stop = ctx->Check(st->total_pages());
    }
    if (early_stop != Termination::kNone) {
      st->termination = early_stop;
      break;
    }
    ++st->rounds;
    st->final_radius = R;
    const bool exhaustive = round >= options_.max_rounds;
    const double half_window = exhaustive ? std::numeric_limits<double>::infinity()
                                          : w * R / 2.0;

    bool all_covered = true;
    for (size_t i = 0; i < m; ++i) {
      if (early_stop != Termination::kNone) break;
      const auto& col = columns_[i];
      Cursor& cur = cursors_[i];
      const double lo = qproj[i] - half_window;
      const double hi = qproj[i] + half_window;
      size_t scanned = 0;
      while (early_stop == Termination::kNone && cur.left > 0 &&
             static_cast<double>(col.values[cur.left - 1]) >= lo) {
        --cur.left;
        count_one(col.ids[cur.left]);
        ++scanned;
      }
      while (early_stop == Termination::kNone && cur.right < col.values.size() &&
             static_cast<double>(col.values[cur.right]) <= hi) {
        count_one(col.ids[cur.right]);
        ++cur.right;
        ++scanned;
      }
      if (scanned > 0) {
        st->index_pages += (scanned + entries_per_page - 1) / entries_per_page;
      }
      if (cur.left > 0 || cur.right < col.values.size()) {
        all_covered = false;
      }
    }

    // T1: k verified candidates within c*R. Evaluated even after an early
    // stop — a partial scan that already proved the answer keeps the
    // full-quality termination.
    const double cr = c * R;
    size_t within = 0;
    for (const Neighbor& nb : found) {
      if (nb.dist <= cr) ++within;
      if (within >= k) break;
    }
    if (within >= k) {
      st->termination = Termination::kT1;
      break;
    }
    // T2: false-positive budget exhausted.
    if (found.size() >= t2_threshold) {
      st->termination = Termination::kT2;
      break;
    }
    if (early_stop != Termination::kNone) {
      // Partial results; beats kExhausted because an interrupted round never
      // examined the remaining columns' coverage.
      st->termination = early_stop;
      break;
    }
    if (all_covered) {
      st->termination = Termination::kExhausted;
      break;
    }
    R *= c;
    ++round;
  }

  std::sort(found.begin(), found.end(), NeighborLess());
  if (found.size() > k) found.resize(k);
  FlushQueryMetrics(*st, query_timer.ElapsedMillis());
  return found;
}

size_t QalshIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const ProjectionColumn& col : columns_) {
    bytes += col.values.size() * sizeof(float) + col.ids.size() * sizeof(ObjectId);
  }
  for (const auto& a : projections_) bytes += a.size() * sizeof(float);
  bytes += packed_.size() * sizeof(float);
  return bytes;
}

}  // namespace c2lsh
