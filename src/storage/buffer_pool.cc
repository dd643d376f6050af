#include "src/storage/buffer_pool.h"

#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace c2lsh {

namespace {
// Registry handles resolved once per process. The pool also keeps its own
// per-instance BufferPoolStats (snapshot semantics, resettable per query);
// the registry counters are the process-wide running totals.
struct PoolMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* writebacks;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    PoolMetrics mm;
    mm.hits = r.GetCounter("buffer_pool_hits_total", "BufferPool fetches served from a frame");
    mm.misses = r.GetCounter("buffer_pool_misses_total",
                             "BufferPool fetches that read from the PageFile");
    mm.evictions = r.GetCounter("buffer_pool_evictions_total",
                                "frames evicted to make room for another page");
    mm.writebacks = r.GetCounter("buffer_pool_writebacks_total",
                                 "dirty frames written back to the PageFile");
    return mm;
  }();
  return m;
}
}  // namespace

uint8_t* BufferPool::PageHandle::mutable_data() {
  pool_->MarkDirty(frame_);
  return data_;
}

void BufferPool::PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(PageFile* file, size_t capacity) : file_(file) {
  frames_.resize(capacity);
  for (Frame& f : frames_) {
    f.data.resize(file_->page_bytes());
  }
}

// Moves run while both pools are externally quiescent (see header), so they
// access guarded members without holding either mutex.
BufferPool::BufferPool(BufferPool&& other) noexcept NO_THREAD_SAFETY_ANALYSIS
    : file_(other.file_),
      frames_(std::move(other.frames_)),
      page_to_frame_(std::move(other.page_to_frame_)),
      lru_(std::move(other.lru_)),
      stats_(other.stats_) {}

BufferPool& BufferPool::operator=(BufferPool&& other) noexcept
    NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    file_ = other.file_;
    frames_ = std::move(other.frames_);
    page_to_frame_ = std::move(other.page_to_frame_);
    lru_ = std::move(other.lru_);
    stats_ = other.stats_;
  }
  return *this;
}

Result<BufferPool> BufferPool::Create(PageFile* file, size_t capacity_pages) {
  if (file == nullptr) {
    return Status::InvalidArgument("BufferPool: file is null");
  }
  if (capacity_pages == 0) {
    return Status::InvalidArgument("BufferPool: capacity must be >= 1 page");
  }
  return BufferPool(file, capacity_pages);
}

Result<size_t> BufferPool::GrabFrame() {
  // Prefer an empty frame.
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (frames_[i].page == 0) return i;
  }
  // Evict the least-recently-used unpinned frame. The writeback I/O runs
  // under mu_; eviction only ever touches unpinned frames, so no live
  // PageHandle can be scribbling on the bytes being written back (the
  // scribbler's Unpin happened under mu_, giving happens-before).
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const size_t frame = *it;
    Frame& f = frames_[frame];
    if (f.pins != 0) continue;
    if (f.dirty) {
      obs::ScopedSpan writeback_span(obs::SpanSubsystem::kBufferPool,
                                     "pool_writeback");
      C2LSH_RETURN_IF_ERROR(file_->WritePage(f.page, f.data.data()));
      ++stats_.writebacks;
      Metrics().writebacks->Increment();
      f.dirty = false;
    }
    page_to_frame_.erase(f.page);
    lru_.erase(std::next(it).base());
    f.in_lru = false;
    f.page = 0;
    ++stats_.evictions;
    Metrics().evictions->Increment();
    return frame;
  }
  return Status::Internal("BufferPool: all frames pinned — pool too small for the "
                          "working set of one operation");
}

Result<BufferPool::PageHandle> BufferPool::Fetch(PageId id,
                                                 const QueryContext* ctx,
                                                 FetchCounts* counts) {
  const uint64_t trace_id = ctx != nullptr ? ctx->trace_id : 0;
  MutexLock lock(&mu_);
  auto it = page_to_frame_.find(id);
  if (it != page_to_frame_.end()) {
    ++stats_.hits;
    if (counts != nullptr) ++counts->hits;
    Metrics().hits->Increment();
    obs::TraceInstant(obs::SpanSubsystem::kBufferPool, "pool_hit", trace_id,
                      static_cast<double>(id));
    Frame& f = frames_[it->second];
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    ++f.pins;
    return PageHandle(this, it->second, f.data.data());
  }
  ++stats_.misses;
  if (counts != nullptr) ++counts->misses;
  Metrics().misses->Increment();
  obs::ScopedSpan miss_span(obs::SpanSubsystem::kBufferPool, "pool_miss",
                            trace_id);
  C2LSH_ASSIGN_OR_RETURN(size_t frame, GrabFrame());
  Frame& f = frames_[frame];
  // analyze-ok(lock-order): documented single-latch design (class comment) — the miss read runs under mu_ so a frame is never visible half-filled.
  C2LSH_RETURN_IF_ERROR(file_->ReadPage(id, f.data.data(), ctx));
  f.page = id;
  f.pins = 1;
  f.dirty = false;
  page_to_frame_[id] = frame;
  return PageHandle(this, frame, f.data.data());
}

Result<BufferPool::PageHandle> BufferPool::NewPage(PageId* id_out) {
  MutexLock lock(&mu_);
  // analyze-ok(lock-order): documented single-latch design (class comment) — allocation mutates the file header, which shares mu_ with the frame table.
  C2LSH_ASSIGN_OR_RETURN(PageId id, file_->AllocatePage());
  C2LSH_ASSIGN_OR_RETURN(size_t frame, GrabFrame());
  Frame& f = frames_[frame];
  std::fill(f.data.begin(), f.data.end(), 0);
  f.page = id;
  f.pins = 1;
  f.dirty = true;
  page_to_frame_[id] = frame;
  if (id_out != nullptr) *id_out = id;
  return PageHandle(this, frame, f.data.data());
}

void BufferPool::MarkDirty(size_t frame) {
  MutexLock lock(&mu_);
  frames_[frame].dirty = true;
}

void BufferPool::Unpin(size_t frame) {
  MutexLock lock(&mu_);
  Frame& f = frames_[frame];
  if (f.pins > 0) --f.pins;
  if (f.pins == 0 && f.page != 0 && !f.in_lru) {
    lru_.push_front(frame);
    f.lru_pos = lru_.begin();
    f.in_lru = true;
  }
}

Status BufferPool::FlushAll() {
  MutexLock lock(&mu_);
  for (Frame& f : frames_) {
    if (f.page != 0 && f.dirty) {
      // analyze-ok(lock-order): documented single-latch design — FlushAll must write a stable snapshot of every dirty frame, so writeback holds mu_.
      C2LSH_RETURN_IF_ERROR(file_->WritePage(f.page, f.data.data()));
      ++stats_.writebacks;
      Metrics().writebacks->Increment();
      f.dirty = false;
    }
  }
  // analyze-ok(lock-order): the fsync is ordered after the writebacks above and callers expect FlushAll to be atomic w.r.t. concurrent NewPage/Fetch.
  return file_->Sync();
}

}  // namespace c2lsh
