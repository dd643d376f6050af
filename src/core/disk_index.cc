#include "src/core/disk_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/core/virtual_rehash.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/storage/blob.h"
#include "src/storage/page_model.h"
#include "src/util/timer.h"

namespace c2lsh {

namespace {
// v1 meta blobs predate online mutability; v2 adds [applied_lsn u64]
// [stored_objects u64] after first_data_page. Open reads both (a v1 blob
// implies applied_lsn = 0 and stored_objects = n).
constexpr uint32_t kMetaMagic = 0xC25D1234;
constexpr uint32_t kMetaMagicV2 = 0xC25D1235;

// Registry handles for the disk mutation path, resolved once. Query
// instruments live with the round engine (batch::DiskInstruments).
struct DiskMetrics {
  obs::Counter* compaction_runs;
  obs::Histogram* compaction_millis;
  obs::Gauge* overlay_entries;
  obs::Gauge* tombstones;
};

const DiskMetrics& Metrics() {
  static const DiskMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return DiskMetrics{
        r.GetCounter("disk_c2lsh_compaction_runs_total",
                     "Disk index compactions completed (WAL truncated)"),
        r.GetHistogram("disk_c2lsh_compaction_millis",
                       "Disk index compaction duration in milliseconds"),
        r.GetGauge("disk_c2lsh_overlay_entries",
                   "Disk-index dynamic inserts awaiting compaction, summed "
                   "over tables"),
        r.GetGauge("disk_c2lsh_tombstones",
                   "Disk-index objects deleted but not yet compacted away"),
    };
  }();
  return m;
}

// Serializes the full index metadata (v2) and returns the blob's root page.
// Shared by Build and Compact so the two paths cannot drift.
Result<PageId> WriteMetaBlob(BufferPool* pool, const C2lshOptions& options,
                             const C2lshDerived& derived, size_t num_objects,
                             size_t dim, long long radius_cap,
                             PageId first_data_page, uint64_t applied_lsn,
                             size_t stored_objects, const PStableFamily& family,
                             const std::vector<PageId>& roots) {
  ByteBuffer meta;
  meta.Put(kMetaMagicV2);
  meta.Put(options.w);
  meta.Put(options.c);
  meta.Put(options.delta);
  meta.Put(options.beta);
  meta.Put(options.max_radius_exponent);
  meta.Put(options.seed);
  meta.Put(static_cast<uint64_t>(options.page_bytes));
  meta.Put(derived.model.w);
  meta.Put(derived.model.c);
  meta.Put(derived.model.p1);
  meta.Put(derived.model.p2);
  meta.Put(derived.model.rho);
  meta.Put(derived.beta);
  meta.Put(derived.z);
  meta.Put(derived.alpha);
  meta.Put(static_cast<uint64_t>(derived.m));
  meta.Put(static_cast<uint64_t>(derived.l));
  meta.Put(static_cast<uint64_t>(num_objects));
  meta.Put(static_cast<uint64_t>(dim));
  meta.Put(radius_cap);
  meta.Put(static_cast<uint64_t>(first_data_page));
  meta.Put(applied_lsn);
  meta.Put(static_cast<uint64_t>(stored_objects));
  for (size_t i = 0; i < derived.m; ++i) {
    const PStableHash& h = family.function(i);
    meta.PutArray(h.a().data(), h.a().size());
    meta.Put(h.b());
    meta.Put(h.w());
  }
  meta.PutArray(roots.data(), roots.size());
  return WriteBlob(pool, meta.bytes());
}

Status WriteSuperblock(BufferPool* pool, PageId meta_root) {
  C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool->Fetch(1));
  std::memcpy(page.mutable_data(), &meta_root, sizeof(meta_root));
  return Status::OK();
}

Result<PageId> ReadSuperblock(BufferPool* pool) {
  Result<BufferPool::PageHandle> page = pool->Fetch(1);
  if (!page.ok()) {
    if (page.status().IsCorruption()) return page.status();
    // An out-of-range page 1 means the header was never published (e.g. a
    // crash before the first Sync): the file is not a usable index.
    return Status::Corruption("DiskC2lshIndex: cannot read superblock (" +
                              std::string(page.status().message()) + ")");
  }
  PageId meta_root = 0;
  std::memcpy(&meta_root, page->data(), sizeof(meta_root));
  if (meta_root == 0) {
    return Status::Corruption("DiskC2lshIndex: empty superblock");
  }
  return meta_root;
}

}  // namespace

Result<DiskC2lshIndex> DiskC2lshIndex::Build(const Dataset& data,
                                             const C2lshOptions& options,
                                             const std::string& path,
                                             size_t pool_pages, bool store_vectors,
                                             Env* env) {
  C2LSH_ASSIGN_OR_RETURN(C2lshDerived derived, ComputeDerivedParams(options, data.size()));
  long long radius_cap = 1;
  const long long c_int = static_cast<long long>(std::llround(options.c));
  for (int i = 0; i < options.max_radius_exponent; ++i) radius_cap *= c_int;
  C2LSH_ASSIGN_OR_RETURN(
      PStableFamily family,
      PStableFamily::Sample(derived.m, data.dim(), options.w, options.seed,
                            static_cast<double>(radius_cap)));

  DiskC2lshIndex index;
  C2LSH_ASSIGN_OR_RETURN(PageFile file,
                         PageFile::Create(path, options.page_bytes, env));
  index.file_ = std::make_unique<PageFile>(std::move(file));
  C2LSH_ASSIGN_OR_RETURN(BufferPool pool,
                         BufferPool::Create(index.file_.get(), pool_pages));
  index.pool_ = std::make_unique<BufferPool>(std::move(pool));

  // Reserve the superblock (page 1).
  {
    PageId sb = 0;
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, index.pool_->NewPage(&sb));
    (void)page;
    if (sb != 1) {
      return Status::Internal("DiskC2lshIndex: superblock landed on page " +
                              std::to_string(sb));
    }
  }

  // Data segment: the raw vectors, packed back to back across a contiguous
  // run of pages, so the index file is self-contained and verification I/O
  // is measured through the pool.
  if (store_vectors) {
    const size_t total_bytes = data.size() * data.dim() * sizeof(float);
    const size_t page_bytes = index.pool_->page_bytes();
    const auto* src = reinterpret_cast<const uint8_t*>(data.vectors().data().data());
    size_t offset = 0;
    while (offset < total_bytes || index.first_data_page_ == 0) {
      PageId id = 0;
      C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, index.pool_->NewPage(&id));
      if (index.first_data_page_ == 0) {
        index.first_data_page_ = id;
      } else if (id != index.first_data_page_ + offset / page_bytes) {
        return Status::Internal("DiskC2lshIndex: data pages not contiguous");
      }
      const size_t chunk = std::min(page_bytes, total_bytes - offset);
      std::memcpy(page.mutable_data(), src + offset, chunk);
      offset += chunk;
      if (offset >= total_bytes) break;
    }
  }

  // Tables.
  std::vector<PageId> roots;
  roots.reserve(derived.m);
  for (size_t i = 0; i < derived.m; ++i) {
    const std::vector<BucketId> buckets = family.BucketColumn(data.vectors(), i);
    std::vector<std::pair<BucketId, ObjectId>> pairs;
    pairs.reserve(buckets.size());
    for (size_t r = 0; r < buckets.size(); ++r) {
      pairs.emplace_back(buckets[r], static_cast<ObjectId>(r));
    }
    C2LSH_ASSIGN_OR_RETURN(DiskBucketTable table,
                           DiskBucketTable::Build(index.pool_.get(), std::move(pairs)));
    roots.push_back(table.root());
    index.tables_.push_back(std::move(table));
  }

  // Meta blob, published both through the superblock page (legacy location)
  // and the PageFile header's user_root (the atomic-publish primitive
  // Compact relies on; Open prefers it). Build is the only writer of the
  // superblock — everything here becomes durable in one FlushAll, so there
  // is no earlier image to protect; Compact must never rewrite it (see the
  // publish comment there).
  C2LSH_ASSIGN_OR_RETURN(
      PageId meta_root,
      WriteMetaBlob(index.pool_.get(), options, derived, data.size(), data.dim(),
                    radius_cap, index.first_data_page_, /*applied_lsn=*/0,
                    /*stored_objects=*/data.size(), family, roots));
  C2LSH_RETURN_IF_ERROR(WriteSuperblock(index.pool_.get(), meta_root));
  index.file_->SetUserRoot(meta_root);
  C2LSH_RETURN_IF_ERROR(index.pool_->FlushAll());

  // A fresh build owns a fresh WAL: a stale log left by a previous index at
  // the same path must not replay into this one.
  index.path_ = path;
  index.env_ = (env != nullptr) ? env : Env::Default();
  const std::string wal_path = path + ".wal";
  if (index.env_->FileExists(wal_path)) {
    C2LSH_RETURN_IF_ERROR(index.env_->DeleteFile(wal_path));
  }
  C2LSH_ASSIGN_OR_RETURN(WriteAheadLog wal, WriteAheadLog::Open(wal_path, index.env_));
  index.wal_ = std::make_unique<WriteAheadLog>(std::move(wal));

  index.options_ = options;
  index.derived_ = derived;
  index.num_objects_ = data.size();
  index.stored_objects_ = data.size();
  index.dim_ = data.dim();
  index.radius_cap_ = radius_cap;
  index.family_ = std::make_unique<PStableFamily>(std::move(family));
  index.pool_->ResetStats();
  return index;
}

// Moves run while both indexes are quiescent (see header), so they touch the
// guarded state without either lock. Tables go first: they hold raw pointers
// into the pool, which holds one into the file.
DiskC2lshIndex::DiskC2lshIndex(DiskC2lshIndex&& other) noexcept {
  *this = std::move(other);
}

DiskC2lshIndex& DiskC2lshIndex::operator=(DiskC2lshIndex&& other) noexcept {
  if (this != &other) {
    tables_ = std::move(other.tables_);
    family_ = std::move(other.family_);
    pool_ = std::move(other.pool_);
    file_ = std::move(other.file_);
    options_ = other.options_;
    derived_ = other.derived_;
    num_objects_ = other.num_objects_;
    dim_ = other.dim_;
    radius_cap_ = other.radius_cap_;
    first_data_page_ = other.first_data_page_;
    stored_objects_ = other.stored_objects_;
    path_ = std::move(other.path_);
    env_ = other.env_;
    wal_ = std::move(other.wal_);
    applied_lsn_ = other.applied_lsn_;
    overlay_vectors_ = std::move(other.overlay_vectors_);
    deleted_ids_ = std::move(other.deleted_ids_);
  }
  return *this;
}

Result<DiskC2lshIndex> DiskC2lshIndex::Open(const std::string& path, size_t pool_pages,
                                            Env* env) {
  DiskC2lshIndex index;
  C2LSH_ASSIGN_OR_RETURN(PageFile file, PageFile::Open(path, env));
  index.file_ = std::make_unique<PageFile>(std::move(file));
  C2LSH_ASSIGN_OR_RETURN(BufferPool pool,
                         BufferPool::Create(index.file_.get(), pool_pages));
  index.pool_ = std::make_unique<BufferPool>(std::move(pool));

  // The durably published meta root: the PageFile header's user_root when
  // set (v3 files — this is the pointer Compact swings atomically), falling
  // back to the legacy superblock page for files written before user_root
  // existed.
  PageId meta_root = static_cast<PageId>(index.file_->user_root());
  if (meta_root == 0) {
    C2LSH_ASSIGN_OR_RETURN(meta_root, ReadSuperblock(index.pool_.get()));
  }
  C2LSH_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         ReadBlob(index.pool_.get(), meta_root));
  ByteReader r(&bytes);
  uint32_t magic = 0;
  uint64_t page_bytes = 0, m64 = 0, l64 = 0, n64 = 0, dim64 = 0;
  bool ok = r.Get(&magic) && (magic == kMetaMagic || magic == kMetaMagicV2);
  ok = ok && r.Get(&index.options_.w) && r.Get(&index.options_.c) &&
       r.Get(&index.options_.delta) && r.Get(&index.options_.beta) &&
       r.Get(&index.options_.max_radius_exponent) && r.Get(&index.options_.seed) &&
       r.Get(&page_bytes);
  uint64_t first_data_page = 0;
  ok = ok && r.Get(&index.derived_.model.w) && r.Get(&index.derived_.model.c) &&
       r.Get(&index.derived_.model.p1) && r.Get(&index.derived_.model.p2) &&
       r.Get(&index.derived_.model.rho) && r.Get(&index.derived_.beta) &&
       r.Get(&index.derived_.z) && r.Get(&index.derived_.alpha) && r.Get(&m64) &&
       r.Get(&l64) && r.Get(&n64) && r.Get(&dim64) && r.Get(&index.radius_cap_) &&
       r.Get(&first_data_page);
  uint64_t applied_lsn = 0;
  uint64_t stored_objects = n64;
  if (ok && magic == kMetaMagicV2) {
    ok = r.Get(&applied_lsn) && r.Get(&stored_objects);
  }
  if (!ok) {
    return Status::Corruption("DiskC2lshIndex: bad meta blob in '" + path + "'");
  }
  index.options_.page_bytes = static_cast<size_t>(page_bytes);
  index.derived_.m = static_cast<size_t>(m64);
  index.derived_.l = static_cast<size_t>(l64);
  index.num_objects_ = static_cast<size_t>(n64);
  index.dim_ = static_cast<size_t>(dim64);
  index.first_data_page_ = static_cast<PageId>(first_data_page);
  index.applied_lsn_ = applied_lsn;
  index.stored_objects_ = static_cast<size_t>(stored_objects);

  std::vector<PStableHash> funcs;
  funcs.reserve(index.derived_.m);
  for (size_t i = 0; i < index.derived_.m; ++i) {
    std::vector<float> a(index.dim_);
    double b = 0, w = 0;
    if (!r.GetArray(a.data(), a.size()) || !r.Get(&b) || !r.Get(&w)) {
      return Status::Corruption("DiskC2lshIndex: truncated hash functions");
    }
    C2LSH_ASSIGN_OR_RETURN(PStableHash h, PStableHash::FromParts(std::move(a), b, w));
    funcs.push_back(std::move(h));
  }
  C2LSH_ASSIGN_OR_RETURN(PStableFamily family,
                         PStableFamily::FromFunctions(std::move(funcs)));
  index.family_ = std::make_unique<PStableFamily>(std::move(family));

  std::vector<PageId> roots(index.derived_.m);
  if (!r.GetArray(roots.data(), roots.size()) || !r.exhausted()) {
    return Status::Corruption("DiskC2lshIndex: truncated table roots");
  }
  for (PageId root : roots) {
    C2LSH_ASSIGN_OR_RETURN(DiskBucketTable table,
                           DiskBucketTable::Load(index.pool_.get(), root));
    index.tables_.push_back(std::move(table));
  }

  // Recovery: replay every acknowledged mutation the base image has not yet
  // folded in. Records at or below applied_lsn_ are skipped (idempotence), a
  // torn tail is truncated — a crashed, unacknowledged append can never
  // surface.
  index.path_ = path;
  index.env_ = (env != nullptr) ? env : Env::Default();
  C2LSH_ASSIGN_OR_RETURN(WriteAheadLog wal,
                         WriteAheadLog::Open(path + ".wal", index.env_));
  index.wal_ = std::make_unique<WriteAheadLog>(std::move(wal));
  C2LSH_RETURN_IF_ERROR(
      index.wal_
          ->Replay(index.applied_lsn_,
                   [&index](const WriteAheadLog::Record& rec) {
                     return index.ApplyRecord(rec);
                   })
          .status());
  index.UpdateMutationGauges();
  index.pool_->ResetStats();
  return index;
}

Status DiskC2lshIndex::ApplyRecord(const WriteAheadLog::Record& rec) {
  if (rec.type == WriteAheadLog::RecordType::kInsert) {
    if (rec.vec.size() != dim_) {
      return Status::Corruption("DiskC2lshIndex: WAL insert for id " +
                                std::to_string(rec.id) + " has dim " +
                                std::to_string(rec.vec.size()) + ", index has " +
                                std::to_string(dim_));
    }
    std::vector<BucketId> buckets;
    family_->BucketAll(rec.vec.data(), &buckets);
    for (size_t i = 0; i < tables_.size(); ++i) {
      tables_[i].OverlayInsert(buckets[i], rec.id);
    }
    overlay_vectors_[rec.id] = rec.vec;
    // An insert supersedes any earlier delete of the same id: without this
    // erase a delete-then-reinsert would stay invisible (the tombstone
    // gauge would report it) and Compact would drop the acknowledged
    // insert. The per-table tombstones are lifted inside OverlayInsert.
    const auto it = std::lower_bound(deleted_ids_.begin(), deleted_ids_.end(), rec.id);
    if (it != deleted_ids_.end() && *it == rec.id) {
      deleted_ids_.erase(it);
    }
    if (static_cast<size_t>(rec.id) + 1 > num_objects_) {
      num_objects_ = static_cast<size_t>(rec.id) + 1;
    }
  } else {
    for (DiskBucketTable& table : tables_) {
      table.OverlayDelete(rec.id);
    }
    const auto it = std::lower_bound(deleted_ids_.begin(), deleted_ids_.end(), rec.id);
    if (it == deleted_ids_.end() || *it != rec.id) {
      deleted_ids_.insert(it, rec.id);
    }
  }
  return Status::OK();
}

Status DiskC2lshIndex::Insert(ObjectId id, const float* v) {
  WriterMutexLock lock(&mu_);
  if (wal_ == nullptr) {
    return Status::Internal("DiskC2lshIndex: no WAL attached");
  }
  WriteAheadLog::Record rec;
  // Past both the WAL cursor and the folded watermark: after a compaction
  // truncated the log and the index reopened, the cursor restarts at 0 while
  // applied_lsn_ stays high — an LSN at or below it would be skipped at the
  // next replay, silently dropping an acknowledged mutation.
  rec.lsn = std::max(wal_->last_lsn(), applied_lsn_) + 1;
  rec.type = WriteAheadLog::RecordType::kInsert;
  rec.id = id;
  rec.vec.assign(v, v + dim_);
  // WAL first, sync second, apply third: the mutation is acknowledged only
  // once it would survive a crash, and the in-memory state never runs ahead
  // of the log.
  // analyze-ok(lock-order): the append and sync run in the writer section so LSNs follow apply order and every query after the ack sees the insert.
  C2LSH_RETURN_IF_ERROR(wal_->Append(rec));
  // analyze-ok(lock-order): the ack waits for this sync; readers queue behind it by design (mutators are exclusive).
  C2LSH_RETURN_IF_ERROR(wal_->Sync());
  C2LSH_RETURN_IF_ERROR(ApplyRecord(rec));
  UpdateMutationGauges();
  return Status::OK();
}

Status DiskC2lshIndex::Delete(ObjectId id) {
  WriterMutexLock lock(&mu_);
  if (wal_ == nullptr) {
    return Status::Internal("DiskC2lshIndex: no WAL attached");
  }
  if (static_cast<size_t>(id) >= num_objects_) {
    return Status::NotFound("Delete: object id " + std::to_string(id) +
                            " was never registered with this index");
  }
  WriteAheadLog::Record rec;
  rec.lsn = std::max(wal_->last_lsn(), applied_lsn_) + 1;  // see Insert
  rec.type = WriteAheadLog::RecordType::kDelete;
  rec.id = id;
  // analyze-ok(lock-order): WAL-first in the writer section, as in Insert.
  C2LSH_RETURN_IF_ERROR(wal_->Append(rec));
  // analyze-ok(lock-order): the ack waits for this sync, as in Insert.
  C2LSH_RETURN_IF_ERROR(wal_->Sync());
  C2LSH_RETURN_IF_ERROR(ApplyRecord(rec));
  UpdateMutationGauges();
  return Status::OK();
}

Status DiskC2lshIndex::Flush() {
  WriterMutexLock lock(&mu_);
  // analyze-ok(lock-order): Flush is a mutator — exclusive so the synced WAL and header match one image (serving calls it once, at drain).
  if (wal_ != nullptr) C2LSH_RETURN_IF_ERROR(wal_->Sync());
  // analyze-ok(lock-order): same exclusive section as the WAL sync above.
  return file_->Sync();
}

size_t DiskC2lshIndex::OverlayEntriesLocked() const {
  size_t total = 0;
  for (const DiskBucketTable& table : tables_) total += table.OverlayEntries();
  return total;
}

void DiskC2lshIndex::UpdateMutationGauges() const {
  const DiskMetrics& m = Metrics();
  m.overlay_entries->Set(static_cast<double>(OverlayEntriesLocked()));
  m.tombstones->Set(static_cast<double>(deleted_ids_.size()));
}

Status DiskC2lshIndex::Compact() {
  obs::ScopedSpan compact_span(obs::SpanSubsystem::kCompaction, "disk_compact");
  WriterMutexLock lock(&mu_);
  if (wal_ == nullptr) {
    return Status::Internal("DiskC2lshIndex: no WAL attached");
  }
  Timer timer;

  // 1. Gather every table's live entries off the current image. All tables
  // hold the same id set; the first table determines the new high-water.
  std::vector<std::vector<std::pair<BucketId, ObjectId>>> live(tables_.size());
  long long max_live = -1;
  for (size_t t = 0; t < tables_.size(); ++t) {
    live[t].reserve(tables_[t].num_entries());
    C2LSH_RETURN_IF_ERROR(tables_[t].ForEachEntry(
        [&live, &max_live, t](BucketId bucket, ObjectId id) {
          live[t].emplace_back(bucket, id);
          if (t == 0) max_live = std::max(max_live, static_cast<long long>(id));
        }));
  }
  const size_t new_n = static_cast<size_t>(max_live + 1);

  // 2. Rewrite the data segment (when one exists) for ids [0, new_n): old
  // segment bytes for ids it stored, resident overlay vectors for dynamic
  // inserts, zeros for holes left by deletes (their table entries are gone,
  // so the bytes are never read). Everything is appended — the old segment
  // stays valid until the header publish below.
  PageId new_first_data_page = 0;
  if (first_data_page_ != 0) {
    const size_t page_bytes = pool_->page_bytes();
    const size_t vec_bytes = dim_ * sizeof(float);
    std::vector<uint8_t> segment(new_n * vec_bytes, 0);
    std::vector<float> vec(dim_);
    for (size_t id = 0; id < new_n; ++id) {
      const auto ov = overlay_vectors_.find(static_cast<ObjectId>(id));
      if (ov != overlay_vectors_.end()) {
        std::memcpy(segment.data() + id * vec_bytes, ov->second.data(), vec_bytes);
      } else if (id < stored_objects_) {
        C2LSH_RETURN_IF_ERROR(ReadStoredVector(static_cast<ObjectId>(id),
                                               vec.data(), nullptr, nullptr));
        std::memcpy(segment.data() + id * vec_bytes, vec.data(), vec_bytes);
      }
    }
    size_t offset = 0;
    while (offset < segment.size() || new_first_data_page == 0) {
      PageId pid = 0;
      C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool_->NewPage(&pid));
      if (new_first_data_page == 0) {
        new_first_data_page = pid;
      } else if (pid != new_first_data_page + offset / page_bytes) {
        return Status::Internal("DiskC2lshIndex: compacted data pages not contiguous");
      }
      const size_t chunk = std::min(page_bytes, segment.size() - offset);
      std::memcpy(page.mutable_data(), segment.data() + offset, chunk);
      offset += chunk;
      if (offset >= segment.size()) break;
    }
  }

  // 3. Fresh bucket runs from the gathered entries.
  std::vector<DiskBucketTable> new_tables;
  std::vector<PageId> roots;
  new_tables.reserve(tables_.size());
  roots.reserve(tables_.size());
  for (size_t t = 0; t < tables_.size(); ++t) {
    C2LSH_ASSIGN_OR_RETURN(DiskBucketTable table,
                           DiskBucketTable::Build(pool_.get(), std::move(live[t])));
    roots.push_back(table.root());
    new_tables.push_back(std::move(table));
  }

  // 4. New meta blob with the folded watermark, then the atomic publish:
  // user_root swings to the new blob in the same header write that makes the
  // new pages durable. A crash before FlushAll completes recovers the old
  // root (the WAL still covers the delta); after it, the new image.
  // user_root is the ONLY publish channel here: the legacy superblock (page
  // 1) is deliberately left untouched. Rewriting it would destroy the old
  // meta root's last pointer before the header publish — on a pre-v3 file
  // (durable user_root == 0) a crash between page 1's writeback and Sync
  // would leave Open's superblock fallback pointing at pages beyond the
  // durable num_pages, making the index permanently unopenable. Stale is
  // safe: Open only consults the superblock while user_root is 0, and a
  // successful publish makes user_root nonzero forever after.
  // max() and not just the WAL cursor: with no mutations since open the
  // cursor can sit below the watermark already baked into the meta blob, and
  // the watermark must never move backwards.
  const uint64_t folded_lsn = std::max(wal_->last_lsn(), applied_lsn_);
  C2LSH_ASSIGN_OR_RETURN(
      PageId meta_root,
      WriteMetaBlob(pool_.get(), options_, derived_, new_n, dim_, radius_cap_,
                    new_first_data_page, folded_lsn, new_n, *family_, roots));
  file_->SetUserRoot(meta_root);
  // analyze-ok(lock-order): Compact is exclusive — queries must not read tables_ while the fold publishes and swaps them in.
  C2LSH_RETURN_IF_ERROR(pool_->FlushAll());

  // 5. The new image is durable: swap it in and truncate the log. A failure
  // in Reset leaves a log whose records are all <= applied_lsn_ — replay
  // skips them, so recovery stays exact.
  tables_ = std::move(new_tables);
  first_data_page_ = new_first_data_page;
  num_objects_ = new_n;
  stored_objects_ = new_n;
  applied_lsn_ = folded_lsn;
  overlay_vectors_.clear();
  deleted_ids_.clear();
  // analyze-ok(lock-order): the log truncation belongs to the same exclusive fold (a concurrent Insert would append to a log being reset).
  C2LSH_RETURN_IF_ERROR(wal_->Reset());

  const DiskMetrics& m = Metrics();
  m.compaction_runs->Increment();
  m.compaction_millis->Observe(timer.ElapsedMillis());
  UpdateMutationGauges();
  return Status::OK();
}

Status DiskC2lshIndex::ReadStoredVector(ObjectId id, float* out,
                                        const QueryContext* ctx,
                                        FetchCounts* counts) const {
  const size_t page_bytes = pool_->page_bytes();
  const size_t vec_bytes = dim_ * sizeof(float);
  size_t byte_off = static_cast<size_t>(id) * vec_bytes;
  auto* dst = reinterpret_cast<uint8_t*>(out);
  size_t copied = 0;
  while (copied < vec_bytes) {
    const PageId page_id = first_data_page_ + (byte_off / page_bytes);
    const size_t in_page = byte_off % page_bytes;
    const size_t chunk = std::min(page_bytes - in_page, vec_bytes - copied);
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page,
                           pool_->Fetch(page_id, ctx, counts));
    std::memcpy(dst + copied, page.data() + in_page, chunk);
    copied += chunk;
    byte_off += chunk;
  }
  return Status::OK();
}

Status DiskC2lshIndex::LoadVector(ObjectId id, float* out, const QueryContext* ctx,
                                  FetchCounts* counts) const {
  // Dynamic inserts live in the resident overlay until a compaction moves
  // them into the data segment; their reads cost no I/O.
  const auto it = overlay_vectors_.find(id);
  if (it != overlay_vectors_.end()) {
    std::memcpy(out, it->second.data(), dim_ * sizeof(float));
    return Status::OK();
  }
  if (static_cast<size_t>(id) >= stored_objects_) {
    return Status::Corruption("DiskC2lshIndex: object " + std::to_string(id) +
                              " has no stored vector");
  }
  return ReadStoredVector(id, out, ctx, counts);
}

// The round engine's disk seams for one query: bucket runs come through the
// BufferPool with the query's context (measured misses charged as index
// pages), candidate vectors from the caller's Dataset (modelled pages) or
// the stored data segment (measured misses charged as data pages). Every
// fetch is charged to the query's own FetchCounts, never read back from the
// pool-wide stats, so queries running side by side each measure their own
// I/O. Lives inside QueryOne, under the index's shared lock.
class DiskC2lshIndex::Source final : public batch::Source {
 public:
  Source(const DiskC2lshIndex& index, const Dataset* data, const QueryContext* ctx)
      : batch::Source(*index.family_, index.derived_, index.num_objects_,
                      index.radius_cap_, /*descent_pages=*/0, batch::DiskInstruments()),
        index_(index),
        data_(data),
        ctx_(ctx),
        vector_pages_(PageModel(index.options_.page_bytes).PagesPerVector(index.dim_)),
        vector_buf_(index.dim_) {}

  Status Scan(size_t table, const BucketRange& range, batch::BucketScan* out) override {
    // Range boundaries (and the table's entry-page boundaries below) are the
    // disk scan's checkpoints: each may cost real reads, so an ended
    // context stops before paying for them.
    if (ctx_ != nullptr && ctx_->CheckNow() != Termination::kNone) {
      return Status::Unavailable("DiskC2LSH: query context ended");
    }
    const uint64_t misses_before = counts_.misses;
    Result<size_t> visited = index_.tables_[table].ForEachInRange(
        range.lo, range.hi, [out](ObjectId id) { out->ids.push_back(id); }, ctx_,
        &counts_);
    out->index_pages = counts_.misses - misses_before;
    if (!visited.ok()) return visited.status();
    out->buckets_scanned = visited.value();
    return Status::OK();
  }

  bool Covers(size_t table, const BucketRange& range) const override {
    const DiskBucketTable& t = index_.tables_[table];
    return t.num_buckets() == 0 || t.EntriesInRange(range.lo, range.hi) >= t.num_entries();
  }

  Status Vector(ObjectId id, const float** vec, uint64_t* pages) override {
    if (data_ != nullptr) {
      *vec = data_->object(id);
      *pages += vector_pages_;  // modelled (external data)
      return Status::OK();
    }
    const uint64_t misses_before = counts_.misses;
    C2LSH_RETURN_IF_ERROR(index_.LoadVector(id, vector_buf_.data(), ctx_, &counts_));
    *pages += counts_.misses - misses_before;
    *vec = vector_buf_.data();
    return Status::OK();
  }

  // The page budget counts measured pool misses only: modelled data pages
  // of an external Dataset cost no pool traffic.
  uint64_t BudgetPages(const C2lshQueryStats& st) const override {
    return st.index_pages + (data_ == nullptr ? st.data_pages : 0);
  }

  void Finish(batch::QueryRecord* record) const override {
    record->pool_hits = counts_.hits;
    record->pool_misses = counts_.misses;
  }

 private:
  const DiskC2lshIndex& index_;
  const Dataset* data_;
  const QueryContext* ctx_;
  const uint64_t vector_pages_;
  std::vector<float> vector_buf_;
  FetchCounts counts_;  ///< this query's pool traffic
};

Status DiskC2lshIndex::CheckVectorSource(const Dataset* data) const {
  if (data == nullptr) {
    if (first_data_page_ != 0) return Status::OK();
    return Status::NotSupported(
        "DiskC2LSH: this index was built without a data segment; pass the Dataset "
        "to the query or rebuild with store_vectors = true");
  }
  if (data->dim() != dim_) {
    return Status::InvalidArgument("DiskC2LSH query: dataset dim mismatch");
  }
  if (data->size() < num_objects_) {
    return Status::InvalidArgument("DiskC2LSH query: dataset smaller than the index");
  }
  return Status::OK();
}

Result<NeighborList> DiskC2lshIndex::Query(const float* query, size_t k,
                                           DiskQueryStats* stats,
                                           obs::QueryTrace* trace,
                                           const QueryContext* ctx) const {
  ReaderMutexLock lock(&mu_);
  return QueryOne(nullptr, query, k, stats, trace, ctx);
}

Result<NeighborList> DiskC2lshIndex::Query(const Dataset& data, const float* query,
                                           size_t k, DiskQueryStats* stats,
                                           obs::QueryTrace* trace,
                                           const QueryContext* ctx) const {
  ReaderMutexLock lock(&mu_);
  return QueryOne(&data, query, k, stats, trace, ctx);
}

Result<std::vector<NeighborList>> DiskC2lshIndex::QueryBatch(
    const FloatMatrix& queries, size_t k, std::vector<DiskQueryStats>* stats,
    const std::vector<const QueryContext*>& contexts) const {
  ReaderMutexLock lock(&mu_);
  return QueryRows(nullptr, queries, k, stats, contexts);
}

Result<std::vector<NeighborList>> DiskC2lshIndex::QueryBatch(
    const Dataset& data, const FloatMatrix& queries, size_t k,
    std::vector<DiskQueryStats>* stats,
    const std::vector<const QueryContext*>& contexts) const {
  ReaderMutexLock lock(&mu_);
  return QueryRows(&data, queries, k, stats, contexts);
}

Result<std::vector<NeighborList>> DiskC2lshIndex::QueryRows(
    const Dataset* data, const FloatMatrix& queries, size_t k,
    std::vector<DiskQueryStats>* stats,
    const std::vector<const QueryContext*>& contexts) const {
  C2LSH_RETURN_IF_ERROR(CheckVectorSource(data));
  if (k == 0) return Status::InvalidArgument("DiskC2LSH query: k must be positive");
  if (queries.dim() != dim_) {
    return Status::InvalidArgument("DiskC2LSH QueryBatch: query dim mismatch");
  }
  const size_t nq = queries.num_rows();
  if (!contexts.empty() && contexts.size() != nq) {
    return Status::InvalidArgument(
        "DiskC2LSH QueryBatch: contexts must be empty or hold one (nullable) pointer "
        "per query row");
  }
  std::vector<NeighborList> results(nq);
  if (stats != nullptr) stats->assign(nq, DiskQueryStats());
  for (size_t q = 0; q < nq; ++q) {
    C2LSH_ASSIGN_OR_RETURN(
        results[q],
        QueryOne(data, queries.row(q), k, stats != nullptr ? &(*stats)[q] : nullptr,
                 /*trace=*/nullptr, contexts.empty() ? nullptr : contexts[q]));
  }
  return results;
}

Result<NeighborList> DiskC2lshIndex::QueryOne(const Dataset* data, const float* query,
                                              size_t k, DiskQueryStats* stats,
                                              obs::QueryTrace* trace,
                                              const QueryContext* ctx) const {
  C2LSH_RETURN_IF_ERROR(CheckVectorSource(data));
  if (k == 0) return Status::InvalidArgument("DiskC2LSH query: k must be positive");
  Source source(*this, data, ctx);
  batch::Block block;
  block.queries = query;
  block.num_queries = 1;
  block.qstride = dim_;
  block.k = k;
  block.ctxs = &ctx;
  block.traces = &trace;
  NeighborList result;
  DiskQueryStats record;
  C2LSH_RETURN_IF_ERROR(batch::RunBatchBlock(source, block, &result, &record));
  if (stats != nullptr) *stats = record;
  return result;
}

}  // namespace c2lsh
