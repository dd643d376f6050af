// Analyzer fixture: blocking operations under a reader/writer lock. The
// writer section is exclusive like any mutex, and a reader section still
// stalls every writer queued behind it, so both are flagged; deciding under
// the lock and blocking after it stays clean.

#include "util/mutex.h"

namespace fixture {

class SharedJournal {
 public:
  // Flagged: the fsync runs inside the exclusive writer section.
  Status AppendLocked(const Record& rec) {
    WriterMutexLock lock(&mu_);
    ++records_;
    return wal_->Sync();
  }

  // Flagged: a file read inside a shared (reader) section.
  Status ReadLocked(PageId id, uint8_t* out) const {
    ReaderMutexLock lock(&mu_);
    return file_->ReadPage(id, out);
  }

  // Flagged: the std spelling of a reader section.
  Status ReadStdLocked(PageId id, uint8_t* out) const {
    std::shared_lock<std::shared_mutex> lock(std_mu_);
    return file_->ReadPage(id, out);
  }

  // Clean: the decision happens under the reader lock, the fsync outside.
  Status SyncIfDirty() {
    {
      ReaderMutexLock lock(&mu_);
      if (records_ == 0) return Status::OK();
    }
    return wal_->Sync();
  }

 private:
  mutable SharedMutex mu_;
  mutable std::shared_mutex std_mu_;
  int records_ = 0;
  Wal* wal_;
  File* file_;
};

}  // namespace fixture
