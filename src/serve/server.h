// Server: the serving front end — a multi-index catalog behind the wire
// protocol (src/serve/protocol.h) on the transport seam (src/util/socket.h).
//
// Threading model: one dedicated ThreadPool sized max_connections + 2 with
// clamp_to_hardware = false (handlers BLOCK in Read, so the right pool size
// is the connection cap, not the core count). One submitted task runs the
// accept loop; each accepted connection gets one submitted handler running
// read-frame -> dispatch -> write-frame until EOF, error, or drain. The
// accept loop stops pulling from the listener while the connection cap is
// reached — the kernel accept queue (or in-process equivalent) is the
// backpressure, not an unbounded handler pile.
//
// Request controls, end to end: the wire deadline (relative micros) becomes
// the QueryContext deadline MINUS deadline_margin_millis — the margin is the
// server's budget to encode and flush the response, so the client sees an
// answer before its own deadline, not a dead connection after it. The wire
// page budget flows into io_page_budget unchanged. Admission (per-tenant
// partitions + shared overflow, src/serve/tenant_admission.h) is taken
// BEFORE the index is touched: a saturated server sheds in admission with
// Unavailable rather than queueing unboundedly on an index's lock.
//
// The catalog holds DiskC2lshIndex instances and handlers call them
// directly: the index locks itself (src/core/disk_index.h), so queries on
// one index are concurrent readers and Insert/Delete are exclusive writers
// that wait for in-flight queries. Cross-index requests never contend.
//
// Graceful drain (Drain(), idempotent):
//   1. readiness flips false (kReady answers 0) and the listener closes —
//      no new connections;
//   2. admission drains: queued waiters everywhere shed immediately with
//      Unavailable, in-flight queries get until drain_deadline_millis;
//   3. on overrun: a kDrainDeadlineExceeded anomaly is recorded and the
//      server-wide CancellationToken fires, stopping stragglers at their
//      next checkpoint with partial results;
//   4. every connection is Shutdown() — handlers parked in Read unblock —
//      and the server waits for the accept loop and all handlers to exit;
//   5. every index Flushes (WAL + file sync), so a kill -9 after drain
//      loses nothing.
// The DrainReport says whether the deadline held, how many connections were
// yanked, and whether any admission tickets leaked (always 0 unless a
// handler leaked one — the chaos soak asserts this stays 0).

#pragma once
#ifndef C2LSH_SERVE_SERVER_H_
#define C2LSH_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/core/disk_index.h"
#include "src/serve/protocol.h"
#include "src/serve/tenant_admission.h"
#include "src/util/mutex.h"
#include "src/util/query_context.h"
#include "src/util/result.h"
#include "src/util/socket.h"
#include "src/util/thread_pool.h"

namespace c2lsh {
namespace serve {

struct ServerOptions {
  /// Address passed to Transport::Listen; the resolved one (ephemeral port
  /// filled in) comes back from Server::address().
  std::string address = "127.0.0.1:0";

  /// Concurrent connections served; the accept loop pauses at the cap.
  /// Clamped to >= 1.
  size_t max_connections = 64;

  /// Subtracted from every wire deadline before it reaches the query: the
  /// server's own budget to encode and flush the response.
  double deadline_margin_millis = 2.0;

  /// How long Drain() waits for in-flight requests before cancelling them.
  double drain_deadline_millis = 2000.0;

  /// Bound on writing one response frame (a stalled reader must not pin a
  /// handler forever).
  double write_timeout_millis = 5000.0;

  /// Per-tenant partitions + shared overflow pool.
  TenantAdmissionOptions admission;

  /// The network doorway. Required; NOT owned — must outlive the Server.
  /// Tests pass an InprocTransport, production a PosixTransport.
  Transport* transport = nullptr;
};

/// What Drain() observed. `leaked_tickets` is the post-drain in-flight sum
/// across every admission controller — nonzero means a handler lost a
/// Ticket, the invariant the chaos soak exists to catch.
struct DrainReport {
  bool met_deadline = true;
  size_t connections_aborted = 0;  ///< connections Shutdown() mid-drain
  size_t leaked_tickets = 0;
  Status admission_status;  ///< OK, or the drain-deadline Unavailable
  Status flush_status;      ///< first index Flush() failure, if any
};

class Server {
 public:
  /// Binds the listener and starts the accept loop. The options' transport
  /// must stay alive until the Server is destroyed.
  static Result<std::unique_ptr<Server>> Start(const ServerOptions& options);

  /// Drains first (with the configured deadline) if Drain() was never
  /// called, then joins the pool.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers `index` under `name` (what requests carry on the wire).
  /// InvalidArgument on an empty/over-cap name or a duplicate. Indexes can
  /// be added while serving; they are never removed (drain, then rebuild
  /// the server).
  Status AddIndex(const std::string& name, DiskC2lshIndex index);

  /// The resolved listen address — what clients pass to Connect.
  const std::string& address() const { return address_; }

  /// Readiness as reported to kReady probes: true from Start until Drain.
  bool ready() const { return ready_.load(std::memory_order_relaxed); }

  /// Graceful shutdown (see file comment). Idempotent: the first call
  /// drains, every later (or concurrent) call waits for it and returns the
  /// same report.
  DrainReport Drain();

  TenantAdmission& admission() { return admission_; }

  size_t active_connections() const;
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  explicit Server(const ServerOptions& options);

  void AcceptLoop();
  void HandleConnection(uint64_t id, std::shared_ptr<Connection> conn);
  Response Dispatch(const Request& req);
  DiskC2lshIndex* FindIndex(const std::string& name) EXCLUDES(catalog_mu_);

  ServerOptions options_;  ///< normalized (clamps applied)
  TenantAdmission admission_;
  std::unique_ptr<Listener> listener_;
  std::string address_;

  /// Fired when drain overruns its deadline: every in-flight query stops at
  /// its next checkpoint with partial results.
  CancellationToken cancel_;

  std::atomic<bool> ready_{false};
  std::atomic<uint64_t> requests_{0};

  mutable Mutex mu_;
  std::condition_variable_any cv_;  ///< handler exit, cap slack, drain done
  std::map<uint64_t, std::shared_ptr<Connection>> connections_ GUARDED_BY(mu_);
  uint64_t next_conn_id_ GUARDED_BY(mu_) = 0;
  size_t tasks_outstanding_ GUARDED_BY(mu_) = 0;  ///< accept loop + handlers
  bool stopping_ GUARDED_BY(mu_) = false;
  bool drained_ GUARDED_BY(mu_) = false;
  DrainReport drain_report_ GUARDED_BY(mu_);

  /// Indexes are unique_ptr so a handler's pointer survives catalog growth;
  /// they are never removed.
  mutable Mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<DiskC2lshIndex>> catalog_
      GUARDED_BY(catalog_mu_);

  /// Declared last: destroyed first, joining every worker while the members
  /// the handlers touch are still alive.
  ThreadPool pool_;
};

}  // namespace serve
}  // namespace c2lsh

#endif  // C2LSH_SERVE_SERVER_H_
