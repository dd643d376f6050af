#include "src/serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace c2lsh {
namespace serve {

namespace {

// Accept-loop backoff after a transient accept failure, and the slice at
// which waiters re-check drain progress.
constexpr int kRetryPollMicros = 1000;

struct ServerMetrics {
  obs::Counter* requests;
  obs::Counter* requests_error;
  obs::Gauge* connections;
  obs::Counter* drains;
};

const ServerMetrics& Metrics() {
  static const ServerMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    ServerMetrics mm;
    mm.requests = r.GetCounter("c2lsh_serve_requests_total",
                               "frames dispatched by the serving front end");
    mm.requests_error =
        r.GetCounter("c2lsh_serve_requests_error_total",
                     "dispatched frames answered with a nonzero status code");
    mm.connections = r.GetGauge("c2lsh_serve_connections",
                                "connections currently being served");
    mm.drains = r.GetCounter("c2lsh_serve_drains_total",
                             "graceful drains initiated");
    return mm;
  }();
  return m;
}

ServerOptions Normalize(ServerOptions options) {
  options.max_connections = std::max<size_t>(1, options.max_connections);
  return options;
}

Response ErrorResponse(MsgType type, const Status& s) {
  Response resp;
  resp.type = type;
  resp.code = s.code();
  resp.message = std::string(s.message().substr(0, kMaxMessageBytes));
  return resp;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(Normalize(options)),
      admission_(options_.admission),
      // +2: the accept loop occupies one worker for the server's lifetime,
      // and one spare keeps a cap-full pool from serializing accept + drain.
      pool_(options_.max_connections + 2, /*clamp_to_hardware=*/false) {}

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  if (options.transport == nullptr) {
    return Status::InvalidArgument("server: options.transport is required");
  }
  // The constructor is private (Start is the only entry), so make_unique
  // cannot reach it.
  auto server = std::unique_ptr<Server>(new Server(options));  // NOLINT(banned-function)
  C2LSH_ASSIGN_OR_RETURN(server->listener_,
                         options.transport->Listen(server->options_.address));
  server->address_ = server->listener_->address();
  server->ready_.store(true, std::memory_order_relaxed);
  {
    MutexLock lock(&server->mu_);
    server->tasks_outstanding_ = 1;  // the accept loop
  }
  Server* raw = server.get();
  server->pool_.Submit([raw] { raw->AcceptLoop(); });
  return server;
}

Server::~Server() {
  bool drained;
  {
    MutexLock lock(&mu_);
    drained = drained_;
  }
  if (!drained) (void)Drain();  // report already surfaced via Drain callers
  // pool_ (declared last) now destroys first, joining every worker.
}

Status Server::AddIndex(const std::string& name, DiskC2lshIndex index) {
  if (name.empty() || name.size() > kMaxIndexNameBytes) {
    return Status::InvalidArgument(
        "server: index name must be 1.." +
        std::to_string(kMaxIndexNameBytes) + " bytes");
  }
  MutexLock lock(&catalog_mu_);
  auto [it, inserted] =
      catalog_.emplace(name, std::make_unique<DiskC2lshIndex>(std::move(index)));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("server: index '" + name +
                                   "' already registered");
  }
  return Status::OK();
}

DiskC2lshIndex* Server::FindIndex(const std::string& name) {
  MutexLock lock(&catalog_mu_);
  auto it = catalog_.find(name);
  return it != catalog_.end() ? it->second.get() : nullptr;
}

size_t Server::active_connections() const {
  MutexLock lock(&mu_);
  return connections_.size();
}

// Excluded from capability analysis: std::unique_lock + cv waits on the
// annotated Mutex (the AdmissionController::Admit idiom).
void Server::AcceptLoop() NO_THREAD_SAFETY_ANALYSIS {
  for (;;) {
    {
      std::unique_lock<Mutex> lock(mu_);
      // Cap backpressure: stop pulling from the listener — the transport's
      // accept queue absorbs the burst — until a handler exits.
      while (!stopping_ && connections_.size() >= options_.max_connections) {
        cv_.wait(lock);
      }
      if (stopping_) break;
    }
    Result<std::unique_ptr<Connection>> r = listener_->Accept();
    if (!r.ok()) {
      // Unavailable after Close() during drain — or a transient accept
      // failure, retried after a short backoff.
      std::unique_lock<Mutex> lock(mu_);
      if (stopping_) break;
      cv_.wait_for(lock, std::chrono::microseconds(kRetryPollMicros));
      continue;
    }
    std::shared_ptr<Connection> conn(std::move(r).value());
    uint64_t id = 0;
    {
      MutexLock lock(&mu_);
      if (stopping_) break;  // conn drops; its client sees EOF
      id = next_conn_id_++;
      connections_.emplace(id, conn);
      ++tasks_outstanding_;
      Metrics().connections->Set(static_cast<double>(connections_.size()));
    }
    pool_.Submit(
        [this, id, conn] { HandleConnection(id, std::move(conn)); });
  }
  MutexLock lock(&mu_);
  --tasks_outstanding_;
  cv_.notify_all();
}

void Server::HandleConnection(uint64_t id, std::shared_ptr<Connection> conn) {
  std::string body;
  for (;;) {
    bool eof = false;
    // Infinite read deadline: an idle keep-alive connection is fine, and
    // drain unblocks this via Shutdown().
    Status s = ReadFrame(*conn, &body, &eof, Deadline::Infinite());
    if (!s.ok() || eof) break;

    Request req;
    Response resp;
    bool close_after = false;
    Status d = DecodeRequest(reinterpret_cast<const uint8_t*>(body.data()),
                             body.size(), &req);
    if (!d.ok()) {
      // A malformed frame may leave the stream desynced: answer what we
      // can, then close so the client reconnects cleanly.
      resp = ErrorResponse(MsgType::kHealth, d);
      close_after = true;
    } else {
      resp = Dispatch(req);
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    Metrics().requests->Increment();
    if (resp.code != StatusCode::kOk) Metrics().requests_error->Increment();

    Status w = WriteFrame(*conn, EncodeResponse(resp),
                          Deadline::AfterMillis(options_.write_timeout_millis));
    if (!w.ok() || close_after) break;
  }
  conn->Shutdown();
  conn.reset();  // destroy before the exit is observable (fd accounting)
  MutexLock lock(&mu_);
  connections_.erase(id);
  Metrics().connections->Set(static_cast<double>(connections_.size()));
  --tasks_outstanding_;
  cv_.notify_all();
}

Response Server::Dispatch(const Request& req) {
  Response resp;
  resp.type = req.type;

  switch (req.type) {
    case MsgType::kHealth:
      resp.flag = 1;  // the process answered: alive by definition
      return resp;
    case MsgType::kReady:
      resp.flag = ready() ? 1 : 0;
      return resp;
    default:
      break;
  }

  // Wire controls -> QueryContext. The margin keeps the response inside the
  // CLIENT's deadline: the query gets deadline - margin, the server spends
  // the margin encoding and flushing. A deadline at or under the margin is
  // already hopeless and sheds in admission (AfterMicros(<=0) is expired).
  QueryContext ctx;
  if (req.deadline_micros > 0) {
    const int64_t margin =
        static_cast<int64_t>(std::llround(options_.deadline_margin_millis * 1e3));
    ctx.deadline = Deadline::AfterMicros(
        static_cast<int64_t>(req.deadline_micros) - margin);
  }
  ctx.cancel = &cancel_;
  ctx.io_page_budget = req.page_budget;

  auto ticket_or = admission_.Admit(req.tenant, &ctx);
  if (!ticket_or.ok()) return ErrorResponse(req.type, ticket_or.status());
  AdmissionController::Ticket ticket = std::move(ticket_or).value();

  DiskC2lshIndex* index = FindIndex(req.index);
  if (index == nullptr) {
    return ErrorResponse(
        req.type, Status::NotFound("server: no index '" + req.index + "'"));
  }

  obs::ScopedSpan span(obs::SpanSubsystem::kServe, "request", ctx.trace_id);

  // No server-side lock: the index runs queries side by side and makes
  // Insert/Delete wait for them (see DiskC2lshIndex).
  switch (req.type) {
    case MsgType::kQuery: {
      if (req.k == 0) {
        return ErrorResponse(
            req.type, Status::InvalidArgument("server: k must be >= 1"));
      }
      if (req.vector.size() != index->dim()) {
        return ErrorResponse(
            req.type,
            Status::InvalidArgument(
                "server: query dim " + std::to_string(req.vector.size()) +
                " != index dim " + std::to_string(index->dim())));
      }
      DiskQueryStats stats;
      Result<NeighborList> r = index->Query(
          req.vector.data(), req.k, &stats, /*trace=*/nullptr, &ctx);
      if (!r.ok()) return ErrorResponse(req.type, r.status());
      resp.neighbors = std::move(r).value();
      // The contract on the wire: a partial answer is tagged, never silent.
      resp.termination = stats.base.termination;
      return resp;
    }
    case MsgType::kInsert: {
      if (req.vector.size() != index->dim()) {
        return ErrorResponse(
            req.type,
            Status::InvalidArgument(
                "server: insert dim " + std::to_string(req.vector.size()) +
                " != index dim " + std::to_string(index->dim())));
      }
      Status s = index->Insert(req.id, req.vector.data());
      if (!s.ok()) return ErrorResponse(req.type, s);
      return resp;  // OK ack: the WAL synced — this insert is durable
    }
    case MsgType::kDelete: {
      Status s = index->Delete(req.id);
      if (!s.ok()) return ErrorResponse(req.type, s);
      return resp;
    }
    case MsgType::kHealth:
    case MsgType::kReady:
      break;  // handled above
  }
  return ErrorResponse(
      req.type, Status::Internal("server: unreachable dispatch arm"));
}

// Excluded from capability analysis for the unique_lock/cv idiom; see
// AcceptLoop.
DrainReport Server::Drain() NO_THREAD_SAFETY_ANALYSIS {
  {
    std::unique_lock<Mutex> lock(mu_);
    if (stopping_) {
      // A drain is (or was) in progress: wait for it and share its report.
      while (!drained_) {
        cv_.wait_for(lock, std::chrono::microseconds(kRetryPollMicros));
      }
      return drain_report_;
    }
    stopping_ = true;
  }
  Metrics().drains->Increment();
  ready_.store(false, std::memory_order_relaxed);  // kReady now answers 0
  listener_->Close();
  cv_.notify_all();  // wake the accept loop off the cap wait

  DrainReport report;
  const Deadline deadline =
      Deadline::AfterMillis(options_.drain_deadline_millis);
  // Two-pass inside: every controller flips to draining first (queued
  // waiters shed immediately, everywhere), then in-flight tickets get the
  // shared deadline.
  report.admission_status = admission_.Drain(deadline);
  if (!report.admission_status.ok()) {
    report.met_deadline = false;
    obs::FlightRecorder::Global().RecordAnomaly(
        obs::AnomalyKind::kDrainDeadlineExceeded, "server_drain",
        /*query_id=*/0, /*trace=*/nullptr,
        report.admission_status.message());
    // Stragglers overran the deadline: stop them cooperatively — they
    // return tagged partial results, not wrong ones.
    cancel_.Cancel();
  }

  // Unblock every handler parked in ReadFrame (idle connections hold no
  // ticket, so admission drain never touches them).
  std::vector<std::shared_ptr<Connection>> conns;
  {
    MutexLock lock(&mu_);
    conns.reserve(connections_.size());
    for (auto& [id, c] : connections_) conns.push_back(c);
  }
  report.connections_aborted = conns.size();
  for (auto& c : conns) c->Shutdown();
  conns.clear();

  // Handlers exit promptly now (reads fail, queries are cancelled); wait
  // for them and the accept loop.
  {
    std::unique_lock<Mutex> lock(mu_);
    while (tasks_outstanding_ > 0) {
      cv_.wait_for(lock, std::chrono::microseconds(kRetryPollMicros));
    }
  }

  // Every handler exited, so every Ticket destructor ran: nonzero here
  // means a slot leaked — the invariant the chaos soak asserts on.
  report.leaked_tickets = admission_.total_in_flight();

  // Flush so a kill -9 after drain loses nothing: WAL sync (no-op for
  // acked mutations) + page-file sync, per index. Snapshot the index
  // pointers first — indexes are never removed, so the addresses are stable
  // and the catalog lock need not pin the fsyncs.
  std::vector<DiskC2lshIndex*> indexes;
  {
    MutexLock lock(&catalog_mu_);
    indexes.reserve(catalog_.size());
    for (auto& [name, index] : catalog_) indexes.push_back(index.get());
  }
  for (DiskC2lshIndex* index : indexes) {
    Status s = index->Flush();
    if (!s.ok() && report.flush_status.ok()) {
      report.flush_status = std::move(s);
    }
  }

  {
    MutexLock lock(&mu_);
    drain_report_ = report;
    drained_ = true;
  }
  cv_.notify_all();
  return report;
}

}  // namespace serve
}  // namespace c2lsh
