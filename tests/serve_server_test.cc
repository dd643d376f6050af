// End-to-end Server tests over the in-process transport (plus one smoke
// test over real TCP): query/insert/delete round trips, wire deadline
// propagation into QueryContext with the server margin, health/readiness
// probes, admission shed surfaced as kUnavailable, unknown index as
// kNotFound, graceful drain (idempotent, readiness flip, ticket/connection
// leak accounting), malformed-frame handling, and concurrent connections on
// one index (readers side by side, a writer interleaving with them).

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/core/disk_index.h"
#include "src/serve/inproc_transport.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/transport_posix.h"
#include "src/util/mutex.h"  // cross-thread state regime (thread-header lint)
#include "src/vector/dataset.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace serve {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_serve_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Result<DiskC2lshIndex> BuildIndex(const std::string& name) {
    MixtureConfig mc;
    mc.n = 64;
    mc.dim = 8;
    mc.num_clusters = 4;
    mc.center_spread = 4.0;
    mc.cluster_stddev = 0.5;
    mc.seed = 11;
    C2LSH_ASSIGN_OR_RETURN(FloatMatrix m, GenerateGaussianMixture(mc));
    RescaleToTargetNN(&m, 8.0, 11);
    row0_.assign(m.row(0), m.row(0) + m.dim());
    rows_.clear();
    for (size_t i = 0; i < m.num_rows(); ++i) {
      rows_.emplace_back(m.row(i), m.row(i) + m.dim());
    }
    C2LSH_ASSIGN_OR_RETURN(Dataset data, Dataset::Create("d", std::move(m)));
    C2lshOptions options;
    options.seed = 11;
    return DiskC2lshIndex::Build(data, options, (dir_ / name).string(),
                                 /*pool_pages=*/64, /*store_vectors=*/true);
  }

  Result<std::unique_ptr<Server>> StartServer(ServerOptions options) {
    options.address = "srv";
    options.transport = &transport_;
    C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                           Server::Start(options));
    C2LSH_ASSIGN_OR_RETURN(DiskC2lshIndex index, BuildIndex("main.pf"));
    C2LSH_RETURN_IF_ERROR(server->AddIndex("main", std::move(index)));
    return server;
  }

  // One request/response round trip on a fresh connection.
  Result<Response> Call(const Request& req, Transport* transport = nullptr,
                        const std::string& address = "srv") {
    Transport* t = transport != nullptr ? transport : &transport_;
    C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                           t->Connect(address, Deadline::AfterMillis(2000)));
    C2LSH_RETURN_IF_ERROR(WriteFrame(*conn, EncodeRequest(req),
                                     Deadline::AfterMillis(2000)));
    std::string body;
    bool eof = false;
    C2LSH_RETURN_IF_ERROR(ReadFrame(*conn, &body, &eof,
                                    Deadline::AfterMillis(5000)));
    if (eof) return Status::IOError("server closed before responding");
    Response resp;
    C2LSH_RETURN_IF_ERROR(DecodeResponse(
        reinterpret_cast<const uint8_t*>(body.data()), body.size(), &resp));
    return resp;
  }

  std::filesystem::path dir_;
  InprocTransport transport_;
  std::vector<float> row0_;  ///< exact copy of data row 0, for ~0-dist hits
  std::vector<std::vector<float>> rows_;  ///< every data row of the index
};

Request QueryReq(const std::vector<float>& vec, uint32_t k = 5,
                 const std::string& tenant = "t") {
  Request req;
  req.type = MsgType::kQuery;
  req.tenant = tenant;
  req.index = "main";
  req.k = k;
  req.vector = vec;
  return req;
}

TEST_F(ServerTest, HealthReadyAndQueryRoundTrip) {
  auto server_or = StartServer(ServerOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = server_or.value();

  Request health;
  health.type = MsgType::kHealth;
  auto resp = Call(health);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, StatusCode::kOk);
  EXPECT_EQ(resp->flag, 1u);

  Request ready;
  ready.type = MsgType::kReady;
  resp = Call(ready);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->flag, 1u);

  resp = Call(QueryReq(row0_));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;
  EXPECT_FALSE(IsEarlyStop(resp->termination));
  bool found = false;
  for (const Neighbor& nb : resp->neighbors) {
    if (nb.id == 0 && nb.dist <= 1e-3f) found = true;
  }
  EXPECT_TRUE(found) << "exact duplicate of row 0 not returned";
  EXPECT_GE(server->requests_served(), 3u);
}

TEST_F(ServerTest, InsertThenQueryThenDelete) {
  auto server_or = StartServer(ServerOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();

  std::vector<float> vec = row0_;
  vec[0] += 100.0f;  // far from everything else
  Request ins;
  ins.type = MsgType::kInsert;
  ins.tenant = "t";
  ins.index = "main";
  ins.id = 500;
  ins.vector = vec;
  auto resp = Call(ins);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;

  resp = Call(QueryReq(vec));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->code, StatusCode::kOk);
  ASSERT_FALSE(resp->neighbors.empty());
  EXPECT_EQ(resp->neighbors[0].id, 500u);
  EXPECT_LE(resp->neighbors[0].dist, 1e-3f);

  Request del;
  del.type = MsgType::kDelete;
  del.tenant = "t";
  del.index = "main";
  del.id = 500;
  resp = Call(del);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;

  resp = Call(QueryReq(vec));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->code, StatusCode::kOk);
  for (const Neighbor& nb : resp->neighbors) {
    EXPECT_NE(nb.id, 500u) << "deleted id returned";
  }
}

TEST_F(ServerTest, WireDeadlinePropagatesIntoTheQuery) {
  ServerOptions options;
  options.deadline_margin_millis = 0.5;
  auto server_or = StartServer(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();

  // 1 microsecond of budget: after the margin the context is born expired.
  // The response must be an explicit error or a result TAGGED partial —
  // never a silently complete-looking answer.
  Request req = QueryReq(row0_);
  req.deadline_micros = 1;
  auto resp = Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  if (resp->code == StatusCode::kOk) {
    EXPECT_TRUE(IsEarlyStop(resp->termination))
        << "expired deadline produced an untagged result";
  }

  // A generous deadline completes normally.
  req.deadline_micros = 30'000'000;
  resp = Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kOk) << resp->message;
  EXPECT_FALSE(IsEarlyStop(resp->termination));
}

TEST_F(ServerTest, UnknownIndexIsNotFoundUnknownTenantStillServed) {
  auto server_or = StartServer(ServerOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();

  Request req = QueryReq(row0_);
  req.index = "nope";
  auto resp = Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kNotFound);

  req = QueryReq(row0_, 3, "never-seen-before-tenant");
  resp = Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kOk) << resp->message;
}

TEST_F(ServerTest, SaturatedAdmissionShedsWithUnavailable) {
  ServerOptions options;
  options.admission.per_tenant.max_in_flight = 1;
  options.admission.per_tenant.max_queue = 0;
  options.admission.overflow.max_in_flight = 1;
  options.admission.overflow.max_queue = 0;
  auto server_or = StartServer(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = server_or.value();

  // Pin the tenant's partition and the overflow pool from inside, then a
  // wire request for that tenant must shed with the retryable code.
  auto t1 = server->admission().Admit("hog");
  auto t2 = server->admission().Admit("hog");
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto resp = Call(QueryReq(row0_, 5, "hog"));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, StatusCode::kUnavailable);
  EXPECT_GE(server->admission().StatsFor("hog").shed_final, 1u);
  t1->Release();
  t2->Release();

  // Health probes bypass admission even while saturated.
  auto t3 = server->admission().Admit("hog");
  auto t4 = server->admission().Admit("hog");
  Request health;
  health.type = MsgType::kHealth;
  resp = Call(health);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kOk);
}

TEST_F(ServerTest, MalformedFrameGetsErrorResponseThenClose) {
  auto server_or = StartServer(ServerOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();

  auto conn_or = transport_.Connect("srv", Deadline::AfterMillis(1000));
  ASSERT_TRUE(conn_or.ok());
  auto conn = std::move(conn_or).value();
  ASSERT_TRUE(
      WriteFrame(*conn, "\x01garbage-not-a-request", Deadline::AfterMillis(1000))
          .ok());
  std::string body;
  bool eof = false;
  ASSERT_TRUE(ReadFrame(*conn, &body, &eof, Deadline::AfterMillis(2000)).ok());
  ASSERT_FALSE(eof);  // first: an explicit error response
  Response resp;
  ASSERT_TRUE(DecodeResponse(reinterpret_cast<const uint8_t*>(body.data()),
                             body.size(), &resp)
                  .ok());
  EXPECT_NE(resp.code, StatusCode::kOk);
  // Then the server closes the connection (it cannot trust the stream).
  Status s = ReadFrame(*conn, &body, &eof, Deadline::AfterMillis(2000));
  EXPECT_TRUE(!s.ok() || eof);
}

TEST_F(ServerTest, DrainIsGracefulAndIdempotent) {
  auto server_or = StartServer(ServerOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = server_or.value();

  ASSERT_EQ(Call(QueryReq(row0_))->code, StatusCode::kOk);
  EXPECT_TRUE(server->ready());

  DrainReport first = server->Drain();
  EXPECT_TRUE(first.met_deadline);
  EXPECT_EQ(first.leaked_tickets, 0u);
  EXPECT_TRUE(first.admission_status.ok())
      << first.admission_status.ToString();
  EXPECT_TRUE(first.flush_status.ok()) << first.flush_status.ToString();
  EXPECT_FALSE(server->ready());

  // Second drain returns the same (already-computed) report.
  DrainReport second = server->Drain();
  EXPECT_EQ(second.met_deadline, first.met_deadline);
  EXPECT_EQ(second.leaked_tickets, first.leaked_tickets);

  // No new connections after drain.
  auto conn = transport_.Connect("srv", Deadline::AfterMillis(100));
  EXPECT_FALSE(conn.ok());

  server.reset();
  EXPECT_EQ(transport_.live_connections(), 0u) << "connection leak";
}

TEST_F(ServerTest, DrainDeadlineOverrunReportsLeakedTicket) {
  ServerOptions options;
  options.drain_deadline_millis = 100.0;
  auto server_or = StartServer(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = server_or.value();

  auto straggler = server->admission().Admit("slow");
  ASSERT_TRUE(straggler.ok());
  DrainReport report = server->Drain();
  EXPECT_FALSE(report.met_deadline);
  EXPECT_EQ(report.leaked_tickets, 1u);
  EXPECT_TRUE(report.admission_status.IsUnavailable());
  straggler->Release();
  EXPECT_EQ(server->admission().total_in_flight(), 0u);
}

TEST_F(ServerTest, DestructorDrainsWithoutExplicitCall) {
  auto server_or = StartServer(ServerOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  ASSERT_EQ(Call(QueryReq(row0_))->code, StatusCode::kOk);
  server_or.value().reset();  // must not hang or leak
  EXPECT_EQ(transport_.live_connections(), 0u);
}

TEST_F(ServerTest, PosixTransportSmoke) {
  PosixTransport tcp;
  ServerOptions options;
  options.address = "127.0.0.1:0";
  options.transport = &tcp;
  auto server_or = Server::Start(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto& server = server_or.value();
  ASSERT_NE(server->address(), "127.0.0.1:0") << "ephemeral port not resolved";

  auto index_or = BuildIndex("tcp.pf");
  ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
  ASSERT_TRUE(server->AddIndex("main", std::move(index_or).value()).ok());

  auto resp = Call(QueryReq(row0_), &tcp, server->address());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, StatusCode::kOk) << resp->message;

  DrainReport report = server->Drain();
  EXPECT_TRUE(report.met_deadline);
  EXPECT_EQ(report.leaked_tickets, 0u);
}


// Several connections query one index at once; each answer is exactly what
// the index gives when queried directly.
TEST_F(ServerTest, ConcurrentReadersMatchDirectQuery) {
  auto server_or = StartServer(ServerOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto direct = BuildIndex("direct.pf");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  std::vector<NeighborList> want(rows_.size());
  for (size_t q = 0; q < rows_.size(); ++q) {
    auto r = direct->Query(rows_[q].data(), 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    want[q] = std::move(r).value();
  }

  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string tenant = "reader" + std::to_string(c);
      for (size_t i = 0; i < rows_.size(); ++i) {
        const size_t q = (c + i * kClients) % rows_.size();
        auto resp = Call(QueryReq(rows_[q], 5, tenant));
        ASSERT_TRUE(resp.ok()) << resp.status().ToString();
        ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;
        EXPECT_FALSE(IsEarlyStop(resp->termination));
        EXPECT_EQ(resp->neighbors, want[q]) << "q=" << q;
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

// One writer connection inserts and deletes while reader connections
// query. A reader samples what the writer has had acknowledged before each
// query: every acked insert must be found (an exact duplicate at distance
// ~0) and no acked delete may surface.
TEST_F(ServerTest, WriterInterleavesWithConcurrentReaders) {
  auto server_or = StartServer(ServerOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  const ObjectId first_new = static_cast<ObjectId>(rows_.size());
  constexpr size_t kInserts = 12;
  constexpr size_t kReaders = 3;
  auto inserted = [&](size_t i) {
    std::vector<float> v = row0_;
    v[0] += 100.0f * static_cast<float>(i + 1);  // far from all else
    return v;
  };
  // Deletes take base rows from the top: after d acked deletes, ids
  // [rows_.size() - d, rows_.size()) are gone.
  auto deleted_id = [&](size_t d) {
    return static_cast<ObjectId>(rows_.size() - 1 - d);
  };

  std::atomic<size_t> acked_inserts{0};
  std::atomic<size_t> acked_deletes{0};
  std::atomic<bool> writer_done{false};
  auto write_all = [&] {
    for (size_t i = 0; i < kInserts; ++i) {
      Request ins;
      ins.type = MsgType::kInsert;
      ins.tenant = "writer";
      ins.index = "main";
      ins.id = first_new + static_cast<ObjectId>(i);
      ins.vector = inserted(i);
      auto resp = Call(ins);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;
      acked_inserts.store(i + 1);
      if (i % 2 == 1) {
        Request del;
        del.type = MsgType::kDelete;
        del.tenant = "writer";
        del.index = "main";
        del.id = deleted_id(acked_deletes.load());
        resp = Call(del);
        ASSERT_TRUE(resp.ok()) << resp.status().ToString();
        ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;
        acked_deletes.fetch_add(1);
      }
    }
  };
  std::thread writer([&] {
    write_all();  // returns early on a failed assertion; readers still stop
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::string tenant = "reader" + std::to_string(r);
      for (size_t iter = 0; !writer_done.load() || iter < 4; ++iter) {
        const size_t inserts = acked_inserts.load();
        const size_t deletes = acked_deletes.load();
        if (inserts > 0) {
          const size_t i = (r + iter) % inserts;
          auto resp = Call(QueryReq(inserted(i), 3, tenant));
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;
          ASSERT_FALSE(resp->neighbors.empty());
          EXPECT_EQ(resp->neighbors[0].id, first_new + static_cast<ObjectId>(i))
              << "acked insert " << i << " not visible";
          EXPECT_LE(resp->neighbors[0].dist, 1e-3f);
        }
        if (deletes > 0) {
          const ObjectId gone = deleted_id((r + iter) % deletes);
          auto resp = Call(QueryReq(rows_[gone], 5, tenant));
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          ASSERT_EQ(resp->code, StatusCode::kOk) << resp->message;
          for (const Neighbor& nb : resp->neighbors) {
            EXPECT_FALSE(nb.id >= rows_.size() - deletes && nb.id < rows_.size())
                << "acked delete " << nb.id << " surfaced";
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace serve
}  // namespace c2lsh
