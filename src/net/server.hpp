// Async MVM server: TCP accept loop + bounded admission queue + batching.
//
// Serving architecture (one process, one matrix, N connections):
//
//    accept loop ──> per-connection reader threads
//                        |  decode + validate, answer Ping/Info inline
//                        v
//                 bounded admission queue        (kQueueFull when over)
//                        |
//                        v
//                 dispatcher thread: takes the oldest request, then keeps
//                 pulling *compatible* requests (same direction + row
//                 range) from the queue front until batch_max is reached
//                 or batch_window_ms elapses, executes the batch as ONE
//                 ShardedMatrix::MultiplyBatch call (one input and one
//                 output span per request), and scatters one MvmReply per
//                 request
//
// One execution path: every batch -- either direction, full or ranged,
// one request or k -- is that one call. An unsharded matrix is served as
// a one-shard ShardedMatrix::FromShards, so it takes the same path (a
// right range computes the whole shard and copies the rows; a left range
// must be the full range, the only shard-aligned one); Info still
// describes the matrix the server was given.
//
// Batching changes throughput, never answers: vector j of a batch is
// bitwise identical to the sequential single-vector call (the engine
// contract in core/any_matrix.hpp), so a request's reply does not depend
// on who it shared a batch with. batch_max = 1 turns coalescing off. Only
// the queue head is ever pulled into a batch, so requests dispatch in
// admission order; the window is waited out only while the queue is idle
// -- an incompatible request reaching the head flushes the batch
// immediately, so coalescing never delays unrelated work behind it.
//
// Residency: when max_resident_bytes is set, the dispatcher evicts
// least-recently-used shards until the page-granular resident footprint
// (ShardedMatrix::EvictToResidentBytes) fits the budget after every
// batch, so a row-range workload over a big store serves from a bounded
// working set (range requests only fault in overlapping shards).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/any_matrix.hpp"
#include "net/protocol.hpp"
#include "serving/sharded_matrix.hpp"

namespace gcm {

class ThreadPool;

struct ServerConfig {
  std::string host = "127.0.0.1";
  u16 port = 0;  ///< 0 = ephemeral; read the bound port via port()

  std::size_t batch_max = 16;      ///< max requests per kernel call; 1
                                   ///< turns coalescing off
  double batch_window_ms = 0.25;   ///< how long a batch waits to fill

  std::size_t admission_queue_limit = 256;  ///< kQueueFull beyond this
  std::size_t max_connections = 64;

  /// Worker threads for the kernel calls: 1 = sequential (no pool),
  /// 0 = hardware concurrency (util/thread_pool.hpp policy).
  std::size_t kernel_threads = 1;

  /// When > 0: evict LRU shards until at most this many payload bytes
  /// stay resident, after every batch (0 = never evict; an unsharded
  /// matrix has nothing to evict).
  u64 max_resident_bytes = 0;
};

class Server {
 public:
  /// Takes the matrix to serve (a cheap shared handle). The server only
  /// ever uses const kernel calls, so the same AnyMatrix can be shared
  /// with other readers. An unsharded matrix is wrapped as one shard,
  /// which needs at least one row and one column (gcm::Error otherwise).
  Server(AnyMatrix matrix, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept + dispatcher threads. Throws
  /// gcm::Error when the address cannot be bound.
  void Start();

  /// Stops accepting, answers every queued request with kShuttingDown,
  /// closes all connections and joins every thread. Idempotent; the
  /// destructor calls it.
  void Stop();

  bool running() const { return running_; }

  /// The bound TCP port (resolves port 0 after Start()).
  u16 port() const { return port_; }

  ServerStats stats() const;

  /// Admitted requests not yet taken by the dispatcher (test observable).
  std::size_t QueueDepth() const;

  /// Holds the dispatcher before its next batch: admission keeps running
  /// (up to admission_queue_limit, then kQueueFull) but nothing executes
  /// until ResumeDispatcher(). A maintenance valve -- e.g. swap shard
  /// files under a quiesced kernel -- and what makes the admission-control
  /// tests deterministic. Stop() while paused still drains the queue.
  void PauseDispatcher();
  void ResumeDispatcher();

  /// The InfoReply body an Info request returns right now.
  ServerInfo Info() const;

 private:
  struct Connection;

  /// A validated MVM request waiting for the dispatcher. Holding the
  /// connection by shared_ptr keeps the reply socket alive even if the
  /// reader thread exits while the request is still queued.
  struct PendingMvm {
    std::shared_ptr<Connection> conn;
    u64 request_id = 0;
    MvmDirection dir = MvmDirection::kRight;
    u64 row_begin = 0;  ///< normalized: full range spelled out
    u64 row_end = 0;
    std::vector<double> x;
  };

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void DispatcherLoop();
  void ExecuteBatch(std::vector<PendingMvm>& batch);

  void SendFrameTo(Connection& conn, MsgType type, u64 request_id,
                   std::span<const u8> payload);
  void SendErrorTo(Connection& conn, u64 request_id, NetError code,
                   const std::string& message);

  static bool Compatible(const PendingMvm& a, const PendingMvm& b) {
    return a.dir == b.dir && a.row_begin == b.row_begin &&
           a.row_end == b.row_end;
  }

  AnyMatrix matrix_;  ///< what Info describes
  /// The matrix every batch runs through: matrix_ itself when it is
  /// sharded, else one_shard_, a one-shard ShardedMatrix over it. Never
  /// null.
  const ShardedMatrix* sharded_ = nullptr;
  std::shared_ptr<const ShardedMatrix> one_shard_;
  ServerConfig config_;
  std::unique_ptr<ThreadPool> pool_;

  int listen_fd_ = -1;
  u16 port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread accept_thread_;
  std::thread dispatcher_thread_;

  mutable std::mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingMvm> queue_;
  bool paused_ = false;  ///< guarded by queue_mu_; gates new batch pops only

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace gcm
