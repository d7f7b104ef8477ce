#include "net/cluster/remote_sharded_matrix.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "matrix/dense_matrix.hpp"
#include "serving/sharded_matrix.hpp"

namespace gcm {
namespace {

std::vector<WorkerEndpoint> DistinctEndpoints(const ClusterManifest& manifest) {
  std::vector<WorkerEndpoint> endpoints;
  for (const ClusterRange& range : manifest.ranges) {
    for (const WorkerEndpoint& worker : range.workers) {
      if (std::find(endpoints.begin(), endpoints.end(), worker) ==
          endpoints.end()) {
        endpoints.push_back(worker);
      }
    }
  }
  return endpoints;
}

}  // namespace

std::shared_ptr<RemoteShardedMatrix> RemoteShardedMatrix::Connect(
    ClusterManifest manifest, ClusterConfig config) {
  manifest.Validate();
  GCM_CHECK_MSG(config.max_attempts >= 1,
                "cluster config needs max_attempts >= 1");
  auto remote = std::shared_ptr<RemoteShardedMatrix>(
      new RemoteShardedMatrix(std::move(manifest), std::move(config)));
  std::lock_guard<std::mutex> lock(remote->mu_);
  // Handshake every distinct endpoint now so a worker serving the wrong
  // matrix is rejected by name before any row range routes to it: that is
  // a configuration error, and retrying it would only burn every later
  // scatter's attempts. Unreachable endpoints are tolerated -- they
  // reconnect lazily on first use -- but a cluster with zero reachable
  // workers is a configuration error too, not a retry loop.
  bool any = false;
  std::string last_error = "manifest names no endpoints";
  for (const WorkerEndpoint& worker : DistinctEndpoints(remote->manifest_)) {
    try {
      remote->GetChannel(worker);
      any = true;
    } catch (const RpcError& e) {
      if (e.code() == NetError::kDimensionMismatch) throw;
      last_error = worker.ToString() + ": " + e.what();
    } catch (const Error& e) {
      last_error = worker.ToString() + ": " + e.what();
    }
  }
  GCM_CHECK_MSG(any, "no cluster worker reachable (last: " << last_error
                                                           << ")");
  return remote;
}

ClusterStats RemoteShardedMatrix::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Channel management
// ---------------------------------------------------------------------------

RemoteShardedMatrix::Channel& RemoteShardedMatrix::GetChannel(
    const WorkerEndpoint& worker) const {
  const std::string key = worker.ToString();
  auto it = channels_.find(key);
  if (it != channels_.end()) return it->second;

  Client client = Client::Connect(worker.host, worker.port);
  if (config_.deadline_ms > 0) {
    client.socket().SetRecvTimeout(config_.deadline_ms);
  }
  // The handshake is one Info round trip: a peer speaking another protocol
  // version is refused at its frame header, and error replies throw.
  ServerInfo info = client.Info();
  if (info.rows != manifest_.rows || info.cols != manifest_.cols) {
    throw RpcError(NetError::kDimensionMismatch,
                   "worker " + key + " serves a " + std::to_string(info.rows) +
                       "x" + std::to_string(info.cols) +
                       " matrix but the manifest expects " +
                       std::to_string(manifest_.rows) + "x" +
                       std::to_string(manifest_.cols));
  }
  compressed_bytes_.store(info.compressed_bytes, std::memory_order_relaxed);

  Channel channel;
  channel.client = std::make_unique<Client>(std::move(client));
  channel.epoch = ++next_epoch_;
  ++stats_.connects;
  return channels_.emplace(key, std::move(channel)).first->second;
}

void RemoteShardedMatrix::DropChannel(const std::string& key) const {
  channels_.erase(key);
}

void RemoteShardedMatrix::SleepBackoff(Backoff& backoff) const {
  std::this_thread::sleep_for(std::chrono::milliseconds(backoff.NextDelayMs()));
}

// ---------------------------------------------------------------------------
// Scatter engine
// ---------------------------------------------------------------------------

void RemoteShardedMatrix::SendJob(RangeJob& job, bool right,
                                  Backoff& backoff) const {
  const ClusterRange& range = manifest_.ranges[job.range];
  std::string detail = "no send attempted";
  while (job.attempt < config_.max_attempts) {
    const WorkerEndpoint& worker =
        range.workers[job.attempt % range.workers.size()];
    const std::string key = worker.ToString();
    ++job.attempt;
    if (!job.channel_key.empty() && key != job.channel_key) {
      ++stats_.failovers;
    }
    try {
      Channel& channel = GetChannel(worker);
      job.request_id =
          right ? channel.client->SendMvmRight(job.x, range.row_begin,
                                               range.row_end)
                : channel.client->SendMvmLeft(job.x, range.row_begin,
                                              range.row_end);
      job.channel_key = key;
      job.epoch = channel.epoch;
      job.sent = true;
      ++stats_.requests_sent;
      return;
    } catch (const Error& e) {
      detail = key + ": " + e.what();
      DropChannel(key);
      ++stats_.retries;
      if (job.attempt < config_.max_attempts) SleepBackoff(backoff);
    }
  }
  throw RpcError(NetError::kNoReplica,
                 "range [" + std::to_string(range.row_begin) + ", " +
                     std::to_string(range.row_end) +
                     "): no replica accepted the request after " +
                     std::to_string(config_.max_attempts) +
                     " attempts (last: " + detail + ")");
}

void RemoteShardedMatrix::GatherJob(RangeJob& job, bool right,
                                    Backoff& backoff) const {
  const ClusterRange& range = manifest_.ranges[job.range];
  const std::size_t expected = right ? range.rows() : manifest_.cols;
  NetError last = NetError::kNoReplica;
  std::string detail = "request never sent";
  for (;;) {
    if (!job.sent) SendJob(job, right, backoff);
    auto it = channels_.find(job.channel_key);
    if (it == channels_.end() || it->second.epoch != job.epoch) {
      // The channel died under another job's failure; re-route. SendJob
      // enforces the shared attempt budget.
      job.sent = false;
      continue;
    }

    Client::Response response;
    bool have_response = false;
    try {
      response = it->second.client->Await(job.request_id);
      have_response = true;
    } catch (const RecvTimeout& e) {
      last = NetError::kDeadlineExceeded;
      detail = job.channel_key + ": " + e.what();
      DropChannel(job.channel_key);
      job.sent = false;
      ++stats_.retries;
      ++stats_.deadline_timeouts;
      if (job.attempt >= config_.max_attempts) break;
      continue;  // the deadline consumed the wait; no extra backoff
    } catch (const Error& e) {
      // Disconnect / malformed stream: the replica is gone or confused
      // either way -- drop the channel and fail over.
      last = NetError::kNoReplica;
      detail = job.channel_key + ": " + e.what();
      DropChannel(job.channel_key);
      job.sent = false;
      ++stats_.retries;
      if (job.attempt >= config_.max_attempts) break;
      SleepBackoff(backoff);
      continue;
    }

    if (have_response && response.type == MsgType::kMvmReply) {
      if (response.values.size() != expected) {
        throw RpcError(NetError::kInternal,
                       "worker " + job.channel_key + " answered " +
                           std::to_string(response.values.size()) +
                           " values for range [" +
                           std::to_string(range.row_begin) + ", " +
                           std::to_string(range.row_end) + "), expected " +
                           std::to_string(expected));
      }
      job.result = std::move(response.values);
      return;
    }
    // A named error reply on a healthy connection.
    if (response.error == NetError::kShuttingDown ||
        response.error == NetError::kQueueFull) {
      last = response.error;
      detail = job.channel_key + ": " + response.message;
      job.sent = false;
      ++stats_.retries;
      if (job.attempt >= config_.max_attempts) break;
      SleepBackoff(backoff);
      continue;
    }
    // Anything else (dimension mismatch, bad range) is a configuration or
    // software error retries cannot fix.
    throw RpcError(response.error,
                   "worker " + job.channel_key + " answered " +
                       NetErrorName(response.error) + ": " + response.message);
  }
  throw RpcError(last,
                 "range [" + std::to_string(range.row_begin) + ", " +
                     std::to_string(range.row_end) +
                     "): no replica could serve after " +
                     std::to_string(config_.max_attempts) +
                     " attempts (last: " + detail + ")");
}

void RemoteShardedMatrix::RunJobs(std::vector<RangeJob>& jobs,
                                  bool right) const {
  Backoff backoff(config_.backoff, config_.backoff_seed);
  ++stats_.scatters;
  try {
    // Scatter everything before the first await: per-worker connections
    // are pipelined, so all ranges (and all batch vectors) are in flight
    // at once.
    for (RangeJob& job : jobs) SendJob(job, right, backoff);
    for (RangeJob& job : jobs) GatherJob(job, right, backoff);
  } catch (...) {
    // A failed multiply may leave un-awaited replies in channel buffers;
    // drop the connections so stale frames die with their sockets.
    channels_.clear();
    throw;
  }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

void RemoteShardedMatrix::Scatter(
    MvmDirection dir, std::span<const std::span<const double>> in,
    std::span<const std::span<double>> out) const {
  const bool right = dir == MvmDirection::kRight;
  const std::size_t k = in.size();
  std::lock_guard<std::mutex> lock(mu_);
  // One job per (range, vector), range-major. A right job carries the
  // whole input vector, a left job the rows of its range.
  std::vector<RangeJob> jobs(manifest_.ranges.size() * k);
  for (std::size_t i = 0; i < manifest_.ranges.size(); ++i) {
    const ClusterRange& range = manifest_.ranges[i];
    for (std::size_t j = 0; j < k; ++j) {
      RangeJob& job = jobs[i * k + j];
      job.range = i;
      job.vec = j;
      std::span<const double> x =
          right ? in[j] : in[j].subspan(range.row_begin, range.rows());
      job.x.assign(x.begin(), x.end());
    }
  }
  RunJobs(jobs, right);
  // Right: each range's reply is its slice of the output. Left: a zeroed
  // accumulator, then the per-range partials in manifest order (the jobs
  // are range-major) -- the local kernel's zero-then-add-per-shard
  // sequence, so the gathered left multiply is bitwise equal to
  // ShardedMatrix.
  if (!right) {
    for (std::span<double> x : out) std::fill(x.begin(), x.end(), 0.0);
  }
  for (const RangeJob& job : jobs) {
    std::span<double> y = out[job.vec];
    if (right) {
      std::copy(job.result.begin(), job.result.end(),
                y.begin() + static_cast<std::ptrdiff_t>(
                                manifest_.ranges[job.range].row_begin));
    } else {
      for (std::size_t c = 0; c < y.size(); ++c) y[c] += job.result[c];
    }
  }
}

void RemoteShardedMatrix::MultiplyRightInto(std::span<const double> x,
                                            std::span<double> y,
                                            const MulContext&) const {
  Scatter(MvmDirection::kRight, {&x, 1}, {&y, 1});
}

void RemoteShardedMatrix::MultiplyLeftInto(std::span<const double> y,
                                           std::span<double> x,
                                           const MulContext&) const {
  Scatter(MvmDirection::kLeft, {&y, 1}, {&x, 1});
}

void RemoteShardedMatrix::MultiplyRightMulti(const DenseMatrix& x,
                                             DenseMatrix* y,
                                             const MulContext&) const {
  MultiplyMultiByBatch(MvmDirection::kRight, x, y, [&](auto in, auto out) {
    Scatter(MvmDirection::kRight, in, out);
  });
}

void RemoteShardedMatrix::MultiplyLeftMulti(const DenseMatrix& x,
                                            DenseMatrix* y,
                                            const MulContext&) const {
  MultiplyMultiByBatch(MvmDirection::kLeft, x, y, [&](auto in, auto out) {
    Scatter(MvmDirection::kLeft, in, out);
  });
}

DenseMatrix RemoteShardedMatrix::ToDense() const {
  DenseMatrix identity(cols(), cols());
  for (std::size_t c = 0; c < cols(); ++c) identity.Set(c, c, 1.0);
  DenseMatrix dense(rows(), cols());
  MultiplyRightMulti(identity, &dense, MulContext{});
  return dense;
}

}  // namespace gcm
