// Workload `serve`: open-loop traffic against a served store.
//
// The store is a Census-profile replica partitioned by MatrixStore into 4
// gcm:re_32 shards and opened lazily; warm-up makes every shard resident,
// and one local Server answers the traffic over the opened store. Traced
// runs also measure the cluster layer on the same store: closed-loop
// multiplies through a loopback cluster of 2 worker Servers.
//
// Traffic is an open loop of independent users: seeded Poisson arrivals on
// at most 2 connections (one sender and one receiver thread each, driving
// Socket / frames directly because Client is single-threaded). Each request
// is timed from when it was due. The mix is mostly full right multiplies
// plus full left and range-right multiplies, and every reply is compared
// bitwise with the local single-vector answer for the same input.
//
// The timed phase is one long step at the nominal rate (latency), a burst
// of one full batch (heap, with the nominal step), and a sweep over a
// fixed, absolute ladder of offered rates. A step
// passes when at most 1% of its requests miss the latency limit (a failed or
// unanswered request misses it too) and the backlog did not grow; a step
// whose generator ran late beyond a fixed bound is invalid and cannot pass.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "core/any_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "net/cluster/cluster_serving.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serving/matrix_store.hpp"
#include "serving/sharded_matrix.hpp"
#include "trace.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr const char* kProfile = "Census";
constexpr const char* kInnerSpec = "gcm:re_32";
constexpr std::size_t kShards = 4;
constexpr int kSetups = 5;

// Traffic. The ladder is absolute: rung i offers kNominalRps * kRatio^i
// requests per second, and the nominal rate is rung 0.
constexpr double kNominalRps = 110.0;
constexpr double kRatio = 1.05;
constexpr int kLowestRung = -32;
constexpr int kHighestRung = 48;
constexpr double kLatencyLimitMs = 100.0;
constexpr double kLateBoundMs = 20.0;
constexpr double kOverLimitShare = 0.01;
// A step's backlog grew when more than this many of its requests stayed
// outstanding through the last quarter of the step (a keeping-up server
// leaves about rate x latency, a few requests; a short stall of the host
// leaves a spike that drains, not a floor).
constexpr double kBacklogFloor = 8.0;
constexpr double kBacklogShare = 0.01;
// Senders stop a step once this many requests are outstanding: the step
// has failed by then, and stopping keeps the server's admission queue (256)
// from refusing anything.
constexpr u64 kAbortBacklog = 128;
constexpr double kDrainSeconds = 3.0;
constexpr double kSweepStepShare = 0.05;  ///< of --seconds per sweep step
constexpr double kScatterProbeShare = 0.05;  ///< of --seconds, traced serve

// Request mix and the seeded pools it draws from.
constexpr double kRightShare = 0.8;
constexpr double kLeftShare = 0.1;  // the rest are range-right requests
constexpr std::size_t kRightVectors = 32;
constexpr std::size_t kLeftVectors = 8;
constexpr std::size_t kRanges = 16;

enum Kind : u8 { kRight = 0, kLeft = 1, kRange = 2 };

double Rung(int i) { return kNominalRps * std::pow(kRatio, i); }

const char* Intern(const std::string& name) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> names;
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& n : names) {
    if (*n == name) return n->c_str();
  }
  names.push_back(std::make_unique<std::string>(name));
  return names.back()->c_str();
}

/// Forwarding kernel that records a span around every multiply. The traced
/// run wraps each shard of a ShardedMatrix in one (the server still sees a
/// ShardedMatrix, so it takes the same code path), and the loopback
/// cluster's coordinator kernel in another.
class TracedKernel final : public gcm::IMatrixKernel {
 public:
  TracedKernel(gcm::AnyMatrix inner, const std::string& name)
      : inner_(std::move(inner)),
        right_(Intern(name + ".right")),
        left_(Intern(name + ".left")) {}

  std::size_t rows() const override { return inner_.rows(); }
  std::size_t cols() const override { return inner_.cols(); }
  u64 CompressedBytes() const override { return inner_.CompressedBytes(); }
  std::string FormatTag() const override { return inner_.FormatTag(); }

  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         const gcm::MulContext& ctx) const override {
    trace::Scope span(right_, 0, 1);
    inner_.kernel().MultiplyRightInto(x, y, ctx);
  }
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        const gcm::MulContext& ctx) const override {
    trace::Scope span(left_, 0, 1);
    inner_.kernel().MultiplyLeftInto(y, x, ctx);
  }
  void MultiplyRightMulti(const gcm::DenseMatrix& x, gcm::DenseMatrix* y,
                          const gcm::MulContext& ctx) const override {
    trace::Scope span(right_, 0, static_cast<u32>(x.cols()));
    inner_.kernel().MultiplyRightMulti(x, y, ctx);
  }
  void MultiplyLeftMulti(const gcm::DenseMatrix& x, gcm::DenseMatrix* y,
                         const gcm::MulContext& ctx) const override {
    trace::Scope span(left_, 0, static_cast<u32>(x.rows()));
    inner_.kernel().MultiplyLeftMulti(x, y, ctx);
  }
  gcm::DenseMatrix ToDense() const override { return inner_.ToDense(); }
  void CollectStats(gcm::KernelStats* stats) const override {
    inner_.kernel().CollectStats(stats);
  }

 private:
  gcm::AnyMatrix inner_;
  const char* right_;
  const char* left_;
};

/// The seeded request pool with the expected (local single-vector) answer
/// of every entry, each entry pre-encoded as a frame and its expected
/// answer as a reply payload (the receiver compares bytes, so checking a
/// reply allocates nothing and the heap high-water is the server's).
struct RequestPool {
  struct Entry {
    Kind kind = kRight;
    u64 row_begin = 0;
    u64 row_end = 0;
    std::vector<double> x;
    std::vector<double> expected;
    std::vector<u8> expected_reply;  ///< MvmReply payload of `expected`
    u32 expected_crc = 0;  ///< its frame checksum
    std::vector<u8> frame;  ///< request id patched in at send time
  };
  std::vector<Entry> right, left, range;

  const std::vector<Entry>& of(Kind kind) const {
    return kind == kRight ? right : kind == kLeft ? left : range;
  }
};

RequestPool MakePool(const gcm::AnyMatrix& local, u64 seed, bool corrupt) {
  const gcm::ShardedMatrix* sharded =
      gcm::ShardedMatrix::FromKernel(local.kernel());
  RequestPool pool;
  const std::size_t rows = local.rows();
  const std::size_t cols = local.cols();
  auto encode = [](RequestPool::Entry* e) {
    gcm::ByteWriter out;
    gcm::MvmRequest{e->row_begin, e->row_end, e->x}.EncodeTo(&out);
    e->frame = gcm::EncodeFrame(
        e->kind == kLeft ? gcm::MsgType::kMvmLeft : gcm::MsgType::kMvmRight,
        0, out.buffer());
    gcm::ByteWriter reply;
    gcm::MvmReply{e->expected}.EncodeTo(&reply);
    e->expected_reply.assign(reply.buffer().begin(), reply.buffer().end());
    e->expected_crc =
        gcm::Crc32(e->expected_reply.data(), e->expected_reply.size());
  };
  for (std::size_t i = 0; i < kRightVectors; ++i) {
    RequestPool::Entry e;
    e.x = RandomVector(cols, MixSeed(seed, 11, i));
    e.expected.resize(rows);
    local.MultiplyRightInto(e.x, e.expected);
    if (corrupt && i == 0) {
      // One bit of one expected answer: every reply to that request must
      // now fail its check.
      u64 bits;
      std::memcpy(&bits, &e.expected[0], sizeof(bits));
      bits ^= 1;
      std::memcpy(&e.expected[0], &bits, sizeof(bits));
    }
    encode(&e);
    pool.right.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < kLeftVectors; ++i) {
    RequestPool::Entry e;
    e.kind = kLeft;
    e.x = RandomVector(rows, MixSeed(seed, 12, i));
    e.expected.resize(cols);
    local.MultiplyLeftInto(e.x, e.expected);
    encode(&e);
    pool.left.push_back(std::move(e));
  }
  gcm::Rng rng(MixSeed(seed, 13));
  for (std::size_t i = 0; i < kRanges; ++i) {
    RequestPool::Entry e;
    e.kind = kRange;
    e.row_begin = rng.Below(rows - 1);
    e.row_end = e.row_begin + 1 + rng.Below(rows - e.row_begin);
    e.x = pool.right[rng.Below(kRightVectors)].x;
    e.expected.resize(e.row_end - e.row_begin);
    sharded->MultiplyRightRangeInto(e.x, e.expected, e.row_begin, e.row_end);
    encode(&e);
    pool.range.push_back(std::move(e));
  }
  return pool;
}

struct Planned {
  double due_s = 0.0;
  Kind kind = kRight;
  u32 index = 0;
};

/// `count` Poisson arrivals of one connection at `rate`, conditioned on
/// the count: the gaps are exponential and then scaled so the last arrival
/// lands at count / rate, which keeps the arrival pattern random while the
/// step's offered rate is exact. Kind and pool entry come from the same
/// seeded stream.
std::vector<Planned> Schedule(u64 seed, int rung, std::size_t lane,
                              double rate, std::size_t count) {
  gcm::Rng rng(MixSeed(seed, 21 + static_cast<u64>(rung + 1000), lane));
  std::vector<Planned> plan(count);
  double t = 0.0;
  for (Planned& p : plan) {
    t += -std::log(1.0 - rng.NextDouble());
    p.due_s = t;
    const double u = rng.NextDouble();
    p.kind = u < kRightShare ? kRight
             : u < kRightShare + kLeftShare ? kLeft
                                            : kRange;
    const std::size_t n = p.kind == kRight  ? kRightVectors
                          : p.kind == kLeft ? kLeftVectors
                                            : kRanges;
    p.index = static_cast<u32>(rng.Below(n));
  }
  const double scale = static_cast<double>(count) / rate / t;
  for (Planned& p : plan) p.due_s *= scale;
  return plan;
}

/// One client connection with its own copy of the pool's frames and a
/// receive buffer that holds the largest expected reply, so receiving
/// allocates nothing during a step.
struct Lane {
  gcm::Socket socket;
  std::vector<std::vector<u8>> frames[3];
  std::vector<u8> payload;
  u64 next_id = 1;
};

/// Sends pool frame `index` of `kind` on the lane as request `id`.
void SendRequest(Lane* lane, Kind kind, u32 index, u64 id) {
  std::vector<u8>& frame = lane->frames[kind][index];
  std::memcpy(frame.data() + 8, &id, sizeof(id));  // header's request id
  lane->socket.SendAll(frame);
}

/// Reads one frame as ReadFrame does (header, then payload), but into the
/// lane's buffer. False when the peer closed the connection.
bool ReadReply(Lane* lane, gcm::FrameHeader* header,
               std::span<const u8>* payload) {
  u8 header_bytes[gcm::kFrameHeaderBytes];
  if (!lane->socket.RecvAll(header_bytes)) return false;
  *header = gcm::DecodeFrameHeader(header_bytes);
  if (header->payload_bytes > lane->payload.size()) {
    lane->payload.resize(header->payload_bytes);  // not a reply we expect
  }
  const std::span<u8> bytes(lane->payload.data(), header->payload_bytes);
  if (!bytes.empty() && !lane->socket.RecvAll(bytes)) return false;
  *payload = bytes;
  return true;
}

/// Whether a frame is an intact reply carrying exactly the expected answer.
/// The payload must equal the expected bytes, so comparing the header's
/// checksum with theirs checks the frame as strictly as recomputing it, and
/// leaves the receivers' CPU to the server.
bool ReplyMatches(const gcm::FrameHeader& header,
                  std::span<const u8> payload,
                  const RequestPool::Entry& entry) {
  return header.type == static_cast<u16>(gcm::MsgType::kMvmReply) &&
         header.payload_crc == entry.expected_crc &&
         std::equal(payload.begin(), payload.end(),
                    entry.expected_reply.begin(), entry.expected_reply.end());
}

struct StepResult {
  int rung = 0;
  double rate = 0.0;
  u64 scheduled = 0;
  u64 sent = 0;
  u64 ok = 0;
  u64 failed = 0;
  u64 over_limit = 0;
  u64 backlog = 0;  ///< sent but unanswered when the step ended
  u64 backlog_floor = 0;  ///< fewest outstanding in the last quarter
  bool aborted = false;
  std::vector<double> latency_ms;  ///< answered requests, from due time
  std::vector<double> late_ms;     ///< send time - due time
  std::vector<double> queue_depth; ///< server queue at arrivals (traced)
  double reply_seconds = 0.0;  ///< step start to its last reply
  double late_p99() const { return P99OrLower(late_ms).value; }
  bool valid() const { return late_p99() <= kLateBoundMs; }
  bool pass() const {
    return valid() && !aborted &&
           static_cast<double>(over_limit) <=
               kOverLimitShare * static_cast<double>(scheduled) &&
           static_cast<double>(backlog_floor) <=
               std::max(kBacklogFloor,
                        kBacklogShare * static_cast<double>(scheduled));
  }
};

class Traffic {
 public:
  Traffic(const RequestPool& pool, u64 seed, std::size_t lanes)
      : pool_(pool), seed_(seed), lane_count_(lanes) {}

  /// (Re)connects the lanes to `server`. With `sample_queue`, the server's
  /// admission queue is sampled at each arrival (traced runs only: it takes
  /// the server's queue lock, which no real client does).
  void Connect(const gcm::Server& server, bool sample_queue) {
    lanes_.clear();
    for (std::size_t c = 0; c < lane_count_; ++c) {
      auto lane = std::make_unique<Lane>();
      lane->socket = gcm::Socket::ConnectTcp("127.0.0.1", server.port());
      std::size_t largest = 0;
      for (Kind kind : {kRight, kLeft, kRange}) {
        for (const RequestPool::Entry& e : pool_.of(kind)) {
          lane->frames[kind].push_back(e.frame);
          largest = std::max(largest, e.expected_reply.size());
        }
      }
      lane->payload.resize(largest);
      lanes_.push_back(std::move(lane));
    }
    sampled_ = sample_queue ? &server : nullptr;
  }

  void Close() { lanes_.clear(); }

  /// One step at rung `rung` with `arrivals` requests spread over the
  /// connections (arrivals / rate seconds).
  StepResult Run(int rung, std::size_t arrivals, Report* report);

  /// Releases `count` full right requests at once on the first connection:
  /// they are sent while the server's dispatcher is paused, so all of them
  /// queue and the dispatcher takes them as one batch (count = batch_max).
  /// Checks every reply.
  void Burst(gcm::Server* server, std::size_t count, Report* report);

 private:
  const RequestPool& pool_;
  u64 seed_;
  std::size_t lane_count_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  const gcm::Server* sampled_ = nullptr;
};

StepResult Traffic::Run(int rung, std::size_t arrivals, Report* report) {
  StepResult result;
  result.rung = rung;
  result.rate = Rung(rung);
  const std::size_t n_lanes = lanes_.size();
  const std::size_t per_lane = std::max<std::size_t>(1, arrivals / n_lanes);
  std::vector<std::vector<Planned>> plans(n_lanes);
  for (std::size_t c = 0; c < n_lanes; ++c) {
    plans[c] = Schedule(seed_, rung, c, result.rate / n_lanes, per_lane);
    result.scheduled += plans[c].size();
  }
  const double seconds = static_cast<double>(per_lane * n_lanes) / result.rate;

  struct LaneState {
    std::atomic<u64> sent{0};
    std::atomic<u64> received{0};
    std::atomic<bool> sender_done{false};
    u64 id_base = 0;
    std::vector<double> late_ms, depth, latency_ms;
    u64 ok = 0, failed = 0, over_limit = 0;
    Clock::time_point last_reply{};
    std::atomic<bool> broken{false};
  };
  std::vector<LaneState> states(n_lanes);
  std::atomic<u64> outstanding{0};
  std::atomic<bool> abort{false};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end = t0 + std::chrono::duration_cast<
      Clock::duration>(std::chrono::duration<double>(seconds));
  const Clock::time_point drain_deadline =
      end + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(kDrainSeconds));
  auto due_time = [&](const Planned& p) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(p.due_s));
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n_lanes; ++c) {
    LaneState& st = states[c];
    Lane& lane = *lanes_[c];
    st.id_base = lane.next_id;
    lane.next_id += plans[c].size();
    st.late_ms.reserve(plans[c].size());
    st.depth.reserve(plans[c].size());
    st.latency_ms.reserve(plans[c].size());
    threads.emplace_back([&, c] {
      LaneState& s = states[c];
      Lane& l = *lanes_[c];
      try {
        for (std::size_t i = 0; i < plans[c].size(); ++i) {
          const Planned& p = plans[c][i];
          std::this_thread::sleep_until(due_time(p));
          if (outstanding.load() >= kAbortBacklog) {
            abort = true;
            break;
          }
          const Clock::time_point now = Clock::now();
          s.late_ms.push_back(MillisBetween(due_time(p), now));
          if (sampled_ != nullptr) {
            s.depth.push_back(static_cast<double>(sampled_->QueueDepth()));
          }
          ++outstanding;
          SendRequest(&l, p.kind, p.index, s.id_base + i);
          ++s.sent;
        }
      } catch (const std::exception&) {
        s.broken = true;
      }
      s.sender_done = true;
    });
    threads.emplace_back([&, c] {
      LaneState& s = states[c];
      Lane& l = *lanes_[c];
      try {
        while (Clock::now() < drain_deadline) {
          if (s.sender_done && s.received.load() >= s.sent.load()) break;
          pollfd pfd{l.socket.fd(), POLLIN, 0};
          if (::poll(&pfd, 1, 20) <= 0) continue;
          gcm::FrameHeader header;
          std::span<const u8> payload;
          if (!ReadReply(&l, &header, &payload)) {
            s.broken = true;
            break;
          }
          const Clock::time_point now = Clock::now();
          if (header.request_id < s.id_base ||
              header.request_id >= s.id_base + plans[c].size()) {
            continue;  // a late reply from an earlier step
          }
          const std::size_t i = header.request_id - s.id_base;
          const Planned& p = plans[c][i];
          const RequestPool::Entry& entry = pool_.of(p.kind)[p.index];
          const bool ok = ReplyMatches(header, payload, entry);
          const double latency = MillisBetween(due_time(p), now);
          s.last_reply = now;
          s.latency_ms.push_back(latency);
          if (ok) {
            ++s.ok;
          } else {
            ++s.failed;
          }
          if (!ok || latency > kLatencyLimitMs) ++s.over_limit;
          trace::Record("net.request", due_time(p), now, header.request_id);
          --outstanding;
          ++s.received;
        }
      } catch (const std::exception&) {
        s.broken = true;
      }
    });
  }

  // The orchestrating thread only watches the backlog, through the last
  // quarter of the step and when it ends.
  const Clock::time_point last_quarter =
      end - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(0.25 * seconds));
  result.backlog_floor = kAbortBacklog;
  while (Clock::now() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (Clock::now() >= last_quarter) {
      result.backlog_floor = std::min(result.backlog_floor, outstanding.load());
    }
  }
  result.backlog = outstanding.load();
  result.backlog_floor = std::min(result.backlog_floor, result.backlog);
  for (std::thread& t : threads) t.join();

  for (std::size_t c = 0; c < n_lanes; ++c) {
    LaneState& s = states[c];
    const u64 sent = s.sent.load();
    const u64 unanswered = sent - s.received.load();
    result.sent += sent;
    result.ok += s.ok;
    result.failed += s.failed + unanswered;
    result.over_limit += s.over_limit + unanswered;
    result.late_ms.insert(result.late_ms.end(), s.late_ms.begin(),
                          s.late_ms.end());
    result.queue_depth.insert(result.queue_depth.end(), s.depth.begin(),
                              s.depth.end());
    result.latency_ms.insert(result.latency_ms.end(), s.latency_ms.begin(),
                             s.latency_ms.end());
    result.reply_seconds = std::max(
        result.reply_seconds,
        std::chrono::duration<double>(s.last_reply - t0).count());
    GCM_CHECK_MSG(!s.broken, "connection " << c << " broke during the step");
  }
  result.aborted = abort.load();
  // Unsent requests of an aborted step are not attempted; every sent one
  // is, and an unanswered one failed (timed out).
  report->Add(result.sent, result.sent - result.ok);
  return result;
}

void Traffic::Burst(gcm::Server* server, std::size_t count, Report* report) {
  Lane& lane = *lanes_[0];
  const u64 id_base = lane.next_id;
  lane.next_id += count;
  server->PauseDispatcher();
  for (std::size_t i = 0; i < count; ++i) {
    SendRequest(&lane, kRight, static_cast<u32>(i % kRightVectors),
                id_base + i);
  }
  const Clock::time_point queued = Clock::now();
  while (server->QueueDepth() < count && SecondsSince(queued) < kDrainSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->ResumeDispatcher();
  u64 ok = 0;
  u64 received = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDrainSeconds));
  while (received < count && Clock::now() < deadline) {
    pollfd pfd{lane.socket.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 20) <= 0) continue;
    gcm::FrameHeader header;
    std::span<const u8> payload;
    GCM_CHECK_MSG(ReadReply(&lane, &header, &payload),
                  "connection closed during the burst");
    if (header.request_id < id_base || header.request_id >= id_base + count) {
      continue;  // a late reply from an earlier step
    }
    ++received;
    const std::size_t i = header.request_id - id_base;
    if (ReplyMatches(header, payload, pool_.right[i % kRightVectors])) ++ok;
  }
  report->Add(count, count - ok);
  report->Line("burst: %zu full right requests released at once: %llu "
               "succeeded, %llu failed",
               count, static_cast<unsigned long long>(ok),
               static_cast<unsigned long long>(count - ok));
}

void PrintStep(Report* report, const char* label, const StepResult& r) {
  report->Line(
      "step %-8s rung %+3d offered %7.1f rps: sent %llu, succeeded %llu, "
      "failed %llu; p50 %.3f ms, %s %.3f ms, over limit %llu; backlog %llu "
      "(floor %llu); generator late %s %.3f ms%s -> %s",
      label, r.rung, r.rate, static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.failed), Median(r.latency_ms),
      PctLabel(P99OrLower(r.latency_ms).percentile).c_str(),
      P99OrLower(r.latency_ms).value,
      static_cast<unsigned long long>(r.over_limit),
      static_cast<unsigned long long>(r.backlog),
      static_cast<unsigned long long>(r.backlog_floor),
      PctLabel(P99OrLower(r.late_ms).percentile).c_str(), r.late_p99(),
      r.aborted ? " (stopped at the backlog cap)" : "",
      !r.valid() ? "invalid (generator late)" : r.pass() ? "pass" : "fail");
}

/// Bisects the ladder for the highest passing rung: between the nominal
/// rung and the top when the nominal rung passed, between the bottom and
/// the nominal rung when it failed. Every probe is an absolute ladder rate.
/// Returns the replies per second measured in the highest passing step (the
/// rung below the ladder's offered rate when nothing passed).
double Sweep(Traffic* traffic, const StepResult& nominal, double step_s,
             double budget_s, Report* report, std::vector<StepResult>* steps) {
  auto reply_rate = [](const StepResult& r) {
    return static_cast<double>(r.ok) / r.reply_seconds;
  };
  const Clock::time_point start = Clock::now();
  double best = Rung(kLowestRung - 1);
  int pass = kLowestRung - 1;
  int fail = kHighestRung + 1;
  auto probe = [&](int rung) {
    StepResult r = traffic->Run(
        rung, static_cast<std::size_t>(Rung(rung) * step_s), report);
    PrintStep(report, "sweep", r);
    const bool passed = r.pass();
    if (passed) best = reply_rate(r);  // passes only ever climb the ladder
    steps->push_back(std::move(r));
    return passed;
  };
  // A failure is probed twice before the search accepts it: one stall of a
  // shared host can sink a step, and bisection never looks above a rung it
  // has seen fail. The nominal step counts as the first probe of rung 0.
  if (nominal.pass()) {
    best = reply_rate(nominal);
    pass = 0;
  } else {
    (probe(0) ? pass : fail) = 0;
  }
  while (pass + 1 < fail && SecondsSince(start) + step_s <= budget_s) {
    const int rung = (pass + fail) / 2;
    const bool passed = probe(rung) ||
                        (SecondsSince(start) + step_s <= budget_s &&
                         probe(rung));
    (passed ? pass : fail) = rung;
  }
  return best;
}

/// One served deployment: store, server, warm connection.
struct Deployment {
  std::string dir;
  gcm::AnyMatrix local;  ///< the opened store (a ShardedMatrix)
  std::unique_ptr<gcm::Server> server;
  double partition_s = 0.0;
  double open_ms = 0.0;
  double matrix_heap = 0.0;
  u64 dense_bytes = 0;
  gcm::DenseMatrix dense;
};

std::unique_ptr<gcm::Server> StartServer(gcm::AnyMatrix matrix) {
  auto server = std::make_unique<gcm::Server>(std::move(matrix),
                                              gcm::ServerConfig{});
  server->Start();
  return server;
}

/// Warm-up over a fresh connection: four full right and four full left
/// requests, each awaited, so every shard is resident and both kernel
/// directions have run.
void WarmUp(u16 port, const gcm::AnyMatrix& local) {
  gcm::Socket socket = gcm::Socket::ConnectTcp("127.0.0.1", port);
  std::vector<double> x(local.cols(), 0.5);
  std::vector<double> y(local.rows(), 0.25);
  u64 id = 1;
  for (gcm::MsgType type : {gcm::MsgType::kMvmRight, gcm::MsgType::kMvmLeft}) {
    for (int i = 0; i < 4; ++i) {
      gcm::ByteWriter out;
      gcm::MvmRequest{0, 0, type == gcm::MsgType::kMvmRight ? x : y}.EncodeTo(
          &out);
      gcm::WriteFrame(socket, type, id++, out.buffer());
      std::optional<gcm::Frame> reply = gcm::ReadFrame(socket);
      GCM_CHECK_MSG(reply.has_value() &&
                        reply->type == gcm::MsgType::kMvmReply,
                    "warm-up request was not answered");
    }
  }
}

Deployment SetUp(const Options& options, std::size_t rows,
                 gcm::ThreadPool* build_pool, int rep) {
  Deployment d;
  d.dense = MakeReplica(kProfile, rows, options.seed);
  d.dense_bytes = d.dense.UncompressedBytes();
  d.dir = ScratchDir(options, "store" + std::to_string(rep));
  const u64 heap_before = gcm::MemoryTracker::CurrentBytes();
  Clock::time_point t = Clock::now();
  gcm::ShardingPolicy policy;
  policy.shards = kShards;
  gcm::MatrixStore::Partition(d.dense, kInnerSpec, policy, d.dir,
                              {.pool = build_pool});
  d.partition_s = SecondsSince(t);
  t = Clock::now();
  d.local = gcm::MatrixStore::Open(d.dir);
  d.open_ms = SecondsSince(t) * 1e3;
  d.server = StartServer(d.local);
  WarmUp(d.server->port(), d.local);
  const u64 heap_after = gcm::MemoryTracker::CurrentBytes();
  d.matrix_heap = heap_after > heap_before
                      ? static_cast<double>(heap_after - heap_before)
                      : 0.0;
  return d;
}

void Teardown(Deployment* d) {
  if (d->server) d->server->Stop();
  d->server.reset();
  d->local = gcm::AnyMatrix();
  std::filesystem::remove_all(d->dir);
}

double MedianEncodeMs(const std::function<void()>& encode, int reps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t = Clock::now();
    encode();
    ms.push_back(MillisBetween(t, Clock::now()));
  }
  return Median(ms);
}

/// The timed phase of one deployment: the nominal step, then the sweep.
struct Phase {
  StepResult nominal;
  std::vector<StepResult> steps;  ///< the sweep's probes
  double max_rate = 0.0;
  double heap_bytes = 0.0;  ///< high-water of the nominal step and burst
};

/// The nominal step and the sweep. With `burst_server`, a full-batch burst
/// follows the nominal step, and the heap high-water is taken over both:
/// Poisson arrivals at the nominal rate form a batch of two or three only
/// now and then, so their high-water alone depends on whether full replies
/// happened to overlap (serve, six runs: 1.33 to 2.61 MB, IQR/median
/// 0.27), while the burst reaches the largest batch the server forms on
/// every run. The sweep is left out: in its failing steps the queue depth
/// is set by the benchmark's own backlog cap.
Phase RunPhase(Traffic* traffic, std::size_t nominal_arrivals,
               double sweep_step_s, double sweep_budget_s, const char* label,
               Report* report, gcm::Server* burst_server = nullptr) {
  Phase phase;
  HeapPeak heap;
  heap.Start();
  phase.nominal = traffic->Run(0, nominal_arrivals, report);
  PrintStep(report, label, phase.nominal);
  if (burst_server != nullptr) {
    traffic->Burst(burst_server, gcm::ServerConfig{}.batch_max, report);
    phase.heap_bytes = heap.Bytes();
  }
  phase.max_rate = Sweep(traffic, phase.nominal, sweep_step_s, sweep_budget_s,
                         report, &phase.steps);
  traffic->Close();
  report->Line("%s: max_rate_rps %.1f (replies per second in the highest "
               "passing step of the ladder)",
               label, phase.max_rate);
  return phase;
}

/// The traced half of a traced run. The same nominal step and sweep as the
/// untraced half `plain`, against a second Server whose shards are wrapped
/// in TracedKernels; then the cluster layer (closed-loop right multiplies
/// through a loopback cluster of 2 workers, 1 replica each, over the same
/// store); then encoding and CRC at the served sizes. Reports every
/// per-layer metric of this workload and the tracing overhead.
void TraceLayers(const Options& options, const Deployment& d,
                 const RequestPool& pool, Traffic* traffic, const Phase& plain,
                 std::size_t nominal_arrivals, double sweep_step_s,
                 double sweep_budget_s, Report* report) {
  const gcm::ShardedMatrix* store =
      gcm::ShardedMatrix::FromKernel(d.local.kernel());
  std::vector<gcm::AnyMatrix> shards;
  for (std::size_t i = 0; i < store->shard_count(); ++i) {
    shards.emplace_back(std::make_shared<TracedKernel>(
        store->LoadShard(i), "core.shard" + std::to_string(i)));
  }
  std::unique_ptr<gcm::Server> server = StartServer(gcm::AnyMatrix(
      gcm::ShardedMatrix::FromShards(d.local.cols(), std::move(shards))));
  WarmUp(server->port(), d.local);
  const gcm::ServerStats before = server->stats();
  traffic->Connect(*server, true);
  trace::Enable(true);
  const Phase traced = RunPhase(traffic, nominal_arrivals, sweep_step_s,
                                sweep_budget_s, "traced", report);
  const gcm::ServerStats stats = server->stats();
  server->Stop();

  gcm::LoopbackClusterOptions cluster_options;
  cluster_options.workers = 2;
  cluster_options.replicas = 1;
  const std::shared_ptr<gcm::LoopbackCluster> cluster =
      gcm::LoopbackCluster::Start(d.local, cluster_options);
  const gcm::ClusterStats cluster_before = cluster->remote().stats();
  std::vector<gcm::ServerStats> worker_before;
  for (std::size_t w = 0; w < cluster->worker_count(); ++w) {
    worker_before.push_back(cluster->worker(w).stats());
  }
  {
    const gcm::AnyMatrix hop(std::make_shared<TracedKernel>(
        gcm::AnyMatrix(cluster), "cluster.scatter"));
    std::vector<double> y(hop.rows());
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0;
         SecondsSince(start) < kScatterProbeShare * options.seconds; ++i) {
      const RequestPool::Entry& e = pool.right[i % pool.right.size()];
      hop.MultiplyRightInto(e.x, y);
      report->Count(std::memcmp(y.data(), e.expected.data(),
                                y.size() * sizeof(double)) == 0);
    }
  }

  // Encoding at the served sizes, timed on this thread.
  const std::vector<double>& right_x = pool.right[0].x;
  const std::vector<double>& right_y = pool.right[0].expected;
  const double request_ms = MedianEncodeMs(
      [&] {
        trace::Scope span("net.request_encode");
        gcm::ByteWriter out;
        gcm::MvmRequest{0, 0, right_x}.EncodeTo(&out);
        (void)gcm::EncodeFrame(gcm::MsgType::kMvmRight, 1, out.buffer());
      },
      200);
  const gcm::MvmReply reply{right_y};
  const double reply_ms = MedianEncodeMs(
      [&] {
        trace::Scope span("net.reply_encode");
        gcm::ByteWriter out;
        reply.EncodeTo(&out);
        (void)gcm::EncodeFrame(gcm::MsgType::kMvmReply, 1, out.buffer());
      },
      60);
  trace::Enable(false);
  std::vector<double> crc_ms;
  for (int i = 0; i < 30; ++i) {
    const Clock::time_point t = Clock::now();
    volatile u32 crc =
        gcm::Crc32(right_y.data(), right_y.size() * sizeof(double));
    (void)crc;
    crc_ms.push_back(MillisBetween(t, Clock::now()));
  }
  const double crc_mbps = static_cast<double>(right_y.size() * 8) / 1e6 /
                          (Median(crc_ms) * 1e-3);

  const std::vector<trace::Span> all_spans = trace::Spans();
  const std::vector<trace::Summary> spans = trace::Summarize(all_spans);
  const double batches = static_cast<double>(stats.batches_dispatched -
                                             before.batches_dispatched);
  const double replies =
      static_cast<double>(stats.replies_sent - before.replies_sent);
  const double batched = static_cast<double>(stats.batched_requests -
                                             before.batched_requests);
  report->Layer("net.batches", batches, "count",
                "Server::stats() batches over the traced half");
  report->Layer("net.batched_share",
                replies > 0 ? 100.0 * batched / replies : 0.0, "%",
                "requests answered in batches of 2 or more");
  report->Layer("net.max_batch", static_cast<double>(stats.max_batch),
                "count", "largest batch");
  report->Layer("net.queue_depth_p99",
                Quantile(traced.nominal.queue_depth, 0.99), "count",
                "Server::QueueDepth() sampled at each arrival of the traced "
                "nominal step");
  u64 backlog = 0;
  for (const StepResult& s : traced.steps) {
    backlog = std::max(backlog, s.backlog);
  }
  report->Layer("net.backlog", static_cast<double>(backlog), "count",
                "most requests outstanding at the end of a sweep step");
  report->Layer("net.gen_late_p99_ms", traced.nominal.late_p99(), "ms",
                "generator lateness at the traced nominal step");
  report->Layer("net.request_encode_ms", request_ms, "ms",
                "MvmRequest::EncodeTo + EncodeFrame, right request of " +
                    std::to_string(right_x.size()) + " doubles");
  report->Layer("net.reply_encode_ms", reply_ms, "ms",
                "MvmReply::EncodeTo + EncodeFrame, right reply of " +
                    std::to_string(right_y.size()) + " doubles");
  report->Layer("encoding.crc_mbps", crc_mbps, "MB/s",
                "Crc32 over a right reply's values (frames carry it)");

  std::vector<double> scatter;
  for (const char* name : {"cluster.scatter.right", "cluster.scatter.left"}) {
    if (const trace::Summary* s = trace::Find(spans, name)) {
      scatter.insert(scatter.end(), s->durations_ms.begin(),
                     s->durations_ms.end());
    }
  }
  const gcm::ClusterStats cs = cluster->remote().stats();
  const double scatters =
      static_cast<double>(cs.scatters - cluster_before.scatters);
  double worker_batched = 0.0;
  double worker_replies = 0.0;
  u64 errors = stats.errors_sent - before.errors_sent;
  for (std::size_t w = 0; w < cluster->worker_count(); ++w) {
    const gcm::ServerStats ws = cluster->worker(w).stats();
    worker_batched += static_cast<double>(ws.batched_requests -
                                          worker_before[w].batched_requests);
    worker_replies += static_cast<double>(ws.replies_sent -
                                          worker_before[w].replies_sent);
    errors += ws.errors_sent - worker_before[w].errors_sent;
  }
  report->Layer("cluster.scatter_ms", Median(scatter), "ms",
                "closed-loop right multiply through a loopback cluster, p50 "
                "of " + std::to_string(scatter.size()));
  report->Layer("cluster.requests_per_scatter",
                scatters > 0 ? static_cast<double>(cs.requests_sent -
                                                   cluster_before
                                                       .requests_sent) /
                                   scatters
                             : 0.0,
                "count", "ClusterStats requests_sent / scatters");
  report->Layer("cluster.worker_batched_share",
                worker_replies > 0 ? 100.0 * worker_batched / worker_replies
                                   : 0.0,
                "%", "workers' requests answered in batches");
  report->Layer("cluster.retries",
                static_cast<double>(cs.retries - cluster_before.retries),
                "count", "ClusterStats");
  report->Layer("cluster.failovers",
                static_cast<double>(cs.failovers - cluster_before.failovers),
                "count", "ClusterStats");
  report->Layer("cluster.deadline_timeouts",
                static_cast<double>(cs.deadline_timeouts -
                                    cluster_before.deadline_timeouts),
                "count", "ClusterStats");
  report->Layer("cluster.connects",
                static_cast<double>(cs.connects - cluster_before.connects),
                "count", "ClusterStats");
  report->Layer("net.errors_sent", static_cast<double>(errors), "count",
                "Server::stats().errors_sent of the traced server and the "
                "cluster's workers");

  // Kernel time per vector of a full right multiply: per shard, the mean of
  // span time / vectors over its right calls, summed over the shards.
  double calls = 0.0;
  double vectors = 0.0;
  double ms_per_vec = 0.0;
  for (std::size_t i = 0; i < store->shard_count(); ++i) {
    const std::string right = "core.shard" + std::to_string(i) + ".right";
    const std::string left = "core.shard" + std::to_string(i) + ".left";
    double shard_sum = 0.0;
    double shard_calls = 0.0;
    for (const trace::Span& span : all_spans) {
      if (right != span.name && left != span.name) continue;
      calls += 1.0;
      vectors += span.k;
      if (right == span.name) {
        shard_sum += span.ms() / span.k;
        shard_calls += 1.0;
      }
    }
    if (shard_calls > 0) ms_per_vec += shard_sum / shard_calls;
  }
  report->Layer("core.calls", calls, "count",
                "shard kernel calls the server made");
  report->Layer("core.batch_k_mean", calls > 0 ? vectors / calls : 0.0,
                "count", "vectors per shard kernel call");
  report->Layer("core.ms_per_vec", ms_per_vec, "ms",
                "right kernel time per vector over all shards");
  report->Layer("net.reply_encode_over_kernel",
                ms_per_vec > 0 ? reply_ms / ms_per_vec : 0.0, "x",
                "net.reply_encode_ms / core.ms_per_vec");
  report->Line("serve: reply encode %.3f ms vs kernel %.3f ms per vector "
               "(right reply of %zu rows)",
               reply_ms, ms_per_vec, right_y.size());

  const Tail plain_tail = P99OrLower(plain.nominal.latency_ms);
  const Tail traced_tail = P99OrLower(traced.nominal.latency_ms);
  report->Layer("trace.overhead_latency_p50_pct",
                100.0 * (Median(traced.nominal.latency_ms) /
                             Median(plain.nominal.latency_ms) -
                         1.0),
                "%", "traced vs untraced nominal step p50");
  report->Layer("trace.overhead_latency_p99_pct",
                100.0 * (traced_tail.value / plain_tail.value - 1.0), "%",
                "traced vs untraced nominal step " +
                    PctLabel(traced_tail.percentile));
  report->Layer("trace.overhead_throughput_pct",
                100.0 * (plain.max_rate / traced.max_rate - 1.0), "%",
                "untraced / traced max_rate_rps over equal sweeps (rungs "
                "5% apart; run to run the rate spreads about 10%)");
}

}  // namespace

void RunServe(const Options& options, Report* report) {
  // Serving latency is a chain of thread wake-ups; CPU-bound workloads run
  // without spinners, which would only compete with them for the host.
  const IdleSpinners spinners;
  const std::size_t rows = options.toy ? 3000 : 40000;
  const std::size_t lanes = std::max<std::size_t>(1, std::min<std::size_t>(
                                                         2, Nproc() / 2));
  report->Line(
      "workload serve: %s replica, %zu rows, store of %zu %s shards (lazy "
      "open, all resident after warm-up); one local Server; open loop, "
      "Poisson arrivals on %zu connections, nominal %.0f rps, ladder %.0f x "
      "%.2f^i for i in [%d, %d], latency limit %.0f ms at p99, generator "
      "late bound %.0f ms",
      kProfile, rows, kShards, kInnerSpec, lanes, kNominalRps, kNominalRps,
      kRatio, kLowestRung, kHighestRung, kLatencyLimitMs, kLateBoundMs);

  std::unique_ptr<gcm::ThreadPool> build_pool =
      gcm::MakePoolForThreads(Nproc());
  std::vector<double> setup_s;
  std::vector<double> partition_s;
  std::vector<double> open_ms;
  Deployment d;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (rep > 0) Teardown(&d);
    const Clock::time_point t0 = Clock::now();
    d = SetUp(options, rows, build_pool.get(), rep);
    setup_s.push_back(SecondsSince(t0));
    partition_s.push_back(d.partition_s);
    open_ms.push_back(d.open_ms);
  }
  const gcm::ShardedMatrix* store =
      gcm::ShardedMatrix::FromKernel(d.local.kernel());
  const u64 compressed = d.local.CompressedBytes();
  PrintSizes(report, std::string(kProfile) + " store, " + kInnerSpec,
             d.dense_bytes, compressed);

  const RequestPool pool = MakePool(d.local, options.seed,
                                    options.corrupt_expected);
  InputHash hash;
  hash.Bytes(d.dense.data().data(), d.dense_bytes);
  for (Kind kind : {kRight, kLeft, kRange}) {
    for (const RequestPool::Entry& e : pool.of(kind)) {
      hash.Value(e.row_begin);
      hash.Value(e.row_end);
      hash.Doubles(e.x);
    }
  }
  for (int rung = kLowestRung; rung <= kHighestRung; ++rung) {
    for (std::size_t c = 0; c < lanes; ++c) {
      for (const Planned& p :
           Schedule(options.seed, rung, c, Rung(rung) / lanes, 256)) {
        hash.Bytes(&p.due_s, sizeof(p.due_s));
        hash.Value(static_cast<u64>(p.kind) << 32 | p.index);
      }
    }
  }
  report->Line("inputs: seed %llu, input hash %016llx (replica row order, "
               "request vectors, ranges, arrival times and mix of every "
               "ladder rung)",
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(hash.digest()));
  d.dense = gcm::DenseMatrix();

  // Untraced: the nominal step, then the sweep in what the run has left
  // (at least 0.3 S). The nominal step has at least 1100 arrivals, so its
  // p99 has ten samples beyond it. Traced: an untraced and a traced half
  // of equal, shorter steps and sweeps; their difference is the tracing
  // overhead, and the end-to-end metrics come from the untraced half. Each
  // sweep needs 0.4 S for its bisection to converge (with 0.25 S one half
  // stopped 6 rungs short of the other).
  const double seconds = options.seconds;
  const auto arrivals = [&](double share) {
    return static_cast<std::size_t>(kNominalRps * share * seconds);
  };
  const std::size_t nominal_arrivals =
      options.trace ? arrivals(0.2)
      : options.toy ? arrivals(0.5)
                    : std::max<std::size_t>(1100, arrivals(0.5));
  const double sweep_step_s = kSweepStepShare * seconds;
  Traffic traffic(pool, options.seed, lanes);
  traffic.Connect(*d.server, false);
  const double sweep_budget_s =
      options.trace ? 0.4 * seconds
                    : std::max(0.3 * seconds,
                               seconds - nominal_arrivals / kNominalRps);
  const Phase plain = RunPhase(&traffic, nominal_arrivals, sweep_step_s,
                               sweep_budget_s, "serve", report,
                               d.server.get());
  const u64 resident = store->ResidentPayloadBytes();
  if (options.trace) {
    report->Layer("grammar.build_s", Median(partition_s), "s",
                  "MatrixStore::Partition, median of setups");
    report->Layer("serving.open_ms", Median(open_ms), "ms",
                  "MatrixStore::Open, median of setups");
    TraceLayers(options, d, pool, &traffic, plain, nominal_arrivals,
                sweep_step_s, sweep_budget_s, report);
  }

  const StepResult& nominal = plain.nominal;
  const Tail tail = P99OrLower(nominal.latency_ms);
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size(),
                   "median setup: replica, Partition, Open, server, "
                   "warm-up");
  report->EndToEnd("compressed_pct",
                   100.0 * static_cast<double>(compressed) /
                       static_cast<double>(d.dense_bytes),
                   "%", 0, "store compressed / dense bytes (Table 1)");
  report->EndToEnd("latency_p50_ms", Median(nominal.latency_ms), "ms",
                   nominal.latency_ms.size(),
                   "request latency from due time at the nominal rate");
  report->EndToEnd("latency_p99_ms", tail.value, "ms",
                   nominal.latency_ms.size(),
                   PctLabel(tail.percentile) + " at the nominal rate");
  report->EndToEnd("throughput_qps",
                   static_cast<double>(nominal.ok) / nominal.reply_seconds,
                   "1/s", nominal.ok,
                   "good replies per second until the nominal step's last "
                   "reply");
  report->EndToEnd("max_rate_rps", plain.max_rate, "1/s", plain.steps.size(),
                   "replies per second in the highest passing ladder step");
  report->EndToEnd("peak_heap_mb", plain.heap_bytes / 1e6, "MB", 0,
                   "heap high-water of the nominal step and a full-batch "
                   "burst above their start (queues, batches, replies)");
  report->EndToEnd("peak_mem_pct",
                   100.0 * (d.matrix_heap + plain.heap_bytes) /
                       static_cast<double>(d.dense_bytes),
                   "%", 0, "(serving heap + peak_heap) / dense");
  report->EndToEnd("resident_mb", static_cast<double>(resident) / 1e6, "MB",
                   0, "ShardedMatrix::ResidentPayloadBytes after the timed "
                      "phase");
  Teardown(&d);
  RemoveScratch(options);
}

}  // namespace perfbench
