#include "hpc/net/master.hpp"

#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hpc/async_campaign.hpp"
#include "hpc/net/frame.hpp"
#include "hpc/net/socket.hpp"
#include "obs/metrics.hpp"

namespace geonas::hpc::net {

namespace {

void bump(const char* name, std::uint64_t amount = 1) {
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter(name).add(amount);
  }
}

struct Conn {
  Socket socket;
  FrameAssembler assembler;
  std::string outbuf;
  std::string name;
  bool helloed = false;
  bool has_task = false;
  std::uint64_t task_seq = 0;
  bool dead = false;
};

}  // namespace

struct NetMaster::Impl {
  MasterOptions options;
  TcpListener listener;

  std::optional<AsyncCampaign> campaign;  // created by run()
  TransportCounters counters;

  std::deque<std::uint64_t> dispatch_queue;  // seqs awaiting a worker
  std::uint64_t queued_until = 0;  // launches below this seq were queued
  std::vector<Conn> conns;
  std::size_t last_checkpoint_evals = 0;
  std::uint64_t heartbeat_token = 0;

  explicit Impl(MasterOptions opts)
      : options(std::move(opts)),
        listener(options.bind_address, options.port) {}

  /// Queues the launches made since the last call that await an outcome
  /// (after a resume: every outstanding launch, oldest first).
  void queue_new_launches() {
    for (; queued_until < campaign->launched(); ++queued_until) {
      if (campaign->awaiting(queued_until)) {
        dispatch_queue.push_back(queued_until);
      }
    }
  }

  // ---- transport ----

  void queue_frame(Conn& conn, const Message& message) {
    conn.outbuf += encode_frame(message);
    bump("net.frames_sent");
    flush_conn(conn);
  }

  void flush_conn(Conn& conn) {
    while (!conn.outbuf.empty() && !conn.dead) {
      const std::ptrdiff_t n =
          conn.socket.write_some(conn.outbuf.data(), conn.outbuf.size());
      if (n == kWouldBlock) return;  // poll watches POLLOUT for us
      if (n == 0) {
        conn.dead = true;
        return;
      }
      bump("net.bytes_sent", static_cast<std::uint64_t>(n));
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Drains readable bytes and handles every complete frame. Any frame
  /// error (bad CRC, desynchronized length, unknown type) condemns only
  /// this connection — its task is re-dispatched, the campaign carries
  /// on.
  void service_conn(Conn& conn) {
    char buf[4096];
    for (;;) {
      const std::ptrdiff_t n = conn.socket.read_some(buf, sizeof(buf));
      if (n == kWouldBlock) break;
      if (n == 0) {
        conn.dead = true;
        break;
      }
      bump("net.bytes_received", static_cast<std::uint64_t>(n));
      conn.assembler.feed(buf, static_cast<std::size_t>(n));
    }
    try {
      std::string payload;
      while (conn.assembler.next(payload)) {
        bump("net.frames_received");
        const Message m = decode_payload(payload);
        switch (m.type) {
          case MsgType::kHello:
            if (!conn.helloed) {
              conn.helloed = true;
              conn.name = m.worker_name;
              ++counters.workers_joined;
              bump("net.workers_joined");
            }
            break;
          case MsgType::kResult:
            if (conn.has_task && conn.task_seq == m.seq) {
              conn.has_task = false;
            }
            campaign->deliver(m.seq, m.outcome);
            break;
          case MsgType::kHeartbeat:
            break;  // liveness echo; TCP already told us the peer is up
          case MsgType::kTask:
          case MsgType::kShutdown:
            break;  // master-to-worker types; ignore from a worker
        }
      }
    } catch (const std::exception&) {
      conn.dead = true;  // corrupt stream: drop the worker, keep the run
    }
  }

  void reap_dead_conns() {
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->dead) {
        ++it;
        continue;
      }
      if (it->helloed) {
        ++counters.worker_deaths;
        bump("net.worker_deaths");
      }
      if (it->has_task && campaign->awaiting(it->task_seq)) {
        // Front of the queue: the oldest interrupted work goes out first.
        // Determinism is unaffected — evaluation is a pure function of
        // (arch, eval_seed).
        dispatch_queue.push_front(it->task_seq);
        ++counters.redispatches;
        bump("net.redispatches");
      }
      it = conns.erase(it);
    }
    if (obs::MetricsRegistry* reg = obs::registry()) {
      reg->gauge("net.workers_connected")
          .set(static_cast<double>(conns.size()));
    }
  }

  void assign_tasks() {
    while (!dispatch_queue.empty()) {
      const std::uint64_t seq = dispatch_queue.front();
      const AsyncCampaign::Launch* launch = campaign->find(seq);
      if (launch == nullptr || launch->delivered) {
        dispatch_queue.pop_front();  // already answered by a duplicate
        continue;
      }
      Conn* idle = nullptr;
      for (Conn& c : conns) {
        if (c.helloed && !c.dead && !c.has_task) {
          idle = &c;
          break;
        }
      }
      if (idle == nullptr) return;  // all workers busy (or none yet)
      dispatch_queue.pop_front();
      idle->has_task = true;
      idle->task_seq = seq;
      queue_frame(*idle, make_task(seq, launch->eval_seed, launch->arch));
    }
  }

  void send_heartbeats() {
    ++heartbeat_token;
    for (Conn& c : conns) {
      if (c.helloed && !c.dead && !c.has_task) {
        queue_frame(c, make_heartbeat(heartbeat_token));
      }
    }
  }

  void accept_new_conns() {
    for (;;) {
      Socket incoming = listener.accept_connection();
      if (!incoming.valid()) break;
      Conn conn;
      conn.socket = std::move(incoming);
      conns.push_back(std::move(conn));
    }
  }

  /// One poll round: wait for socket events (or the timeout), then
  /// accept/read/flush as indicated. Connections accepted this round
  /// have no poll entry yet; they are serviced from the next round on.
  void poll_round(int timeout_ms) {
    const std::size_t polled = conns.size();
    std::vector<PollEntry> entries(polled + 1);
    entries[0].fd = listener.fd();
    for (std::size_t i = 0; i < polled; ++i) {
      entries[i + 1].fd = conns[i].socket.fd();
      entries[i + 1].want_write = !conns[i].outbuf.empty();
    }
    poll_sockets(entries, timeout_ms);
    if (entries[0].readable) accept_new_conns();
    for (std::size_t i = 0; i < polled; ++i) {
      PollEntry& e = entries[i + 1];
      if (e.error) conns[i].dead = true;
      if (!conns[i].dead && e.readable) service_conn(conns[i]);
      if (!conns[i].dead && e.writable) flush_conn(conns[i]);
    }
    reap_dead_conns();
  }

  void shutdown_workers() {
    for (Conn& c : conns) {
      if (!c.dead) queue_frame(c, make_shutdown());
    }
    // Best-effort flush: workers also exit on EOF, so a slow peer only
    // misses the courtesy frame.
    for (int round = 0; round < 20; ++round) {
      bool pending = false;
      for (Conn& c : conns) {
        if (!c.dead && !c.outbuf.empty()) {
          flush_conn(c);
          pending = pending || !c.outbuf.empty();
        }
      }
      if (!pending) break;
      sleep_ms(5);
    }
    conns.clear();
  }

  void maybe_checkpoint() {
    if (options.checkpoint_path.empty() || options.checkpoint_every == 0) {
      return;
    }
    if (campaign->completed() - last_checkpoint_evals >=
        options.checkpoint_every) {
      campaign->save(options.checkpoint_path, counters);
      last_checkpoint_evals = campaign->completed();
    }
  }
};

NetMaster::NetMaster(MasterOptions options)
    : impl_(new Impl(std::move(options))) {}

NetMaster::~NetMaster() { delete impl_; }

std::uint16_t NetMaster::port() const noexcept {
  return impl_->listener.port();
}

MasterResult NetMaster::run(search::SearchMethod& method) {
  Impl& m = *impl_;
  if (!m.options.checkpoint_path.empty() && !method.checkpointable()) {
    throw std::runtime_error("NetMaster: method '" + method.name() +
                             "' does not support checkpointing but "
                             "checkpoint_path is set");
  }

  AsyncCampaign& campaign = m.campaign.emplace(m.options.cluster, method);
  if (m.options.resume) {
    m.counters = campaign.resume(m.options.checkpoint_path);
  } else {
    campaign.start();
  }
  evals_completed_.store(campaign.completed());
  m.last_checkpoint_evals = campaign.completed();

  obs::StopWatch elapsed;
  obs::StopWatch since_heartbeat;
  auto stop_now = [&]() {
    return stop_requested_.load() ||
           (m.options.stop_after_evaluations > 0 &&
            campaign.completed() >= m.options.stop_after_evaluations);
  };

  bool paused = stop_now();
  while (!paused && !campaign.finished()) {
    if (m.options.real_time_limit_seconds > 0.0 &&
        elapsed.seconds() > m.options.real_time_limit_seconds) {
      throw std::runtime_error(
          "NetMaster: campaign exceeded the real-time limit of " +
          std::to_string(m.options.real_time_limit_seconds) +
          " s with " + std::to_string(m.conns.size()) +
          " worker(s) connected and " +
          std::to_string(campaign.outstanding()) +
          " evaluation(s) outstanding — are any workers running?");
    }
    m.poll_round(m.options.poll_timeout_ms);
    while (!stop_now() && campaign.pop()) {
      evals_completed_.store(campaign.completed());
      m.maybe_checkpoint();
    }
    m.queue_new_launches();
    m.assign_tasks();
    if (m.options.heartbeat_seconds > 0.0 &&
        since_heartbeat.seconds() >= m.options.heartbeat_seconds) {
      m.send_heartbeats();
      since_heartbeat.reset();
    }
    paused = stop_now();
  }

  if (!m.options.checkpoint_path.empty()) {
    campaign.save(m.options.checkpoint_path, m.counters);
  }
  m.shutdown_workers();

  MasterResult out;
  out.sim = campaign.take_result();
  out.workers_joined = m.counters.workers_joined;
  out.worker_deaths = m.counters.worker_deaths;
  out.redispatches = m.counters.redispatches;
  out.stopped_early = paused;
  if (obs::MetricsRegistry* reg = obs::registry()) {
    const std::string prefix = "net.master." + method.name();
    reg->counter(prefix + ".evals").add(out.sim.evals.size());
    reg->gauge(prefix + ".utilization_auc").set(out.sim.utilization);
  }
  return out;
}

}  // namespace geonas::hpc::net
