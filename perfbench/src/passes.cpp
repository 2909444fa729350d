// One pass = one full stream of the seed's trace through a workload's code path,
// timed from outside through public calls only.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "fleet/net/node.hpp"
#include "fleet/net/wire.hpp"
#include "obs/event_log.hpp"
#include "obs/registry.hpp"

namespace perfbench {

namespace net = worms::fleet::net;
using worms::obs::SpanGuard;
using worms::obs::TraceRing;
using worms::trace::ConnRecord;

// ---------------------------------------------------------------------------
// Timeline / TimedSource.

std::int64_t Timeline::handed_out_ns(std::uint64_t index) const {
  const auto it = std::upper_bound(block_end.begin(), block_end.end(), index);
  if (it == block_end.end()) throw std::logic_error("stream index beyond the handed-out records");
  return block_ns[static_cast<std::size_t>(it - block_end.begin())];
}

TimedSource::TimedSource(std::unique_ptr<worms::trace::RecordSource> inner, Timeline& timeline,
                         TraceRing* ring, std::function<void()> after_block)
    : inner_(std::move(inner)),
      timeline_(timeline),
      ring_(ring),
      after_block_(std::move(after_block)) {}

std::size_t TimedSource::next_batch(std::span<ConnRecord> out) {
  std::size_t got = 0;
  {
    SpanGuard span(ring_, "trace.next_batch");
    got = inner_->next_batch(out);
  }
  const std::int64_t t = now_ns();
  if (handed_out_ == 0 && got > 0) {
    timeline_.first_ns = t;
    timeline_.first_cpu_s = cpu_seconds();
  }
  if (got > 0) {
    handed_out_ += got;
    timeline_.block_end.push_back(handed_out_);
    timeline_.block_ns.push_back(t);
  }
  if (after_block_) after_block_();
  return got;
}

namespace {

/// For each removed host of the reference, hand-out of its trigger record →
/// the instant the removal was seen outside (0 = never seen).
std::vector<double> lag_samples(const Reference& ref, const Timeline& timeline,
                                const std::vector<std::int64_t>& seen_ns,
                                std::uint64_t& missing) {
  std::vector<double> ms;
  ms.reserve(ref.triggers.size());
  for (const auto& [host, index] : ref.triggers) {
    if (seen_ns[host] == 0) {
      ++missing;
      continue;
    }
    ms.push_back(double(seen_ns[host] - timeline.handed_out_ns(index)) / 1e6);
  }
  return ms;
}

void finish_pass(const RunConfig& run, const worms::fleet::PipelineResult& result,
                 const Timeline& timeline, std::int64_t t0, std::int64_t t_end, double cpu_end,
                 PassResult& out) {
  const Reference& ref = *run.reference;
  out.records = result.metrics.records_processed;
  out.setup_s = double(timeline.first_ns - t0) / 1e9;
  out.window_s = double(t_end - timeline.first_ns) / 1e9;
  out.cpu_ns_per_record = (cpu_end - timeline.first_cpu_s) * 1e9 / double(out.records);
  out.counter_bytes_per_host = double(result.metrics.counter_memory_bytes) /
                               double(std::max<std::size_t>(1, result.verdicts.hosts.size()));
  // Shed records are not failures: the overload ladder sheds only records of
  // hosts already removed, which the worker would suppress — the verdicts
  // (checked below) are the same.  Their share is a layer metric instead.
  out.attempted += out.records;
  out.failed += result.metrics.dead_letters.total();
  if (out.records < ref.records) out.failed += ref.records - out.records;
  out.digest = verdict_digest(result.verdicts, run.scratch_dir + "/verdicts.csv");
  const double records = double(std::max<std::uint64_t>(1, out.records));
  out.layer["fleet.removals"] = result.verdicts.hosts_removed;
  out.layer["fleet.suppressed_share"] = double(result.metrics.records_suppressed) / records;
  out.layer["fleet.shed_share"] = double(result.metrics.records_shed) / records;
}

}  // namespace

// ---------------------------------------------------------------------------
// contain_exact / contain_compact: the `wormctl contain --trace X.wtrace` path.

PassResult run_contain_pass(const RunConfig& run, worms::obs::Tracer* tracer, bool snapshot) {
  PassResult out;
  out.traced = tracer != nullptr;
  TraceRing* ring = tracer != nullptr ? &tracer->ring(0) : nullptr;
  std::vector<std::int64_t> removed_ns(run.reference->host_bound, 0);
  worms::fleet::PipelineOptions options = pipeline_options(run.backend, run.shards);
  // Each host is written by the one worker that owns it; read after finish()
  // has joined the workers.
  options.on_removal = [&removed_ns](std::uint32_t host, worms::sim::SimTime) {
    removed_ns[host] = now_ns();
  };

  Timeline timeline;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<worms::trace::RecordSource> file;
  {
    SpanGuard span(ring, "trace.open");
    file = std::make_unique<worms::trace::BinarySource>(run.trace_path, /*verify_checksum=*/true);
  }
  out.layer["trace.open_s"] = double(now_ns() - t0) / 1e9;
  std::unique_ptr<worms::fleet::ContainmentPipeline> pipeline;
  {
    SpanGuard span(ring, "fleet.construct");
    pipeline = std::make_unique<worms::fleet::ContainmentPipeline>(options);
  }
  std::vector<double> fill;
  std::function<void()> sample_fill;
  if (ring != nullptr) {
    sample_fill = [&] {
      SpanGuard span(ring, "fleet.status");
      const worms::fleet::PipelineStatus status = pipeline->status();
      double depth = 0.0;
      for (const std::uint64_t d : status.queue_depth) depth += double(d);
      fill.push_back(depth / double(options.queue_capacity * status.queue_depth.size()));
    };
  }
  TimedSource source(std::move(file), timeline, ring, sample_fill);
  {
    SpanGuard span(ring, "fleet.feed");
    pipeline->feed(source);
  }
  std::size_t snapshot_bytes = 0;
  if (snapshot) {
    const std::int64_t s0 = now_ns();
    snapshot_bytes = pipeline->snapshot_blob().size();
    out.layer["fleet.snapshot_ms"] = double(now_ns() - s0) / 1e6;
  }
  worms::fleet::PipelineResult result;
  {
    SpanGuard span(ring, "fleet.finish");
    result = pipeline->finish();
  }
  const std::int64_t t_end = now_ns();
  const double cpu_end = cpu_seconds();
  pipeline.reset();

  finish_pass(run, result, timeline, t0, t_end, cpu_end, out);
  std::uint64_t missing = 0;
  out.lag_ms = lag_samples(*run.reference, timeline, removed_ns, missing);
  out.failed += missing;
  if (snapshot) {
    out.layer["fleet.snapshot_bytes_per_host"] =
        double(snapshot_bytes) / double(std::max<std::size_t>(1, result.verdicts.hosts.size()));
  }
  if (!fill.empty()) out.layer["fleet.queue_fill"] = median(fill);
  return out;
}

// ---------------------------------------------------------------------------
// serve_loopback: run_ingest → 127.0.0.1 → ServeNode, alerts to a peer socket
// the benchmark owns, StatsQuery frames from a poller on a fixed schedule.

namespace {

constexpr std::chrono::milliseconds kIoTimeout{5000};
/// The schedule of the repository's status client at its fastest:
/// `wormctl status --watch N` takes N >= 1 second.
constexpr std::chrono::milliseconds kStatusPeriod{1000};

/// When pass `pass` sends its first query: golden-ratio steps through one
/// period, so a run's passes query at phases spread evenly over the stream,
/// as a watcher that knows nothing of the stream would.
std::chrono::milliseconds status_phase(std::uint32_t pass) {
  const double share = std::fmod(double(pass) * 0.6180339887498949, 1.0);
  return std::chrono::milliseconds(std::lround(share * double(kStatusPeriod.count())));
}

/// The alert peer: accepts the node's PeerLink and stamps every host of every
/// Alert frame with the instant the frame was read.
class AlertPeer {
 public:
  AlertPeer(std::uint32_t host_bound) : seen_ns_(host_bound, 0) {
    auto listener = net::TcpListener::bind(net::Endpoint{"127.0.0.1", 0});
    if (!listener) throw std::runtime_error("alert peer: cannot listen on 127.0.0.1");
    listener_ = std::move(*listener);
    thread_ = std::thread(&AlertPeer::run, this);
  }
  ~AlertPeer() { stop_and_join(); }
  AlertPeer(const AlertPeer&) = delete;
  AlertPeer& operator=(const AlertPeer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// After the node's wait(): its link has closed, so the reader sees EOF.
  /// Rethrows the reader's error, if any.
  void join() {
    stop_and_join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

  [[nodiscard]] const std::vector<std::int64_t>& seen_ns() const noexcept { return seen_ns_; }
  [[nodiscard]] std::int64_t first_frame_ns() const noexcept { return first_frame_ns_; }
  [[nodiscard]] const std::vector<std::uint32_t>& first_frame_hosts() const noexcept {
    return first_frame_hosts_;
  }

 private:
  void stop_and_join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  void run() {
    try {
      std::optional<net::TcpStream> stream;
      while (!stream && !stop_.load(std::memory_order_acquire)) {
        stream = listener_.accept(std::chrono::milliseconds(20));
      }
      if (!stream) return;
      net::FrameDecoder decoder;
      std::vector<char> buffer(64 * 1024);
      for (;;) {
        const auto read = stream->read_some(buffer.data(), buffer.size(), std::chrono::milliseconds(20));
        if (read.status == net::IoStatus::Timeout) {
          if (stop_.load(std::memory_order_acquire)) return;
          continue;
        }
        if (read.status != net::IoStatus::Ok) return;  // EOF: the link finished
        const std::int64_t t = now_ns();
        decoder.append(buffer.data(), read.bytes);
        for (;;) {
          net::FrameDecoder::Result frame = decoder.next();
          if (frame.status == net::FrameDecoder::Status::Error) {
            throw std::runtime_error("alert peer: bad frame: " + frame.detail);
          }
          if (frame.status != net::FrameDecoder::Status::Ready) break;
          if (frame.frame.type != net::FrameType::Alert) continue;  // the link's Hello
          for (const net::AlertEntry& alert : net::decode_alerts(frame.frame.payload)) {
            if (alert.host >= seen_ns_.size()) throw std::runtime_error("alert for an unknown host");
            if (seen_ns_[alert.host] == 0) seen_ns_[alert.host] = t;
            if (first_frame_ns_ == 0 || first_frame_ns_ == t) {
              first_frame_ns_ = t;
              first_frame_hosts_.push_back(alert.host);
            }
          }
        }
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  net::TcpListener listener_;
  std::vector<std::int64_t> seen_ns_;
  std::int64_t first_frame_ns_ = 0;
  std::vector<std::uint32_t> first_frame_hosts_;
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;
  std::thread thread_;
};

/// From the first handed-out block until finish(), sends a StatsQuery every
/// kStatusPeriod, starting `phase` in.  Like `wormctl status`, each query
/// connects, waits for the StatsReport and closes.  Records each round trip
/// (query written → report read) and the reported shard-queue fill.
class StatusPoller {
 public:
  StatusPoller(std::uint16_t port, std::size_t queue_capacity, std::chrono::milliseconds phase,
               TraceRing* ring)
      : port_(port), queue_capacity_(queue_capacity), phase_(phase), ring_(ring) {
    thread_ = std::thread(&StatusPoller::run, this);
  }
  ~StatusPoller() { stop_and_join(); }
  StatusPoller(const StatusPoller&) = delete;
  StatusPoller& operator=(const StatusPoller&) = delete;

  void go() {
    if (go_.exchange(true, std::memory_order_acq_rel)) return;
    std::lock_guard lock(mutex_);
    cv_.notify_all();
  }

  /// Stops querying; rethrows the poller's error.
  void finish() {
    stop_and_join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

  [[nodiscard]] const std::vector<double>& rtt_ms() const noexcept { return rtt_ms_; }
  [[nodiscard]] const std::vector<double>& fill() const noexcept { return fill_; }

 private:
  void stop_and_join() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void run() {
    try {
      std::chrono::steady_clock::time_point due;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || go_.load(std::memory_order_acquire); });
        if (stop_) return;
        due = std::chrono::steady_clock::now() + phase_;
      }
      const std::string query = net::encode_frame(net::FrameType::StatsQuery, "");
      std::vector<char> buffer(64 * 1024);
      for (;; due += kStatusPeriod) {
        {
          std::unique_lock lock(mutex_);
          if (cv_.wait_until(lock, due, [&] { return stop_; })) return;
        }
        SpanGuard span(ring_, "fleet.net.status_query");
        auto stream = net::TcpStream::connect(net::Endpoint{"127.0.0.1", port_}, kIoTimeout);
        if (!stream) throw std::runtime_error("status poller: cannot connect");
        net::FrameDecoder decoder;
        const std::int64_t t0 = now_ns();
        if (!stream->write_all(query, kIoTimeout)) throw std::runtime_error("status poller: write failed");
        std::optional<net::Frame> reply;
        while (!reply) {
          net::FrameDecoder::Result r = decoder.next();
          if (r.status == net::FrameDecoder::Status::Ready) {
            reply = std::move(r.frame);
            break;
          }
          if (r.status == net::FrameDecoder::Status::Error) throw std::runtime_error("status poller: " + r.detail);
          const auto read = stream->read_some(buffer.data(), buffer.size(), kIoTimeout);
          if (read.status != net::IoStatus::Ok) throw std::runtime_error("status poller: no report");
          decoder.append(buffer.data(), read.bytes);
        }
        rtt_ms_.push_back(double(now_ns() - t0) / 1e6);
        if (reply->type != net::FrameType::StatsReport) throw std::runtime_error("status poller: not a report");
        const net::StatsReportPayload report = net::decode_stats_report(reply->payload);
        double depth = 0.0;
        for (const std::uint64_t d : report.queue_depth) depth += double(d);
        if (!report.queue_depth.empty()) {
          fill_.push_back(depth / double(queue_capacity_ * report.queue_depth.size()));
        }
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  std::uint16_t port_;
  std::size_t queue_capacity_;
  std::chrono::milliseconds phase_;
  TraceRing* ring_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mutex_
  std::atomic<bool> go_{false};
  std::vector<double> rtt_ms_;
  std::vector<double> fill_;
  std::exception_ptr error_;
  std::thread thread_;
};

}  // namespace

PassResult run_serve_pass(const RunConfig& run, worms::obs::Tracer* tracer, std::uint32_t pass) {
  PassResult out;
  out.traced = tracer != nullptr;
  TraceRing* ring = tracer != nullptr ? &tracer->ring(0) : nullptr;
  TraceRing* poller_ring = tracer != nullptr ? &tracer->ring(1) : nullptr;
  AlertPeer peer(run.reference->host_bound);
  worms::obs::Registry registry;
  worms::obs::EventLog events(worms::obs::EventLogOptions{.clock = worms::obs::TraceClock::Synthetic});

  net::NodeOptions node_options;
  node_options.listen = net::Endpoint{"127.0.0.1", 0};
  node_options.peers = {net::Endpoint{"127.0.0.1", peer.port()}};
  node_options.expect_clients = 1;
  node_options.pipeline = pipeline_options(run.backend, run.shards);
  node_options.pipeline.metrics = &registry;
  node_options.pipeline.events = &events;

  Timeline timeline;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<net::ServeNode> node;
  {
    SpanGuard span(ring, "fleet.net.node_construct");
    node = std::make_unique<net::ServeNode>(node_options);
  }
  StatusPoller poller(node->port(), node_options.pipeline.queue_capacity, status_phase(pass),
                      poller_ring);

  net::IngestOptions client;
  client.connect = {net::Endpoint{"127.0.0.1", node->port()}};
  client.client_id = 1;
  client.batch_records = 4096;
  unsigned sources_opened = 0;
  const auto make_source = [&]() -> std::unique_ptr<worms::trace::RecordSource> {
    ++sources_opened;
    const std::int64_t open0 = now_ns();
    std::unique_ptr<worms::trace::RecordSource> file;
    {
      SpanGuard span(ring, "trace.open");
      file = std::make_unique<worms::trace::BinarySource>(run.trace_path, /*verify_checksum=*/true);
    }
    out.layer["trace.open_s"] = double(now_ns() - open0) / 1e9;
    return std::make_unique<TimedSource>(std::move(file), timeline, ring, [&] { poller.go(); });
  };
  net::IngestReport ingest;
  {
    SpanGuard span(ring, "fleet.net.run_ingest");
    ingest = net::run_ingest(client, make_source);
  }
  const std::int64_t t_ack = now_ns();
  const double cpu_ack = cpu_seconds();
  poller.finish();
  net::NodeReport report;
  const std::int64_t wait0 = now_ns();
  {
    SpanGuard span(ring, "fleet.net.shutdown");
    report = node->wait();  // the exit condition already holds: the Bye was acked
  }
  out.layer["fleet.net.shutdown_s"] = double(now_ns() - wait0) / 1e9;
  node.reset();
  peer.join();
  if (sources_opened != 1) throw std::runtime_error("ingest reconnected: the stream was resent");

  finish_pass(run, report.result, timeline, t0, t_ack, cpu_ack, out);
  std::uint64_t missing = 0;
  out.lag_ms = lag_samples(*run.reference, timeline, peer.seen_ns(), missing);
  // Alerts attempted: every local removal; a removal whose alert never
  // reached the peer failed, whether the node counted it dropped or not.
  out.attempted += run.reference->triggers.size();
  out.failed += std::max<std::uint64_t>(missing, report.alerts_dropped) +
                report.wire_dead_letters.total();
  if (ingest.records_sent < run.reference->records) {
    out.failed += run.reference->records - ingest.records_sent;
  }

  std::vector<double> first_lags;
  for (const std::uint32_t host : peer.first_frame_hosts()) {
    const auto it = std::lower_bound(run.reference->triggers.begin(), run.reference->triggers.end(),
                                     std::pair<std::uint32_t, std::uint64_t>{host, 0});
    if (it != run.reference->triggers.end() && it->first == host) {
      first_lags.push_back(double(peer.first_frame_ns() - timeline.handed_out_ns(it->second)) / 1e6);
    }
  }
  out.layer["fleet.net.first_alert_ms"] =
      first_lags.empty() ? 0.0 : *std::max_element(first_lags.begin(), first_lags.end());
  out.layer["fleet.net.bytes_per_record"] =
      double(report.bytes_received) / double(std::max<std::uint64_t>(1, report.records_received));
  out.layer["fleet.net.alerts_sent"] = double(report.alerts_sent);
  out.layer["fleet.net.alerts_dropped"] = double(report.alerts_dropped);
  out.layer["fleet.net.wire_dead_letters"] = double(report.wire_dead_letters.total());
  out.status_rtt_ms = poller.rtt_ms();
  out.status_fill = poller.fill();
  out.layer["obs.events_recorded"] = double(events.collect().events.size());
  std::vector<double> scrape_us;
  for (int i = 0; i < 21; ++i) {
    const std::int64_t s0 = now_ns();
    const std::string text = worms::obs::Registry::render_prometheus(registry.snapshot());
    scrape_us.push_back(double(now_ns() - s0) / 1e3);
    if (text.empty()) throw std::runtime_error("empty metrics exposition");
  }
  out.layer["obs.scrape_us"] = median(scrape_us);
  return out;
}

}  // namespace perfbench
