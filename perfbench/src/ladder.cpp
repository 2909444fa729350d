// The replay ladder: each layer's public class driven single-threaded over the
// workload's own records, so a later change can say which layer moved which
// end-to-end number.  Shard-internal replays walk each shard's records in the
// order its worker sees them; wire replays walk the stream in 4096-record
// frames, the serve workload's frame size.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/scan_limit_policy.hpp"
#include "fleet/bounded_queue.hpp"
#include "fleet/distinct_counter.hpp"
#include "fleet/host_table.hpp"
#include "fleet/net/socket.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/shared_sketch_pool.hpp"
#include "obs/event_log.hpp"

namespace perfbench {

namespace net = worms::fleet::net;
using worms::fleet::CounterBackend;
using worms::fleet::HostTable;
using worms::trace::ConnRecord;

namespace {

constexpr std::size_t kFrameRecords = 4096;
/// The socket replay sends the frames of the stream's first 2^21 records:
/// enough to time the loopback pair, small enough to hold encoded (~50 MB).
constexpr std::uint64_t kSocketRecords = std::uint64_t{1} << 21;

/// One shard's records in stream order, with each record's dense host id.
struct ShardRecords {
  std::vector<ConnRecord> records;
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> hosts;  ///< dense id → host
};

/// Routing as in ContainmentPipeline: (host % kCompactBanks) % shards.
std::vector<ShardRecords> load_shards(const RunConfig& run) {
  std::vector<ShardRecords> shards(run.shards);
  std::vector<HostTable<std::uint32_t>> tables(run.shards);
  worms::trace::BinarySource source(run.trace_path, /*verify_checksum=*/false);
  std::vector<ConnRecord> block(1 << 16);
  while (const std::size_t got = source.next_batch(block)) {
    for (std::size_t i = 0; i < got; ++i) {
      const ConnRecord& r = block[i];
      const unsigned s = worms::fleet::compact_bank_of(r.source_host) % run.shards;
      ShardRecords& shard = shards[s];
      auto [entry, inserted] = tables[s].try_emplace(r.source_host);
      if (inserted) {
        entry->second = static_cast<std::uint32_t>(shard.hosts.size());
        shard.hosts.push_back(r.source_host);
      }
      shard.records.push_back(r);
      shard.ids.push_back(entry->second);
    }
  }
  return shards;
}

/// Walks `records` the way a shard worker does: once its host table passes
/// 2^15 slots, prefetch the slot of the record eight ahead.
template <typename Table, typename Fn>
void walk(const Table& table, const std::vector<ConnRecord>& records, Fn&& fn) {
  constexpr std::size_t kAhead = 8;
  constexpr std::size_t kPrefetchMinSlots = std::size_t{1} << 15;
  const std::size_t n = records.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n && table.capacity() >= kPrefetchMinSlots) {
      table.prefetch(records[i + kAhead].source_host);
    }
    fn(records[i]);
  }
}

worms::core::ScanCountLimitPolicy make_policy(const RunConfig& run) {
  const worms::fleet::PipelineOptions options = pipeline_options(run.backend, run.shards);
  return worms::core::ScanCountLimitPolicy(
      {.scan_limit = options.policy.scan_limit,
       .cycle_length = options.policy.cycle_length,
       .check_fraction = options.policy.check_fraction,
       .counting = worms::core::ScanCountLimitPolicy::CountingMode::Attempts});
}

bool removes(const worms::core::ScanDecision& d) {
  return d.action == worms::core::ScanAction::Remove ||
         d.action == worms::core::ScanAction::AllowAndRemove;
}

/// Keeps a replay's result observable so the loop cannot be folded away.
void require_work(std::uint64_t check, const char* what) {
  if (check == 0) throw std::logic_error(std::string("replay did no work: ") + what);
}

double host_table_ns(const std::vector<ShardRecords>& shards, std::uint64_t records) {
  std::vector<HostTable<std::uint32_t>> tables(shards.size());
  std::uint64_t inserted_total = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    walk(tables[s], shards[s].records, [&](const ConnRecord& r) {
      inserted_total += tables[s].try_emplace(r.source_host).second ? 1 : 0;
    });
  }
  const double ns = double(now_ns() - t0);
  require_work(inserted_total, "host table");
  return ns / double(records);
}

double exact_add_ns(const std::vector<ShardRecords>& shards, std::uint64_t records) {
  double ns = 0.0;
  std::uint64_t added = 0;
  for (const ShardRecords& shard : shards) {
    std::vector<worms::fleet::ExactCounter> counters(shard.hosts.size());
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < shard.records.size(); ++i) {
      added += counters[shard.ids[i]].add(shard.records[i].destination.value());
    }
    ns += double(now_ns() - t0);
  }
  require_work(added, "exact counter");
  return ns / double(records);
}

double compact_add_ns(const RunConfig& run, const std::vector<ShardRecords>& shards,
                      std::uint64_t records) {
  const worms::fleet::CompactPoolConfig geometry = pipeline_options(run.backend, run.shards).compact;
  double ns = 0.0;
  std::uint64_t added = 0;
  for (const ShardRecords& shard : shards) {
    worms::fleet::SharedSketchPool pool(geometry);
    std::vector<std::unique_ptr<worms::fleet::CompactCounter>> counters;
    counters.reserve(shard.hosts.size());
    for (const std::uint32_t host : shard.hosts) {
      counters.push_back(std::make_unique<worms::fleet::CompactCounter>(
          pool.bank_for(worms::fleet::compact_bank_of(host)), host));
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < shard.records.size(); ++i) {
      added += counters[shard.ids[i]]->add(shard.records[i].destination.value());
    }
    ns += double(now_ns() - t0);
  }
  require_work(added, "compact counter");
  return ns / double(records);
}

double policy_ns(const RunConfig& run, const std::vector<ShardRecords>& shards,
                 std::uint64_t records) {
  double ns = 0.0;
  std::uint64_t removals = 0;
  for (const ShardRecords& shard : shards) {
    worms::core::ScanCountLimitPolicy policy = make_policy(run);
    const std::int64_t t0 = now_ns();
    for (const ConnRecord& r : shard.records) {
      removals += removes(policy.on_scan(r.source_host, r.timestamp, r.destination)) ? 1 : 0;
    }
    ns += double(now_ns() - t0);
  }
  require_work(removals, "policy");
  return ns / double(records);
}

/// Host table → counter → policy in one loop, as a shard worker runs them
/// (suppressing a removed host's later records).  Returns ns per record;
/// `removed` receives the hosts the replay removed.
double shard_replay_ns(const RunConfig& run, const std::vector<ShardRecords>& shards,
                       std::uint64_t records, std::vector<std::uint32_t>& removed) {
  struct HostState {
    std::unique_ptr<worms::fleet::DistinctCounter> counter;
    bool removed = false;
  };
  struct ShardState {
    explicit ShardState(const RunConfig& r)
        : pool(pipeline_options(r.backend, r.shards).compact), policy(make_policy(r)) {}
    worms::fleet::SharedSketchPool pool;  ///< before `hosts`: counters point into it
    HostTable<HostState> hosts;
    worms::core::ScanCountLimitPolicy policy;
  };
  const bool exact = run.backend == CounterBackend::Exact;
  std::vector<std::unique_ptr<ShardState>> states;
  double ns = 0.0;
  for (const ShardRecords& shard : shards) {
    states.push_back(std::make_unique<ShardState>(run));
    ShardState& st = *states.back();
    const std::int64_t t0 = now_ns();
    walk(st.hosts, shard.records, [&](const ConnRecord& r) {
      auto [entry, inserted] = st.hosts.try_emplace(r.source_host);
      HostState& h = entry->second;
      if (inserted) {
        if (exact) {
          h.counter = std::make_unique<worms::fleet::ExactCounter>();
        } else {
          h.counter = std::make_unique<worms::fleet::CompactCounter>(
              st.pool.bank_for(worms::fleet::compact_bank_of(r.source_host)), r.source_host);
        }
      }
      if (h.removed) return;
      const std::uint32_t added =
          exact ? static_cast<worms::fleet::ExactCounter&>(*h.counter).add(r.destination.value())
                : h.counter->add(r.destination.value());
      for (std::uint32_t k = 0; k < added; ++k) {
        if (removes(st.policy.on_scan(r.source_host, r.timestamp, r.destination))) {
          h.removed = true;
          removed.push_back(r.source_host);
          break;
        }
      }
    });
    ns += double(now_ns() - t0);
  }
  return ns / double(records);
}

struct WireTimes {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::vector<std::string> socket_frames;  ///< frames of the first kSocketRecords
  std::uint64_t socket_records = 0;
};

WireTimes wire_codec(const RunConfig& run) {
  WireTimes out;
  worms::trace::BinarySource source(run.trace_path, /*verify_checksum=*/false);
  std::vector<ConnRecord> block(kFrameRecords);
  net::FrameDecoder decoder;
  std::uint64_t position = 0;
  while (const std::size_t got = source.next_batch(block)) {
    const std::int64_t t0 = now_ns();
    std::string frame = net::encode_frame(
        net::FrameType::Records,
        net::encode_records(std::span<const ConnRecord>(block.data(), got), 1, position));
    const std::int64_t t1 = now_ns();
    decoder.append(frame);
    net::FrameDecoder::Result result = decoder.next();
    const std::size_t decoded = result.status == net::FrameDecoder::Status::Ready
                                    ? net::decode_records(result.frame.payload).records.size()
                                    : 0;
    const std::int64_t t2 = now_ns();
    if (decoded != got) throw std::runtime_error("wire replay: frame did not round-trip");
    out.encode_ns += double(t1 - t0);
    out.decode_ns += double(t2 - t1);
    position += got;
    if (out.socket_records < kSocketRecords) {
      out.socket_records += got;
      out.socket_frames.push_back(std::move(frame));
    }
  }
  out.encode_ns /= double(position);
  out.decode_ns /= double(position);
  return out;
}

/// TcpStream::write_all on one end of a loopback pair, read_some on the other.
double socket_ns(const WireTimes& wire) {
  auto listener = net::TcpListener::bind(net::Endpoint{"127.0.0.1", 0});
  if (!listener) throw std::runtime_error("socket replay: cannot listen");
  const std::chrono::milliseconds timeout{5000};
  auto sender = net::TcpStream::connect(net::Endpoint{"127.0.0.1", listener->port()}, timeout);
  auto receiver = sender ? listener->accept(timeout) : std::nullopt;
  if (!sender || !receiver) throw std::runtime_error("socket replay: cannot connect");
  std::uint64_t total = 0;
  for (const auto& frame : wire.socket_frames) total += frame.size();

  bool write_ok = true;
  std::vector<char> buffer(64 * 1024);
  std::uint64_t received = 0;
  const std::int64_t t0 = now_ns();
  std::thread writer([&] {
    for (const auto& frame : wire.socket_frames) {
      if (!sender->write_all(frame, timeout)) {
        write_ok = false;
        break;
      }
    }
    sender->shutdown_send();
  });
  while (received < total) {
    const auto read = receiver->read_some(buffer.data(), buffer.size(), timeout);
    if (read.status != net::IoStatus::Ok) break;
    received += read.bytes;
  }
  const std::int64_t t1 = now_ns();
  writer.join();
  if (!write_ok || received != total) throw std::runtime_error("socket replay: short transfer");
  return double(t1 - t0) / double(wire.socket_records);
}

/// BoundedMpscQueue push → pop of 4096-record vectors from one thread to
/// another; buffers return through a second queue so no allocation is timed.
double queue_hop_ns(std::uint64_t records) {
  using Batch = std::vector<ConnRecord>;
  const std::uint64_t batches = std::max<std::uint64_t>(1, records / kFrameRecords);
  worms::fleet::BoundedMpscQueue<Batch> work(64);   // NodeOptions::ingest_queue_capacity
  worms::fleet::BoundedMpscQueue<Batch> spare(128);
  for (int i = 0; i < 72; ++i) spare.push(Batch(kFrameRecords));
  const std::int64_t t0 = now_ns();
  std::thread producer([&] {
    for (std::uint64_t b = 0; b < batches; ++b) work.push(std::move(*spare.pop()));
  });
  for (std::uint64_t b = 0; b < batches; ++b) spare.push(std::move(*work.pop()));
  producer.join();
  return double(now_ns() - t0) / double(batches);
}

double event_emit_ns() {
  constexpr std::uint64_t kEmits = std::uint64_t{1} << 20;
  worms::obs::EventLog log(worms::obs::EventLogOptions{.clock = worms::obs::TraceClock::Synthetic});
  worms::obs::EventWriter& writer = log.writer(0);
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kEmits; ++i) {
    writer.emit(worms::obs::EventType::HostRemoved, i, i & 0xFFFF, 0);
  }
  const double ns = double(now_ns() - t0);
  if (worms::obs::kEnabled && writer.recorded() != kEmits) throw std::logic_error("emit replay lost events");
  return ns / double(kEmits);
}

}  // namespace

std::map<std::string, double> run_ladder(const RunConfig& run, double window_s) {
  std::map<std::string, double> out;
  const std::vector<ShardRecords> shards = load_shards(run);
  std::uint64_t records = 0;
  for (const auto& s : shards) records += s.records.size();

  out["fleet.host_table_ns_per_record"] = host_table_ns(shards, records);
  if (run.backend == CounterBackend::Exact) {
    out["fleet.counter.exact_ns_per_add"] = exact_add_ns(shards, records);
  } else {
    out["fleet.counter.compact_ns_per_add"] = compact_add_ns(run, shards, records);
  }
  out["core.policy_ns_per_scan"] = policy_ns(run, shards, records);

  std::vector<std::uint32_t> removed;
  const double shard_ns = shard_replay_ns(run, shards, records, removed);
  out["fleet.shard_replay_ns_per_record"] = shard_ns;
  out["fleet.attributed_share"] = shard_ns * double(records) / double(run.shards) / (window_s * 1e9);
  std::sort(removed.begin(), removed.end());
  std::vector<std::uint32_t> expected;
  for (const auto& [host, index] : run.reference->triggers) expected.push_back(host);
  if (removed != expected) {
    std::fprintf(stderr, "perfbench: warning: the shard replay removed %zu hosts, the pipeline %zu\n",
                 removed.size(), expected.size());
  }

  if (run.workload == Workload::ServeLoopback) {
    const WireTimes wire = wire_codec(run);
    out["fleet.net.encode_ns_per_record"] = wire.encode_ns;
    out["fleet.net.decode_ns_per_record"] = wire.decode_ns;
    out["fleet.net.socket_ns_per_record"] = socket_ns(wire);
    out["fleet.net.queue_hop_ns_per_batch"] = queue_hop_ns(records);
    out["obs.event_emit_ns"] = event_emit_ns();
  }
  return out;
}

}  // namespace perfbench
