// Shared declarations of the repo benchmark (see ../README.md).
//
// The benchmark drives the repository only through public headers: it
// generates a seeded trace, runs one workload over it for a fixed time, checks
// every pass's verdicts against a reference digest, and reports end-to-end
// metrics (untraced run) or per-layer metrics (traced run, plus single-thread
// replays of the shard-internal and wire layers).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fleet/pipeline.hpp"
#include "obs/trace.hpp"
#include "trace/record_source.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks and order statistics.

/// Steady-clock nanoseconds (comparable across threads).
[[nodiscard]] std::int64_t now_ns() noexcept;
/// Process user+sys CPU seconds (getrusage), all threads.
[[nodiscard]] double cpu_seconds() noexcept;
/// Middle value (mean of the two middle values for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in (0, 1]; 0 if empty.
[[nodiscard]] double nearest_rank(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Inputs.

struct Scale {
  std::string name;               ///< "full" (the benchmark) or "tiny" (self-test)
  std::uint32_t hosts = 0;        ///< LBL-style background population
  std::uint32_t waves = 0;        ///< one-host infection waves staggered across the cycle
  std::uint64_t scans_per_host = 0;
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Scale scale_named(const std::string& name);

/// What every pass of a workload is checked against, computed once per seed
/// and backend by an untimed 1-shard local run.
struct Reference {
  std::uint64_t digest = 0;      ///< checksum of the write_verdicts_csv bytes
  std::uint64_t records = 0;     ///< records in the trace
  std::uint32_t host_bound = 0;  ///< max host id + 1
  /// (host, stream index of the record that triggered its removal).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> triggers;
};

struct Inputs {
  std::string dir;         ///< per-seed cache directory
  std::string trace_path;  ///< the seed's .wtrace
  Reference reference;
  double generate_s = 0.0;   ///< generating + writing the trace (0 when cached)
  double sync_s = 0.0;       ///< fsync of the written trace (0 when cached)
  double reference_s = 0.0;  ///< the reference run (0 when cached)
};

/// Generates the seed's trace unless it is cached under `data_root`, and the
/// reference for `backend` unless that is cached too.  Untimed.
[[nodiscard]] Inputs prepare_inputs(const std::string& data_root, const Scale& scale,
                                    std::uint64_t seed, worms::fleet::CounterBackend backend);

/// Policy M = 5000, f = 0.5, 30-day cycle; `shards` workers.
[[nodiscard]] worms::fleet::PipelineOptions pipeline_options(worms::fleet::CounterBackend backend,
                                                             unsigned shards);

/// Writes the verdicts with write_verdicts_csv and checksums the file bytes.
[[nodiscard]] std::uint64_t verdict_digest(const worms::fleet::ContainmentVerdicts& verdicts,
                                           const std::string& csv_path);

// ---------------------------------------------------------------------------
// Passes.

/// When the source handed out each block: the start of every verdict-lag
/// sample, and (first block) the instant set-up ends and the throughput
/// window begins.
struct Timeline {
  std::int64_t first_ns = 0;
  double first_cpu_s = 0.0;
  std::vector<std::uint64_t> block_end;  ///< records handed out after each block
  std::vector<std::int64_t> block_ns;    ///< when each block was handed out

  [[nodiscard]] std::int64_t handed_out_ns(std::uint64_t index) const;
};

/// RecordSource decorator: the benchmark's window onto the trace layer.
class TimedSource final : public worms::trace::RecordSource {
 public:
  /// `after_block` (may be empty) runs on the pulling thread after every
  /// block — between blocks, where the pipeline's status() may be read.
  /// A non-null `ring` records a span around every pull.
  TimedSource(std::unique_ptr<worms::trace::RecordSource> inner, Timeline& timeline,
              worms::obs::TraceRing* ring, std::function<void()> after_block);

  [[nodiscard]] std::size_t next_batch(std::span<worms::trace::ConnRecord> out) override;
  /// A resume skip is not a hand-out: forwarded without stamping.
  std::uint64_t skip(std::uint64_t n) override { return inner_->skip(n); }

 private:
  std::unique_ptr<worms::trace::RecordSource> inner_;
  Timeline& timeline_;
  worms::obs::TraceRing* ring_;
  std::function<void()> after_block_;
  std::uint64_t handed_out_ = 0;
};

enum class Workload { ContainExact, ContainCompact, ServeLoopback };

struct RunConfig {
  Workload workload = Workload::ContainExact;
  worms::fleet::CounterBackend backend = worms::fleet::CounterBackend::Exact;
  unsigned shards = 2;
  std::string trace_path;
  std::string scratch_dir;  ///< verdict CSVs of the per-pass check
  const Reference* reference = nullptr;
};

struct PassResult {
  bool traced = false;
  std::uint64_t records = 0;
  double setup_s = 0.0;
  double window_s = 0.0;  ///< first block handed out → verdicts (or Bye ack)
  double cpu_ns_per_record = 0.0;
  std::vector<double> lag_ms;  ///< one per removed host seen outside
  double counter_bytes_per_host = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  /// Layer numbers the pass measured directly (see README.md for the map).
  std::map<std::string, double> layer;
  /// serve: each StatsQuery → StatsReport round trip, and the shard-queue
  /// fill its report gave.
  std::vector<double> status_rtt_ms;
  std::vector<double> status_fill;
};

/// A non-null `tracer` makes a traced pass: spans around the benchmark's calls
/// into each layer, on ring 0 (the pulling thread) and ring 1 (the status
/// poller).
[[nodiscard]] PassResult run_contain_pass(const RunConfig& run, worms::obs::Tracer* tracer,
                                          bool snapshot);
/// `pass`, the pass's ordinal in the run, sets the status poller's phase.
[[nodiscard]] PassResult run_serve_pass(const RunConfig& run, worms::obs::Tracer* tracer,
                                        std::uint32_t pass);

// ---------------------------------------------------------------------------
// Replay ladder.

/// Single-thread replays over the workload's own records through the layers'
/// public classes: host table, counter backend, policy, the three in one loop
/// (attributed against `window_s`, the measured pass wall time), and for the
/// serve workload the wire codec, a loopback socket pair and the queue hop.
[[nodiscard]] std::map<std::string, double> run_ladder(const RunConfig& run, double window_s);

}  // namespace perfbench
