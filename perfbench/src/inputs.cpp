// Seeded input generation, the per-seed cache, and the verdict reference.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "fleet/worm_injector.hpp"
#include "support/rng.hpp"
#include "trace/binary_io.hpp"
#include "trace/synth.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using worms::fleet::CounterBackend;
using worms::trace::ConnRecord;

namespace {

constexpr double kCycle = 30 * worms::sim::kDay;
constexpr double kScanRate = 6.0;  ///< worm scans per second per infected host
/// Seed directories kept besides the current one (each holds a ~0.4 GB trace),
/// as long as the filesystem keeps kMinFreeBytes available: rerunning a set of seeds
/// then generates each seed once.
constexpr std::size_t kCachedSeeds = 10;
constexpr std::uintmax_t kMinFreeBytes = std::uintmax_t{5} << 30;
/// Part of every seed directory's name.  Bump it whenever generate() changes,
/// so no run measures a trace that an older generator left in the cache.
constexpr int kInputVersion = 2;

std::vector<ConnRecord> generate(const Scale& scale, std::uint64_t seed) {
  worms::trace::LblSynthConfig synth;
  synth.hosts = scale.hosts;
  synth.duration = kCycle;
  synth.seed = worms::support::derive_seed(seed, 1);
  std::vector<ConnRecord> records = worms::trace::synthesize_lbl_trace(synth).records;

  // Infection waves of one host each, staggered evenly across the cycle, so
  // every removal falls at its own stream instant and samples its own queue
  // state: the removals of a many-host wave land within a fraction of a
  // millisecond of each other and share one.
  for (std::uint32_t w = 0; w < scale.waves; ++w) {
    worms::fleet::WormInjectConfig worm;
    worm.infected_hosts = 1;
    worm.scan_rate = kScanRate;
    worm.scans_per_host = scale.scans_per_host;
    worm.start = kCycle * (w + 0.5) / scale.waves;
    worm.end = kCycle;
    worm.seed = worms::support::derive_seed(seed, 100 + w);
    worm.host_count = scale.hosts;
    const auto wave = worms::fleet::inject_worm_scans({}, worm).records;
    records.insert(records.end(), wave.begin(), wave.end());
  }
  std::sort(records.begin(), records.end(), worms::trace::stream_order);
  // The pipeline dead-letters a record that repeats its host's previous one;
  // drop such repeats so no operation of any workload fails.
  records.erase(std::unique(records.begin(), records.end(),
                            [](const ConnRecord& a, const ConnRecord& b) {
                              return a.timestamp == b.timestamp &&
                                     a.source_host == b.source_host &&
                                     a.destination == b.destination;
                            }),
                records.end());
  return records;
}

/// Drops the least recently used other seeds beyond the cache's limits.
void prune_cache(const fs::path& root, const fs::path& keep) {
  std::vector<fs::directory_entry> dirs;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory() && entry.path() != keep &&
        entry.path().filename().string().find("-seed") != std::string::npos) {
      dirs.push_back(entry);
    }
  }
  std::sort(dirs.begin(), dirs.end(), [](const auto& a, const auto& b) {
    return a.last_write_time() < b.last_write_time();
  });
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    if (dirs.size() - i <= kCachedSeeds && fs::space(root).available >= kMinFreeBytes) break;
    fs::remove_all(dirs[i].path());
  }
}

Reference compute_reference(const std::string& trace_path, CounterBackend backend,
                            const std::string& csv_path) {
  worms::trace::BinarySource source(trace_path, /*verify_checksum=*/true);
  const worms::fleet::PipelineResult result =
      worms::fleet::ContainmentPipeline::run(pipeline_options(backend, 1), source);
  const worms::fleet::DeadLetterStats& dead = result.metrics.dead_letters;
  if (dead.total() != 0) {
    throw std::runtime_error("reference run dead-lettered records: malformed " +
                             std::to_string(dead.malformed) + ", out of order " +
                             std::to_string(dead.out_of_order) + ", duplicate " +
                             std::to_string(dead.duplicate));
  }
  Reference ref;
  ref.digest = verdict_digest(result.verdicts, csv_path);
  ref.records = result.metrics.records_processed;
  ref.host_bound = result.verdicts.hosts.empty() ? 0 : result.verdicts.hosts.back().host + 1;

  // The trigger of a removal is the host's record stamped with its removal
  // time; timestamps are continuous, so that record is unique.
  std::vector<double> removal_time(ref.host_bound, std::numeric_limits<double>::quiet_NaN());
  std::size_t pending = 0;
  for (const auto& v : result.verdicts.hosts) {
    if (v.removed && !v.pre_contained) {
      removal_time[v.host] = v.removal_time;
      ++pending;
    }
  }
  worms::trace::BinarySource again(trace_path, /*verify_checksum=*/false);
  std::vector<ConnRecord> block(1 << 16);
  std::uint64_t index = 0;
  while (const std::size_t got = again.next_batch(block)) {
    for (std::size_t i = 0; i < got; ++i, ++index) {
      const ConnRecord& r = block[i];
      if (r.source_host < ref.host_bound && r.timestamp == removal_time[r.source_host]) {
        ref.triggers.emplace_back(r.source_host, index);
        removal_time[r.source_host] = std::numeric_limits<double>::quiet_NaN();
        --pending;
      }
    }
  }
  if (pending != 0) throw std::runtime_error("a removal has no trigger record in the trace");
  std::sort(ref.triggers.begin(), ref.triggers.end());
  return ref;
}

void save_reference(const fs::path& path, const Reference& ref) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    out << ref.digest << ' ' << ref.records << ' ' << ref.host_bound << ' ' << ref.triggers.size()
        << '\n';
    for (const auto& [host, index] : ref.triggers) out << host << ' ' << index << '\n';
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
}

Reference load_reference(const fs::path& path) {
  std::ifstream in(path);
  Reference ref;
  std::size_t triggers = 0;
  in >> ref.digest >> ref.records >> ref.host_bound >> triggers;
  ref.triggers.resize(triggers);
  for (auto& [host, index] : ref.triggers) in >> host >> index;
  if (!in) throw std::runtime_error("corrupt cached reference " + path.string());
  return ref;
}

}  // namespace

Scale scale_named(const std::string& name) {
  // full: ~100k hosts (per-host state far beyond L2; the host table passes the
  // 2^15-slot prefetch threshold) and 1,088 infection waves of one host, so a
  // pass yields >= 1000 removals.  tiny: the self-test's shape.
  if (name == "full") return {"full", 100'000, 1'088, 6'000};
  if (name == "tiny") return {"tiny", 3'000, 24, 6'000};
  throw std::invalid_argument("unknown scale '" + name + "' (full or tiny)");
}

worms::fleet::PipelineOptions pipeline_options(CounterBackend backend, unsigned shards) {
  worms::fleet::PipelineOptions options;
  options.policy.scan_limit = 5'000;
  options.policy.cycle_length = kCycle;
  options.policy.check_fraction = 0.5;
  options.backend = backend;
  options.shards = shards;
  return options;
}

std::uint64_t verdict_digest(const worms::fleet::ContainmentVerdicts& verdicts,
                             const std::string& csv_path) {
  worms::fleet::write_verdicts_csv(csv_path, verdicts);
  std::ifstream in(csv_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return worms::trace::wtrace_checksum(bytes.data(), bytes.size());
}

Inputs prepare_inputs(const std::string& data_root, const Scale& scale, std::uint64_t seed,
                      CounterBackend backend) {
  const fs::path dir = fs::path(data_root) / (scale.name + "-v" + std::to_string(kInputVersion) +
                                              "-seed" + std::to_string(seed));
  fs::create_directories(dir);
  Inputs inputs;
  inputs.dir = dir.string();
  inputs.trace_path = (dir / "trace.wtrace").string();
  if (!fs::exists(inputs.trace_path)) {
    const std::int64_t t0 = now_ns();
    prune_cache(data_root, dir);
    const std::string tmp = inputs.trace_path + ".tmp";
    worms::trace::write_wtrace_file(tmp, generate(scale, seed));
    const std::int64_t t1 = now_ns();
    // Write the file back now, during set-up, not under the measured passes.
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) throw std::runtime_error("cannot sync " + tmp);
    ::close(fd);
    fs::rename(tmp, inputs.trace_path);
    inputs.generate_s = double(t1 - t0) / 1e9;
    inputs.sync_s = double(now_ns() - t1) / 1e9;
  }
  fs::last_write_time(dir, fs::file_time_type::clock::now());

  const fs::path ref_path = dir / (std::string("reference-") + worms::fleet::to_string(backend));
  if (fs::exists(ref_path)) {
    inputs.reference = load_reference(ref_path);
  } else {
    const std::int64_t t0 = now_ns();
    inputs.reference = compute_reference(inputs.trace_path, backend, (dir / "reference.csv").string());
    save_reference(ref_path, inputs.reference);
    inputs.reference_s = double(now_ns() - t0) / 1e9;
  }
  return inputs;
}

}  // namespace perfbench
