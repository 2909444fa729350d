// perfbench: the repo benchmark's entry point (see ../README.md).
//
//   perfbench --workload contain_exact|contain_compact|serve_loopback
//             --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--data DIR] [--corrupt-reference]
//
// Prints one line per metric (name, value, unit), then, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}.  A pass whose verdicts differ from the seed's reference fails
// the run: exit code 3 and no result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench.hpp"
#include "obs/trace_export.hpp"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"records_per_s", "records/s"},
    {"cpu_ns_per_record", "ns"},
    {"verdict_lag_p50_ms", "ms"},
    {"verdict_lag_p99_ms", "ms"},
    {"counter_bytes_per_host", "B"},
};

constexpr Metric kPerLayer[] = {
    {"trace.open_s", "s"},
    {"trace.next_batch_ns_per_record", "ns"},
    {"fleet.feed_ns_per_record", "ns"},
    {"fleet.queue_fill", "ratio"},
    {"fleet.finish_s", "s"},
    {"fleet.suppressed_share", "ratio"},
    {"fleet.shed_share", "ratio"},
    {"fleet.removals", "count"},
    {"fleet.snapshot_ms", "ms"},
    {"fleet.snapshot_bytes_per_host", "B"},
    {"fleet.host_table_ns_per_record", "ns"},
    {"fleet.counter.exact_ns_per_add", "ns"},
    {"fleet.counter.compact_ns_per_add", "ns"},
    {"core.policy_ns_per_scan", "ns"},
    {"fleet.shard_replay_ns_per_record", "ns"},
    {"fleet.attributed_share", "ratio"},
    {"fleet.net.encode_ns_per_record", "ns"},
    {"fleet.net.decode_ns_per_record", "ns"},
    {"fleet.net.socket_ns_per_record", "ns"},
    {"fleet.net.queue_hop_ns_per_batch", "ns"},
    {"fleet.net.client_ns_per_record", "ns"},
    {"fleet.net.bytes_per_record", "B"},
    {"fleet.net.alerts_sent", "count"},
    {"fleet.net.first_alert_ms", "ms"},
    {"fleet.net.status_rtt_p50_ms", "ms"},
    {"fleet.net.status_rtt_p90_ms", "ms"},
    {"fleet.net.shutdown_s", "s"},
    {"obs.events_recorded", "count"},
    {"obs.event_emit_ns", "ns"},
    {"obs.scrape_us", "us"},
    {"bench.trace_overhead_share", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scale = "full";
  std::string data = ".bench_build/data";
  bool corrupt_reference = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload contain_exact|contain_compact|"
               "serve_loopback --seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--data DIR] [--corrupt-reference]\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.scale = value;
    } else if (flag == "--data") {
      args.data = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!have_seed) usage("--seed needs a whole number");
  if (!have_seconds) usage("--seconds needs a positive number");
  return args;
}

/// Why a per-layer metric has no measurement on a workload.
const char* absent_reason(Workload workload, std::string_view name) {
  const bool serve = workload == Workload::ServeLoopback;
  if (!serve && (name.starts_with("fleet.net.") || name.starts_with("obs."))) {
    return "no wire or observability layer on this workload";
  }
  if (name == "fleet.counter.exact_ns_per_add") return "compact backend on this workload";
  if (name == "fleet.counter.compact_ns_per_add") return "exact backend on this workload";
  if (serve && (name.starts_with("fleet.net.status_rtt") || name == "fleet.queue_fill")) {
    return "no status query fell inside a pass";
  }
  if (serve) return "the pipeline runs inside the node on this workload";
  return "not measured";
}

void print_metric(const char* name, double value, const char* unit, const char* note = nullptr) {
  if (note != nullptr) {
    std::printf("  %-34s %-14.6g %-10s (absent: %s)\n", name, value, unit, note);
  } else {
    std::printf("  %-34s %-14.6g %s\n", name, value, unit);
  }
}

struct Emitted {
  std::string name;
  double value;
  const char* unit;
};

/// The result line.  Values print with all their digits.
void print_result(std::uint64_t attempted, std::uint64_t failed, const std::vector<Emitted>& metrics) {
  std::string line = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double records_per_s(const PassResult& p) { return double(p.records) / p.window_s; }

/// Ring room for one traced pass: a begin and an end for every pull and every
/// status sample, with blocks of at least 1024 records, plus the outer spans.
std::size_t trace_buffer_events(std::uint64_t records) { return 4 * (records / 1024 + 64); }

/// Layer numbers from one traced pass's spans.  A span's self time is its
/// total minus the spans nested in it on the same thread.
void add_span_layers(const worms::obs::TraceCollection& trace, bool serve, PassResult& pass) {
  if (trace.dropped != 0) throw std::logic_error("the trace ring overwrote spans of a pass");
  const worms::obs::TraceSummary summary = worms::obs::summarize_trace(trace);
  const auto total_ns = [&](const char* name) {
    const worms::obs::SpanStats* span = summary.find_span(name);
    return span == nullptr ? 0.0 : span->total_seconds * 1e9;
  };
  const double records = double(pass.records);
  pass.layer["trace.next_batch_ns_per_record"] = total_ns("trace.next_batch") / records;
  if (serve) {
    // run_ingest opens the source and pulls every block on the calling thread.
    pass.layer["fleet.net.client_ns_per_record"] =
        (total_ns("fleet.net.run_ingest") - total_ns("trace.open") - total_ns("trace.next_batch")) /
        records;
  } else {
    // feed() pulls every block, and the status sample runs after each pull.
    pass.layer["fleet.feed_ns_per_record"] =
        (total_ns("fleet.feed") - total_ns("trace.next_batch") - total_ns("fleet.status")) / records;
    pass.layer["fleet.finish_s"] = total_ns("fleet.finish") / 1e9;
  }
}

template <typename Fn>
double median_of(const std::vector<PassResult>& passes, Fn&& value) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(value(p));
  return median(std::move(v));
}

template <typename Fn>
double mean_of(const std::vector<PassResult>& passes, Fn&& value) {
  double sum = 0.0;
  for (const PassResult& p : passes) sum += value(p);
  return sum / double(passes.size());
}

int run(const Args& args) {
  Workload workload;
  worms::fleet::CounterBackend backend = worms::fleet::CounterBackend::Exact;
  if (args.workload == "contain_exact") {
    workload = Workload::ContainExact;
  } else if (args.workload == "contain_compact") {
    workload = Workload::ContainCompact;
    backend = worms::fleet::CounterBackend::Compact;
  } else if (args.workload == "serve_loopback") {
    workload = Workload::ServeLoopback;
  } else {
    usage("unknown workload '" + args.workload + "'");
  }
  const bool serve = workload == Workload::ServeLoopback;

  // Set-up, untimed: seeded inputs and the reference verdict digest.
  Inputs inputs = prepare_inputs(args.data, scale_named(args.scale), args.seed, backend);
  if (args.corrupt_reference) inputs.reference.digest ^= 1;
  RunConfig run;
  run.workload = workload;
  run.backend = backend;
  run.trace_path = inputs.trace_path;
  run.scratch_dir = inputs.dir;
  run.reference = &inputs.reference;

  std::vector<PassResult> passes;
  const auto check = [&](const PassResult& p) {
    if (p.digest == inputs.reference.digest) return true;
    std::fprintf(stderr,
                 "perfbench: %s pass %zu: verdict digest %016llx != reference %016llx\n",
                 args.workload.c_str(), passes.size() + 1, static_cast<unsigned long long>(p.digest),
                 static_cast<unsigned long long>(inputs.reference.digest));
    return false;
  };
  // One warm-up pass (checked, not measured): the first pass of a process
  // pays page faults and lazy set-up that later passes do not.
  const PassResult warm_up = serve ? run_serve_pass(run, nullptr, 0)
                                   : run_contain_pass(run, nullptr, /*snapshot=*/false);
  if (!check(warm_up)) return 3;
  // Measure for the requested time; a traced run alternates traced and
  // untraced passes so the tracing overhead is measured in the same run.
  worms::obs::TraceCollection last_trace;  // written out at the end
  const std::int64_t start = now_ns();
  do {
    std::unique_ptr<worms::obs::Tracer> tracer;
    if (args.trace && passes.size() % 2 == 0) {
      tracer = std::make_unique<worms::obs::Tracer>(
          worms::obs::TracerOptions{.buffer_events = trace_buffer_events(inputs.reference.records)});
    }
    const auto ordinal = static_cast<std::uint32_t>(passes.size() + 1);
    PassResult pass = serve ? run_serve_pass(run, tracer.get(), ordinal)
                            : run_contain_pass(run, tracer.get(), /*snapshot=*/false);
    if (!check(pass)) return 3;
    if (tracer != nullptr) {
      last_trace = tracer->collect();
      add_span_layers(last_trace, serve, pass);
    }
    passes.push_back(std::move(pass));
  } while (double(now_ns() - start) / 1e9 < args.seconds || (args.trace && passes.size() < 2));

  std::uint64_t attempted = warm_up.attempted;
  std::uint64_t failed = warm_up.failed;
  std::vector<PassResult> traced;
  std::vector<PassResult> untraced;
  std::uint64_t lag_samples = std::numeric_limits<std::uint64_t>::max();  // fewest in a pass
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    lag_samples = std::min<std::uint64_t>(lag_samples, p.lag_ms.size());
    (p.traced ? traced : untraced).push_back(p);
  }

  std::printf("perfbench %s seed=%llu scale=%s: %zu pass(es) of %llu records, %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.scale.c_str(), passes.size(),
              static_cast<unsigned long long>(inputs.reference.records),
              args.trace ? "traced run (per-layer metrics)" : "untraced (end-to-end metrics)");
  std::printf("  set-up, untimed (0 = cached): trace generated in %.1f s, synced in %.1f s; "
              "reference run in %.1f s\n",
              inputs.generate_s, inputs.sync_s, inputs.reference_s);
  std::printf("  verdicts: every pass matched reference digest %016llx\n",
              static_cast<unsigned long long>(inputs.reference.digest));
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    std::printf("  pass %2zu%s: setup %.4f s, %.4g records/s, %.1f cpu ns/record, lag p50 %.3f "
                "p99 %.3f ms\n",
                i + 1, p.traced ? " (traced)" : "", p.setup_s, records_per_s(p),
                p.cpu_ns_per_record, nearest_rank(p.lag_ms, 0.50), nearest_rank(p.lag_ms, 0.99));
  }

  // End-to-end metrics come from untraced passes only, each the median over
  // them but the lag p50.  The lag percentiles are each pass's own, over its
  // >= 1000 samples.  A pass's p50 sits near one of two levels as the
  // machine's speed drifts, and with it how full the shard queues sit, so the
  // run takes their mean, which follows the mix where the median jumps.  A
  // pass's p99 has outliers instead: pooled, one disturbed pass whose lags
  // all rose (one in ~27 holds ~4% of the samples) would fill the 1% beyond
  // the p99 and set it alone.
  const std::vector<double> e2e = {
      median_of(untraced, [](const PassResult& p) { return p.setup_s; }),
      median_of(untraced, records_per_s),
      median_of(untraced, [](const PassResult& p) { return p.cpu_ns_per_record; }),
      mean_of(untraced, [](const PassResult& p) { return nearest_rank(p.lag_ms, 0.50); }),
      median_of(untraced, [](const PassResult& p) { return nearest_rank(p.lag_ms, 0.99); }),
      median_of(untraced, [](const PassResult& p) { return p.counter_bytes_per_host; }),
  };
  std::vector<Emitted> emitted;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    print_metric(kEndToEnd[i].name, e2e[i], kEndToEnd[i].unit);
    if (!args.trace) emitted.push_back({kEndToEnd[i].name, e2e[i], kEndToEnd[i].unit});
  }
  print_metric("failed_share", attempted ? double(failed) / double(attempted) : 0.0, "ratio");
  std::printf("  (failed_share = failed / attempted of the result line: %llu / %llu; "
              "verdict lag over %zu passes, at least %llu samples a pass)\n",
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              untraced.size(), static_cast<unsigned long long>(lag_samples));

  if (args.trace) {
    std::map<std::string, double> layer;
    // Per-pass layer numbers: median over the traced passes.
    std::map<std::string, std::vector<double>> per_pass;
    for (const PassResult& p : traced) {
      for (const auto& [name, value] : p.layer) per_pass[name].push_back(value);
    }
    for (auto& [name, values] : per_pass) layer[name] = median(std::move(values));

    if (serve) {
      // At one query a second a pass holds a query or none: pool the queries
      // of every measured pass.
      std::vector<double> rtt;
      std::vector<double> fill;
      for (const PassResult& p : passes) {
        rtt.insert(rtt.end(), p.status_rtt_ms.begin(), p.status_rtt_ms.end());
        fill.insert(fill.end(), p.status_fill.begin(), p.status_fill.end());
      }
      std::printf("  status queries answered during the measured passes: %zu\n", rtt.size());
      if (!rtt.empty()) {
        layer["fleet.net.status_rtt_p50_ms"] = nearest_rank(rtt, 0.5);
        layer["fleet.net.status_rtt_p90_ms"] = nearest_rank(rtt, 0.9);
      }
      if (!fill.empty()) layer["fleet.queue_fill"] = median(std::move(fill));
    } else {
      PassResult snap = run_contain_pass(run, nullptr, /*snapshot=*/true);
      if (!check(snap)) return 3;
      attempted += snap.attempted;
      failed += snap.failed;
      layer["fleet.snapshot_ms"] = snap.layer["fleet.snapshot_ms"];
      layer["fleet.snapshot_bytes_per_host"] = snap.layer["fleet.snapshot_bytes_per_host"];
    }
    layer["bench.trace_overhead_share"] =
        1.0 - median_of(traced, records_per_s) / median_of(untraced, records_per_s);
    for (const auto& [name, value] :
         run_ladder(run, median_of(untraced, [](const PassResult& p) { return p.window_s; }))) {
      layer[name] = value;
    }

    std::printf("  per-layer (traced passes: %zu, untraced: %zu)\n", traced.size(), untraced.size());
    for (const Metric& m : kPerLayer) {
      const auto it = layer.find(m.name);
      const bool present = it != layer.end();
      const double value = present ? it->second : 0.0;
      print_metric(m.name, value, m.unit, present ? nullptr : absent_reason(workload, m.name));
      emitted.push_back({m.name, value, m.unit});
    }
    // Failures, not layer metrics: the result line's `failed` counts them.
    for (const char* name : {"fleet.net.alerts_dropped", "fleet.net.wire_dead_letters"}) {
      if (const auto it = layer.find(name); it != layer.end()) print_metric(name, it->second, "count");
    }
    const std::string spans_path = inputs.dir + "/spans-" + args.workload + ".json";
    worms::obs::write_trace_file(spans_path, worms::obs::render_chrome_trace(last_trace));
    std::printf("  spans of the last traced pass written to %s\n", spans_path.c_str());
  }

  for (const Emitted& m : emitted) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 4;
    }
  }
  std::fflush(stdout);
  print_result(attempted, failed, emitted);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
#if defined(__GLIBC__)
  // Keep freed memory in the process.  Every pass builds the per-host state
  // (~250 MB on the exact backend) and frees it; returned to the kernel, it
  // would be faulted and zeroed again by the next pass, kernel work that
  // varies with the machine's memory state.  Measured passes reuse the
  // warm-up pass's pages instead.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_TOP_PAD, 256 << 20);
#endif
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
