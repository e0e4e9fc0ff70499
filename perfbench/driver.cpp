// perfbench_driver: partition_file's .adw and .adws paths, run in process
// with every layer timed from outside.
//
//   $ perfbench_driver <graph.adw|graph.adws> <algorithm> <k> <latency_ms>
//                      --output FILE [--checkpoint FILE] [--spread N]
//
// For the same arguments it calls the public entry points partition_file
// calls (BinaryEdgeStream, AdwisePartitioner / make_baseline_partitioner,
// restream_partition, run_with_checkpoints, run_spotlight_sharded) and
// writes the same assignment file byte for byte. Nothing inside src/ is
// changed: time is taken by wrappers around the calls into each layer —
//   - TimedPartitioner wraps the partitioner: the wall of partition() and,
//     through TimedStream, the time inside EdgeStream::next();
//   - a timed AssignmentSink, the durable_sink_bytes hook and the
//     checkpoint hook time the output file and the checkpoint boundaries;
// plus the counters and spans the program already publishes through an
// ObsSink (stream.*, checkpoint.*, the adwise report, window_refill /
// batch_rescore / drain_walk / checkpoint_snapshot spans).
//
// Per-call timers sample a pseudo-random 1/16 of the calls, subtract the
// calibrated cost of a clock read pair and scale by calls / samples, so the
// wrappers stay cheap on the per-edge paths.
//
// stderr carries partition_file's summary lines (replication / imbalance,
// the adwise counter line); the last stdout line is one JSON object of layer
// metrics, with "attribution" naming the metrics whose sum, plus the
// unattributed remainder, is trace.wall_s.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/adwise_partitioner.h"
#include "src/io/adw_shards.h"
#include "src/io/binary_stream.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_sink.h"
#include "src/obs/trace.h"
#include "src/partition/checkpoint_run.h"
#include "src/partition/registry.h"
#include "src/partition/restream.h"
#include "src/partition/spotlight.h"

namespace {

using namespace adwise;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Median cost of two back-to-back clock reads: what a sampled interval
// over-reports.
double clock_pair_ns() {
  std::vector<double> v(4001);
  for (double& x : v) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    x = std::chrono::duration<double, std::nano>(b - a).count();
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

const double kClockPairNs = clock_pair_ns();

// Times a pseudo-random 1/16 of the calls it sees; seconds() scales the
// sampled total to all calls. One instance per thread.
class SampledTimer {
 public:
  template <class F>
  decltype(auto) time(F&& f) {
    ++calls_;
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((lcg_ >> 60) != 0) return f();
    struct Stop {
      SampledTimer& t;
      Clock::time_point start = Clock::now();
      ~Stop() {
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count();
        t.sampled_ns_ += std::max(0.0, ns - kClockPairNs);
        ++t.samples_;
      }
    } stop{*this};
    return f();
  }

  [[nodiscard]] double seconds() const {
    if (samples_ == 0) return 0.0;
    return sampled_ns_ * static_cast<double>(calls_) /
           static_cast<double>(samples_) * 1e-9;
  }

 private:
  std::uint64_t lcg_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t calls_ = 0;
  std::uint64_t samples_ = 0;
  double sampled_ns_ = 0.0;
};

class TimedStream final : public EdgeStream {
 public:
  TimedStream(EdgeStream& inner, SampledTimer& timer)
      : inner_(inner), timer_(timer) {}
  bool next(Edge& out) override {
    return timer_.time([&] { return inner_.next(out); });
  }
  [[nodiscard]] std::size_t size_hint() const override {
    return inner_.size_hint();
  }

 private:
  EdgeStream& inner_;
  SampledTimer& timer_;
};

struct PartitionTimes {
  double wall_s = 0.0;       // inside partition()
  SampledTimer next;         // inside EdgeStream::next(), within partition()
  double ckpt_emit_s = 0.0;  // inside the checkpoint hook, within partition()
};

// Forwards to a partitioner the caller owns (so its report outlives
// restream_partition's wrapper), timing partition() and the stream and
// checkpoint calls it makes.
class TimedPartitioner final : public EdgePartitioner {
 public:
  TimedPartitioner(EdgePartitioner& inner, PartitionTimes& times)
      : inner_(inner), times_(times) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void partition(EdgeStream& stream, PartitionState& state,
                 const AssignmentSink& sink) override {
    TimedStream timed(stream, times_.next);
    const auto start = Clock::now();
    inner_.partition(timed, state, sink);
    times_.wall_s += seconds_between(start, Clock::now());
  }
  bool enable_checkpoints(CheckpointHook hook) override {
    hook.emit = [emit = std::move(hook.emit), &times = times_](
                    std::uint64_t assignments, std::uint64_t consumed,
                    std::span<const std::byte> blob) {
      const auto start = Clock::now();
      emit(assignments, consumed, blob);
      times.ckpt_emit_s += seconds_between(start, Clock::now());
    };
    return inner_.enable_checkpoints(std::move(hook));
  }
  bool restore_algorithm_state(std::span<const std::byte> blob) override {
    return inner_.restore_algorithm_state(blob);
  }

 private:
  EdgePartitioner& inner_;
  PartitionTimes& times_;
};

// Inclusive seconds per span name, summed over every track: a streambuf
// that TraceSession::write_json writes into, parsed one event line at a
// time so the JSON is never held whole.
class SpanTotals final : public std::streambuf {
 public:
  SpanTotals() : buf_(std::size_t{1} << 16) { reset(); }

  [[nodiscard]] double seconds(std::string_view name) const {
    const auto it = totals_.find(std::string(name));
    return it == totals_.end() ? 0.0 : it->second;
  }

 protected:
  int_type overflow(int_type c) override {
    consume();
    if (c != traits_type::eof()) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    consume();
    return 0;
  }

 private:
  void reset() { setp(buf_.data(), buf_.data() + buf_.size()); }

  // Splits the buffered bytes into lines; a trailing partial line waits.
  void consume() {
    const char* s = pbase();
    const char* const end = pptr();
    while (s < end) {
      const auto* nl = static_cast<const char*>(
          std::memchr(s, '\n', static_cast<std::size_t>(end - s)));
      line_.append(s, nl == nullptr ? end : nl);
      if (nl == nullptr) break;
      end_line();
      s = nl + 1;
    }
    reset();
  }

  // {"name":"drain_walk","ph":"B","pid":0,"tid":1,"ts":12.345}
  static std::string_view field(std::string_view line, std::string_view key) {
    const auto at = line.find(key);
    if (at == std::string_view::npos) return {};
    const auto start = at + key.size();
    return line.substr(start, line.find_first_of(",}", start) - start);
  }
  void end_line() {
    const std::string_view line(line_);
    const std::string_view ph = field(line, "\"ph\":");
    if (ph == "\"B\"" || ph == "\"E\"") {
      auto& stack = open_[std::string(field(line, "\"tid\":"))];
      // line_ is NUL-terminated, so strtod stops at the closing brace.
      const double ts_s =
          std::strtod(field(line, "\"ts\":").data(), nullptr) * 1e-6;
      if (ph == "\"B\"") {
        const std::string_view name = field(line, "\"name\":");
        stack.emplace_back(std::string(name.substr(1, name.size() - 2)),
                           ts_s);
      } else if (!stack.empty()) {
        totals_[stack.back().first] += ts_s - stack.back().second;
        stack.pop_back();
      }
    }
    line_.clear();
  }

  std::vector<char> buf_;
  std::string line_;
  std::map<std::string, std::vector<std::pair<std::string, double>>> open_;
  std::map<std::string, double> totals_;
};

// partition_file's make_durable without the fault-injection hook.
std::uint64_t make_durable(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    throw std::runtime_error("failed to flush " + path + ": " +
                             std::strerror(errno));
  }
  const long pos = std::ftell(f);
  if (pos < 0) throw std::runtime_error("ftell on " + path + " failed");
  return static_cast<std::uint64_t>(pos);
}

void print_adwise_counters(const AdwisePartitioner::Report& r) {
  std::fprintf(stderr,
               "adwise counters: assignments=%llu score_computations=%llu "
               "heap_pops=%llu forced_secondary=%llu "
               "secondary_rescans=%llu demotion_sweeps=%llu "
               "event_reassessments=%llu adaptations=%llu "
               "max_window=%llu\n",
               static_cast<unsigned long long>(r.assignments),
               static_cast<unsigned long long>(r.score_computations),
               static_cast<unsigned long long>(r.heap_pops),
               static_cast<unsigned long long>(r.forced_secondary),
               static_cast<unsigned long long>(r.secondary_rescans),
               static_cast<unsigned long long>(r.demotion_sweeps),
               static_cast<unsigned long long>(r.event_reassessments),
               static_cast<unsigned long long>(r.adaptations),
               static_cast<unsigned long long>(r.max_window));
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <graph.adw|graph.adws> <algorithm> <k> "
               "<latency_ms> --output FILE [--checkpoint FILE] "
               "[--spread N]\n",
               argv0);
  std::exit(2);
}

int run(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string output_path;
  std::string checkpoint_path;
  std::uint32_t spread = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--output" || arg == "--checkpoint" || arg == "--spread") {
      if (i + 1 >= argc) usage(argv[0]);
      const std::string value = argv[++i];
      if (arg == "--output") output_path = value;
      if (arg == "--checkpoint") checkpoint_path = value;
      if (arg == "--spread") spread = std::stoul(value);
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 4 || output_path.empty()) usage(argv[0]);
  const std::string path = positional[0];
  const std::string algorithm = positional[1];
  const auto k = static_cast<std::uint32_t>(std::stoul(positional[2]));
  const std::int64_t latency_ms = std::stoll(positional[3]);
  const bool is_adwise = algorithm == "adwise";
  const bool sharded = is_adw_manifest(path);
  if (sharded && !checkpoint_path.empty()) {
    throw std::runtime_error("sharded input cannot be checkpointed");
  }

  obs::MetricsRegistry registry;
  // Room for every span of the default 1M-edge run (~0.7M events on the
  // partitioning thread); the session's default cap would drop the tail.
  obs::TraceSession trace(std::size_t{1} << 21);
  obs::ObsSink obs_sink;
  obs_sink.metrics = &registry;
  obs_sink.trace = &trace;

  AdwiseOptions adwise_options;
  adwise_options.latency_preference_ms = latency_ms;
  adwise_options.obs = &obs_sink;
  const auto make_partitioner =
      [&](std::uint32_t local_k) -> std::unique_ptr<EdgePartitioner> {
    if (is_adwise) return std::make_unique<AdwisePartitioner>(adwise_options);
    auto p = make_baseline_partitioner(algorithm, local_k);
    if (!p) throw std::runtime_error("unknown algorithm " + algorithm);
    return p;
  };

  std::map<std::string, double> m;  // the printed metrics
  const auto wall_start = Clock::now();

  // --- cli: the output file, written as partition_file writes it ----------
  const std::string partial_path = output_path + ".partial";
  std::FILE* out = std::fopen(partial_path.c_str(), "wb");
  if (out == nullptr) throw std::runtime_error("cannot open " + partial_path);
  SampledTimer sink_timer;
  const AssignmentSink sink = [&](const Edge& e, PartitionId p) {
    sink_timer.time([&] {
      std::fprintf(out, "%llu %llu %u\n", static_cast<unsigned long long>(e.u),
                   static_cast<unsigned long long>(e.v), p);
    });
  };
  double sink_fsync_s = 0.0;

  // Partitioners stay owned here so their reports outlive the entry points.
  std::vector<std::unique_ptr<EdgePartitioner>> partitioners;
  std::vector<PartitionTimes> times;
  std::vector<std::string> attribution;
  std::unique_ptr<PartitionState> final_state;
  std::size_t timed_instance = 0;  // whose times the io/core split reports
  double ckpt_emit_s = 0.0;

  if (sharded) {
    // --- spotlight over .adws shards (run_spotlight_sharded) --------------
    auto t = Clock::now();
    const AdwManifest manifest = read_and_validate_adw_manifest(path);
    m["io.open_s"] = seconds_between(t, Clock::now());
    const std::uint32_t z = manifest.num_shards();
    SpotlightOptions sopts;
    sopts.k = k;
    sopts.num_partitioners = z;
    sopts.spread = spread != 0 ? spread : (k % z == 0 ? k / z : k);
    sopts.run_threads = true;
    sopts.obs = &obs_sink;
    partitioners.resize(z);
    times = std::vector<PartitionTimes>(z);
    // Invoked concurrently from instance threads: each touches only slot i.
    const PartitionerFactory factory = [&](std::uint32_t i,
                                           std::uint32_t local_k) {
      partitioners[i] = make_partitioner(local_k);
      return std::make_unique<TimedPartitioner>(*partitioners[i], times[i]);
    };
    t = Clock::now();
    SpotlightResult result = run_spotlight_sharded(
        path, static_cast<VertexId>(manifest.max_vertex_id() + 1), factory,
        sopts);
    const double spot_wall = seconds_between(t, Clock::now());
    // Serial emission after the parallel phase, as in partition_file.
    for (const Assignment& a : result.assignments) sink(a.edge, a.partition);

    const auto& secs = result.instance_seconds;
    timed_instance = static_cast<std::size_t>(
        std::max_element(secs.begin(), secs.end()) - secs.begin());
    double sum = 0.0;
    for (double s : secs) sum += s;
    m["partition.spot_wall_s"] = spot_wall;
    m["partition.spot_max_s"] = secs[timed_instance];
    m["partition.spot_min_s"] = *std::min_element(secs.begin(), secs.end());
    m["partition.spot_speedup"] = sum / spot_wall;
    // Manifest and shard validation, instance start-up and the merge: all
    // of the call outside the slowest instance.
    m["partition.spot_merge_s"] = spot_wall - secs[timed_instance];
    final_state = std::make_unique<PartitionState>(std::move(result.merged));
    attribution = {"io.open_s", "partition.spot_max_s",
                   "partition.spot_merge_s", "cli.sink_s"};
  } else {
    // --- one .adw stream ----------------------------------------------------
    auto t = Clock::now();
    BinaryEdgeStream::Options bopts;
    bopts.obs = &obs_sink;
    BinaryEdgeStream stream(path, bopts);
    m["io.open_s"] = seconds_between(t, Clock::now());
    const auto num_vertices =
        static_cast<VertexId>(stream.header().max_vertex_id + 1);
    partitioners.push_back(make_partitioner(k));
    times = std::vector<PartitionTimes>(1);
    TimedPartitioner timed(*partitioners[0], times[0]);

    if (!checkpoint_path.empty()) {
      // partition_file's checkpointed single pass.
      final_state = std::make_unique<PartitionState>(k, num_vertices);
      CheckpointRunOptions copts;
      copts.checkpoint_path = checkpoint_path;
      copts.async_io = true;
      copts.obs = &obs_sink;
      copts.durable_sink_bytes = [&]() {
        const auto start = Clock::now();
        const std::uint64_t bytes = make_durable(out, partial_path);
        sink_fsync_s += seconds_between(start, Clock::now());
        return bytes;
      };
      std::atomic<std::uint64_t> commits{0};
      copts.on_checkpoint = [&commits](std::uint64_t) { ++commits; };
      (void)run_with_checkpoints(timed, stream, *final_state, sink, copts);
      m["partition.ckpt_count"] = static_cast<double>(commits.load());
      struct stat st {};
      if (::stat(checkpoint_path.c_str(), &st) == 0) {
        m["partition.ckpt_bytes"] = static_cast<double>(st.st_size);
      }
    } else {
      // partition_file's default path: one restream_partition pass.
      RestreamResult result = restream_partition(
          stream, num_vertices, k,
          [&]() -> std::unique_ptr<EdgePartitioner> {
            return std::make_unique<TimedPartitioner>(*partitioners[0],
                                                      times[0]);
          },
          1, sink, &obs_sink);
      final_state =
          std::make_unique<PartitionState>(std::move(result.final_state));
    }
    ckpt_emit_s = times[0].ckpt_emit_s;
    attribution = {"io.open_s",
                   "io.next_s",
                   is_adwise ? "core.self_s" : "partition.self_s",
                   "partition.ckpt_snapshot_s",
                   "cli.sink_s",
                   "cli.sink_fsync_s"};
  }

  auto t = Clock::now();
  make_durable(out, partial_path);
  std::fclose(out);
  if (std::rename(partial_path.c_str(), output_path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + partial_path + ": " +
                             std::strerror(errno));
  }
  const auto wall_end = Clock::now();
  attribution.push_back("cli.finalize_s");
  m["cli.finalize_s"] = seconds_between(t, wall_end);
  m["trace.wall_s"] = seconds_between(wall_start, wall_end);
  m["cli.sink_s"] = sink_timer.seconds();
  m["cli.sink_fsync_s"] = sink_fsync_s;
  struct stat st {};
  if (::stat(output_path.c_str(), &st) == 0) {
    m["cli.output_bytes"] = static_cast<double>(st.st_size);
  }

  // --- io: the stream's own counters ----------------------------------------
  const obs::MetricsSnapshot snap = registry.snapshot();
  namespace n = obs::names;
  m["io.prefetch_wait_s"] = snap.value(n::kStreamPrefetchWaitNs) * 1e-9;
  m["io.pread_s"] = snap.value(n::kStreamPreadNs) * 1e-9;
  m["io.retries"] = snap.value(n::kStreamIoRetries);
  const PartitionTimes& pt = times[timed_instance];
  m["io.next_s"] = pt.next.seconds();

  SpanTotals spans;
  {
    std::ostream json(&spans);
    trace.write_json(json);
    json.flush();
  }

  // --- checkpoints: blocking time on the partitioning thread ----------------
  // ADWISE spans its whole checkpoint boundary (state serialization plus the
  // hook); a single-edge partitioner has only the hook. Both include the
  // sink fsync, which is the cli layer's.
  const double ckpt_blocking =
      std::max(spans.seconds(n::kSpanCheckpointSnapshot), ckpt_emit_s);
  m["partition.ckpt_snapshot_s"] =
      ckpt_blocking > 0.0 ? ckpt_blocking - sink_fsync_s : 0.0;
  m["partition.ckpt_commit_s"] = snap.value(n::kCkptCommitNs) * 1e-9;

  // --- core / partition self time -------------------------------------------
  // partition() wall minus the io, cli and checkpoint time inside it. On
  // sharded input this is the slowest instance, whose sink only buffers.
  double self = pt.wall_s - pt.next.seconds();
  if (!sharded) {
    self -= m["cli.sink_s"] + m["partition.ckpt_snapshot_s"] + sink_fsync_s;
  }
  m[is_adwise ? "core.self_s" : "partition.self_s"] = self;

  if (is_adwise) {
    AdwisePartitioner::Report r;
    std::uint64_t window = 0;
    for (const auto& p : partitioners) {
      const auto& one = static_cast<AdwisePartitioner&>(*p).last_report();
      r.merge_from(one);
      if (!one.window_trace.empty()) {
        window = std::max(window, one.window_trace.back().window);
      }
    }
    m["core.scores_per_assignment"] =
        ratio(r.score_computations, r.assignments);
    m["core.assignments_per_pop"] = ratio(r.assignments, r.heap_pops);
    m["core.forced_secondary_share"] =
        ratio(r.forced_secondary, r.assignments);
    m["core.candidates_per_score"] =
        ratio(r.candidate_partitions, r.score_computations);
    m["core.secondary_rescans"] = static_cast<double>(r.secondary_rescans);
    m["core.demotion_sweeps"] = static_cast<double>(r.demotion_sweeps);
    m["core.max_window"] = static_cast<double>(r.max_window);
    m["core.final_window"] = static_cast<double>(window);
    m["core.adaptations"] = static_cast<double>(r.adaptations);
    m["core.batch_rescore_s"] = spans.seconds(n::kSpanBatchRescore);
    m["core.drain_walk_s"] = spans.seconds(n::kSpanDrainWalk);
    m["core.window_refill_s"] = spans.seconds(n::kSpanWindowRefill);
    if (!checkpoint_path.empty()) print_adwise_counters(r);
  }

  double attributed = 0.0;
  for (const auto& name : attribution) attributed += m[name];
  m["trace.unattributed_share"] =
      (m["trace.wall_s"] - attributed) / m["trace.wall_s"];
  m["trace.dropped_spans"] = static_cast<double>(trace.dropped());

  std::fprintf(stderr, "%s, k=%u, passes=1: replication degree %.4f, "
               "imbalance %.4f\n",
               algorithm.c_str(), k, final_state->replication_degree(),
               final_state->imbalance());
  std::printf("{\"attribution\": [");
  for (std::size_t i = 0; i < attribution.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", attribution[i].c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
