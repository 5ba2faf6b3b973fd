// perfbench_driver: runs one benchmark workload in this process and prints
// one JSON document of raw measurements on stdout. perfbench/run.py turns it
// into the benchmark's metrics and gates it.
//
//   perfbench_driver info
//   perfbench_driver setup --workload W --seed S
//   perfbench_driver e2e   --workload W --seed S --seconds T --workers N
//   perfbench_driver trace --workload W --seed S --workers N
//
// setup times one set-up pass in this (fresh) process. e2e runs one untimed
// warm-up round, then repeats the replica set until T seconds have passed.
//
// setup and e2e go through the library's stable entry points only
// (harness::run_experiment, replay::record_base/encode/decode/perturb/search)
// with no tracing. trace runs rounds of the same calls around one round of
// the traced assembly (assembly.h), so their counts can be compared.
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "assembly.h"
#include "harness/experiment.h"
#include "harness/thread_pool.h"
#include "replay/hooks.h"
#include "replay/search.h"
#include "replay/trace_io.h"
#include "sim/simulation.h"
#include "stats/json_writer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace dh = dynreg::harness;
namespace dr = dynreg::replay;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::size_t workers = 4;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver info | (setup|e2e|trace) --workload W --seed S"
               " [--seconds T] [--workers N]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--workers") {
      a.workers = std::stoul(v);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workers == 0) usage("--workers must be >= 1");
  return a;
}

// ---------------------------------------------------------------- rounds --

/// One pass over a replica set: wall time of the whole set, and the sum of
/// each replica's thread CPU time.
struct Round {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<Counts> counts;
};

/// Runs body(i) for i in [0, count) on `workers` threads and times the set.
Round run_round(std::size_t workers, std::size_t count,
                const std::function<Counts(std::size_t)>& body) {
  Round r;
  r.counts.resize(count);
  std::vector<double> cpu(count);
  const Clock::time_point t0 = Clock::now();
  dh::parallel_for(workers, count, [&](std::size_t i) {
    const double c0 = thread_cpu_s();
    r.counts[i] = body(i);
    cpu[i] = thread_cpu_s() - c0;
  });
  r.wall_s = seconds_since(t0);
  for (const double c : cpu) r.cpu_s += c;
  return r;
}

dr::SearchOptions search_options(const Workload& w, std::size_t workers) {
  dr::SearchOptions opt;
  opt.seed = w.search_seed;
  opt.budget = w.variants;
  opt.jobs = workers;
  opt.toggle_loss = false;
  return opt;
}

/// A trace file for `cfg`; the caller adds the recorded base run.
dr::TraceFile base_file(const dh::ExperimentConfig& cfg) {
  dr::TraceFile file;
  file.seeds = {cfg.seed};
  file.config = cfg;
  return file;
}

/// The untraced replica body: the library's stable entry points only.
std::function<Counts(std::size_t)> untraced_body(const Workload& w, const dr::Trace* base,
                                                 std::size_t workers) {
  if (w.kind == Kind::kReplay) {
    const dr::SearchOptions opt = search_options(w, workers);
    return [&w, base, opt](std::size_t i) {
      // The pair replay::search runs per variant.
      const dr::Trace variant = dr::perturb(*base, dr::fold64(opt.seed, i), opt);
      dr::RunHooks hooks;
      hooks.replay = &variant;
      return counts_of(dh::run_experiment(w.replicas[0], hooks));
    };
  }
  return [&w](std::size_t i) { return counts_of(dh::run_experiment(w.replicas[i])); };
}

std::size_t replica_count(const Workload& w) {
  return w.kind == Kind::kReplay ? w.variants : w.replicas.size();
}

// ------------------------------------------------------------------ json --

void write_counts(dynreg::stats::JsonWriter& j, const std::vector<Counts>& all) {
  j.begin_array();
  for (const Counts& c : all) {
    j.begin_object();
    for (const auto& [k, v] : c) {
      j.key(k);
      j.value(v);
    }
    j.end_object();
  }
  j.end_array();
}

void write_doubles(dynreg::stats::JsonWriter& j, const std::vector<double>& v) {
  j.begin_array();
  for (const double x : v) j.value(x);
  j.end_array();
}

void write_round(dynreg::stats::JsonWriter& j, const Round& r) {
  j.begin_object();
  j.key("wall_s");
  j.value(r.wall_s);
  j.key("cpu_s");
  j.value(r.cpu_s);
  j.key("counts");
  write_counts(j, r.counts);
  j.end_object();
}

void write_header(dynreg::stats::JsonWriter& j, const Args& a, const Workload& w) {
  j.key("workload");
  j.value(w.name);
  j.key("seed");
  j.value(a.seed);
  j.key("workers");
  j.value(static_cast<std::uint64_t>(a.workers));
  j.key("replicas");
  j.value(static_cast<std::uint64_t>(replica_count(w)));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ----------------------------------------------------------------- modes --

int info() {
  dynreg::stats::JsonWriter j;
  j.begin_object();
  j.key("compiler");
  j.value(std::string("g++ ") + __VERSION__);
  j.key("flags");
  j.value(PERFBENCH_CXX_FLAGS);
  j.key("lto");
  j.value(PERFBENCH_LTO != 0);
  j.key("audit");
  j.value(dynreg::sim::Simulation::audit_enabled());
  j.key("ndebug");
#ifdef NDEBUG
  j.value(true);
#else
  j.value(false);
#endif
  j.end_object();
  std::cout << j.str() << "\n";
  return 0;
}

/// Set-up time: everything before the first simulated event. For the
/// replica-set workloads that is a horizon-0 pass over the set through
/// run_experiment, one replica after another so that thread start-up is not
/// part of it; for replay_search it is recording, encoding and decoding the
/// base trace (left in `base`).
double setup_once(const Workload& w, dr::Trace& base) {
  const Clock::time_point t0 = Clock::now();
  if (w.kind == Kind::kReplay) {
    dr::TraceFile file = base_file(w.replicas[0]);
    file.traces.push_back(dr::record_base(w.replicas[0]));
    base = std::move(dr::decode(dr::encode(file)).traces.at(0));
    return seconds_since(t0);
  }
  for (dh::ExperimentConfig cfg : w.replicas) {
    cfg.duration = 0;
    (void)dh::run_experiment(cfg);
  }
  return seconds_since(t0);
}

/// One cold set-up pass, as a user's process pays it. run.py runs several
/// such processes and takes the median.
int setup(const Workload& w) {
  dr::Trace base;
  dynreg::stats::JsonWriter j;
  j.begin_object();
  j.key("mode");
  j.value("setup");
  j.key("setup_s");
  j.value(setup_once(w, base));
  j.end_object();
  std::cout << j.str() << "\n";
  return 0;
}

int e2e(const Args& a, const Workload& w) {
  dr::Trace base;
  if (w.kind == Kind::kReplay) (void)setup_once(w, base);

  const auto body = untraced_body(w, &base, a.workers);
  // An untimed warm-up round first: a fresh process pays first-touch page
  // faults that later rounds do not. Only its counts are kept (the timed
  // rounds are compared with them and dropped), so the benchmark's own
  // memory does not grow with the number of rounds and skew peak_rss_mb.
  std::vector<Counts> first_counts =
      std::move(run_round(a.workers, replica_count(w), body).counts);
  std::vector<Round> rounds;
  bool deterministic = true;
  const Clock::time_point t0 = Clock::now();
  do {
    rounds.push_back(run_round(a.workers, replica_count(w), body));
    std::vector<Counts>& counts = rounds.back().counts;
    if (counts != first_counts) deterministic = false;
    counts.clear();
    counts.shrink_to_fit();
  } while (seconds_since(t0) < a.seconds);

  dynreg::stats::JsonWriter j;
  j.begin_object();
  j.key("mode");
  j.value("e2e");
  write_header(j, a, w);
  j.key("rounds");
  j.begin_array();
  for (const Round& r : rounds) {
    j.begin_object();
    j.key("wall_s");
    j.value(r.wall_s);
    j.key("cpu_s");
    j.value(r.cpu_s);
    j.end_object();
  }
  j.end_array();
  j.key("deterministic");
  j.value(deterministic);
  j.key("counts");
  write_counts(j, first_counts);
  if (w.kind == Kind::kReplay) {
    // Cross-check: the library's own search over the same variants.
    const Clock::time_point s0 = Clock::now();
    const dr::SearchResult res =
        dr::search(w.replicas[0], base, search_options(w, a.workers));
    const double search_s = seconds_since(s0);
    j.key("search");
    j.begin_object();
    j.key("wall_s");
    j.value(search_s);
    j.key("executed");
    j.value(static_cast<std::uint64_t>(res.executed));
    j.key("violating");
    j.value(static_cast<std::uint64_t>(res.violating));
    j.key("inverted");
    j.value(static_cast<std::uint64_t>(res.inverted));
    j.end_object();
  }
  j.key("peak_rss_mb");
  j.value(peak_rss_mb());
  j.end_object();
  std::cout << j.str() << "\n";
  return 0;
}

/// Traced replay set-up passes, so record/encode/decode have medians.
constexpr std::size_t kTraceSetupReps = 5;

int trace(const Args& a, const Workload& w) {
  const Clock::time_point epoch = Clock::now();
  std::vector<SpanLog> logs;

  // Replay set-up, traced: record (against a plain run of the same config),
  // encode and decode, several times so their medians can be taken.
  dr::Trace base;
  std::size_t trace_bytes = 0;
  if (w.kind == Kind::kReplay) {
    for (std::size_t k = 0; k < kTraceSetupReps; ++k) {
      SpanLog log(epoch, -1 - static_cast<std::int64_t>(k));
      {
        Scoped root(log, "replica");
        {
          Scoped s(log, "harness.plain_run");
          (void)dh::run_experiment(w.replicas[0], dr::RunHooks{});
        }
        dr::TraceFile file = base_file(w.replicas[0]);
        {
          Scoped s(log, "replay.record");
          file.traces.push_back(dr::record_base(w.replicas[0]));
        }
        std::vector<std::uint8_t> bytes;
        {
          Scoped s(log, "replay.encode");
          bytes = dr::encode(file);
        }
        trace_bytes = bytes.size();
        {
          Scoped s(log, "replay.decode");
          base = std::move(dr::decode(bytes).traces.at(0));
        }
      }
      logs.push_back(std::move(log));
    }
  }

  // Order: untraced warm-up, traced, untraced. The first round of a fresh
  // process pays first-touch costs the later ones do not, so the overhead is
  // taken against the second untraced round; the warm-up's counts must
  // equal it.
  const std::size_t count = replica_count(w);
  const auto untraced_replica = untraced_body(w, &base, a.workers);
  const Round warm_up = run_round(a.workers, count, untraced_replica);

  std::vector<SpanLog> replica_logs;
  replica_logs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    replica_logs.emplace_back(epoch, static_cast<std::int64_t>(i));
  }
  std::vector<LayerCounters> layers(count);
  std::vector<double> skew(count, 0.0);
  const dr::SearchOptions opt = search_options(w, a.workers);
  const Round traced = run_round(a.workers, count, [&](std::size_t i) {
    SpanLog& log = replica_logs[i];
    Scoped root(log, "replica");
    if (w.kind == Kind::kSharded) {
      // run_sharded cannot be entered without copying its body: time the
      // entry point whole, once at horizon 0 (world building) and once in full.
      dh::ExperimentConfig cfg0 = w.replicas[i];
      cfg0.duration = 0;
      {
        Scoped s(log, "shard.build");
        (void)dh::run_experiment(cfg0);
      }
      Scoped s(log, "shard.run");
      const dh::MetricsReport report = dh::run_experiment(w.replicas[i]);
      skew[i] = report.shard_skew;
      return counts_of(report);
    }
    if (w.kind == Kind::kReplay) {
      Scoped variant_span(log, "replay.variant");
      dr::Trace variant;
      {
        Scoped s(log, "replay.perturb");
        variant = dr::perturb(base, dr::fold64(opt.seed, i), opt);
      }
      TracedResult res = run_traced(w.replicas[0], &variant, log);
      layers[i] = res.layers;
      return std::move(res.counts);
    }
    TracedResult res = run_traced(w.replicas[i], nullptr, log);
    layers[i] = res.layers;
    return std::move(res.counts);
  });
  for (SpanLog& log : replica_logs) logs.push_back(std::move(log));
  const Round untraced = run_round(a.workers, count, untraced_replica);

  dynreg::stats::JsonWriter j;
  j.begin_object();
  j.key("mode");
  j.value("trace");
  write_header(j, a, w);
  j.key("deterministic");
  j.value(warm_up.counts == untraced.counts);
  j.key("untraced");
  write_round(j, untraced);
  j.key("traced");
  write_round(j, traced);
  j.key("layers");
  j.begin_array();
  for (const LayerCounters& l : layers) {
    j.begin_object();
    const std::pair<const char*, std::uint64_t> fields[] = {
        {"events", l.events},
        {"net_sent", l.net_sent},
        {"net_delivered", l.net_delivered},
        {"net_dropped_departed", l.net_dropped_departed},
        {"net_dropped_loss", l.net_dropped_loss},
        {"net_dropped_partition", l.net_dropped_partition},
        {"net_transformed", l.net_transformed},
        {"arena_chunks_created", l.arena_chunks_created},
        {"arena_chunks_recycled", l.arena_chunks_recycled},
        {"arena_bytes_reserved", l.arena_bytes_reserved},
    };
    for (const auto& [k, v] : fields) {
      j.key(k);
      j.value(v);
    }
    j.end_object();
  }
  j.end_array();
  j.key("shard_skew");
  write_doubles(j, skew);
  j.key("trace_bytes");
  j.value(static_cast<std::uint64_t>(trace_bytes));
  // Spans as [name, start_ns, end_ns, parent, replica]; parent indexes this
  // array (-1 for a root).
  j.key("spans");
  j.begin_array();
  std::int64_t offset = 0;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      j.begin_array();
      j.value(s.name);
      j.value(s.start_ns);
      j.value(s.end_ns);
      j.value(s.parent < 0 ? std::int64_t{-1} : s.parent + offset);
      j.value(s.replica);
      j.end_array();
    }
    offset += static_cast<std::int64_t>(log.spans().size());
  }
  j.end_array();
  j.key("peak_rss_mb");
  j.value(peak_rss_mb());
  j.end_object();
  std::cout << j.str() << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  if (a.mode == "info") return perfbench::info();
  const auto w = perfbench::make_workload(a.workload, a.seed);
  if (!w) perfbench::usage("unknown workload '" + a.workload + "'");
  try {
    if (a.mode == "setup") return perfbench::setup(*w);
    if (a.mode == "e2e") return perfbench::e2e(a, *w);
    if (a.mode == "trace") return perfbench::trace(a, *w);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  perfbench::usage("unknown mode '" + a.mode + "'");
}
