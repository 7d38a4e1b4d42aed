// ward_bench: runs one ward benchmark workload and prints its result.
//
//   ward_bench --workload <ward_table1|ward_dense|ward_failover>
//              --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   ward_bench --selftest [--out <dir>]
//
// --trace 0 prints the end-to-end metrics of an untraced, paced pass;
// --trace 1 prints the per-layer metrics of a traced pass on the same
// seed. Every run checks its own outputs (gates.cpp) and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}.
// A violated gate prints correct=false and exits 1.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "signal/simd/dispatch.hpp"
#include "ward.hpp"

namespace wardbench {
namespace {

namespace fs = std::filesystem;

/// Set-up samples taken before the timed pass, after it and after the
/// replay: spread over the run, so one stretch of a noisy neighbour
/// cannot set the median.
constexpr std::size_t kSetupSamplesPerBatch = 7;
constexpr std::size_t kMinSteadyTicks = 100;
/// Share of the median tick's CPU that the re-run stage times plus the
/// fleet's own pump time must account for (README: attribution).
constexpr double kAttributedMin = 0.4;
constexpr double kAttributedMax = 1.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int trace = 0;
  std::string out = ".bench_build/wardbench/out";
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ward_bench: %s\nusage: ward_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] | --selftest\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
      have_seconds = true;
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--out") {
      a.out = value();
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.selftest) return a;
  if (a.workload.empty() || !have_seconds || !(a.seconds > 0.0))
    usage("--workload and a positive --seconds are required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// Refuses sanitizer, coverage and unoptimised builds: their figures
/// say nothing about the program's speed.
std::string provenance_or_die() {
  const std::string build = WARDBENCH_BUILD_TYPE;
  const std::string flags = WARDBENCH_CXX_FLAGS;
  std::string why;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
  why = "unoptimised build";
#endif
  if (build != "Release" && build != "RelWithDebInfo")
    why = "build type '" + build + "'";
  for (const char* bad : {"--coverage", "-fprofile-arcs", "-fsanitize", "-O0"})
    if (flags.find(bad) != std::string::npos) why = std::string("flag ") + bad;
  if (!why.empty()) {
    std::fprintf(stderr, "ward_bench: refusing to report from a %s\n",
                 why.c_str());
    std::exit(3);
  }
  const char* force = std::getenv("TAGBREATHE_FORCE_SCALAR");
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"dsp_simd_level\": "
      "\"%s\", \"TAGBREATHE_FORCE_SCALAR\": \"%s\", \"nproc\": %ld, "
      "\"speed_factor\": %.3f}",
      build.c_str(), WARDBENCH_COMPILER,
      tagbreathe::signal::simd::simd_level_name(
          tagbreathe::signal::simd::active_level()),
      force == nullptr ? "" : force, sysconf(_SC_NPROCESSORS_ONLN), kSpeed);
  return buf;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Share of the expected RateUpdates (one per roster user per tick after
/// warm-up) that arrived, counting the user-ticks a false apnea state
/// kept out of the operations as missing.
double update_coverage(const PassResult& r) {
  const std::size_t expected = r.ops_attempted + r.false_apnea_ticks;
  return expected == 0 ? 0.0
                       : static_cast<double>(r.updates_present) /
                             static_cast<double>(expected);
}

double users_per_core(const Plan& plan, const PassResult& r) {
  const double cpu = median(r.cpu_per_period_s);
  return cpu > 0.0 ? static_cast<double>(plan.roster.size()) / cpu : 0.0;
}

void check_pass(const Plan& plan, const PassResult& r, bool paced,
                std::vector<std::string>& v) {
  gate_offered(plan, r, v);
  gate_conservation(r, v);
  gate_bus(r, v);
  gate_journal(plan, r, v);
  gate_event_stream(plan, r.op_ticks, r.events, v);
  gate_false_apnea(r, v);
  if (paced) gate_lag(percentile(r.lag_ms, 0.9), v);
}

/// Writes the traced pass's spans (one per line) and prints each span
/// name's total self time: its duration minus its children's.
void write_spans(const std::string& path, const PassResult& r) {
  std::vector<double> child(r.spans.size(), 0.0);
  for (const Span& s : r.spans)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, std::pair<double, std::size_t>> self;
  FILE* f = std::fopen(path.c_str(), "w");
  const double origin = r.spans.empty() ? 0.0 : r.spans.front().start_s;
  if (f != nullptr)
    std::fprintf(f, "id\tparent\tname\tstart_us\tend_us\tself_us\tdetail\n");
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    const double self_s = s.end_s - s.start_s - child[i];
    auto& acc = self[r.span_names[s.name]];
    acc.first += self_s;
    ++acc.second;
    if (f != nullptr)
      std::fprintf(f, "%zu\t%d\t%s\t%.3f\t%.3f\t%.3f\t%llu\n", i, s.parent,
                   r.span_names[s.name].c_str(), (s.start_s - origin) * 1e6,
                   (s.end_s - origin) * 1e6, self_s * 1e6,
                   static_cast<unsigned long long>(s.detail));
  }
  if (f != nullptr) std::fclose(f);
  std::fprintf(stderr, "spans: %zu written to %s\n", r.spans.size(), path.c_str());
  for (const auto& [name, acc] : self)
    std::fprintf(stderr, "  self %-18s %10.3f ms over %zu spans\n", name.c_str(),
                 acc.first * 1e3, acc.second);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  const WorkloadSpec spec = workload(a.workload);
  const std::string provenance = provenance_or_die();
  const auto ticks = static_cast<std::size_t>(std::floor(a.seconds * kSpeed));
  if (ticks < kMinSteadyTicks) {
    std::fprintf(stderr,
                 "ward_bench: --seconds %.3g gives %zu steady ticks at speed "
                 "%.3g; at least %zu are needed\n",
                 a.seconds, ticks, kSpeed, kMinSteadyTicks);
    return 2;
  }
  fs::create_directories(a.out);
  const std::string tag =
      a.workload + "-s" + std::to_string(a.seed) + "-p" + std::to_string(getpid());

  const double gen_t0 = wall_now();
  const Plan plan = make_plan(spec, a.seed, ticks);
  std::fprintf(stderr,
               "%s seed %llu: %zu users, %zu readers, %zu deliveries (%zu "
               "overlap copies, %zu item reads), %zu steady ticks, gen %.2f s\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               plan.roster.size(), spec.readers, plan.deliveries.size(),
               plan.duplicate_deliveries, plan.item_reads, ticks,
               wall_now() - gen_t0);

  PassOptions base;
  base.shard_threads = spec.shard_threads;
  base.journal_dir = a.out + "/journal-" + tag;

  std::vector<std::string> v;
  std::vector<double> setup;
  const auto sample_setup = [&] {
    if (a.trace != 0) return;  // set-up is an end-to-end metric only
    PassOptions o = base;
    o.paced = false;
    o.warmup_only = true;
    for (std::size_t i = 0; i < kSetupSamplesPerBatch; ++i)
      setup.push_back(run_pass(plan, o).setup_s);
  };
  sample_setup();
  const PassResult timed = run_pass(plan, base);
  sample_setup();
  check_pass(plan, timed, true, v);
  std::size_t reliable = 0;
  const double eq8 = eq8_accuracy(plan, timed.events, &reliable);
  gate_eq8(eq8, reliable, v);

  std::vector<Metric> m;
  if (a.trace == 0) {
    // Determinism: a traced, unthrottled replay (on another shard-thread
    // count where the workload is threaded) must log the same events.
    PassOptions o = base;
    o.paced = false;
    o.traced = true;
    o.shard_threads = 0;
    const PassResult replay = run_pass(plan, o);
    check_pass(plan, replay, false, v);
    gate_hash(timed.event_hash, replay.event_hash,
              "timed vs traced replay, shard threads " +
                  std::to_string(spec.shard_threads) + " vs " +
                  std::to_string(o.shard_threads),
              v);
    sample_setup();
    std::fprintf(stderr, "setup samples (ms):");
    for (const double s : setup) std::fprintf(stderr, " %.2f", s * 1e3);
    std::fprintf(stderr, "\n");
    m = {
        {"setup_s", median(setup), "s"},
        {"users_per_core", users_per_core(plan, timed), "users/core"},
        {"read_to_event_ms_p50", percentile(timed.read_to_event_ms, 0.5), "ms"},
        {"read_to_event_ms_p90", percentile(timed.read_to_event_ms, 0.9), "ms"},
        {"heap_bytes_per_user",
         timed.heap_peak_bytes / static_cast<double>(plan.roster.size()), "B"},
        {"eq8_accuracy", eq8, "ratio"},
        {"reliable_updates", static_cast<double>(reliable), "count"},
        {"update_coverage", update_coverage(timed), "ratio"},
    };
  } else {
    PassOptions o = base;
    o.traced = true;
    const PassResult t = run_pass(plan, o);
    check_pass(plan, t, true, v);
    gate_hash(timed.event_hash, t.event_hash, "timed vs traced", v);
    if (t.stages.rate_mismatches != 0)
      v.push_back("stages: " + std::to_string(t.stages.rate_mismatches) +
                  " re-run windows disagree with the pipeline's own analysis");
    write_spans(a.out + "/spans-" + tag + ".tsv", t);

    const StageTimes& s = t.stages;
    const double upc_timed = users_per_core(plan, timed);
    const double upc_traced = users_per_core(plan, t);
    const double U = static_cast<double>(plan.roster.size());
    const double stage_us = s.antenna_us + s.preprocess_us + s.fusion_us +
                            s.extract_us + s.estimate_us;
    const double tick_cpu = median(t.tick_cpu_ms);
    const double pump_cpu = median(t.pump_cpu_ms);
    const double attributed = (stage_us * U * 1e-3 + pump_cpu) / tick_cpu;
    std::fprintf(stderr,
                 "attribution: tick CPU p50 %.3f ms; stages %.1f us/user x %.0f "
                 "users = %.3f ms + fleet (non-tick pump CPU p50) %.3f ms -> "
                 "%.2f of the tick\n",
                 tick_cpu, stage_us, U, stage_us * U * 1e-3, pump_cpu,
                 attributed);
    if (!(attributed >= kAttributedMin && attributed <= kAttributedMax))
      v.push_back("attribution: stage and fleet self times account for " +
                  std::to_string(attributed) + " of the tick CPU, outside [" +
                  std::to_string(kAttributedMin) + ", " +
                  std::to_string(kAttributedMax) + "]");
    std::fprintf(stderr,
                 "cross-check (us/user): preprocess %.1f vs hist %.1f, fusion "
                 "%.1f vs %.1f, extract %.1f vs %.1f, estimate %.1f vs %.1f\n",
                 s.preprocess_us, s.hist_preprocess_us, s.fusion_us,
                 s.hist_fuse_us, s.extract_us, s.hist_extract_us,
                 s.estimate_us, s.hist_estimate_us);
    const auto per = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    m = {
        {"gen.lag_ms_p90", percentile(t.lag_ms, 0.9), "ms"},
        {"fleet.offer_ns_per_read", per(t.offer_s * 1e9, static_cast<double>(t.offered)), "ns"},
        {"fleet.pump_ms_p50", median(t.pump_ms), "ms"},
        {"fleet.tick_ms_p50", median(t.tick_ms), "ms"},
        {"fleet.tick_ms_p90", percentile(t.tick_ms, 0.9), "ms"},
        {"fleet.shard_skew", t.shard_skew.empty() ? 1.0 : median(t.shard_skew), "ratio"},
        {"fleet.handoffs", static_cast<double>(t.fleet.handoffs), "count"},
        {"fleet.handoff_suppressed", static_cast<double>(t.fleet.handoff_suppressed), "count"},
        {"fleet.users_rebalanced", static_cast<double>(t.fleet.users_rebalanced), "count"},
        {"fleet.journal_reads_replayed", static_cast<double>(t.fleet.journal_reads_replayed), "count"},
        {"ingest.queue_delay_ms_p90", percentile(t.queue_delay_ms, 0.9), "ms"},
        {"ingest.quarantined", static_cast<double>(t.fleet.quarantined), "count"},
        {"ingest.shed", static_cast<double>(t.shed), "count"},
        {"pipeline.analyses_run", static_cast<double>(t.analyses_run), "count"},
        {"pipeline.footprint_bytes_per_user", t.footprint_bytes_per_user, "B"},
        {"demux.reads_per_user_window", s.reads_per_user_window, "count"},
        {"preprocess.us_per_user_tick", s.preprocess_us, "us"},
        {"fusion.us_per_user_tick", s.fusion_us, "us"},
        {"band_search.us_per_user_tick", s.band_search_us, "us"},
        {"filter.us_per_user_tick", s.extract_us - s.band_search_us, "us"},
        {"estimate.us_per_user_tick", s.estimate_us, "us"},
        {"antenna.us_per_user_tick", s.antenna_us, "us"},
        {"journal.append_ns_per_read", t.journal_append_ns, "ns"},
        {"journal.bytes_per_read", t.journal_bytes_per_read, "B"},
        {"journal.commits", static_cast<double>(t.journal_commits), "count"},
        {"bus.publish_ns_per_event", per(t.publish_s * 1e9, static_cast<double>(t.published)), "ns"},
        {"bus.delivered", static_cast<double>(t.bus_delivered), "count"},
        {"bus.queue_depth_max", static_cast<double>(t.bus_queue_max), "count"},
        {"trace.overhead_pct", upc_timed > 0.0 ? (upc_timed - upc_traced) / upc_timed * 100.0 : 0.0, "%"},
    };
  }

  std::fprintf(stderr,
               "cpu per update period (ms): p10 %.3f p25 %.3f p50 %.3f p75 "
               "%.3f p90 %.3f over %zu periods\n",
               percentile(timed.cpu_per_period_s, 0.1) * 1e3,
               percentile(timed.cpu_per_period_s, 0.25) * 1e3,
               percentile(timed.cpu_per_period_s, 0.5) * 1e3,
               percentile(timed.cpu_per_period_s, 0.75) * 1e3,
               percentile(timed.cpu_per_period_s, 0.9) * 1e3,
               timed.cpu_per_period_s.size());
  std::fprintf(stderr, "gen lag (ms): p50 %.3f p90 %.3f max %.3f\n",
               percentile(timed.lag_ms, 0.5), percentile(timed.lag_ms, 0.9),
               percentile(timed.lag_ms, 1.0));
  std::fprintf(stderr,
               "operations: %zu attempted, %zu failed, %zu late; %zu user-ticks "
               "left out (false apnea state on a steady breather)\n",
               timed.ops_attempted, timed.ops_failed, timed.ops_late,
               timed.false_apnea_ticks);
  std::printf("provenance %s\n", provenance.c_str());
  for (const std::string& line : v)
    std::fprintf(stderr, "GATE FAILED: %s\n", line.c_str());
  print_result(v.empty(), timed.ops_attempted, timed.ops_failed, m);
  return v.empty() ? 0 : 1;
}

}  // namespace
}  // namespace wardbench

int main(int argc, char** argv) {
  try {
    const wardbench::Args a = wardbench::parse(argc, argv);
    if (a.selftest) return wardbench::run_selftest(a.out);
    return wardbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ward_bench: %s\n", e.what());
    return 1;
  }
}
