// Self-test: every gate armed on short runs of each workload, and every
// gate shown to fire on a corrupted input (a shifted truth rate, a
// dropped planned read, a reordered event, a diverging event log, a lost
// routed read, users held in a false apnea state).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "ward.hpp"

namespace wardbench {

namespace {

constexpr std::size_t kSelftestTicks = 8;

struct Tally {
  int failures = 0;
  void expect(bool ok, const std::string& workload, const std::string& what,
              const std::vector<std::string>& detail) {
    std::printf("selftest %-14s %-44s %s\n", workload.c_str(), what.c_str(),
                ok ? "ok" : "FAILED");
    if (!ok) {
      ++failures;
      for (const std::string& line : detail)
        std::printf("    %s\n", line.c_str());
    }
  }
};

}  // namespace

int run_selftest(const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  Tally tally;
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload(name);
    const Plan plan = make_plan(spec, 7, kSelftestTicks);
    PassOptions o;
    o.paced = false;
    o.shard_threads = spec.shard_threads;
    o.journal_dir = out_dir + "/selftest-" + name + "-" + std::to_string(getpid());

    // Clean run: every gate passes.
    const PassResult clean = run_pass(plan, o);
    std::vector<std::string> v;
    gate_offered(plan, clean, v);
    gate_conservation(clean, v);
    gate_bus(clean, v);
    gate_journal(plan, clean, v);
    gate_event_stream(plan, clean.op_ticks, clean.events, v);
    gate_false_apnea(clean, v);
    std::size_t reliable = 0;
    const double eq8 = eq8_accuracy(plan, clean.events, &reliable);
    gate_eq8(eq8, reliable, v);
    PassOptions traced = o;
    traced.traced = true;
    traced.shard_threads = 0;
    const PassResult replay = run_pass(plan, traced);
    gate_hash(clean.event_hash, replay.event_hash, "clean vs traced", v);
    if (replay.stages.rate_mismatches != 0)
      v.push_back("stage re-run disagrees with the pipeline");
    tally.expect(v.empty() && clean.ops_failed == 0, name,
                 "clean run passes every gate", v);

    // Shifted truth rate: the Eq. 8 floor must fire.
    Plan shifted = plan;
    for (double& r : shifted.truth_bpm) r *= 1.4;
    v.clear();
    std::size_t n = 0;
    gate_eq8(eq8_accuracy(shifted, clean.events, &n), n, v);
    tally.expect(!v.empty(), name, "shifted truth rate trips the Eq. 8 floor", {});

    // Dropped planned read: the offered-vs-plan count must fire.
    PassOptions drop = o;
    const auto it = std::find_if(
        plan.deliveries.begin() + static_cast<std::ptrdiff_t>(plan.deliveries.size() / 2),
        plan.deliveries.end(), [](const Delivery& d) {
          return d.distinct && d.read.epc.user_id() != kItemUserId;
        });
    drop.drop_delivery = it - plan.deliveries.begin();
    const PassResult dropped = run_pass(plan, drop);
    v.clear();
    gate_offered(plan, dropped, v);
    tally.expect(!v.empty(), name, "dropped planned read trips the offer count", {});

    // Reordered event: the (time, user) order gate must fire, and the
    // event-log hash must move.
    std::vector<EventRecord> reordered = clean.events;
    for (std::size_t i = 1; i < reordered.size(); ++i) {
      if (reordered[i].event.time_s != reordered[i - 1].event.time_s ||
          reordered[i].event.user_id != reordered[i - 1].event.user_id) {
        std::swap(reordered[i], reordered[i - 1]);
        break;
      }
    }
    v.clear();
    gate_event_stream(plan, clean.op_ticks, reordered, v);
    tally.expect(!v.empty(), name, "reordered event trips the order gate", {});
    v.clear();
    gate_hash(clean.event_hash, event_log_hash(reordered), "reordered", v);
    tally.expect(!v.empty(), name, "reordered event moves the log hash", {});

    // Broken conservation: a read that vanished between queue and shard.
    PassResult leaky = clean;
    if (leaky.fleet.routed > 0) --leaky.fleet.routed;
    v.clear();
    gate_conservation(leaky, v);
    gate_journal(plan, leaky, v);
    tally.expect(!v.empty(), name, "lost routed read trips conservation", {});

    // False apnea states beyond the cap: users held without updates.
    PassResult held = clean;
    held.false_apnea_ticks = held.ops_attempted / 50 + 1;
    v.clear();
    gate_false_apnea(held, v);
    tally.expect(!v.empty(), name, "2% of user-ticks held in apnea trips the cap", {});
  }
  std::printf("selftest: %s\n", tally.failures == 0 ? "all checks passed"
                                                    : "FAILED");
  return tally.failures == 0 ? 0 : 1;
}

}  // namespace wardbench
