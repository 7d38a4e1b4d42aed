// Unit + integration tests: antenna selection, baselines, the
// BreathMonitor facade and the realtime pipeline (including apnea and
// signal-loss events).
#include <gtest/gtest.h>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "core/antenna_selector.hpp"
#include "core/baselines.hpp"
#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "experiments/runner.hpp"
#include "rfid/channel_plan.hpp"
#include "rfid/phase_model.hpp"

namespace tagbreathe::core {
namespace {

// --- antenna selection -------------------------------------------------------

std::vector<TagRead> reads_on_antenna(std::uint8_t antenna, int count,
                                      double rssi, double duration_s) {
  std::vector<TagRead> out;
  for (int i = 0; i < count; ++i) {
    TagRead r;
    r.epc = rfid::Epc96::from_user_tag(1, 1);
    r.antenna_id = antenna;
    r.time_s = duration_s * i / count;
    r.rssi_dbm = rssi;
    out.push_back(r);
  }
  return out;
}

TEST(AntennaSelector, PrefersHigherReadRate) {
  const auto busy = reads_on_antenna(1, 600, -60.0, 10.0);
  const auto quiet = reads_on_antenna(2, 60, -60.0, 10.0);
  std::vector<const std::vector<TagRead>*> streams{&busy, &quiet};
  EXPECT_EQ(select_antenna(streams, 10.0), 1);
  const auto scored = score_antennas(streams, 10.0);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].antenna_id, 1);
  EXPECT_NEAR(scored[0].read_rate_hz, 60.0, 1e-9);
  EXPECT_NEAR(scored[1].read_rate_hz, 6.0, 1e-9);
}

TEST(AntennaSelector, RssiBreaksTies) {
  const auto strong = reads_on_antenna(1, 300, -50.0, 10.0);
  const auto weak = reads_on_antenna(2, 300, -75.0, 10.0);
  std::vector<const std::vector<TagRead>*> streams{&weak, &strong};
  EXPECT_EQ(select_antenna(streams, 10.0), 1);
}

TEST(AntennaSelector, EmptyStreams) {
  std::vector<const std::vector<TagRead>*> none;
  EXPECT_EQ(select_antenna(none, 10.0), 0);
  EXPECT_TRUE(score_antennas(none, 10.0).empty());
}

// --- monitor on synthetic scenarios ----------------------------------------------

experiments::ScenarioConfig default_scenario(std::uint64_t seed) {
  experiments::ScenarioConfig cfg;
  cfg.seed = seed;
  return cfg;
}

TEST(Monitor, EmptyInput) {
  BreathMonitor monitor;
  EXPECT_TRUE(monitor.analyze({}).empty());
}

TEST(Monitor, AnalysisArtefactsAreConsistent) {
  experiments::Scenario scenario(default_scenario(31));
  const auto reads = scenario.run();
  BreathMonitor monitor;
  const auto analyses = monitor.analyze(reads);
  ASSERT_EQ(analyses.size(), 1u);
  const auto& a = analyses[0];
  EXPECT_EQ(a.user_id, 1u);
  EXPECT_EQ(a.streams_used, 3u);  // 3 tags, one antenna
  EXPECT_GT(a.reads_used, 1000u);
  EXPECT_EQ(a.antenna_used, 1);
  EXPECT_DOUBLE_EQ(a.track_rate_hz, 20.0);
  // Breath signal lives on the same grid as the fused track.
  EXPECT_EQ(a.breath.samples.size(), a.fused_track.size());
  // Crossing count consistent with the estimated rate over the window.
  EXPECT_TRUE(a.rate.reliable);
  ASSERT_FALSE(a.rate.instantaneous.empty());
  EXPECT_FALSE(a.antenna_scores.empty());
}

TEST(Monitor, SeparatesConcurrentUsers) {
  experiments::ScenarioConfig cfg = default_scenario(32);
  cfg.users.clear();
  for (int u = 0; u < 3; ++u) {
    experiments::UserSpec spec;
    spec.rate_bpm = 8.0 + 4.0 * u;  // 8, 12, 16 bpm
    cfg.users.push_back(spec);
  }
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();
  BreathMonitor monitor;
  const auto analyses = monitor.analyze(reads);
  ASSERT_EQ(analyses.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_NEAR(analyses[u].rate.rate_bpm, 8.0 + 4.0 * u, 1.0)
        << "user " << u + 1;
  }
}

TEST(Monitor, SingleTagModeUsesBusiestStream) {
  experiments::Scenario scenario(default_scenario(33));
  const auto reads = scenario.run();
  MonitorConfig mc;
  mc.fuse_tags = false;
  BreathMonitor monitor(mc);
  const auto analyses = monitor.analyze(reads);
  ASSERT_EQ(analyses.size(), 1u);
  EXPECT_EQ(analyses[0].streams_used, 1u);
  EXPECT_NEAR(analyses[0].rate.rate_bpm, 10.0, 1.5);
}

// Health scan: the per-user read-time scan merges the time-ordered
// per-tag streams and falls back to a sort when a stream is out of order.
// Both branches must reproduce a plain gather-and-sort reference exactly.
struct HealthRef {
  double last_read_s = -1.0;
  double tail_gap_s = 0.0;
  double max_gap_s = 0.0;
  double coverage = 0.0;
};

HealthRef reference_health(std::span<const TagRead> reads, double t0,
                           double t1, const MonitorConfig& mc) {
  std::vector<double> times;
  for (const TagRead& r : reads)
    if (r.time_s >= t0 && r.time_s <= t1) times.push_back(r.time_s);
  std::sort(times.begin(), times.end());
  HealthRef ref;
  ref.last_read_s = times.back();
  ref.tail_gap_s = t1 - times.back();
  const double lead_gap = times.front() - t0;
  ref.max_gap_s = std::max(lead_gap, ref.tail_gap_s);
  double gap_time = lead_gap > mc.stale_after_s ? lead_gap : 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap = times[i] - times[i - 1];
    ref.max_gap_s = std::max(ref.max_gap_s, gap);
    if (gap > mc.stale_after_s) gap_time += gap;
  }
  if (ref.tail_gap_s > mc.stale_after_s) gap_time += ref.tail_gap_s;
  ref.coverage = std::clamp(1.0 - gap_time / (t1 - t0), 0.0, 1.0);
  return ref;
}

TEST(Monitor, HealthScanMatchesSortedReferenceInAndOutOfOrder) {
  experiments::Scenario scenario(default_scenario(31));
  std::vector<TagRead> reads;
  // Cut a 4.5 s hole so the scan has a dominant interior gap to find.
  for (const TagRead& r : scenario.run())
    if (r.time_s < 12.0 || r.time_s > 16.5) reads.push_back(r);
  const double t0 = 5.0;  // trims reads on both sides of the window
  const double t1 = 24.0;
  BreathMonitor monitor;
  const HealthRef ref = reference_health(reads, t0, t1, monitor.config());
  EXPECT_GT(ref.max_gap_s, 4.0);

  // In order: the three tags' streams interleave in time.
  StreamDemux ordered;
  ordered.add(reads);
  ASSERT_EQ(ordered.streams_for_user(1).size(), 3u);
  const UserAnalysis a = monitor.analyze_user(ordered, 1, t0, t1);

  // Out of order: swap two in-window reads of one tag.
  std::vector<TagRead> shuffled = reads;
  const auto tag = shuffled[100].epc;
  std::size_t first = 0;
  std::size_t second = 0;
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    if (shuffled[i].epc != tag || shuffled[i].time_s < 18.0) continue;
    if (first == 0) {
      first = i;
    } else {
      second = i;
      break;
    }
  }
  ASSERT_GT(second, first);
  std::swap(shuffled[first], shuffled[second]);
  StreamDemux reordered;
  reordered.add(shuffled);
  const UserAnalysis b = monitor.analyze_user(reordered, 1, t0, t1);

  for (const UserAnalysis* x : {&a, &b}) {
    EXPECT_EQ(x->last_read_s, ref.last_read_s);
    EXPECT_EQ(x->tail_gap_s, ref.tail_gap_s);
    EXPECT_EQ(x->max_gap_s, ref.max_gap_s);
    EXPECT_EQ(x->coverage, ref.coverage);
    EXPECT_EQ(x->health, SignalHealth::Stale);  // the 4.5 s hole
  }
}

// --- baselines -----------------------------------------------------------------

TEST(Baselines, RunAndAreWorseThanPhase) {
  experiments::Scenario scenario(default_scenario(34));
  const auto reads = scenario.run();

  BreathMonitor monitor;
  const auto phase = monitor.analyze(reads);
  ASSERT_EQ(phase.size(), 1u);
  const double phase_err = std::abs(phase[0].rate.rate_bpm - 10.0);

  BaselineConfig rssi_cfg;
  rssi_cfg.kind = BaselineKind::Rssi;
  const auto rssi = analyze_baseline(reads, rssi_cfg);
  ASSERT_EQ(rssi.size(), 1u);
  EXPECT_GT(rssi[0].reads_used, 0u);

  BaselineConfig dop_cfg;
  dop_cfg.kind = BaselineKind::Doppler;
  const auto dop = analyze_baseline(reads, dop_cfg);
  ASSERT_EQ(dop.size(), 1u);

  // The paper's characterisation: RSSI is too coarse and Doppler too
  // noisy; phase wins. (Not a tautology: all three see the same reads.)
  const double rssi_err = std::abs(rssi[0].rate_bpm - 10.0);
  const double dop_err = std::abs(dop[0].rate_bpm - 10.0);
  EXPECT_LT(phase_err, 1.0);
  EXPECT_GT(std::min(rssi_err, dop_err), phase_err);
}

TEST(Baselines, KindNamesAndEmptyInput) {
  EXPECT_STREQ(baseline_kind_name(BaselineKind::Rssi), "rssi");
  EXPECT_STREQ(baseline_kind_name(BaselineKind::Doppler), "doppler");
  EXPECT_TRUE(analyze_baseline({}, BaselineConfig{}).empty());
}

// --- realtime pipeline -------------------------------------------------------------

TEST(Pipeline, EmitsRateUpdatesAfterWarmup) {
  experiments::ScenarioConfig cfg = default_scenario(35);
  cfg.duration_s = 60.0;
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();

  std::vector<PipelineEvent> events;
  PipelineConfig pcfg;
  RealtimePipeline pipeline(
      pcfg, [&events](const PipelineEvent& e) { events.push_back(e); });
  for (const auto& r : reads) pipeline.push(r);

  std::size_t updates = 0;
  double last_rate = 0.0;
  for (const auto& e : events) {
    if (e.kind == PipelineEventKind::RateUpdate) {
      ++updates;
      last_rate = e.rate_bpm;
      EXPECT_GE(e.time_s, pcfg.warmup_s - 1.0);
    }
  }
  EXPECT_GT(updates, 30u);  // ~1 per second after warm-up
  EXPECT_NEAR(last_rate, 10.0, 1.5);
  EXPECT_GT(pipeline.latest_size(), 0u);
}

TEST(Pipeline, DetectsApnea) {
  // Breathing stops (breath hold) from t = 40 s for 20 s.
  experiments::ScenarioConfig cfg = default_scenario(36);
  cfg.duration_s = 80.0;
  cfg.users[0].apneas = {{40.0, 20.0}};
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();

  std::vector<PipelineEvent> events;
  RealtimePipeline pipeline(
      PipelineConfig{}, [&events](const PipelineEvent& e) {
        events.push_back(e);
      });
  for (const auto& r : reads) pipeline.push(r);

  bool apnea_seen = false;
  double apnea_time = 0.0;
  for (const auto& e : events) {
    if (e.kind == PipelineEventKind::ApneaAlert && !apnea_seen) {
      apnea_seen = true;
      apnea_time = e.time_s;
    }
  }
  ASSERT_TRUE(apnea_seen);
  // The alert fires during the hold, after the silence threshold.
  EXPECT_GT(apnea_time, 45.0);
  EXPECT_LT(apnea_time, 62.0);
}

TEST(Pipeline, DetectsSignalLossAndRecovery) {
  // Subject turns away (blocked) between 30 s and 45 s: no reads at all.
  experiments::ScenarioConfig cfg = default_scenario(37);
  cfg.duration_s = 30.0;
  experiments::Scenario scenario(cfg);
  auto reads = scenario.run();
  // Synthesize the outage by shifting a second capture by 45 s.
  experiments::ScenarioConfig cfg2 = default_scenario(38);
  cfg2.duration_s = 20.0;
  experiments::Scenario scenario2(cfg2);
  for (auto r : scenario2.run()) {
    r.time_s += 45.0;
    reads.push_back(r);
  }

  std::vector<PipelineEvent> events;
  RealtimePipeline pipeline(
      PipelineConfig{}, [&events](const PipelineEvent& e) {
        events.push_back(e);
      });
  for (const auto& r : reads) pipeline.push(r);

  bool lost = false, recovered = false;
  for (const auto& e : events) {
    if (e.kind == PipelineEventKind::SignalLost) lost = true;
    if (e.kind == PipelineEventKind::SignalRecovered) {
      EXPECT_TRUE(lost);
      recovered = true;
    }
  }
  EXPECT_TRUE(lost);
  EXPECT_TRUE(recovered);
}

TEST(Pipeline, EventNames) {
  EXPECT_STREQ(pipeline_event_name(PipelineEventKind::RateUpdate),
               "rate-update");
  EXPECT_STREQ(pipeline_event_name(PipelineEventKind::ApneaAlert),
               "apnea-alert");
  EXPECT_STREQ(pipeline_event_name(PipelineEventKind::SignalLost),
               "signal-lost");
}

// --- experiments harness -------------------------------------------------------

TEST(Experiments, ScenarioValidation) {
  experiments::ScenarioConfig cfg;
  cfg.users.clear();
  EXPECT_THROW(experiments::Scenario{cfg}, std::invalid_argument);
  cfg = experiments::ScenarioConfig{};
  cfg.tags_per_user = 0;
  EXPECT_THROW(experiments::Scenario{cfg}, std::invalid_argument);
}

TEST(Experiments, TrialProducesPerUserResults) {
  experiments::ScenarioConfig cfg = default_scenario(40);
  cfg.duration_s = 60.0;
  const auto trial = experiments::run_trial(cfg);
  ASSERT_EQ(trial.users.size(), 1u);
  EXPECT_DOUBLE_EQ(trial.users[0].true_bpm, 10.0);
  EXPECT_GT(trial.users[0].accuracy, 0.9);
  EXPECT_GT(trial.read_rate_hz, 30.0);
}

TEST(Experiments, TrialsAreDeterministicPerSeed) {
  experiments::ScenarioConfig cfg = default_scenario(41);
  cfg.duration_s = 30.0;
  const auto a = experiments::run_trial(cfg);
  const auto b = experiments::run_trial(cfg);
  ASSERT_EQ(a.users.size(), b.users.size());
  EXPECT_DOUBLE_EQ(a.users[0].estimated_bpm, b.users[0].estimated_bpm);
  EXPECT_EQ(a.total_reads, b.total_reads);
}

TEST(Experiments, AggregateCombinesTrials) {
  experiments::ScenarioConfig cfg = default_scenario(42);
  cfg.duration_s = 30.0;
  const auto agg = experiments::run_trials(cfg, 3);
  EXPECT_EQ(agg.trials, 3u);
  EXPECT_EQ(agg.accuracy.count(), 3u);
  EXPECT_GT(agg.accuracy.mean(), 0.8);
}

TEST(Experiments, ContendingTagsAreNotUsers) {
  experiments::ScenarioConfig cfg = default_scenario(43);
  cfg.duration_s = 30.0;
  cfg.contending_tags = 10;
  const auto trial = experiments::run_trial(cfg);
  EXPECT_EQ(trial.users.size(), 1u);  // item tags excluded from results
  EXPECT_GT(trial.read_rate_hz, trial.monitor_read_rate_hz);
}

}  // namespace
}  // namespace tagbreathe::core
