// Per-stage attribution for traced passes.
//
// Tracing inside the program is not available, so the analysis stages
// are timed by re-running their public functions on sampled users'
// exported windows — the exact windows the last update tick analysed —
// in the order BreathMonitor::analyze_user runs them. Two cross-checks
// keep the re-run honest: its rate must equal the shard pipeline's own
// latest analysis bit for bit, and a pipeline bound to an obs hub
// re-analyses the same windows so analysis_stage_seconds{stage} can be
// set beside the re-run's stage times.
#include <algorithm>
#include <cmath>

#include "core/antenna_selector.hpp"
#include "core/breath_extractor.hpp"
#include "core/fusion.hpp"
#include "core/monitor.hpp"
#include "core/phase_preprocess.hpp"
#include "core/pipeline.hpp"
#include "core/rate_estimator.hpp"
#include "obs/observability.hpp"
#include "signal/spectrum.hpp"
#include "ward.hpp"

namespace wardbench {

namespace tb = tagbreathe;

namespace {

constexpr int kRepeats = 5;

double median_of(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double hist_sum_us(tb::obs::Observability& hub, const char* stage) {
  return hub.metrics()
             .histogram("analysis_stage_seconds",
                        tb::obs::default_latency_bounds(), "stage", stage)
             .sum() *
         1e6;
}

}  // namespace

StageTimes rerun_stages(const tb::fleet::ReaderFleet& fleet, const Plan& plan,
                        double t1, std::size_t max_users, SpanRecorder& spans) {
  StageTimes st;
  const tb::core::PipelineConfig pc{};
  const tb::core::MonitorConfig& mc = pc.monitor;
  const double t0 = std::max(0.0, t1 - pc.window_s);
  const std::int32_t root = spans.begin(spans.name("analysis.rerun"));
  const std::uint16_t n_antenna = spans.name("stage.antenna"),
                      n_pre = spans.name("stage.preprocess"),
                      n_fuse = spans.name("stage.fusion"),
                      n_filter = spans.name("stage.filter"),
                      n_band = spans.name("stage.band_search"),
                      n_est = spans.name("stage.estimate");

  // Evenly spaced sample of the roster.
  std::vector<std::uint64_t> users;
  const std::size_t U = plan.roster.size();
  const std::size_t n = std::min(max_users, U);
  for (std::size_t i = 0; i < n; ++i) users.push_back(plan.roster[i * U / n]);

  // Bound pipeline re-analysing the same windows in one update tick.
  tb::obs::Observability hub;
  tb::core::PipelineConfig one_tick = pc;
  one_tick.update_period_s = pc.window_s;
  tb::core::RealtimePipeline bound(one_tick);
  bound.bind_observability(hub);
  bound.start_at(t1 - pc.window_s);

  tb::signal::FftWorkspace ws;
  tb::core::ExtractScratch xs;
  tb::core::PhasePreprocessor pre;
  const tb::core::BreathExtractor extractor(mc.extractor);
  const tb::core::ZeroCrossingRateEstimator estimator(mc.rate);
  const double floor_hz =
      std::max(mc.extractor.low_cut_hz, mc.extractor.peak_search_floor_hz);
  std::vector<double> a, p, f, x, b, e;
  double reads_in_window = 0.0;

  for (const std::uint64_t user : users) {
    const auto& shard = fleet.shard_pipeline(fleet.shard_of(user));
    const tb::core::UserAnalysis* latest = shard.latest_analysis(user);
    const tb::core::DemuxState state = shard.export_user(user);
    if (latest == nullptr || state.streams.empty()) continue;
    bound.import_user(state);
    tb::core::StreamDemux demux;
    demux.import_user(state);
    for (const auto& s : state.streams)
      for (const auto& r : s.reads)
        if (r.time_s >= t0 && r.time_s <= t1) reads_in_window += 1.0;

    a.clear(); p.clear(); f.clear(); x.clear(); b.clear(); e.clear();
    tb::core::RateEstimate rate;
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::int32_t id = spans.begin(n_antenna, user);
      const auto all = demux.streams_for_user(user);
      const auto scores = tb::core::score_antennas(all, t1 - t0, mc.antenna);
      const auto working =
          scores.empty() ? all
                         : demux.streams_for_user_antenna(
                               user, scores.front().antenna_id);
      a.push_back(spans.end(id));

      id = spans.begin(n_pre, user);
      std::vector<std::vector<tb::signal::TimedSample>> deltas(working.size());
      for (std::size_t k = 0; k < working.size(); ++k) {
        pre.reconfigure(mc.preprocess);
        pre.process_into(*working[k], deltas[k]);
      }
      p.push_back(spans.end(id));

      id = spans.begin(n_fuse, user);
      const tb::core::FusedTrack fused = tb::core::fuse_streams(
          std::span<const std::vector<tb::signal::TimedSample>>(deltas), t0,
          t1, mc.fusion);
      f.push_back(spans.end(id));

      // Filter span = the whole extract; the band search re-runs on the
      // extractor's own coarse band-limited track and is subtracted.
      tb::core::BreathSignal breath;
      const tb::core::ExtractJob job{fused.track, fused.sample_rate_hz(),
                                     &breath};
      id = spans.begin(n_filter, user);
      extractor.extract_many({&job, 1}, ws, xs);
      x.push_back(spans.end(id));
      if (mc.extractor.adaptive_band && !xs.coarse.empty()) {
        id = spans.begin(n_band, user);
        (void)tb::signal::autocorrelation_fundamental(
            xs.coarse[0], fused.sample_rate_hz(), floor_hz,
            mc.extractor.cutoff_hz);
        b.push_back(spans.end(id));
      } else {
        b.push_back(0.0);
      }

      id = spans.begin(n_est, user);
      rate = estimator.estimate(breath.samples);
      e.push_back(spans.end(id));
    }
    if (rate.rate_bpm != latest->rate.rate_bpm ||
        rate.reliable != latest->rate.reliable ||
        rate.crossings.size() != latest->rate.crossings.size())
      ++st.rate_mismatches;
    ++st.users;
    st.antenna_us += median_of(a) * 1e6;
    st.preprocess_us += median_of(p) * 1e6;
    st.fusion_us += median_of(f) * 1e6;
    st.extract_us += median_of(x) * 1e6;
    st.band_search_us += median_of(b) * 1e6;
    st.estimate_us += median_of(e) * 1e6;
  }
  bound.advance_to(t1);
  spans.end(root);
  if (st.users == 0) return st;
  const double k = static_cast<double>(st.users);
  st.antenna_us /= k;
  st.preprocess_us /= k;
  st.fusion_us /= k;
  st.extract_us /= k;
  st.band_search_us /= k;
  st.estimate_us /= k;
  st.reads_per_user_window = reads_in_window / k;
  const double analysed = static_cast<double>(bound.analyses_run());
  if (analysed > 0.0) {
    st.hist_preprocess_us = hist_sum_us(hub, "preprocess") / analysed;
    st.hist_fuse_us = hist_sum_us(hub, "fuse") / analysed;
    st.hist_extract_us = hist_sum_us(hub, "extract") / analysed;
    st.hist_estimate_us = hist_sum_us(hub, "estimate") / analysed;
  }
  return st;
}

}  // namespace wardbench
