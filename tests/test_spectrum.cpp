// Unit + property tests: spectral analysis (periodogram, peak searches,
// ACF fundamental, FFT band filters, Goertzel).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "signal/filters.hpp"
#include "signal/spectrum.hpp"

namespace tagbreathe::signal {
namespace {

using common::kTwoPi;

std::vector<double> sine(double freq_hz, double fs, std::size_t n,
                         double amplitude = 1.0, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amplitude *
           std::sin(kTwoPi * freq_hz * static_cast<double>(i) / fs + phase);
  return x;
}

void add_noise(std::vector<double>& x, double sigma, std::uint64_t seed) {
  common::Rng rng(seed);
  for (double& v : x) v += rng.normal(0.0, sigma);
}

// --- periodogram -------------------------------------------------------------

TEST(Periodogram, PeakAtToneFrequency) {
  const auto x = sine(0.25, 20.0, 500);
  const auto bins = periodogram(x, 20.0);
  std::size_t best = 0;
  for (std::size_t k = 1; k < bins.size(); ++k)
    if (bins[k].power > bins[best].power) best = k;
  EXPECT_NEAR(bins[best].frequency_hz, 0.25, 0.05);
}

TEST(Periodogram, AmplitudeCalibration) {
  // Coherent-gain normalisation: a unit sine exactly on a bin puts
  // A^2/2 = 0.5 in the centre bin; the Hann window leaks A^2/8 into each
  // neighbour (W(+-1) = sum(w)/2), so the 3-bin region sums to 0.75.
  const auto x = sine(2.0, 20.0, 1000);  // bin 100 exactly
  const auto bins = periodogram(x, 20.0, WindowType::Hann);
  double centre = 0.0, region = 0.0;
  for (const auto& b : bins) {
    if (std::abs(b.frequency_hz - 2.0) < 1e-9) centre = b.power;
    if (std::abs(b.frequency_hz - 2.0) < 0.05) region += b.power;
  }
  EXPECT_NEAR(centre, 0.5, 0.02);
  EXPECT_NEAR(region, 0.75, 0.03);
}

TEST(Periodogram, EmptyAndErrors) {
  EXPECT_TRUE(periodogram(std::vector<double>{}, 20.0).empty());
  EXPECT_THROW(periodogram(std::vector<double>{1.0}, 0.0),
               std::invalid_argument);
}

// --- dominant frequency -------------------------------------------------------

TEST(DominantFrequency, InterpolatesOffBinTone) {
  // 0.213 Hz does not land on the 20/600 = 0.0333 Hz grid.
  const auto x = sine(0.213, 20.0, 600);
  const double f = dominant_frequency(x, 20.0, 0.05, 1.0);
  EXPECT_NEAR(f, 0.213, 0.01);
}

TEST(DominantFrequency, RespectsBand) {
  auto x = sine(0.3, 20.0, 600);
  const auto strong = sine(3.0, 20.0, 600, 5.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += strong[i];
  // Band excludes the strong 3 Hz tone.
  EXPECT_NEAR(dominant_frequency(x, 20.0, 0.05, 1.0), 0.3, 0.02);
  // A band with no bins at all (beyond Nyquist) yields 0.
  EXPECT_EQ(dominant_frequency(x, 20.0, 10.5, 11.0), 0.0);
}

TEST(DominantFrequencyWhitened, FindsToneOverRandomWalk) {
  common::Rng rng(5);
  std::vector<double> x(1200);
  double walk = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    walk += rng.normal(0.0, 0.02);
    x[i] = walk + 0.05 * std::sin(kTwoPi * 0.3 * static_cast<double>(i) / 20.0);
  }
  detrend_linear(x);
  // Plain search is captured by the walk's low-frequency power...
  const double plain = dominant_frequency(x, 20.0, 0.05, 0.67);
  // ...whitened search finds the real oscillation.
  const double whitened = dominant_frequency_whitened(x, 20.0, 0.05, 0.67);
  EXPECT_NEAR(whitened, 0.3, 0.05);
  (void)plain;  // plain may or may not fail; whitened must not
}

// --- significant peak search ----------------------------------------------------

TEST(DominantFrequencySignificant, FindsWeakToneInColoredNoise) {
  common::Rng rng(6);
  std::vector<double> x(2400);
  double walk = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    walk += rng.normal(0.0, 0.003);
    x[i] = walk + rng.normal(0.0, 0.002) +
           0.01 * std::sin(kTwoPi * 0.22 * static_cast<double>(i) / 20.0);
  }
  detrend_linear(x);
  const double f = dominant_frequency_significant(x, 20.0, 0.075, 0.67);
  EXPECT_NEAR(f, 0.22, 0.05);
}

TEST(DominantFrequencySignificant, PrefersFundamentalOverHarmonic) {
  // Asymmetric waveform: fundamental 0.2 Hz plus a strong 0.4 Hz harmonic.
  std::vector<double> x(2400);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / 20.0;
    x[i] = std::sin(kTwoPi * 0.2 * t) + 0.6 * std::sin(kTwoPi * 0.4 * t);
  }
  add_noise(x, 0.05, 7);
  const double f = dominant_frequency_significant(x, 20.0, 0.075, 0.67);
  EXPECT_NEAR(f, 0.2, 0.03);
}

// --- autocorrelation fundamental -------------------------------------------------

TEST(AcfFundamental, ExactOnCleanSine) {
  const auto x = sine(0.25, 20.0, 1200);
  const double f = autocorrelation_fundamental(x, 20.0, 0.075, 0.67);
  EXPECT_NEAR(f, 0.25, 0.005);
}

class AcfSweep : public ::testing::TestWithParam<double> {};

TEST_P(AcfSweep, RecoversRateAcrossBand) {
  const double f_true = GetParam();
  auto x = sine(f_true, 20.0, 2400);
  // Add the 2nd harmonic (asymmetric breathing) and noise.
  const auto h = sine(2.0 * f_true, 20.0, 2400, 0.4, 0.7);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += h[i];
  add_noise(x, 0.3, 17 + static_cast<std::uint64_t>(f_true * 100));
  const double f = autocorrelation_fundamental(x, 20.0, 0.075, 0.67);
  EXPECT_NEAR(f, f_true, 0.04 * f_true + 0.01) << "f_true=" << f_true;
}

INSTANTIATE_TEST_SUITE_P(BreathingBand, AcfSweep,
                         ::testing::Values(0.085, 0.1, 0.1667, 0.25, 0.333,
                                           0.45, 0.6));

TEST(AcfFundamental, ResolvesPeriodMultipleToSmallestLag) {
  // A clean periodic signal has ACF peaks at T, 2T, 3T...; the estimator
  // must return 1/T, not 1/(2T).
  const auto x = sine(0.3, 20.0, 2400);
  const double f = autocorrelation_fundamental(x, 20.0, 0.075, 0.67);
  EXPECT_NEAR(f, 0.3, 0.01);
}

TEST(AcfFundamental, ReturnsZeroOnPureNoiseSometimesButNeverThrows) {
  common::Rng rng(19);
  std::vector<double> x(600);
  for (auto& v : x) v = rng.normal();
  const double f = autocorrelation_fundamental(x, 20.0, 0.075, 0.67);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 0.7);
}

TEST(AcfFundamental, ErrorsAndEdgeCases) {
  EXPECT_THROW(autocorrelation_fundamental(std::vector<double>(100), 20.0,
                                           0.5, 0.2),
               std::invalid_argument);
  EXPECT_EQ(autocorrelation_fundamental(std::vector<double>(4), 20.0, 0.1,
                                        0.5),
            0.0);
  // All-zero signal: r0 = 0.
  EXPECT_EQ(autocorrelation_fundamental(std::vector<double>(256, 0.0), 20.0,
                                        0.1, 0.5),
            0.0);
}

// Direct O(n * lags) reference for the planned Wiener-Khinchin search:
// the same normalised, bias-corrected ACF and peak rules, with every lag
// summed explicitly.
struct AcfReference {
  std::size_t lag = 0;
  double f0 = 0.0;
};

AcfReference direct_acf_fundamental(const std::vector<double>& x, double fs,
                                    double f_lo, double f_hi) {
  const std::size_t n = x.size();
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);
  const auto lag_min = static_cast<std::size_t>(std::ceil(fs / f_hi));
  const std::size_t lag_max =
      std::min(static_cast<std::size_t>(std::floor(fs / f_lo)), n - 1);
  const auto lag_sum = [&](std::size_t lag) {
    double r = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i)
      r += (x[i] - mean) * (x[i + lag] - mean);
    return r;
  };
  const double r0 = lag_sum(0);
  std::vector<double> acf(lag_max + 1, 0.0);
  for (std::size_t lag = lag_min - 1; lag <= lag_max; ++lag)
    acf[lag] = lag_sum(lag) / r0 * static_cast<double>(n) /
               static_cast<double>(n - lag);
  const auto is_peak = [&](std::size_t lag) {
    return acf[lag] >= acf[lag - 1] && acf[lag] >= acf[lag + 1];
  };
  double best = -2.0;
  for (std::size_t lag = lag_min + 1; lag + 1 <= lag_max; ++lag)
    if (is_peak(lag)) best = std::max(best, acf[lag]);
  for (std::size_t lag = lag_min + 1; lag + 1 <= lag_max; ++lag) {
    if (!is_peak(lag) || acf[lag] < 0.9 * best) continue;
    const double denom = acf[lag - 1] - 2.0 * acf[lag] + acf[lag + 1];
    const double delta =
        std::clamp(0.5 * (acf[lag - 1] - acf[lag + 1]) / denom, -0.5, 0.5);
    return {lag, fs / (static_cast<double>(lag) + delta)};
  }
  return {};
}

class AcfReferenceSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AcfReferenceSizes, PlannedSearchMatchesDirectLagSum) {
  // 601: the Table-I track (M = 1024). 2400: a long window. 757 and 758:
  // n + lag_max + 1 = 1024 and n + lag_max = 1024 (the tightest padding
  // and one sample past it). 200: shorter than fs / f_lo, so lag_max is
  // clamped to n - 1.
  const std::size_t n = GetParam();
  constexpr double kFs = 20.0;
  auto x = sine(0.23, kFs, n);
  const auto h = sine(0.46, kFs, n, 0.4, 0.7);
  for (std::size_t i = 0; i < n; ++i) x[i] += h[i] + 3.0;  // DC offset too
  add_noise(x, 0.2, 41 + n);

  const AcfReference ref = direct_acf_fundamental(x, kFs, 0.075, 0.67);
  ASSERT_GT(ref.lag, 0u);
  FftWorkspace ws;
  const double f0 = autocorrelation_fundamental(x, kFs, 0.075, 0.67, ws);
  EXPECT_EQ(static_cast<std::size_t>(std::lround(kFs / f0)), ref.lag);
  EXPECT_NEAR(f0, ref.f0, 1e-9 * ref.f0);
  // The throwaway-workspace wrapper runs the same arithmetic.
  EXPECT_EQ(autocorrelation_fundamental(x, kFs, 0.075, 0.67), f0);
}

INSTANTIATE_TEST_SUITE_P(TrackLengths, AcfReferenceSizes,
                         ::testing::Values(601, 2400, 757, 758, 200));

TEST(AcfFundamental, WarmWorkspaceIsReusableAcrossSizes) {
  // A workspace that has seen a longer track keeps its high-water
  // buffers; stale contents must not leak into a shorter search.
  FftWorkspace ws;
  for (const std::size_t n : {2400u, 601u, 200u, 601u}) {
    auto x = sine(0.3, 20.0, n);
    add_noise(x, 0.1, n);
    EXPECT_EQ(autocorrelation_fundamental(x, 20.0, 0.075, 0.67, ws),
              autocorrelation_fundamental(x, 20.0, 0.075, 0.67))
        << "n=" << n;
  }
}

// --- FFT band filters -----------------------------------------------------------

TEST(FftLowpass, RemovesHighFrequencyKeepsLow) {
  auto x = sine(0.2, 20.0, 800);
  const auto hf = sine(3.0, 20.0, 800, 0.8);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += hf[i];
  const auto y = fft_lowpass(x, 20.0, 0.67);
  const auto clean = sine(0.2, 20.0, 800);
  double err = 0.0;
  for (std::size_t i = 50; i < 750; ++i)
    err = std::max(err, std::abs(y[i] - clean[i]));
  EXPECT_LT(err, 0.05);
}

TEST(FftLowpass, RemovesDcWhenAsked) {
  std::vector<double> x(400, 5.0);
  const auto y = fft_lowpass(x, 20.0, 0.67, /*remove_dc=*/true);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-9);
  const auto z = fft_lowpass(x, 20.0, 0.67, /*remove_dc=*/false);
  for (double v : z) EXPECT_NEAR(v, 5.0, 1e-9);
}

TEST(FftBandpass, SelectsBand) {
  auto x = sine(0.05, 20.0, 1200, 2.0);   // below band
  const auto mid = sine(0.3, 20.0, 1200);  // in band
  const auto high = sine(1.5, 20.0, 1200, 2.0);  // above band
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += mid[i] + high[i];
  const auto y = fft_bandpass(x, 20.0, 0.1, 0.67);
  const auto clean = sine(0.3, 20.0, 1200);
  for (std::size_t i = 100; i < 1100; ++i)
    EXPECT_NEAR(y[i], clean[i], 0.1) << i;
}

TEST(FftBandpass, ArgumentValidation) {
  std::vector<double> x(16, 0.0);
  EXPECT_THROW(fft_bandpass(x, 20.0, 0.5, 0.4), std::invalid_argument);
  EXPECT_THROW(fft_lowpass(x, 20.0, -1.0), std::invalid_argument);
  EXPECT_THROW(fft_lowpass(x, 0.0, 0.5), std::invalid_argument);
}

// --- Goertzel --------------------------------------------------------------------

TEST(Goertzel, MatchesFftBinPower) {
  const auto x = sine(2.0, 20.0, 400);
  // Bin power of a unit sine at an exact bin: (N/2)^2 / N^2 = 1/4.
  const double p = goertzel_power(x, 20.0, 2.0);
  EXPECT_NEAR(p, 0.25, 0.01);
  // Power at a far-away bin should be tiny.
  EXPECT_LT(goertzel_power(x, 20.0, 7.0), 1e-6);
}

// --- band power ratio ---------------------------------------------------------------

TEST(BandPowerRatio, ConcentratedToneScoresHigh) {
  const auto x = sine(0.25, 20.0, 1000);
  EXPECT_GT(band_power_ratio(x, 20.0, 0.1, 0.5), 0.95);
  EXPECT_LT(band_power_ratio(x, 20.0, 1.0, 5.0), 0.05);
}

TEST(BandPowerRatio, WhiteNoiseIsProportionalToBandwidth) {
  common::Rng rng(23);
  std::vector<double> x(4000);
  for (auto& v : x) v = rng.normal();
  // [0, 10] Hz total; [1, 2] covers ~10%.
  const double r = band_power_ratio(x, 20.0, 1.0, 2.0);
  EXPECT_NEAR(r, 0.1, 0.04);
}

}  // namespace
}  // namespace tagbreathe::signal
