// Synthetic SST statistical properties, comparator surrogates, and the
// windowed dataset machinery of paper §II-B.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/comparators.hpp"
#include "data/hash_normal.hpp"
#include "hpc/parallel_for.hpp"
#include "data/sst.hpp"
#include "data/windowing.hpp"
#include "pod/pod.hpp"
#include "tensor/random.hpp"
#include "tensor/stats.hpp"

namespace geonas::data {
namespace {

TEST(SST, DeterministicForSeed) {
  const SyntheticSST a, b;
  EXPECT_DOUBLE_EQ(a.value(10.0, 200.0, 5), b.value(10.0, 200.0, 5));
  SSTOptions other;
  other.seed = 9999;
  const SyntheticSST c(other);
  EXPECT_NE(a.value(10.0, 200.0, 5), c.value(10.0, 200.0, 5));
}

TEST(SST, PhysicalTemperatureRange) {
  const SyntheticSST sst;
  for (std::size_t week : {0UL, 100UL, 1000UL, 1900UL}) {
    for (double lat : {-80.0, -40.0, 0.0, 40.0, 80.0}) {
      for (double lon : {10.0, 120.0, 235.0, 350.0}) {
        const double t = sst.value(lat, lon, week);
        EXPECT_GE(t, -1.9);
        EXPECT_LE(t, 40.0);
      }
    }
  }
}

TEST(SST, EquatorWarmerThanPoles) {
  const SyntheticSST sst;
  double eq = 0.0, pole = 0.0;
  for (std::size_t w = 0; w < 52; ++w) {
    eq += sst.value(0.5, 180.0, w);
    pole += sst.value(75.0, 180.0, w);
  }
  EXPECT_GT(eq / 52.0, pole / 52.0 + 10.0);
}

TEST(SST, SeasonalCycleAntiphaseAcrossHemispheres) {
  const SyntheticSST sst;
  // Correlation of the seasonal signal at +/-50 degrees over 4 years.
  std::vector<double> north, south;
  for (std::size_t w = 0; w < 208; ++w) {
    north.push_back(sst.seasonal(50.0, 180.0, static_cast<double>(w)));
    south.push_back(sst.seasonal(-50.0, 180.0, static_cast<double>(w)));
  }
  EXPECT_LT(pearson(north, south), -0.8);
}

TEST(SST, SeasonalPeriodicity) {
  const SyntheticSST sst;
  // One year later the seasonal component nearly repeats.
  const double a = sst.seasonal(45.0, 180.0, 10.0);
  const double b = sst.seasonal(45.0, 180.0, 10.0 + kWeeksPerYear);
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(SST, TrendIsSecular) {
  const SyntheticSST sst;
  EXPECT_GT(sst.trend(0.0, 1900.0), sst.trend(0.0, 0.0));
  // Roughly trend_per_decade at the equator over a decade.
  const double decade = sst.trend(0.0, 10.0 * kWeeksPerYear) - sst.trend(0.0, 0.0);
  EXPECT_NEAR(decade, sst.options().trend_per_decade, 0.05);
}

TEST(SST, EnsoPatternLocalizedInEasternPacific) {
  const SyntheticSST sst;
  EXPECT_GT(sst.enso_pattern(0.0, 235.0), 0.9);
  EXPECT_LT(sst.enso_pattern(0.0, 100.0), 0.01);
  EXPECT_LT(sst.enso_pattern(50.0, 235.0), 0.01);
}

TEST(SST, EddyRealizationsDiffer) {
  const SyntheticSST sst;
  double diff = 0.0;
  for (std::size_t w = 0; w < 20; ++w) {
    diff += std::abs(sst.eddy(30.0, 150.0, static_cast<double>(w), 1) -
                     sst.eddy(30.0, 150.0, static_cast<double>(w), 2));
  }
  EXPECT_GT(diff, 0.1);
}

TEST(SST, FiveModesCaptureMostVariance) {
  // The paper's Nr = 5 captures ~92 % of the NOAA variance; the synthetic
  // field must have the same low-rank structure (85-99 %).
  const Grid grid{45, 90};
  const LandMask mask(grid, 7);
  const SyntheticSST sst;
  const Matrix snaps = sst.snapshots(mask, 0, 160);
  pod::POD p;
  p.fit(snaps, {.num_modes = 5});
  const double e5 = p.energy_captured(5);
  EXPECT_GT(e5, 0.85);
  EXPECT_LT(e5, 0.999);
  // Higher modes are increasingly stochastic: mode energies decay.
  const auto& ev = p.eigenvalues();
  EXPECT_GT(ev[0], ev[4]);
  EXPECT_GT(ev[4], ev[20]);
}

TEST(SST, SnapshotMatrixLayout) {
  const Grid grid{45, 90};
  const LandMask mask(grid, 7);
  const SyntheticSST sst;
  const Matrix snaps = sst.snapshots(mask, 3, 4);
  EXPECT_EQ(snaps.rows(), mask.ocean_count());
  EXPECT_EQ(snaps.cols(), 4u);
  // Column c is week 3 + c.
  const auto week5 = mask.flatten(sst.field(grid, 5));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(snaps(i, 2), week5[i]);
  }
}

/// FNV-1a over the bytes of a double sequence.
std::uint64_t fnv1a(std::span<const double> values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double d : values) {
    unsigned char bytes[sizeof d];
    std::memcpy(bytes, &d, sizeof d);
    for (const unsigned char b : bytes) h = (h ^ b) * 1099511628211ULL;
  }
  return h;
}

struct KernelThreadsGuard {
  explicit KernelThreadsGuard(std::size_t threads) {
    hpc::set_kernel_threads(threads);
  }
  ~KernelThreadsGuard() { hpc::set_kernel_threads(0); }
};

TEST(SST, SnapshotsMatchPerCellValueAtEveryThreadCount) {
  // The batched, ocean-only, week-parallel kernel against value() cell by
  // cell, on a window that crosses the end of the training period.
  const Grid grid{45, 90};
  const LandMask mask(grid, 7);
  const SyntheticSST sst;
  constexpr std::size_t kWeek0 = 420, kWeeks = 16;
  Matrix expected(mask.ocean_count(), kWeeks);
  for (std::size_t c = 0; c < kWeeks; ++c) {
    std::vector<double> full(grid.cells());
    for (std::size_t i = 0; i < grid.nlat; ++i) {
      for (std::size_t j = 0; j < grid.nlon; ++j) {
        full[grid.index(i, j)] =
            sst.value(grid.lat_of(i), grid.lon_of(j), kWeek0 + c);
      }
    }
    expected.set_col(c, mask.flatten(full));
  }
  for (const std::size_t threads : {1UL, 2UL, 4UL}) {
    SCOPED_TRACE(::testing::Message() << "kernel_threads=" << threads);
    const KernelThreadsGuard guard(threads);
    const Matrix got = sst.snapshots(mask, kWeek0, kWeeks);
    ASSERT_EQ(got.rows(), expected.rows());
    ASSERT_EQ(got.cols(), expected.cols());
    EXPECT_EQ(std::memcmp(got.flat().data(), expected.flat().data(),
                          got.size() * sizeof(double)),
              0);
  }
}

TEST(SST, RecordMatchesGoldenHash) {
  // Weeks 0-435 on a small grid, record version 2 (the eddy field as one
  // E W GEMM); the record must not drift by one bit. These are the bits of
  // the FMA GEMM tiers (avx512f and avx2-fma agree); the portable tier
  // rounds differently. Version 1 hashed to 0xf849c9d6bf47ca97.
  static_assert(kSSTRecordVersion == 2);
  const LandMask mask(Grid{24, 48}, 7);
  const SyntheticSST sst;
  const Matrix s = sst.snapshots(mask, 0, 436);
  EXPECT_EQ(fnv1a(s.flat()), 0x7887de3d4627cd0bULL);
}

TEST(SST, ChunkedSnapshotsMatchOneBatch) {
  // prepare() generates the training weeks in one call and the rest in
  // 64-week chunks; a week's column must not depend on the batch.
  const LandMask mask(Grid::reduced(), 7);
  const SyntheticSST sst;
  const Matrix whole = sst.snapshots(mask, 0, 427);
  const Matrix chunk = sst.snapshots(mask, 384, 43);
  const Matrix tail = whole.slice_cols(384, 427);
  ASSERT_EQ(chunk.rows(), tail.rows());
  ASSERT_EQ(chunk.cols(), tail.cols());
  EXPECT_EQ(std::memcmp(chunk.flat().data(), tail.flat().data(),
                        chunk.size() * sizeof(double)),
            0);
}

/// The eddy bank straight from its definition: waves and AR(1) amplitude
/// factors re-drawn from the generator's streams, summed with one libm
/// sin per wave.
class ReferenceEddy {
 public:
  ReferenceEddy(const SSTOptions& opts, std::uint64_t seed) {
    Rng rng(hash_combine(seed, 0xEDD1E5ULL));
    const double per_wave =
        opts.eddy_amplitude /
        std::sqrt(0.5 * static_cast<double>(opts.eddy_waves));
    const double phi = opts.eddy_ar1;
    const double innovation_sd =
        opts.eddy_modulation * std::sqrt(1.0 - phi * phi);
    for (int m = 0; m < opts.eddy_waves; ++m) {
      Wave w;
      w.amp = per_wave * rng.uniform(0.6, 1.4);
      w.klat = rng.uniform(3.0, 14.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
      w.klon = rng.uniform(5.0, 22.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
      w.omega = 2.0 * std::numbers::pi / rng.uniform(14.0, 90.0);
      w.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const std::uint64_t amp_seed = rng.next();
      double dev = 0.0;
      for (std::size_t t = 0; t < kRecordWeeks; ++t) {
        dev = phi * dev +
              innovation_sd * hash_normal(amp_seed, t, 0xA3ULL, 0x77ULL);
        w.factor.push_back(1.0 + dev);
      }
      waves_.push_back(std::move(w));
    }
  }

  [[nodiscard]] double operator()(double lat, double lon,
                                  std::size_t week) const {
    const double lat_rad = lat * std::numbers::pi / 180.0;
    const double env = 0.35 + 0.65 * std::pow(std::sin(2.0 * lat_rad), 2);
    const double t = static_cast<double>(week);
    double sum = 0.0;
    for (const Wave& w : waves_) {
      const double a = 2.0 * std::numbers::pi *
                           (w.klat * lat / 180.0 + w.klon * lon / 360.0) +
                       w.phase;
      sum += w.factor[week] * w.amp * env * std::sin(a - w.omega * t);
    }
    return sum;
  }

 private:
  struct Wave {
    double amp, klat, klon, omega, phase;
    std::vector<double> factor;  // a_m(t) per record week
  };
  std::vector<Wave> waves_;
};

TEST(SST, EddyProductMatchesWaveSumOverTheRecord) {
  // sin(A - B) = sin A cos B - cos A sin B turns the wave sum into E W;
  // check the product against the sum it replaces, for the truth and a
  // comparator realization, at every record week.
  const Grid grid{6, 8};
  const std::vector<LatLon> points = grid_points(grid);
  const SyntheticSST sst;
  for (const std::uint64_t seed : {sst.options().seed, std::uint64_t{77}}) {
    SCOPED_TRACE(::testing::Message() << "realization " << seed);
    const ReferenceEddy reference(sst.options(), seed);
    const Matrix e = sst.eddies(points, 0, kRecordWeeks, seed);
    double worst = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t week = 0; week < kRecordWeeks; ++week) {
        const double want = reference(points[i].lat, points[i].lon, week);
        worst = std::max(worst, std::abs(e(i, week) - want));
      }
    }
    EXPECT_NEAR(worst, 0.0, 1e-10);
    for (const std::size_t week : {0UL, 1UL, 1913UL, kRecordWeeks - 1}) {
      const std::size_t i = week % points.size();
      EXPECT_NEAR(sst.eddy(points[i].lat, points[i].lon,
                           static_cast<double>(week), seed),
                  reference(points[i].lat, points[i].lon, week), 1e-10);
    }
  }
}

TEST(SST, EddyAmplitudesIndependentOfCallOrder) {
  // A fresh instance asked for week 1000 must serve the same field as one
  // that first generated weeks 0-999 (the AR(1) amplitude series used to
  // depend on how far it had been grown).
  const Grid grid{24, 48};
  const LandMask mask(grid, 7);
  const SyntheticSST fresh;
  const std::vector<double> direct = fresh.field(grid, 1000);
  const SyntheticSST grown;
  (void)grown.snapshots(mask, 0, 1000);
  const std::vector<double> after = grown.field(grid, 1000);
  EXPECT_EQ(direct, after);
  EXPECT_EQ(fresh.eddy(30.0, 150.0, 1000.0, 2020),
            grown.eddy(30.0, 150.0, 1000.0, 2020));
}

TEST(SST, LateRequestsLeaveEarlierWeeksUnchanged) {
  // A late first request, or any request past the record, used to
  // re-standardize the Lorenz series over a longer horizon, changing
  // every earlier week.
  constexpr double kEnso100 = -1.2839584928258057;  // the record's value
  const Grid grid{24, 48};
  const SyntheticSST late_first;
  (void)late_first.value(0.0, 200.0, 2500);
  EXPECT_EQ(late_first.enso_index(100.0), kEnso100);

  const SyntheticSST sst;
  const std::vector<double> week100 = sst.field(grid, 100);
  EXPECT_EQ(sst.enso_index(100.0), kEnso100);
  (void)sst.value(0.0, 200.0, kRecordWeeks - 1);
  EXPECT_THROW((void)sst.value(0.0, 200.0, 3000), std::out_of_range);
  EXPECT_EQ(sst.enso_index(100.0), kEnso100);
  EXPECT_EQ(sst.field(grid, 100), week100);
}

TEST(SST, WeekPastHorizonThrows) {
  const SyntheticSST sst;
  const LandMask mask(Grid{24, 48}, 7);
  EXPECT_NO_THROW((void)sst.value(0.0, 200.0, kRecordWeeks - 1));
  EXPECT_THROW((void)sst.value(0.0, 200.0, kRecordWeeks), std::out_of_range);
  EXPECT_THROW((void)sst.snapshots(mask, kRecordWeeks - 2, 3),
               std::out_of_range);
  EXPECT_THROW((void)sst.eddy(0.0, 200.0, 5000.0, 7), std::out_of_range);
  try {
    (void)sst.value(0.0, 200.0, 3000);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3000"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kRecordWeeks)), std::string::npos)
        << what;
  }
}

TEST(Comparators, HycomTracksTruthCloselyInEasternPacific) {
  const SyntheticSST sst;
  const HYCOMSurrogate hycom(sst);
  const CESMSurrogate cesm(sst);

  // Sample the full Table-I assessment box (-10..10 lat, 200..250 lon).
  const std::size_t w0 = HYCOMSurrogate::first_available_week();
  std::vector<double> truth, hy, ce;
  for (std::size_t w = w0; w < w0 + 30; ++w) {
    for (double lat = -8.0; lat <= 8.0; lat += 4.0) {
      for (double lon = 202.0; lon <= 248.0; lon += 7.5) {
        truth.push_back(sst.value(lat, lon, w));
        hy.push_back(hycom.value(lat, lon, w));
        ce.push_back(cesm.value(lat, lon, w));
      }
    }
  }
  const double rmse_hycom = rmse(truth, hy);
  const double rmse_cesm = rmse(truth, ce);
  // Paper Table I ordering: HYCOM ~1.0 C, CESM ~1.85 C. This 30-week probe
  // sits in a low-error stretch of CESM's phase drift, so its band is
  // wider than the full-period Table I numbers.
  EXPECT_GT(rmse_cesm, rmse_hycom);
  EXPECT_GT(rmse_hycom, 0.4);
  EXPECT_LT(rmse_hycom, 1.8);
  EXPECT_GT(rmse_cesm, 1.0);
  EXPECT_LT(rmse_cesm, 3.0);
}

TEST(Comparators, HycomAvailabilityWindowMatchesPaper) {
  EXPECT_EQ(HYCOMSurrogate::first_available_week(),
            static_cast<std::size_t>(week_of_date(2015, 4, 5)));
  EXPECT_EQ(HYCOMSurrogate::last_available_week(),
            static_cast<std::size_t>(week_of_date(2018, 6, 24)));
  EXPECT_LT(HYCOMSurrogate::first_available_week(),
            HYCOMSurrogate::last_available_week());
}

/// The full-grid field of `model` at `week`, one value() per cell.
template <typename Model>
std::vector<double> per_point_field(const Model& model, const Grid& grid,
                                    std::size_t week) {
  std::vector<double> full(grid.cells());
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      full[grid.index(i, j)] = model.value(grid.lat_of(i), grid.lon_of(j), week);
    }
  }
  return full;
}

template <typename Model>
void expect_batches_match_value(const Model& model) {
  const Grid grid{24, 48};
  const LandMask mask(grid, 7);
  const std::size_t week0 = HYCOMSurrogate::first_available_week();
  constexpr std::size_t kWeeks = 5;
  const Matrix got = model.snapshots(mask, week0, kWeeks);
  ASSERT_EQ(got.rows(), mask.ocean_count());
  ASSERT_EQ(got.cols(), kWeeks);
  for (std::size_t c = 0; c < kWeeks; ++c) {
    SCOPED_TRACE(::testing::Message() << "week " << week0 + c);
    const std::vector<double> full = per_point_field(model, grid, week0 + c);
    EXPECT_EQ(model.field(grid, week0 + c), full);
    const std::vector<double> want = mask.flatten(full);
    std::vector<double> col(want.size());
    for (std::size_t r = 0; r < col.size(); ++r) col[r] = got(r, c);
    EXPECT_EQ(col, want);
  }
}

TEST(Comparators, CesmBatchesMatchPerPointValue) {
  const SyntheticSST sst;
  expect_batches_match_value(CESMSurrogate(sst));
}

TEST(Comparators, HycomBatchesMatchPerPointValue) {
  const SyntheticSST sst;
  expect_batches_match_value(HYCOMSurrogate(sst));
}

TEST(Comparators, SnapshotShapes) {
  const Grid grid{45, 90};
  const LandMask mask(grid, 7);
  const SyntheticSST sst;
  const CESMSurrogate cesm(sst);
  const Matrix s = cesm.snapshots(mask, 100, 3);
  EXPECT_EQ(s.rows(), mask.ocean_count());
  EXPECT_EQ(s.cols(), 3u);
}

TEST(Windowing, CountFormula) {
  EXPECT_EQ(window_count(427, {.window = 8, .stride = 1}), 412u);
  EXPECT_EQ(window_count(16, {.window = 8, .stride = 1}), 1u);
  EXPECT_EQ(window_count(15, {.window = 8, .stride = 1}), 0u);
  EXPECT_EQ(window_count(20, {.window = 4, .stride = 2}), 7u);
}

TEST(Windowing, InputOutputAlignment) {
  // Coefficients: mode m at time t = 100*m + t, easy to verify.
  const std::size_t nr = 3, ns = 20, k = 4;
  Matrix coeffs(nr, ns);
  for (std::size_t m = 0; m < nr; ++m) {
    for (std::size_t t = 0; t < ns; ++t) {
      coeffs(m, t) = 100.0 * static_cast<double>(m) + static_cast<double>(t);
    }
  }
  const WindowedDataset set = make_windows(coeffs, {.window = k, .stride = 1});
  EXPECT_EQ(set.size(), ns - 2 * k + 1);
  // Example e, step t, mode m: input = coeffs(m, e + t).
  EXPECT_DOUBLE_EQ(set.x(2, 1, 1), 103.0);
  // Output shifts by K.
  EXPECT_DOUBLE_EQ(set.y(2, 1, 1), 107.0);
  EXPECT_THROW((void)make_windows(Matrix(2, 5), {.window = 8}),
               std::invalid_argument);
}

TEST(Windowing, SplitSizesAndDisjointness) {
  Matrix coeffs(2, 60);
  for (std::size_t t = 0; t < 60; ++t) {
    coeffs(0, t) = static_cast<double>(t);
    coeffs(1, t) = static_cast<double>(t) * 2.0;
  }
  const WindowedDataset set = make_windows(coeffs, {.window = 5, .stride = 1});
  const SplitDataset split = train_val_split(set, 0.8, 99);
  EXPECT_EQ(split.train.size() + split.val.size(), set.size());
  const auto expected_train =
      static_cast<std::size_t>(0.8 * static_cast<double>(set.size()) + 0.5);
  EXPECT_EQ(split.train.size(), expected_train);

  // Every example must appear exactly once; identify them by x(.,0,0).
  std::vector<double> seen;
  for (std::size_t i = 0; i < split.train.size(); ++i) {
    seen.push_back(split.train.x(i, 0, 0));
  }
  for (std::size_t i = 0; i < split.val.size(); ++i) {
    seen.push_back(split.val.x(i, 0, 0));
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_DOUBLE_EQ(seen[i], static_cast<double>(i));
  }
}

TEST(Windowing, StrideZeroRejected) {
  // Regression: window_count used to normalize stride 0 to 1 while
  // make_windows multiplied by the raw stride, silently producing N
  // identical windows all starting at column 0.
  EXPECT_THROW((void)window_count(427, {.window = 8, .stride = 0}),
               std::invalid_argument);
  Matrix coeffs(2, 20);
  for (std::size_t t = 0; t < 20; ++t) {
    coeffs(0, t) = static_cast<double>(t);
    coeffs(1, t) = static_cast<double>(t) * 2.0;
  }
  EXPECT_THROW((void)make_windows(coeffs, {.window = 4, .stride = 0}),
               std::invalid_argument);
}

TEST(Windowing, SplitRejectsFractionExtremes) {
  // Regression: train_fraction == 1.0 used to round n_train to n,
  // constructing a zero-example validation set that downstream
  // evaluation divides by.
  Matrix coeffs(1, 30, 0.0);
  for (std::size_t t = 0; t < 30; ++t) coeffs(0, t) = static_cast<double>(t);
  const WindowedDataset set = make_windows(coeffs, {.window = 3});
  EXPECT_THROW((void)train_val_split(set, 1.0, 7), std::invalid_argument);
  EXPECT_THROW((void)train_val_split(set, 0.0, 7), std::invalid_argument);
  EXPECT_THROW((void)train_val_split(set, 1.5, 7), std::invalid_argument);
  EXPECT_THROW((void)train_val_split(set, -0.2, 7), std::invalid_argument);
}

TEST(Windowing, SplitClampsToNonEmptySides) {
  // Valid-but-extreme fractions round to all-train / all-val at small n;
  // the clamp keeps one example on each side.
  Matrix coeffs(1, 12, 0.0);
  for (std::size_t t = 0; t < 12; ++t) coeffs(0, t) = static_cast<double>(t);
  const WindowedDataset set = make_windows(coeffs, {.window = 3});  // n = 7
  const SplitDataset high = train_val_split(set, 0.99, 7);
  EXPECT_EQ(high.train.size(), set.size() - 1);
  EXPECT_EQ(high.val.size(), 1u);
  const SplitDataset low = train_val_split(set, 0.01, 7);
  EXPECT_EQ(low.train.size(), 1u);
  EXPECT_EQ(low.val.size(), set.size() - 1);

  // Fewer than 2 windows cannot produce two non-empty splits.
  Matrix tiny(1, 6, 0.0);
  const WindowedDataset one = make_windows(tiny, {.window = 3});  // n = 1
  EXPECT_THROW((void)train_val_split(one, 0.8, 7), std::invalid_argument);
}

TEST(Windowing, SplitDeterministicBySeed) {
  Matrix coeffs(1, 30, 0.0);
  for (std::size_t t = 0; t < 30; ++t) coeffs(0, t) = static_cast<double>(t);
  const WindowedDataset set = make_windows(coeffs, {.window = 3});
  const SplitDataset a = train_val_split(set, 0.8, 5);
  const SplitDataset b = train_val_split(set, 0.8, 5);
  EXPECT_EQ(a.train.x, b.train.x);
  const SplitDataset c = train_val_split(set, 0.8, 6);
  EXPECT_NE(a.train.x, c.train.x);
}

}  // namespace
}  // namespace geonas::data
