// The fig12/fig13 sweep cache must only be reused when its geometry matches
// the reader: the historical format had no header, so a bench configured for
// a different max_checkpoints read cells at shifted offsets and silently
// corrupted both figures. These tests pin the round trip and every rejection
// path.
#include "common_case.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace ms::bench {
namespace {

namespace fs = std::filesystem;

class CommonCaseCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: ctest runs the cases as parallel processes.
    dir_ = fs::temp_directory_path() /
           (std::string("ms_cache_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    // Point the cache at a private directory so tests neither see nor
    // clobber real bench caches.
    ASSERT_EQ(setenv("MS_BENCH_CACHE_DIR", dir_.string().c_str(), 1), 0);
  }
  void TearDown() override {
    unsetenv("MS_BENCH_CACHE_DIR");
    fs::remove_all(dir_);
  }

  static CommonCaseSweep make_sweep(int max_checkpoints) {
    CommonCaseSweep sweep;
    double v = 0.0;
    for (const Scheme scheme : kAllSchemes) {
      for (int k = 0; k <= max_checkpoints; ++k) {
        CommonCaseCell cell;
        // Non-round values exercise the full-precision round trip.
        cell.throughput = 1e6 / 3.0 + v;
        cell.latency_ms = 17.0 / 7.0 + v;
        cell.checkpoints = k;
        sweep.cells[scheme][k] = cell;
        v += 1.0 / 3.0;
      }
    }
    sweep.baseline_zero_throughput = sweep.cells[Scheme::kBaseline][0].throughput;
    sweep.baseline_zero_latency_ms = sweep.cells[Scheme::kBaseline][0].latency_ms;
    return sweep;
  }

  fs::path dir_;
};

TEST_F(CommonCaseCacheTest, RoundTripsExactly) {
  const int kmax = 8;
  const CommonCaseSweep stored = make_sweep(kmax);
  store_common_case_cache(AppKind::kBcp, /*quick=*/true, kmax, stored);
  ASSERT_TRUE(fs::exists(common_case_cache_path(AppKind::kBcp, true)));

  CommonCaseSweep loaded;
  ASSERT_TRUE(load_common_case_cache(AppKind::kBcp, true, kmax, &loaded));
  for (const Scheme scheme : kAllSchemes) {
    for (int k = 0; k <= kmax; ++k) {
      const CommonCaseCell& a = stored.cells.at(scheme).at(k);
      const CommonCaseCell& b = loaded.cells.at(scheme).at(k);
      // Bit-exact: the writer emits max_digits10 precision.
      EXPECT_EQ(a.throughput, b.throughput);
      EXPECT_EQ(a.latency_ms, b.latency_ms);
      EXPECT_EQ(a.checkpoints, b.checkpoints);
    }
  }
  EXPECT_EQ(loaded.baseline_zero_throughput, stored.baseline_zero_throughput);
  EXPECT_EQ(loaded.baseline_zero_latency_ms, stored.baseline_zero_latency_ms);
}

TEST_F(CommonCaseCacheTest, CachesForDifferentAppsAndModesAreSeparate) {
  EXPECT_NE(common_case_cache_path(AppKind::kBcp, true),
            common_case_cache_path(AppKind::kTmi, true));
  EXPECT_NE(common_case_cache_path(AppKind::kBcp, true),
            common_case_cache_path(AppKind::kBcp, false));
}

TEST_F(CommonCaseCacheTest, RejectsMaxCheckpointsMismatch) {
  store_common_case_cache(AppKind::kTmi, true, /*max_checkpoints=*/8,
                          make_sweep(8));
  // The pre-header format misread this as 4 rows per scheme, shifting every
  // later scheme's cells; now the geometry mismatch forces a regeneration.
  CommonCaseSweep loaded;
  EXPECT_FALSE(load_common_case_cache(AppKind::kTmi, true, 4, &loaded));
  EXPECT_FALSE(load_common_case_cache(AppKind::kTmi, true, 9, &loaded));
  EXPECT_TRUE(load_common_case_cache(AppKind::kTmi, true, 8, &loaded));
}

TEST_F(CommonCaseCacheTest, RejectsTruncatedFile) {
  const int kmax = 3;
  store_common_case_cache(AppKind::kSignalGuru, true, kmax, make_sweep(kmax));
  const fs::path path = common_case_cache_path(AppKind::kSignalGuru, true);
  // Chop the file mid-cells: header intact, body short.
  std::string contents;
  {
    std::ifstream in(path);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents.substr(0, contents.size() / 2);
  }
  CommonCaseSweep loaded;
  EXPECT_FALSE(load_common_case_cache(AppKind::kSignalGuru, true, kmax, &loaded));
}

TEST_F(CommonCaseCacheTest, RejectsLegacyHeaderlessFormat) {
  const fs::path path = common_case_cache_path(AppKind::kBcp, false);
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << 1 << "\n";  // the old version-only header
  for (int i = 0; i < 4 * 9; ++i) out << "1.0 2.0 3\n";
  out.close();
  CommonCaseSweep loaded;
  EXPECT_FALSE(load_common_case_cache(AppKind::kBcp, false, 8, &loaded));
}

TEST_F(CommonCaseCacheTest, MissingFileFailsCleanly) {
  CommonCaseSweep loaded;
  EXPECT_FALSE(load_common_case_cache(AppKind::kTmi, false, 8, &loaded));
}

}  // namespace
}  // namespace ms::bench
