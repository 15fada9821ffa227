// Checkpoint/restart and the spectral diagnostic.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fp/bfloat16.hpp"
#include "fp/float16.hpp"
#include "swm/checkpoint.hpp"
#include "swm/diagnostics.hpp"
#include "swm/model.hpp"

using namespace tfx::swm;
using tfx::fp::bfloat16;
using tfx::fp::float16;

namespace {

swm_params small_params() {
  swm_params p;
  p.nx = 32;
  p.ny = 16;
  return p;
}

/// One file per test, valid for the whole test: ctest runs these tests
/// as parallel processes, and a shared file let one test's save or
/// load race another's.
const char* tmp_path() {
  static std::string path;
  const auto* t = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string want = std::string("/tmp/tfx_checkpoint_test_") +
                     t->test_suite_name() + "_" + t->name() + ".bin";
  if (path != want) path = std::move(want);
  return path.c_str();
}

}  // namespace

TEST(Checkpoint, RoundTripFloat64) {
  const swm_params p = small_params();
  model<double> m(p);
  m.seed_random_eddies(5, 0.5);
  m.run(30);

  checkpoint_info info{p.nx, p.ny,
                       static_cast<std::uint64_t>(m.steps_taken()), 1.0};
  ASSERT_TRUE(save_checkpoint(m.prognostic(), info, tmp_path()));

  const auto loaded = load_checkpoint<double>(tmp_path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->second.nx, p.nx);
  EXPECT_EQ(loaded->second.steps_taken, 30u);
  for (std::size_t k = 0; k < loaded->first.eta.size(); ++k) {
    ASSERT_EQ(loaded->first.eta.flat()[k], m.prognostic().eta.flat()[k]);
    ASSERT_EQ(loaded->first.u.flat()[k], m.prognostic().u.flat()[k]);
  }
}

TEST(Checkpoint, RestartContinuesTheTrajectoryExactly) {
  // run 40 straight == run 20, checkpoint, restore into a fresh model,
  // run 20 more (standard scheme: no compensation state to lose).
  const swm_params p = small_params();
  model<double> straight(p);
  straight.seed_random_eddies(6, 0.5);
  straight.run(40);

  model<double> first(p);
  first.seed_random_eddies(6, 0.5);
  first.run(20);
  checkpoint_info info{p.nx, p.ny, 20, 1.0};
  ASSERT_TRUE(save_checkpoint(first.prognostic(), info, tmp_path()));

  const auto loaded = load_checkpoint<double>(tmp_path());
  ASSERT_TRUE(loaded.has_value());
  model<double> resumed(p);
  resumed.restore(loaded->first, static_cast<int>(loaded->second.steps_taken));
  resumed.run(20);
  EXPECT_EQ(resumed.steps_taken(), 40);

  for (std::size_t k = 0; k < straight.prognostic().eta.size(); ++k) {
    ASSERT_EQ(resumed.prognostic().eta.flat()[k],
              straight.prognostic().eta.flat()[k]);
  }
}

TEST(Checkpoint, Float16BitsSurviveExactly) {
  swm_params p = small_params();
  p.log2_scale = 12;
  model<float16> m(p, integration_scheme::compensated);
  m.seed_random_eddies(7, 0.5);
  m.run(10);
  checkpoint_info info{p.nx, p.ny, 10, std::ldexp(1.0, 12)};
  ASSERT_TRUE(save_checkpoint(m.prognostic(), info, tmp_path()));
  const auto loaded = load_checkpoint<float16>(tmp_path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->second.scale, 4096.0);
  for (std::size_t k = 0; k < loaded->first.u.size(); ++k) {
    ASSERT_EQ(loaded->first.u.flat()[k].bits(),
              m.prognostic().u.flat()[k].bits());
  }
}

TEST(Checkpoint, ElementSizeMismatchRejected) {
  const swm_params p = small_params();
  model<double> m(p);
  m.seed_random_eddies(8, 0.5);
  checkpoint_info info{p.nx, p.ny, 0, 1.0};
  ASSERT_TRUE(save_checkpoint(m.prognostic(), info, tmp_path()));
  EXPECT_FALSE(load_checkpoint<float>(tmp_path()).has_value());
  EXPECT_FALSE(load_checkpoint<float16>(tmp_path()).has_value());
}

TEST(Checkpoint, MissingOrCorruptFileRejected) {
  EXPECT_FALSE(load_checkpoint<double>("/tmp/tfx_no_such_file").has_value());
  // Corrupt the magic.
  FILE* f = std::fopen(tmp_path(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTACKPT", f);
  std::fclose(f);
  EXPECT_FALSE(load_checkpoint<double>(tmp_path()).has_value());
}

TEST(Checkpoint, CrossPrecisionHandoff) {
  // The deployment pattern: spin up at Float64, hand off to Float16.
  swm_params p = small_params();
  model<double> spinup(p);
  spinup.seed_random_eddies(9, 0.5);
  spinup.run(25);
  checkpoint_info info{p.nx, p.ny, 25, 1.0};
  ASSERT_TRUE(save_checkpoint(spinup.prognostic(), info, tmp_path()));

  const auto loaded = load_checkpoint<double>(tmp_path());
  ASSERT_TRUE(loaded.has_value());
  swm_params p16 = p;
  p16.log2_scale = 12;
  // Scale while converting: the Float16 model stores s * state.
  state<double> scaled = loaded->first;
  const double s = std::ldexp(1.0, p16.log2_scale);
  for (auto* f : {&scaled.u, &scaled.v, &scaled.eta}) {
    for (auto& v : f->flat()) v *= s;
  }
  model<float16> prod(p16, integration_scheme::compensated);
  prod.restore(convert_state<float16>(scaled),
               static_cast<int>(loaded->second.steps_taken));
  prod.run(15);
  EXPECT_TRUE(prod.diag().finite);
  EXPECT_EQ(prod.steps_taken(), 40);
}

namespace {

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(static_cast<bool>(in));
  std::vector<char> buf(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  return buf;
}

void write_file(const std::string& path, const std::vector<char>& buf) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

/// A deterministic state with non-trivial bit patterns at any element
/// type (including values half precision rounds: the stored bits, not
/// the intended reals, are what must round-trip).
template <typename T>
state<T> patterned_state(int nx, int ny) {
  state<T> s(nx, ny);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      s.u(i, j) = T(0.001 * i - 0.002 * j);
      s.v(i, j) = T(1.0 / (1 + i + j));
      s.eta(i, j) = T(std::sin(0.1 * i) * std::cos(0.2 * j));
    }
  }
  return s;
}

template <typename T>
void expect_state_bits_equal(const state<T>& a, const state<T>& b) {
  ASSERT_EQ(a.u.size(), b.u.size());
  for (const auto& [fa, fb] : {std::pair{&a.u, &b.u}, std::pair{&a.v, &b.v},
                               std::pair{&a.eta, &b.eta}}) {
    ASSERT_EQ(0, std::memcmp(fa->flat().data(), fb->flat().data(),
                             fa->flat().size() * sizeof(T)));
  }
}

/// Save/load at element type T and require a bit-exact round trip of
/// fields, compensation, and metadata.
template <typename T>
void round_trip_with_compensation() {
  const int nx = 12, ny = 6;
  const state<T> fields = patterned_state<T>(nx, ny);
  state<T> comp = patterned_state<T>(nx, ny);
  for (auto& x : comp.eta.flat()) x = T(static_cast<double>(x) * 0.125);
  const checkpoint_info info{nx, ny, 77, 2.5};
  ASSERT_TRUE(save_checkpoint(fields, comp, info, tmp_path()));

  const auto loaded = load_checkpoint_full<T>(tmp_path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->info.nx, nx);
  EXPECT_EQ(loaded->info.ny, ny);
  EXPECT_EQ(loaded->info.steps_taken, 77u);
  EXPECT_EQ(loaded->info.scale, 2.5);
  EXPECT_TRUE(loaded->info.has_compensation);
  expect_state_bits_equal(loaded->fields, fields);
  expect_state_bits_equal(loaded->compensation, comp);
}

}  // namespace

TEST(CheckpointV2, RoundTripAllElementTypes) {
  round_trip_with_compensation<double>();
  round_trip_with_compensation<float>();
  round_trip_with_compensation<float16>();
  round_trip_with_compensation<bfloat16>();
}

TEST(CheckpointV2, MagicIsTfxswm2AndNoTmpFileSurvives) {
  const state<double> s = patterned_state<double>(8, 4);
  ASSERT_TRUE(save_checkpoint(s, checkpoint_info{8, 4, 1, 1.0}, tmp_path()));
  const auto buf = read_file(tmp_path());
  ASSERT_GE(buf.size(), 8u);
  EXPECT_EQ(0, std::memcmp(buf.data(), "TFXSWM2\0", 8));
  EXPECT_FALSE(file_exists(std::string(tmp_path()) + ".tmp"));
}

TEST(CheckpointV2, FailedSaveLeavesPreviousCheckpointIntact) {
  const state<double> good = patterned_state<double>(8, 4);
  ASSERT_TRUE(
      save_checkpoint(good, checkpoint_info{8, 4, 11, 1.0}, tmp_path()));
  // A save into a nonexistent directory must fail loudly...
  EXPECT_FALSE(save_checkpoint(good, checkpoint_info{8, 4, 12, 1.0},
                               "/tmp/tfx_no_such_dir_xyz/ckpt.bin"));
  // ...and the earlier file must still load (atomic-rename discipline).
  const auto loaded = load_checkpoint_full<double>(tmp_path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->info.steps_taken, 11u);
}

TEST(CheckpointV2, TruncationRejectedAtEveryLength) {
  const state<double> s = patterned_state<double>(8, 4);
  ASSERT_TRUE(save_checkpoint(s, checkpoint_info{8, 4, 3, 1.0}, tmp_path()));
  const auto full = read_file(tmp_path());
  const std::string cut = std::string(tmp_path()) + ".cut";
  for (const std::size_t keep :
       {full.size() - 1, full.size() - 8, full.size() - 9, full.size() / 2,
        std::size_t{44}, std::size_t{7}}) {
    write_file(cut, {full.begin(), full.begin() + static_cast<long>(keep)});
    EXPECT_FALSE(load_checkpoint_full<double>(cut).has_value())
        << "accepted a file truncated to " << keep << " bytes";
  }
  // A padded file is just as wrong as a truncated one.
  auto padded = full;
  padded.push_back('\0');
  write_file(cut, padded);
  EXPECT_FALSE(load_checkpoint_full<double>(cut).has_value());
  std::remove(cut.c_str());
}

TEST(CheckpointV2, BitFlipAnywhereRejected) {
  const state<double> s = patterned_state<double>(8, 4);
  ASSERT_TRUE(save_checkpoint(s, checkpoint_info{8, 4, 3, 1.0}, tmp_path()));
  const auto full = read_file(tmp_path());
  const std::string bad = std::string(tmp_path()) + ".flip";
  // Flip one bit in the payload, in the header metadata, and in the
  // CRC footer itself: all must be caught.
  for (const std::size_t at :
       {full.size() / 2, std::size_t{16}, full.size() - 4}) {
    auto flipped = full;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
    write_file(bad, flipped);
    EXPECT_FALSE(load_checkpoint_full<double>(bad).has_value())
        << "accepted a bit flip at offset " << at;
  }
  std::remove(bad.c_str());
}

TEST(CheckpointV2, WrongMagicAndWrongElementSizeRejected) {
  const state<double> s = patterned_state<double>(8, 4);
  ASSERT_TRUE(save_checkpoint(s, checkpoint_info{8, 4, 3, 1.0}, tmp_path()));
  auto buf = read_file(tmp_path());
  buf[6] = '3';  // "TFXSWM3" - a future version is not silently loaded
  const std::string bad = std::string(tmp_path()) + ".magic";
  write_file(bad, buf);
  EXPECT_FALSE(load_checkpoint_full<double>(bad).has_value());
  std::remove(bad.c_str());
  // Element-size mismatch through the full loader, too.
  EXPECT_FALSE(load_checkpoint_full<float>(tmp_path()).has_value());
  EXPECT_FALSE(load_checkpoint_full<bfloat16>(tmp_path()).has_value());
}

TEST(CheckpointV2, V1FilesStillLoadAndTruncatedV1Rejected) {
  // Hand-write a v1 file (no flags, no CRC) byte for byte.
  const int nx = 6, ny = 4;
  const state<float> s = patterned_state<float>(nx, ny);
  std::vector<char> buf;
  auto put = [&](const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    buf.insert(buf.end(), c, c + n);
  };
  put("TFXSWM1\0", 8);
  const std::uint32_t elem = 4, unx = 6, uny = 4;
  const std::uint64_t steps = 9;
  const double scale = 1.5;
  put(&elem, 4);
  put(&unx, 4);
  put(&uny, 4);
  put(&steps, 8);
  put(&scale, 8);
  for (const auto* f : {&s.u, &s.v, &s.eta}) {
    put(f->flat().data(), f->flat().size() * sizeof(float));
  }
  const std::string v1 = std::string(tmp_path()) + ".v1";
  write_file(v1, buf);

  const auto loaded = load_checkpoint_full<float>(v1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->info.steps_taken, 9u);
  EXPECT_EQ(loaded->info.scale, 1.5);
  EXPECT_FALSE(loaded->info.has_compensation);
  expect_state_bits_equal(loaded->fields, s);
  // Compensation defaults to zero when the file carries none.
  for (const auto& x : loaded->compensation.eta.flat()) {
    EXPECT_EQ(static_cast<double>(x), 0.0);
  }

  // The v1 silent-truncation hole is closed: a short v1 file is
  // rejected, never zero-filled.
  write_file(v1, {buf.begin(), buf.end() - 12});
  EXPECT_FALSE(load_checkpoint_full<float>(v1).has_value());
  std::remove(v1.c_str());
}

TEST(CheckpointV2, CompensatedRestartContinuesBitExactly) {
  // The reason compensation is persisted at all: a Kahan-compensated
  // integration restarted without its residuals drifts off the
  // straight-through trajectory; with them it is bit-identical.
  const swm_params p = small_params();
  model<double> straight(p, integration_scheme::compensated);
  straight.seed_random_eddies(6, 0.5);
  straight.run(40);

  model<double> first(p, integration_scheme::compensated);
  first.seed_random_eddies(6, 0.5);
  first.run(20);
  const checkpoint_info info{p.nx, p.ny, 20, 1.0};
  ASSERT_TRUE(
      save_checkpoint(first.prognostic(), first.compensation(), info,
                      tmp_path()));

  const auto loaded = load_checkpoint_full<double>(tmp_path());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->info.has_compensation);
  model<double> resumed(p, integration_scheme::compensated);
  resumed.restore(loaded->fields, loaded->compensation,
                  static_cast<int>(loaded->info.steps_taken));
  resumed.run(20);
  expect_state_bits_equal(resumed.prognostic(), straight.prognostic());
}

TEST(Spectrum, PureModeHasSinglePeak) {
  field2d<double> f(32, 4);
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 32; ++i) {
      f(i, j) = std::sin(2.0 * M_PI * 5 * i / 32.0);
    }
  }
  const auto power = zonal_power_spectrum(f);
  ASSERT_EQ(power.size(), 17u);
  // All the energy at k=5.
  for (std::size_t k = 0; k < power.size(); ++k) {
    if (k == 5) {
      EXPECT_GT(power[k], 1.0);
    } else {
      EXPECT_NEAR(power[k], 0.0, 1e-9);
    }
  }
}

TEST(Spectrum, ParsevalHolds) {
  // Sum of |f|^2 equals (roughly, with the one-sided folding) the
  // spectral sum: check for a deterministic random field via the exact
  // two-sided relation sum|F_k|^2 = n * sum|f_i|^2.
  field2d<double> f(16, 2);
  tfx::xoshiro256 rng(4);
  double ss = 0;
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 16; ++i) {
      f(i, j) = rng.uniform(-1.0, 1.0);
      ss += f(i, j) * f(i, j);
    }
  }
  const auto power = zonal_power_spectrum(f);
  // Reconstruct the two-sided total: k=0 and k=n/2 appear once, the
  // rest twice.
  double total = power[0] + power[8];
  for (std::size_t k = 1; k < 8; ++k) total += 2.0 * power[k];
  EXPECT_NEAR(total, ss, 1e-9 * (ss + 1.0));
}

TEST(Spectrum, Float16PreservesTheEnergyCascade) {
  // Beyond point-wise RMSE: the spectral shape (where the turbulence
  // keeps its energy) must survive the Float16 run - the spectral
  // version of Fig. 4.
  swm_params p;
  p.nx = 48;
  p.ny = 24;
  model<double> ref(p);
  ref.seed_random_eddies(42, 0.5);
  ref.run(100);

  swm_params p16 = p;
  p16.log2_scale = 13;
  tfx::fp::ftz_guard ftz(tfx::fp::ftz_mode::flush);
  model<float16> half(p16, integration_scheme::compensated);
  half.seed_random_eddies(42, 0.5);
  half.run(100);

  const auto sr = zonal_power_spectrum(
      relative_vorticity(ref.unscaled(), p));
  const auto sh = zonal_power_spectrum(
      relative_vorticity(half.unscaled(), p16));
  ASSERT_EQ(sr.size(), sh.size());
  for (std::size_t k = 1; k < sr.size(); ++k) {
    if (sr[k] > 1e-12) {
      EXPECT_NEAR(sh[k] / sr[k], 1.0, 0.05) << "wavenumber " << k;
    }
  }
}
