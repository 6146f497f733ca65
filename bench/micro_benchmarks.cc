// Microbenchmarks (google-benchmark) for the substrate primitives: event
// queue throughput, network message setup, serialization, state-size
// estimation, turning-point detection and the application kernels (run with
// `--benchmark_out_format=json` for the BENCH_* trajectory). The
// real-threads engine's transport has its own bench, engine_throughput.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>

#include "apps/kernels/blob_count.h"
#include "apps/kernels/kmeans.h"
#include "apps/kernels/svm.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "statesize/state_size.h"
#include "statesize/turning_point.h"
#include "storage/durable_file.h"

namespace {

using namespace ms;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(SimTime::micros(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_NetworkSend(benchmark::State& state) {
  net::ClusterConfig cfg;
  cfg.num_nodes = 8;
  for (auto _ : state) {
    sim::Simulation sim;
    net::Topology topo(cfg);
    net::Network net(&sim, &topo);
    for (int i = 0; i < 1000; ++i) {
      net.send(i % 4, 4 + i % 4, 1024, net::MsgCategory::kData, [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NetworkSend);

void BM_SerializeDoubles(benchmark::State& state) {
  std::vector<double> data(static_cast<std::size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    BinaryWriter w;
    w.write_vector(data);
    BinaryReader r(w.data());
    auto out = r.read_vector<double>();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_SerializeDoubles)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131);
  }
  for (auto _ : state) {
    const std::uint32_t crc = storage::crc32c(data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(storage::crc32c_hw_available() ? "sse4.2" : "sw-table");
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// The checksum-overhead pair: the same checkpoint blob written through the
// framed path (CRC + 24-byte header) and as raw bytes. The delta between
// the two trajectories is the integrity tax on the checkpoint write path.
void bench_checkpoint_write(benchmark::State& state, bool framed) {
  const auto dir = std::filesystem::temp_directory_path() / "ms_bench_ckpt";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "op_0.ckpt").string();
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i);
  }
  // Page cache only: the subject is framing overhead, not device fsync.
  const storage::DurableOptions opts{storage::SyncMode::kNone, nullptr};
  for (auto _ : state) {
    if (framed) {
      const Status st = storage::write_artifact(
          path, storage::ArtifactKind::kCheckpoint, blob.data(), blob.size(),
          opts);
      benchmark::DoNotOptimize(st);
    } else {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  std::filesystem::remove_all(dir);
}

void BM_CheckpointFrameWrite(benchmark::State& state) {
  bench_checkpoint_write(state, /*framed=*/true);
}
BENCHMARK(BM_CheckpointFrameWrite)->Arg(4096)->Arg(1 << 20);

void BM_CheckpointRawWrite(benchmark::State& state) {
  bench_checkpoint_write(state, /*framed=*/false);
}
BENCHMARK(BM_CheckpointRawWrite)->Arg(4096)->Arg(1 << 20);

void BM_StateSizeSampling(benchmark::State& state) {
  std::vector<std::vector<double>> pool(
      static_cast<std::size_t>(state.range(0)), std::vector<double>(3, 1.0));
  for (auto _ : state) {
    const Bytes est = statesize::sample_container(
        pool, [](const std::vector<double>& v) {
          return static_cast<Bytes>(v.size() * 8 + 24);
        });
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_StateSizeSampling)->Arg(100)->Arg(100000);

void BM_TurningPointDetector(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back(100.0 + 50.0 * std::sin(i * 0.1) + rng.uniform());
  }
  for (auto _ : state) {
    statesize::TurningPointDetector det(1e-6);
    int tps = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (det.add_sample(SimTime::seconds(static_cast<int>(i)), samples[i])) {
        ++tps;
      }
    }
    benchmark::DoNotOptimize(tps);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TurningPointDetector);

void BM_KMeans(benchmark::State& state) {
  Rng gen(11);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < state.range(0); ++i) {
    points.push_back({gen.uniform(0.0, 100.0), gen.uniform(0.0, 100.0)});
  }
  for (auto _ : state) {
    Rng rng(13);
    const auto r = apps::kmeans(points, 4, rng, 12);
    benchmark::DoNotOptimize(r.inertia);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeans)->Arg(256)->Arg(4096);

void BM_BlobCount(benchmark::State& state) {
  Rng rng(17);
  auto grid = apps::OccupancyGrid::blank(48, 32);
  for (int i = 0; i < 12; ++i) {
    apps::paint_blob(grid, 2 + static_cast<int>(rng.uniform_u64(44)),
                     2 + static_cast<int>(rng.uniform_u64(28)), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::count_blobs(grid));
  }
}
BENCHMARK(BM_BlobCount);

void BM_SvmUpdate(benchmark::State& state) {
  Rng rng(19);
  apps::LinearSvm svm(4);
  std::vector<double> x{0.1, 0.2, 0.3, 0.4};
  for (auto _ : state) {
    x[0] = rng.uniform();
    svm.update(x, x[0] > 0.5 ? 1 : -1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SvmUpdate);

}  // namespace

BENCHMARK_MAIN();
