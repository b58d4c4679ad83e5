// loader-ladder-remote: one trainer reads an ImageNet-like PCR dataset
// from a simulated remote store through LoaderPipeline, raising fidelity
// 1 -> 2 -> 5 -> 10 over four epochs (one round). Each epoch gets a fresh
// pipeline with the default stage shape and no decode cache; the four share
// one PrefixCache, so an upgrade fetches only the new bytes. Every round
// starts with a fresh prefix cache. Set-up converts the seeded baseline
// JPEGs into PCRs in the store with PcrDatasetWriter.
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/pcr_dataset.h"
#include "inputs.h"
#include "layers.h"
#include "loader/pipeline.h"
#include "loader/prefix_cache.h"
#include "loader/scan_policy.h"
#include "storage/sim_env.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kLadder[] = {1, 2, 5, 10};
constexpr int kSetups = 3;

/// The paper's Ceph pool, with bandwidth and fixed latencies scaled by our
/// mean image size over ImageNet's (Table 1: 129 GiB / 1,281,167 images),
/// against the ~120 MB/s effective bandwidth its Figure 9 rates imply --
/// the same calibration the per-figure benches use, so the same scan
/// groups are storage-bound as on the paper's cluster.
pcr::DeviceProfile CalibratedStorage(double our_mean_image_bytes) {
  pcr::DeviceProfile profile = pcr::DeviceProfile::CephCluster();
  const double paper = 129.0 * (1ULL << 30) / 1281167.0;
  const double ratio = our_mean_image_bytes / paper;
  profile.read_bandwidth_bytes_per_sec = 120.0e6 * ratio;
  profile.seek_latency_sec *= ratio;
  profile.per_op_latency_sec *= ratio;
  return profile;
}

struct Store {
  std::unique_ptr<pcr::SimEnv> env;
  std::unique_ptr<pcr::PcrDataset> dataset;
  double setup_s = 0;
  double write_s = 0;  // AddImage + Finish.
};

pcr::Result<Store> SetUp(const InputSet& in,
                         const pcr::DeviceProfile& profile) {
  Store store;
  const double t0 = NowSec();
  store.env = std::make_unique<pcr::SimEnv>(profile, pcr::RealClock::Get());
  pcr::PcrWriterOptions options;
  options.images_per_record = in.spec.images_per_record;
  const std::string dir = "/store/imagenet_like";
  {
    std::unique_ptr<pcr::PcrDatasetWriter> writer;
    {
      ScopedSpan span("core.PcrDatasetWriter::Create");
      PCR_ASSIGN_OR_RETURN(
          writer, pcr::PcrDatasetWriter::Create(store.env.get(), dir, options));
    }
    const double tw = NowSec();
    for (int i = 0; i < in.num_images(); ++i) {
      ScopedSpan span("core.AddImage");
      PCR_RETURN_IF_ERROR(
          writer->AddImage(pcr::Slice(in.baseline(i)), in.labels[i]));
    }
    {
      ScopedSpan span("core.Finish");
      PCR_RETURN_IF_ERROR(writer->Finish());
    }
    store.write_s = NowSec() - tw;
  }
  {
    ScopedSpan span("core.PcrDataset::Open");
    PCR_ASSIGN_OR_RETURN(store.dataset,
                         pcr::PcrDataset::Open(store.env.get(), dir));
  }
  store.setup_s = NowSec() - t0;
  return store;
}

}  // namespace

int RunLadder(const RunOptions& opt) {
  auto inputs =
      PrepareInputs("imagenet_like", opt.seed, {1, 2, 5, 10}, opt.prepare);
  if (opt.prepare) return inputs.ok() ? 0 : InputFailure(inputs.status());
  if (!inputs.ok()) return InputFailure(inputs.status());
  const InputSet& in = *inputs;

  // The store's calibration comes from the generated inputs, not from the
  // set-up under test.
  double mean_image_bytes = 0;
  {
    auto cached = pcr::PcrDataset::Open(pcr::Env::Default(), in.pcr_dir);
    if (!cached.ok()) return InputFailure(cached.status());
    mean_image_bytes = (*cached)->MeanImageBytes((*cached)->num_scan_groups());
  }
  const pcr::DeviceProfile profile = CalibratedStorage(mean_image_bytes);

  std::vector<double> setups, writes;
  Store store;
  for (int k = 0; k < kSetups; ++k) {
    store = Store();  // Release the previous store first.
    auto s = SetUp(in, profile);
    if (!s.ok()) return InputFailure(s.status());
    store = std::move(s).MoveValue();
    setups.push_back(store.setup_s);
    writes.push_back(store.write_s);
    fprintf(stderr, "[perfbench] set-up %d: %.4fs\n", k, store.setup_s);
  }
  pcr::PcrDataset* dataset = store.dataset.get();

  Checker checker(dataset, in.spec.images_per_record, &in.labels, &in.oracle);
  checker.SetStream(0, Checker::BytesRule::kExactPrivatePrefix,
                    /*epochs_must_complete=*/true);
  Window window;
  int64_t attempted = 0, failed = 0;
  int64_t timed_records = 0;
  uint64_t bytes_read = 0, bytes_needed = 0;
  double io_stall = 0, decode_stall = 0, decode_busy = 0;
  int64_t io_retries = 0;
  std::vector<int> delivered;
  int rounds = 0;
  bool corrupt = opt.corrupt_one;
  int dropped = -1;  // The record the drop self-test leaves out.

  // Whole rounds until the window is full; the first round warms up. Each
  // timed round is one segment of the window.
  for (int round = 0;; ++round) {
    const bool timed = round > 0;
    if (timed && window.seconds() >= opt.seconds) break;
    checker.ResetResidency();
    auto prefixes = std::make_shared<pcr::PrefixCache>(
        pcr::PrefixCacheOptions{2 * dataset->total_bytes()});
    const uint64_t prefix_id = prefixes->RegisterDataset();
    double round_wall = 0, round_cpu = 0;
    int64_t round_images = 0;
    for (int g : kLadder) {
      pcr::LoaderPipelineOptions options;  // Default stage shape.
      options.max_epochs = 1;
      options.shuffle = true;
      options.seed = opt.seed * 1000 + static_cast<uint64_t>(round * 16 + g);
      options.scan_policy = std::make_shared<pcr::FixedScanPolicy>(g);
      options.prefix_cache = prefixes;
      options.prefix_dataset_id = prefix_id;
      const double cpu0 = ProcessCpuSec();
      const double t0 = NowSec();
      auto pipeline = [&] {
        ScopedSpan span("loader.LoaderPipeline");
        return std::make_unique<pcr::LoaderPipeline>(dataset, options);
      }();
      int64_t images = 0;
      std::vector<double> waits;  // One per trainer step.
      double step_wait = 0;
      int step_images = 0;
      for (;;) {
        const double tw = NowSec();
        ++attempted;
        auto batch = [&] {
          ScopedSpan span("loader.Next");
          return pipeline->Next();
        }();
        const double wait = NowSec() - tw;
        if (!batch.ok()) {
          if (batch.status().IsOutOfRange()) {
            --attempted;  // End of epoch, not a batch request.
            break;
          }
          fprintf(stderr, "[perfbench] Next failed: %s\n",
                  batch.status().ToString().c_str());
          ++failed;
          break;
        }
        step_wait += wait;
        step_images += batch->size();
        if (step_images >= kStepImages) {
          waits.push_back(step_wait);
          step_wait = 0;
          step_images = 0;
        }
        Delivery d;
        d.stream = 0;
        d.record = batch->record_index;
        d.scan_group = batch->scan_group;
        d.bytes_read = batch->bytes_read;
        d.labels = batch->labels;
        {
          ScopedSpan span("trainer.hash", d.record);
          for (pcr::Image& img : batch->images) {
            if (corrupt) {
              img.data()[0] ^= 1;
              corrupt = false;
            }
            d.hashes.push_back(HashImage(
                static_cast<uint32_t>(img.width()),
                static_cast<uint32_t>(img.height()),
                static_cast<uint32_t>(img.channels()), img.data(),
                img.size_bytes()));
          }
        }
        images += static_cast<int64_t>(d.hashes.size());
        if (timed) {
          ++timed_records;
          bytes_read += d.bytes_read;
          bytes_needed += dataset->RecordReadBytes(d.record, d.scan_group);
        }
        delivered.push_back(d.record);
        if (opt.drop_one && timed && dropped < 0) dropped = d.record;
        if (d.record != dropped) checker.Add(std::move(d));
      }
      const double t1 = NowSec();
      const double cpu1 = ProcessCpuSec();
      round_wall += t1 - t0;
      round_cpu += cpu1 - cpu0;
      round_images += images;
      if (timed) {
        for (double w : waits) window.AddWait(w);
        io_stall += pipeline->io_stall_seconds();
        decode_stall += pipeline->decode_stall_seconds();
        decode_busy += pipeline->decode_stats().busy_seconds;
        io_retries += pipeline->io_stats().io_retries;
      }
      pipeline.reset();
    }
    if (timed) {
      window.AddSegment(round_wall, round_cpu, {round_images});
      ++rounds;
    }
  }

  Metrics metrics;
  window.Report(&metrics, Median(setups));
  fprintf(stderr,
          "[perfbench] loader-ladder-remote: %d timed rounds, store %.1f "
          "MB/s, %.2f ms/op, %.1f MiB of PCRs\n",
          rounds, profile.read_bandwidth_bytes_per_sec / 1e6,
          (profile.per_op_latency_sec + profile.seek_latency_sec) * 1e3,
          dataset->total_bytes() / (1024.0 * 1024.0));

  if (opt.trace) {
    const int64_t images = window.images();
    const double batches = static_cast<double>(timed_records);
    metrics.Set("storage.bytes_per_image",
                static_cast<double>(bytes_read) / images, "B");
    metrics.Set("core.write_us_per_image",
                Median(writes) * 1e6 / in.num_images(), "us");
    metrics.Set("core.stored_bytes_ratio",
                static_cast<double>(dataset->total_bytes()) /
                    static_cast<double>(in.baseline_blob.size()),
                "ratio");
    metrics.Set("loader.io_stall_ms_per_batch", io_stall * 1e3 / batches,
                "ms");
    metrics.Set("loader.decode_stall_ms_per_batch",
                decode_stall * 1e3 / batches, "ms");
    metrics.Set("loader.decode_busy_us_per_image", decode_busy * 1e6 / images,
                "us");
    metrics.Set("loader.prefix_resident_share",
                1.0 - static_cast<double>(bytes_read) /
                          static_cast<double>(bytes_needed),
                "share");
    metrics.Set("loader.io_retries", static_cast<double>(io_retries), "count");
    if (!RunLayerPass(dataset, FirstRecords(delivered, *dataset), &metrics)) {
      ++failed;
    }
  }
  return Finish(opt, checker, metrics, attempted, failed);
}

}  // namespace perfbench
