// The two daemon workloads. One PcrDaemon runs in the benchmark process
// and four closed-loop trainers, each with its own PcrClient connection and
// thread, keep their granted in-flight windows full, consume every image of
// a batch (hash it; decode it first when the batch is compressed), and then
// ask for more.
//
//   serve-warm-pixels  CelebA-HQ-like, 64-image records, decoded batches on
//                      the shm plane, decode cache sized to hold the dataset
//                      and warmed with one epoch during set-up: every
//                      request is a cache hit, so the serve layer does all
//                      the work.
//   serve-cold-mixed   HAM10000-like with default cache budgets (the decoded
//                      dataset is ~5x the dataset's cache share). Two
//                      trainers take decoded full-fidelity batches on the shm
//                      plane, two take compressed batches at scan group 2 and
//                      decode them with jpeg::Decode.
//
// Each trainer opens one multi-epoch stream at set-up and reads it for the
// whole run, as a training job does.
#include <limits.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/pcr_dataset.h"
#include "inputs.h"
#include "jpeg/codec.h"
#include "layers.h"
#include "loader/decode_cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "trace.h"
#include "util/string_util.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace serve = pcr::serve;

constexpr int kTrainers = 4;
constexpr uint32_t kInflight = 4;
constexpr int kSetups = 3;
/// More epochs than any run reads: trainer streams never end in a run.
constexpr uint32_t kStreamEpochs = 1u << 20;
constexpr double kWarmupSec = 1.0;
constexpr double kSegmentSec = 1.0;

struct TrainerSpec {
  bool decode = true;
  uint32_t scan_group = 0;  // 0 = full fidelity.
  bool shm = true;
};

/// One daemon and the trainers' connections and open streams.
struct Rig {
  std::unique_ptr<serve::PcrDaemon> daemon;
  std::vector<std::unique_ptr<serve::PcrClient>> clients;
  std::vector<uint64_t> streams;
  double setup_s = 0;
};

/// Consumes one served batch the way a trainer would: every image hashed,
/// compressed images decoded first. Fills the delivery's labels and hashes.
pcr::Status Consume(const serve::ServedBatch& batch, bool* corrupt,
                    Delivery* d) {
  d->record = static_cast<int>(batch.record_index);
  d->scan_group = static_cast<int>(batch.scan_group);
  d->bytes_read = batch.bytes_read;
  d->labels = batch.labels;
  if (!batch.jpegs().empty()) {
    pcr::jpeg::DecodeScratch scratch;
    for (const std::string& jpeg : batch.jpegs()) {
      pcr::Result<pcr::Image> img = [&] {
        ScopedSpan span("jpeg.Decode", d->record);
        return pcr::jpeg::Decode(pcr::Slice(jpeg), &scratch);
      }();
      if (!img.ok()) return img.status();
      ScopedSpan span("trainer.hash", d->record);
      if (*corrupt) {
        img->data()[0] ^= 1;
        *corrupt = false;
      }
      d->hashes.push_back(HashImage(static_cast<uint32_t>(img->width()),
                                    static_cast<uint32_t>(img->height()),
                                    static_cast<uint32_t>(img->channels()),
                                    img->data(), img->size_bytes()));
    }
    return pcr::Status::OK();
  }
  ScopedSpan span("trainer.hash", d->record);
  for (const serve::ServedImageView& view : batch.images()) {
    if (*corrupt) {
      // The view may point into the daemon's shared segment; alter a copy.
      std::string copy(reinterpret_cast<const char*>(view.data), view.length);
      copy[0] ^= 1;
      *corrupt = false;
      d->hashes.push_back(HashImage(
          view.width, view.height, view.channels,
          reinterpret_cast<const uint8_t*>(copy.data()), copy.size()));
      continue;
    }
    d->hashes.push_back(
        HashImage(view.width, view.height, view.channels, view.data,
                  view.length));
  }
  return pcr::Status::OK();
}

/// Checker stream id of trainer `trainer`'s stream in set-up `setup`; the
/// warm epoch is trainer kTrainers.
int CheckId(int setup, int trainer) {
  return setup * (kTrainers + 1) + trainer;
}

serve::OpenStreamRequest TrainerStream(const std::string& dataset_dir,
                                       const TrainerSpec& trainer,
                                       uint64_t seed) {
  serve::OpenStreamRequest open;
  open.dataset_dir = dataset_dir;
  open.scan_group = trainer.scan_group;
  open.max_epochs = kStreamEpochs;
  open.shuffle = true;
  open.seed = seed;
  open.decode = trainer.decode;
  open.max_inflight = kInflight;
  open.shm_plane = trainer.shm;
  return open;
}

/// Daemon start, connects, (warm-pixels) the warm epoch, each trainer's
/// stream open and first batch. `reorder_window` is the checker's for the
/// trainer streams.
pcr::Result<Rig> SetUp(const serve::DaemonOptions& options,
                       const std::string& dataset_dir,
                       const std::vector<TrainerSpec>& trainers,
                       bool warm_epoch, uint64_t seed, int setup,
                       int reorder_window, Checker* checker) {
  Rig s;
  const double t0 = NowSec();
  {
    ScopedSpan span("serve.PcrDaemon::Start");
    PCR_ASSIGN_OR_RETURN(s.daemon,
                         serve::PcrDaemon::Start(pcr::Env::Default(), options));
  }
  for (int i = 0; i < kTrainers; ++i) {
    ScopedSpan span("serve.Connect");
    PCR_ASSIGN_OR_RETURN(auto client,
                         serve::PcrClient::Connect(
                             options.socket_path,
                             pcr::StrFormat("trainer-%d", i)));
    s.clients.push_back(std::move(client));
  }
  if (warm_epoch) {
    const int stream = CheckId(setup, kTrainers);
    checker->SetStream(stream, Checker::BytesRule::kAnyResidentPrefix,
                       /*epochs_must_complete=*/true);
    serve::OpenStreamRequest open;
    open.dataset_dir = dataset_dir;
    open.max_epochs = 1;
    open.shuffle = false;
    open.decode = true;
    serve::PcrClient* client = s.clients[0].get();
    PCR_ASSIGN_OR_RETURN(serve::StreamOpenedReply opened,
                         client->OpenStream(open));
    for (;;) {
      pcr::Result<serve::BatchReply> reply = [&] {
        ScopedSpan span("serve.NextBatch");
        return client->NextBatch(opened.stream_id);
      }();
      if (!reply.ok()) return reply.status();
      if (reply->end_of_stream) break;
      Delivery d;
      d.stream = stream;
      d.record = reply->record_index;
      d.scan_group = static_cast<int>(reply->scan_group);
      d.bytes_read = reply->bytes_read;
      d.labels = reply->labels;
      for (const serve::WireImage& img : reply->images) {
        d.hashes.push_back(HashImage(
            img.width, img.height, img.channels,
            reinterpret_cast<const uint8_t*>(img.pixels.data()),
            img.pixels.size()));
      }
      checker->Add(std::move(d));
    }
    PCR_RETURN_IF_ERROR(client->CloseStream(opened.stream_id).status());
  }
  for (int i = 0; i < kTrainers; ++i) {
    ScopedSpan span("serve.OpenStream");
    PCR_ASSIGN_OR_RETURN(
        serve::StreamOpenedReply opened,
        s.clients[i]->OpenStream(TrainerStream(
            dataset_dir, trainers[i],
            seed * 1000003ULL + static_cast<uint64_t>(CheckId(setup, i)))));
    s.streams.push_back(opened.stream_id);
  }
  // Every trainer fills its window and takes its first batch.
  for (int i = 0; i < kTrainers; ++i) {
    checker->SetStream(CheckId(setup, i),
                       Checker::BytesRule::kAnyResidentPrefix,
                       /*epochs_must_complete=*/false, reorder_window);
    for (uint32_t k = 0; k < kInflight; ++k) {
      ScopedSpan span("serve.SendNextBatchRequest");
      PCR_RETURN_IF_ERROR(s.clients[i]->SendNextBatchRequest(s.streams[i]));
    }
  }
  for (int i = 0; i < kTrainers; ++i) {
    pcr::Result<serve::ServedBatch> batch = [&] {
      ScopedSpan span("serve.ReceiveServedBatch");
      return s.clients[i]->ReceiveServedBatch(s.streams[i]);
    }();
    if (!batch.ok()) return batch.status();
    if (batch->end_of_stream) {
      return pcr::Status::FailedPrecondition("perfbench: stream ended at once");
    }
    Delivery d;
    d.stream = CheckId(setup, i);
    bool no_corrupt = false;
    PCR_RETURN_IF_ERROR(Consume(*batch, &no_corrupt, &d));
    checker->Add(std::move(d));
  }
  s.setup_s = NowSec() - t0;
  return s;
}

void TearDown(Rig& s) {
  for (size_t i = 0; i < s.clients.size(); ++i) {
    if (i < s.streams.size() && s.streams[i] != 0) {
      (void)s.clients[i]->CloseStream(s.streams[i]);
    }
    s.clients[i]->Close();
  }
  s.clients.clear();
  if (s.daemon) s.daemon->Stop();
  s.daemon.reset();
}

struct TrainerResult {
  explicit TrainerResult(size_t segments) : segment_images(segments, 0) {}
  std::vector<int64_t> segment_images;  // Images per window segment.
  std::vector<double> step_waits;     // Trainer steps done in the window.
  std::vector<double> round_trips;    // Request sent -> reply received.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;
  /// Traced runs: the daemon's counters for the trainer's stream, read
  /// after the window.
  std::vector<serve::StreamStats> stream_stats;
};

/// One closed-loop trainer: fill the granted window, then receive, consume,
/// and ask for one more. After `window_end` it stops asking and drains what
/// is in flight. With `drop`, every delivery of the first record it gets in
/// the window is left out of the checker.
void RunTrainer(serve::PcrClient* client, uint64_t stream_id, int check_id,
                double window_start, double window_end, bool corrupt,
                bool drop, Checker* checker, TrainerResult* out) {
  uint32_t outstanding = 0;
  int dropped = -1;
  double step_wait = 0;  // Blocked so far in the current step.
  int step_images = 0;
  // Send time of each outstanding request, oldest first (a stream answers
  // in order). Set-up sent the first window; those count from -1.
  std::deque<double> sent_at(kInflight - 1, -1.0);
  auto send = [&] {
    ScopedSpan span("serve.SendNextBatchRequest");
    pcr::Status s = client->SendNextBatchRequest(stream_id);
    if (!s.ok()) {
      out->error = s.ToString();
      return false;
    }
    sent_at.push_back(NowSec());
    ++outstanding;
    ++out->attempted;
    return true;
  };
  // Set-up already sent the first window and took the first batch.
  out->attempted = kInflight;
  outstanding = kInflight - 1;
  if (!send()) return;
  while (outstanding > 0) {
    const double t0 = NowSec();
    pcr::Result<serve::ServedBatch> batch = [&] {
      ScopedSpan span("serve.ReceiveServedBatch");
      return client->ReceiveServedBatch(stream_id);
    }();
    const double t1 = NowSec();
    --outstanding;
    const double sent = sent_at.front();
    sent_at.pop_front();
    if (!batch.ok() || batch->end_of_stream) {
      ++out->failed;
      out->error = batch.ok() ? "stream ended before its epochs"
                              : batch.status().ToString();
      return;
    }
    Delivery d;
    d.stream = check_id;
    const pcr::Status consumed = Consume(*batch, &corrupt, &d);
    batch->Release();
    if (!consumed.ok()) {
      ++out->failed;
      out->error = consumed.ToString();
      return;
    }
    step_wait += t1 - t0;
    step_images += static_cast<int>(d.hashes.size());
    const bool step_done = step_images >= kStepImages;
    const bool in_window = t1 >= window_start && t1 < window_end;
    if (in_window) {
      const size_t segment =
          static_cast<size_t>((t1 - window_start) / kSegmentSec);
      out->segment_images[segment] += static_cast<int64_t>(d.hashes.size());
      if (step_done) out->step_waits.push_back(step_wait);
      if (sent >= window_start) out->round_trips.push_back(t1 - sent);
    }
    if (step_done) {
      step_wait = 0;
      step_images = 0;
    }
    if (drop && in_window && dropped < 0) dropped = d.record;
    if (d.record != dropped) checker->Add(std::move(d));
    if (NowSec() < window_end && !send()) return;
  }
  if (Tracer::enabled()) {
    ScopedSpan span("serve.GetStats");
    auto stats = client->GetStats(stream_id);
    if (stats.ok()) {
      for (const serve::StreamStats& st : stats->streams) {
        if (st.stream_id == stream_id) out->stream_stats.push_back(st);
      }
    }
  }
}

/// The share of the dataset's decoded records that a DecodeCache with a
/// budget of 1.25x the decoded dataset keeps, when every record is inserted
/// under the key the daemon gives it at full fidelity. 1 means a budget
/// just above the dataset's size holds it.
pcr::Result<double> DecodeCacheFitShare(const std::string& dataset_dir,
                                        const pcr::PcrDataset& dataset,
                                        const InputSet& in,
                                        uint64_t decoded) {
  PCR_ASSIGN_OR_RETURN(uint64_t cache_id,
                       serve::PcrDaemon::DeriveCacheDatasetId(
                           pcr::Env::Default(), dataset_dir));
  pcr::DecodeCacheOptions options;
  options.capacity_bytes = decoded + decoded / 4;
  pcr::DecodeCache cache(options);
  const int group = dataset.num_scan_groups();
  for (int r = 0; r < dataset.num_records(); ++r) {
    pcr::LoadedBatch batch;
    batch.record_index = r;
    batch.scan_group = group;
    for (int i = 0; i < dataset.RecordImages(r); ++i) {
      batch.labels.push_back(0);
      batch.images.emplace_back(in.spec.base_width, in.spec.base_height, 3);
    }
    (void)cache.Insert(pcr::DecodeCacheKey{cache_id, r, group},
                       std::move(batch));
  }
  int kept = 0;
  for (int r = 0; r < dataset.num_records(); ++r) {
    if (cache.Lookup(pcr::DecodeCacheKey{cache_id, r, group})) ++kept;
  }
  return static_cast<double>(kept) / dataset.num_records();
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

std::string AbsolutePath(const std::string& path) {
  char buf[PATH_MAX];
  return realpath(path.c_str(), buf) != nullptr ? std::string(buf) : path;
}

}  // namespace

int RunServe(const RunOptions& opt) {
  const bool warm = opt.workload == "serve-warm-pixels";
  const std::string dataset_name = warm ? "celebahq_like" : "ham10000_like";
  auto inputs = PrepareInputs(dataset_name, opt.seed,
                              warm ? std::vector<int>{10}
                                   : std::vector<int>{2, 10},
                              opt.prepare);
  if (opt.prepare) return inputs.ok() ? 0 : InputFailure(inputs.status());
  if (!inputs.ok()) return InputFailure(inputs.status());
  const InputSet& in = *inputs;
  auto meta = pcr::PcrDataset::Open(pcr::Env::Default(), in.pcr_dir);
  if (!meta.ok()) return InputFailure(meta.status());
  pcr::PcrDataset* dataset = meta->get();
  const std::string dataset_dir = AbsolutePath(in.pcr_dir);

  std::vector<TrainerSpec> trainers(kTrainers);
  serve::DaemonOptions options;
  // Fixed 256x256x3 images on warm-pixels.
  const uint64_t decoded = static_cast<uint64_t>(in.num_images()) *
                           in.spec.base_width * in.spec.base_height * 3;
  // Warm-pixels is served from the cache alone, so its streams keep epochs
  // in order and are checked exactly. On cold-mixed, cache hits overtake
  // misses still in decode, so a stream's epochs overlap at their
  // boundaries; half an epoch of overlap is accepted and counted.
  int reorder_window = 0;
  if (warm) {
    // Holds the decoded dataset wherever its records hash: the cache splits
    // its budget evenly over its shards, and where records land depends on
    // the dataset's absolute path. A budget of the dataset's size would make
    // the hit rate, and every figure, depend on where the checkout is;
    // loader.decode_cache_fit_share shows what such a budget holds.
    options.decode_cache_bytes = decoded * pcr::DecodeCacheOptions().shards;
    options.dataset_cache_share = 1.0;
  } else {
    trainers[2] = trainers[3] = TrainerSpec{false, 2, false};
    reorder_window = dataset->num_records() / 2;
  }

  Checker checker(dataset, in.spec.images_per_record, &in.labels, &in.oracle);
  std::vector<double> setups;
  Rig rig;
  for (int k = 0; k < kSetups; ++k) {
    options.socket_path =
        pcr::StrFormat("%s/pcrd-%d-%d.sock", kCacheRoot,
                       static_cast<int>(getpid()), k);
    auto s = SetUp(options, dataset_dir, trainers, warm, opt.seed, k,
                   reorder_window, &checker);
    if (!s.ok()) return InputFailure(s.status());
    setups.push_back(s->setup_s);
    fprintf(stderr, "[perfbench] set-up %d: %.4fs\n", k, s->setup_s);
    if (k + 1 < kSetups) {
      TearDown(*s);
    } else {
      rig = std::move(s).MoveValue();
    }
  }

  const int measured = CheckId(kSetups - 1, 0);
  const int warm_epoch = CheckId(kSetups - 1, kTrainers);
  // The drop self-test drops from a stream that reads several epochs.
  const int drop_trainer = warm ? 0 : 2;
  const double window_start = NowSec() + kWarmupSec;
  const size_t segments = static_cast<size_t>(
      std::max(1.0, std::round(opt.seconds / kSegmentSec)));
  const double window_end = window_start + segments * kSegmentSec;
  std::vector<TrainerResult> results(kTrainers, TrainerResult(segments));
  std::vector<std::thread> threads;
  for (int i = 0; i < kTrainers; ++i) {
    threads.emplace_back([&, i] {
      RunTrainer(rig.clients[i].get(), rig.streams[i], measured + i,
                 window_start, window_end, opt.corrupt_one && i == 0,
                 opt.drop_one && i == drop_trainer, &checker, &results[i]);
    });
  }
  // CPU is read at every segment edge; threads are counted mid-window.
  auto sleep_until = [](double t) {
    const double now = NowSec();
    if (t > now) usleep(static_cast<useconds_t>((t - now) * 1e6));
  };
  std::vector<double> cpu_at;
  int process_threads = 0;
  for (size_t k = 0; k <= segments; ++k) {
    sleep_until(window_start + k * kSegmentSec);
    cpu_at.push_back(ProcessCpuSec());
    if (k == segments / 2) process_threads = ProcessThreads();
  }
  for (std::thread& t : threads) t.join();

  int64_t attempted = 0, failed = 0;
  Window window;
  for (int i = 0; i < kTrainers; ++i) {
    const TrainerResult& r = results[i];
    attempted += r.attempted;
    failed += r.failed;
    if (!r.error.empty()) {
      fprintf(stderr, "[perfbench] trainer %d: %s\n", i, r.error.c_str());
    }
    for (double w : r.step_waits) window.AddWait(w);
  }
  for (size_t k = 0; k < segments; ++k) {
    std::vector<int64_t> images;
    for (const TrainerResult& r : results) {
      images.push_back(r.segment_images[k]);
    }
    window.AddSegment(kSegmentSec, cpu_at[k + 1] - cpu_at[k], images);
  }

  Metrics metrics;
  window.Report(&metrics, Median(setups));

  if (opt.trace) {
    {
      int64_t batches = 0, served_images = 0, hits = 0, misses = 0;
      int64_t zero_copy = 0, slot_waits = 0, shm_batches = 0;
      int64_t shm_stream_batches = 0;
      uint64_t copied = 0;
      std::vector<double> qw50, qw99, sv50, sv99;
      for (int i = 0; i < kTrainers; ++i) {
        for (const serve::StreamStats& st : results[i].stream_stats) {
          batches += st.served_batches;
          served_images += st.served_images;
          hits += st.cache_hits;
          misses += st.cache_misses;
          zero_copy += st.zero_copy_hits;
          slot_waits += st.shm_slot_waits;
          copied += st.bytes_copied;
          if (trainers[i].shm) {
            shm_batches += st.shm_batches;
            shm_stream_batches += st.served_batches;
          }
          qw50.push_back(st.queue_wait_p50_sec * 1e3);
          qw99.push_back(st.queue_wait_p99_sec * 1e3);
          sv50.push_back(st.batch_p50_sec * 1e3);
          sv99.push_back(st.batch_p99_sec * 1e3);
        }
      }
      const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
      // Across streams (one per trainer): the median stream's p50, the
      // worst stream's p99.
      metrics.Set("serve.queue_wait_p50_ms", Median(qw50), "ms");
      metrics.Set("serve.queue_wait_tail_ms", Max(qw99), "ms");
      metrics.Set("serve.service_p50_ms", Median(sv50), "ms");
      metrics.Set("serve.service_tail_ms", Max(sv99), "ms");
      // Outside the daemon's receipt -> reply-written interval: the
      // request's and the reply's trips and the client's parsing. Per
      // trainer, its round-trip p50 minus its stream's service p50; the
      // median over trainers.
      std::vector<double> transport;
      for (const TrainerResult& r : results) {
        if (r.stream_stats.empty()) continue;
        std::vector<double> trips = r.round_trips;
        transport.push_back(Quantile(trips, 0.5) * 1e3 -
                            r.stream_stats.front().batch_p50_sec * 1e3);
      }
      metrics.Set("serve.transport_p50_ms", Median(transport), "ms");
      metrics.Set("serve.copied_bytes_per_image",
                  ratio(static_cast<double>(copied), served_images), "B");
      metrics.Set("serve.shm_batch_share",
                  ratio(shm_batches, shm_stream_batches), "share");
      metrics.Set("serve.slot_waits_per_batch", ratio(slot_waits, batches),
                  "count");
      metrics.Set("loader.decode_cache_hit_share",
                  ratio(hits, hits + misses), "share");
      metrics.Set("loader.zero_copy_hit_share", ratio(zero_copy, batches),
                  "share");
    }
    double lo = 0, hi = 0;
    for (int i = 0; i < kTrainers; ++i) {
      int64_t images = 0;
      for (int64_t n : results[i].segment_images) images += n;
      const double rate = images / window.seconds();
      lo = i == 0 ? rate : std::min(lo, rate);
      hi = std::max(hi, rate);
    }
    metrics.Set("serve.trainer_rate_min_over_max", hi > 0 ? lo / hi : 0,
                "ratio");
    metrics.Set("serve.process_threads", process_threads, "threads");
    if (warm) {
      auto fit = DecodeCacheFitShare(dataset_dir, *dataset, in, decoded);
      if (!fit.ok()) return InputFailure(fit.status());
      metrics.Set("loader.decode_cache_fit_share", *fit, "share");
    }
  }

  std::vector<int> delivered;
  uint64_t bytes_read = 0, bytes_needed = 0;
  int64_t delivered_images = 0;
  checker.ForEachDelivery([&](const Delivery& d) {
    // The measured rig's trainer streams; not its warm epoch.
    if (d.stream < measured || d.stream >= warm_epoch) return;
    delivered.push_back(d.record);
    bytes_read += d.bytes_read;
    bytes_needed += dataset->RecordReadBytes(d.record, d.scan_group);
    delivered_images += static_cast<int64_t>(d.hashes.size());
  });
  TearDown(rig);

  if (opt.trace) {
    metrics.Set("storage.bytes_per_image",
                static_cast<double>(bytes_read) / delivered_images, "B");
    metrics.Set("loader.prefix_resident_share",
                1.0 - static_cast<double>(bytes_read) /
                          static_cast<double>(bytes_needed),
                "share");
    metrics.Set("core.stored_bytes_ratio",
                static_cast<double>(dataset->total_bytes()) /
                    static_cast<double>(in.baseline_blob.size()),
                "ratio");
    if (!RunLayerPass(dataset, FirstRecords(delivered, *dataset), &metrics)) {
      ++failed;
    }
  }
  return Finish(opt, checker, metrics, attempted, failed);
}

}  // namespace perfbench
