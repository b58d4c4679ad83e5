#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/pcr_dataset.h"
#include "jpeg/codec.h"
#include "jpeg/reference_codec.h"
#include "storage/env.h"
#include "util/string_util.h"

namespace perfbench {

using pcr::Env;
using pcr::Result;
using pcr::Status;

namespace {

// Bump when generation or oracle code changes what lands in the cache.
constexpr int kInputGeneration = 1;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int Workers() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/// Runs fn(i) for i in [0, n) on a few threads; first failure wins.
Status ParallelFor(int n, const std::function<Status(int)>& fn) {
  std::atomic<int> next{0};
  std::mutex mu;
  Status first;
  std::vector<std::thread> threads;
  for (int t = 0; t < Workers(); ++t) {
    threads.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        Status s = fn(i);
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) first = s;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return first;
}

template <typename T>
std::string Pack(const std::vector<T>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(T));
}

template <typename T>
Status Unpack(Env* env, const std::string& path, std::vector<T>* out) {
  std::string bytes;
  PCR_RETURN_IF_ERROR(env->ReadFileToString(path, &bytes));
  if (bytes.size() % sizeof(T) != 0) {
    return Status::Corruption("perfbench: bad cache file " + path);
  }
  out->resize(bytes.size() / sizeof(T));
  std::memcpy(out->data(), bytes.data(), bytes.size());
  return Status::OK();
}

uint64_t HashDecoded(const pcr::Image& img) {
  return HashImage(static_cast<uint32_t>(img.width()),
                   static_cast<uint32_t>(img.height()),
                   static_cast<uint32_t>(img.channels()), img.data(),
                   img.size_bytes());
}

Status BuildOracle(Env* env, InputSet* in, int group,
                   std::vector<uint64_t>* out) {
  out->assign(in->num_images(), 0);
  if (group >= 10) {
    return ParallelFor(in->num_images(), [&](int i) -> Status {
      PCR_ASSIGN_OR_RETURN(pcr::Image img, pcr::jpeg::ReferenceCodec::Decode(
                                               pcr::Slice(in->baseline(i))));
      (*out)[i] = HashDecoded(img);
      return Status::OK();
    });
  }
  PCR_ASSIGN_OR_RETURN(auto pcr, pcr::PcrDataset::Open(env, in->pcr_dir));
  const int per_record = in->spec.images_per_record;
  return ParallelFor(pcr->num_records(), [&](int r) -> Status {
    PCR_ASSIGN_OR_RETURN(pcr::RecordBatch batch, pcr->ReadRecord(r, group));
    for (int i = 0; i < batch.size(); ++i) {
      PCR_ASSIGN_OR_RETURN(pcr::Image img,
                           pcr::jpeg::ReferenceCodec::Decode(batch.jpeg(i)));
      (*out)[r * per_record + i] = HashDecoded(img);
    }
    return Status::OK();
  });
}

Status Generate(Env* env, InputSet* in) {
  const pcr::DatasetSpec& spec = in->spec;
  const int n = spec.num_images;
  in->labels.resize(n);
  for (int i = 0; i < n; ++i) {
    in->labels[i] = static_cast<int64_t>(
        SplitMix(spec.seed * 0x100000001b3ULL + static_cast<uint64_t>(i)) %
        static_cast<uint64_t>(spec.num_classes));
  }
  std::vector<std::string> jpegs(n);
  pcr::jpeg::EncodeOptions encode;
  encode.quality = spec.jpeg_quality;
  PCR_RETURN_IF_ERROR(ParallelFor(n, [&](int i) -> Status {
    const pcr::Image img =
        pcr::GenerateImage(spec, static_cast<int>(in->labels[i]),
                           spec.seed * 100000 + static_cast<uint64_t>(i));
    PCR_ASSIGN_OR_RETURN(jpegs[i], pcr::jpeg::Encode(img, encode));
    return Status::OK();
  }));
  in->baseline_offsets.assign(1, 0);
  for (const std::string& j : jpegs) {
    in->baseline_blob += j;
    in->baseline_offsets.push_back(in->baseline_blob.size());
  }
  // The writer transcodes on one core; transcoding here on all of them
  // first writes the same bytes (the writer keeps progressive input as is).
  PCR_RETURN_IF_ERROR(ParallelFor(n, [&](int i) -> Status {
    PCR_ASSIGN_OR_RETURN(jpegs[i], pcr::jpeg::TranscodeToProgressive(
                                       pcr::Slice(jpegs[i])));
    return Status::OK();
  }));
  pcr::PcrWriterOptions options;
  options.images_per_record = spec.images_per_record;
  PCR_ASSIGN_OR_RETURN(auto writer,
                       pcr::PcrDatasetWriter::Create(env, in->pcr_dir, options));
  for (int i = 0; i < n; ++i) {
    PCR_RETURN_IF_ERROR(writer->AddImage(pcr::Slice(jpegs[i]), in->labels[i]));
  }
  PCR_RETURN_IF_ERROR(writer->Finish());
  PCR_RETURN_IF_ERROR(env->WriteStringToFile(in->dir + "/baseline.jpg.bin",
                                             pcr::Slice(in->baseline_blob)));
  PCR_RETURN_IF_ERROR(env->WriteStringToFile(
      in->dir + "/baseline.idx", pcr::Slice(Pack(in->baseline_offsets))));
  return env->WriteStringToFile(in->dir + "/labels.bin",
                                pcr::Slice(Pack(in->labels)));
}

pcr::DatasetSpec SpecFor(const std::string& dataset, uint64_t seed) {
  pcr::DatasetSpec spec = dataset == "imagenet_like"
                              ? pcr::DatasetSpec::ImageNetLike()
                          : dataset == "celebahq_like"
                              ? pcr::DatasetSpec::CelebAHqLike()
                              : pcr::DatasetSpec::Ham10000Like();
  if (dataset == "imagenet_like") {
    // Set-up transcodes every image on one core (8-12 ms each), and a run
    // sets up three times: 256 images keep that near 3 s per set-up.
    // 16-image records keep 16 batches per epoch.
    spec.num_images = 256;
    spec.images_per_record = 16;
  } else if (dataset == "ham10000_like") {
    // Four 600x450 images decode to ~3.1 MiB, inside the daemon's default
    // 4 MiB shm slot, so decoded HAM batches can use the shm plane.
    spec.images_per_record = 4;
  }
  spec.seed = spec.seed * 1000003ULL + seed;
  return spec;
}

}  // namespace

Result<InputSet> PrepareInputs(const std::string& dataset, uint64_t seed,
                               const std::vector<int>& groups,
                               bool generate) {
  Env* env = Env::Default();
  InputSet in;
  in.spec = SpecFor(dataset, seed);
  in.dir = pcr::StrFormat("%s/%s-seed%llu-v%d", kCacheRoot,
                          dataset.c_str(),
                          static_cast<unsigned long long>(seed),
                          kInputGeneration);
  in.pcr_dir = in.dir + "/pcr";
  const std::string done = in.dir + "/complete";
  const auto missing = [&](const std::string& what) {
    return Status::NotFound("perfbench: " + what + " not prepared; run "
                            "pcr_perfbench --prepare first (run.py does)");
  };
  if (!generate && !env->FileExists(done)) return missing(in.dir);
  if (env->FileExists(done)) {
    PCR_RETURN_IF_ERROR(
        env->ReadFileToString(in.dir + "/baseline.jpg.bin", &in.baseline_blob));
    PCR_RETURN_IF_ERROR(
        Unpack(env, in.dir + "/baseline.idx", &in.baseline_offsets));
    PCR_RETURN_IF_ERROR(Unpack(env, in.dir + "/labels.bin", &in.labels));
  } else {
    const double t0 = NowSec();
    PCR_RETURN_IF_ERROR(env->CreateDir(in.dir));
    PCR_RETURN_IF_ERROR(Generate(env, &in));
    PCR_RETURN_IF_ERROR(env->WriteStringToFile(done, pcr::Slice("1")));
    fprintf(stderr, "[perfbench] generated %s (%d images) in %.1fs\n",
            in.dir.c_str(), in.num_images(), NowSec() - t0);
  }
  for (int g : groups) {
    const std::string path = pcr::StrFormat("%s/oracle-g%d.bin",
                                            in.dir.c_str(), g);
    std::vector<uint64_t>& table = in.oracle[g];
    if (env->FileExists(path)) {
      PCR_RETURN_IF_ERROR(Unpack(env, path, &table));
      continue;
    }
    if (!generate) return missing(path);
    const double t0 = NowSec();
    PCR_RETURN_IF_ERROR(BuildOracle(env, &in, g, &table));
    PCR_RETURN_IF_ERROR(
        env->WriteStringToFile(path + ".tmp", pcr::Slice(Pack(table))));
    PCR_RETURN_IF_ERROR(env->RenameFile(path + ".tmp", path));
    fprintf(stderr, "[perfbench] oracle for group %d in %.1fs\n", g,
            NowSec() - t0);
  }
  return in;
}

}  // namespace perfbench
