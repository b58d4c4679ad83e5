#include "layers.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "jpeg/codec.h"
#include "trace.h"
#include "util/string_util.h"

namespace perfbench {

std::vector<int> FirstRecords(const std::vector<int>& delivered,
                              const pcr::RecordSource& source) {
  constexpr int kMinRecords = 64;
  constexpr int kMinImages = 256;
  std::vector<int> out;
  std::set<int> seen;
  int images = 0;
  for (int r : delivered) {
    if (images >= kMinImages && out.size() >= kMinRecords) break;
    if (!seen.insert(r).second) continue;
    out.push_back(r);
    images += source.RecordImages(r);
  }
  return out;
}

bool RunLayerPass(pcr::RecordSource* source, const std::vector<int>& records,
                  Metrics* metrics) {
  const int kGroups[] = {1, 2, 5, 10};
  std::map<int, pcr::FetchResident> resident;
  std::vector<double> fetch_ms;
  double plan_s = 0, assemble_s = 0;
  int64_t plans = 0;
  std::vector<pcr::RecordBatch> top_batches;
  auto fail = [](const char* layer, const pcr::Status& s) {
    fprintf(stderr, "[perfbench] layer pass: %s failed: %s\n", layer,
            s.ToString().c_str());
    return false;
  };
  for (int g : kGroups) {
    double decode_s = 0;
    int64_t decoded = 0;
    pcr::jpeg::DecodeScratch scratch;
    for (int r : records) {
      // Plan against the record's resident prefix, as the prefix cache
      // would hand it to PlanFetch.
      const auto it = resident.find(r);
      double t = NowSec();
      auto plan = [&] {
        ScopedSpan span("core.PlanFetch", r);
        return source->PlanFetch(r, g,
                                 it == resident.end() ? nullptr : &it->second);
      }();
      plan_s += NowSec() - t;
      ++plans;
      if (!plan.ok()) return fail("PlanFetch", plan.status());

      // Storage alone: one fetch in flight at a time on the plan's Env.
      std::string bytes;
      {
        ScopedSpan span("storage.IoScheduler", r);
        pcr::IoSchedulerOptions io;
        io.queue_depth = 1;
        auto scheduler = plan->env->NewIoScheduler(io);
        t = NowSec();
        pcr::Status sent = scheduler->SubmitRead(plan->ToReadRequest());
        if (!sent.ok()) return fail("SubmitRead", sent);
        auto done = scheduler->WaitCompletion();
        fetch_ms.push_back((NowSec() - t) * 1e3);
        if (!done.ok()) return fail("WaitCompletion", done.status());
        if (!done->status.ok()) return fail("read", done->status);
        bytes = std::move(done->bytes);
      }
      auto raw = [&] {
        ScopedSpan span("core.CompleteFetch", r);
        return source->CompleteFetch(*plan, std::move(bytes));
      }();
      if (!raw.ok()) return fail("CompleteFetch", raw.status());
      resident[r] = pcr::FetchResident{
          raw->scan_group, std::make_shared<const std::string>(raw->payload)};

      t = NowSec();
      auto batch = [&] {
        ScopedSpan span("core.AssembleRecord", r);
        return source->AssembleRecord(std::move(raw).MoveValue());
      }();
      assemble_s += NowSec() - t;
      if (!batch.ok()) return fail("AssembleRecord", batch.status());

      for (int i = 0; i < batch->size(); ++i) {
        ScopedSpan span("jpeg.Decode", r);
        t = NowSec();
        auto img = pcr::jpeg::Decode(batch->jpeg(i), &scratch);
        decode_s += NowSec() - t;
        if (!img.ok()) return fail("jpeg::Decode", img.status());
        ++decoded;
      }
      if (g == 10) top_batches.push_back(std::move(batch).MoveValue());
    }
    metrics->Set(pcr::StrFormat("jpeg.decode_us_per_image.g%d", g),
                 decoded > 0 ? decode_s * 1e6 / decoded : 0, "us");
  }
  double pct = 0;
  std::vector<double> sorted = fetch_ms;
  metrics->Set("storage.fetch_p50_ms", Quantile(sorted, 0.5), "ms");
  metrics->Set("storage.fetch_tail_ms", TailWithTenBeyond(sorted, &pct),
               "ms");
  metrics->Set("core.plan_us_per_record", plan_s * 1e6 / plans, "us");
  metrics->Set("core.assemble_us_per_record", assemble_s * 1e6 / plans, "us");

  // Decode ceiling: every core decodes full-fidelity images, nothing else.
  const int threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::atomic<int64_t> done{0};
  std::atomic<bool> ok{true};
  const double t0 = NowSec();
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        pcr::jpeg::DecodeScratch scratch;
        for (size_t b = 0; b < top_batches.size(); ++b) {
          const pcr::RecordBatch& batch =
              top_batches[(b + static_cast<size_t>(w)) % top_batches.size()];
          for (int i = 0; i < batch.size(); ++i) {
            if (!pcr::jpeg::Decode(batch.jpeg(i), &scratch).ok()) {
              ok.store(false);
              return;
            }
            done.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  if (!ok.load()) {
    return fail("jpeg::Decode (ceiling)", pcr::Status::Corruption("decode"));
  }
  metrics->Set("jpeg.decode_ceiling_images_per_s",
               static_cast<double>(done.load()) / (NowSec() - t0), "images/s");
  return true;
}

}  // namespace perfbench
