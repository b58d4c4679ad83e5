// pcr_perfbench: one workload of the PCR data-path benchmark per process.
//
//   pcr_perfbench --workload <loader-ladder-remote|serve-warm-pixels|
//                             serve-cold-mixed>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--corrupt-one | --drop-one]
//   pcr_perfbench --prepare --workload <name> --seed <n>
//
// Prints diagnostics on stderr, then on stdout a machine descriptor line
// and, last, the result: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes spans under .bench_trace/). --corrupt-one alters one
// delivered image, --drop-one leaves every delivery of one record out; the
// checker must then fail the run. --prepare generates the seed's inputs and oracle into
// .bench_cache/ and exits; a measured run only loads them, so generation
// never shares a process with a measurement.
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "arch/arch.h"
#include "bench.h"
#include "storage/env.h"
#include "storage/io_backend.h"
#include "trace.h"
#include "util/string_util.h"
#include "workload.h"

namespace perfbench {

namespace {

const char* const kEndToEnd[] = {
    "setup_s",           "images_per_s",       "slowest_trainer_images_per_s",
    "batch_wait_p50_ms", "batch_wait_tail_ms", "cpu_us_per_image"};

/// Every per-layer metric with its unit. A workload whose path does not
/// touch a layer leaves its metrics unset; they report 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"storage.bytes_per_image", "B"},
    {"storage.fetch_p50_ms", "ms"},
    {"storage.fetch_tail_ms", "ms"},
    {"core.write_us_per_image", "us"},
    {"core.stored_bytes_ratio", "ratio"},
    {"core.plan_us_per_record", "us"},
    {"core.assemble_us_per_record", "us"},
    {"jpeg.decode_us_per_image.g1", "us"},
    {"jpeg.decode_us_per_image.g2", "us"},
    {"jpeg.decode_us_per_image.g5", "us"},
    {"jpeg.decode_us_per_image.g10", "us"},
    {"jpeg.decode_ceiling_images_per_s", "images/s"},
    {"loader.io_stall_ms_per_batch", "ms"},
    {"loader.decode_stall_ms_per_batch", "ms"},
    {"loader.decode_busy_us_per_image", "us"},
    {"loader.prefix_resident_share", "share"},
    {"loader.decode_cache_hit_share", "share"},
    {"loader.decode_cache_fit_share", "share"},
    {"loader.epoch_reordered_deliveries", "count"},
    {"loader.zero_copy_hit_share", "share"},
    {"loader.io_retries", "count"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_tail_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_tail_ms", "ms"},
    {"serve.transport_p50_ms", "ms"},
    {"serve.copied_bytes_per_image", "B"},
    {"serve.shm_batch_share", "share"},
    {"serve.slot_waits_per_batch", "count"},
    {"serve.trainer_rate_min_over_max", "ratio"},
    {"serve.process_threads", "threads"},
    // Process-wide rather than one layer's, and reported here without a
    // bound: on the ladder, glibc's per-thread arenas under the pipelines'
    // thread churn move it by a fifth between identical runs.
    {"peak_rss_mib", "MiB"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return pcr::StrFormat("%.17g", v);
}

void PrintMachine() {
  struct utsname u;
  uname(&u);
  printf("{\"machine\": {\"nproc\": %d, \"kernel_tier\": \"%s\", "
         "\"cpu_features\": \"%s\", \"kernel_release\": \"%s\", "
         "\"io_backend\": \"%s\"}}\n",
         static_cast<int>(std::thread::hardware_concurrency()),
         pcr::arch::Active().name, pcr::arch::CpuFeatureString().c_str(),
         u.release, pcr::IoBackendName(pcr::ActiveIoBackend()));
}

}  // namespace

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

void Window::AddSegment(double wall_s, double cpu_s,
                        const std::vector<int64_t>& trainer_images) {
  segments_.push_back(Segment{wall_s, cpu_s, trainer_images});
  wall_s_ += wall_s;
  for (int64_t n : trainer_images) images_ += n;
}

void Window::Report(Metrics* m, double setup_s) const {
  m->Set("setup_s", setup_s, "s");
  std::vector<double> rates, cpu_per_image;
  std::vector<std::vector<double>> trainer_rates;
  for (const Segment& seg : segments_) {
    int64_t images = 0;
    trainer_rates.resize(seg.trainer_images.size());
    for (size_t t = 0; t < seg.trainer_images.size(); ++t) {
      images += seg.trainer_images[t];
      trainer_rates[t].push_back(seg.trainer_images[t] / seg.wall_s);
    }
    rates.push_back(images / seg.wall_s);
    if (images > 0) cpu_per_image.push_back(seg.cpu_s * 1e6 / images);
  }
  m->Set("images_per_s", Median(rates), "images/s");
  double slowest = 0;
  for (size_t t = 0; t < trainer_rates.size(); ++t) {
    const double rate = Median(trainer_rates[t]);
    slowest = t == 0 ? rate : std::min(slowest, rate);
  }
  m->Set("slowest_trainer_images_per_s", slowest, "images/s");
  std::vector<double> w = waits_;
  m->Set("batch_wait_p50_ms", Quantile(w, 0.5) * 1e3, "ms");
  double pct = 0;
  m->Set("batch_wait_tail_ms", TailWithTenBeyond(w, &pct) * 1e3, "ms");
  fprintf(stderr,
          "[perfbench] window %.2fs in %zu segments, %lld images, %zu batch "
          "waits; batch_wait_tail_ms is p%.2f\n",
          wall_s_, segments_.size(), static_cast<long long>(images_),
          waits_.size(), pct);
  m->Set("cpu_us_per_image", Median(cpu_per_image), "us");
  m->Set("peak_rss_mib", PeakRssMib(), "MiB");
}

int InputFailure(const pcr::Status& status) {
  fprintf(stderr, "[perfbench] cannot prepare the workload: %s\n",
          status.ToString().c_str());
  return 2;
}

int Finish(const RunOptions& opt, Checker& checker, Metrics& metrics,
           int64_t attempted, int64_t failed) {
  const std::vector<std::string> failures = checker.Check();
  for (const std::string& f : failures) {
    fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  fprintf(stderr,
          "[perfbench] checker: %s; %lld deliveries outside their epoch's "
          "span but within the reorder window, at most %lld positions\n",
          correct ? "all deliveries correct" : "FAILED",
          static_cast<long long>(checker.reordered()),
          static_cast<long long>(checker.max_displacement()));
  metrics.Set("loader.epoch_reordered_deliveries",
              static_cast<double>(checker.reordered()), "count");

  std::vector<std::string> names;
  if (opt.trace) {
    pcr::Env::Default()->CreateDir(kTraceRoot);
    Tracer::WriteAndSummarize(pcr::StrFormat(
        "%s/%s-seed%llu.tsv", kTraceRoot, opt.workload.c_str(),
        static_cast<unsigned long long>(opt.seed)));
    // The traced run's end-to-end numbers, for the tracing overhead
    // (run.py steady --trace-overhead compares them with untraced runs).
    fprintf(stderr, "\n[perfbench] traced end-to-end:\n");
    std::string e2e = "{";
    for (const char* name : kEndToEnd) {
      fprintf(stderr, "  %-32s %14.4f\n", name, metrics.Get(name));
      e2e += pcr::StrFormat("%s\"%s\": %s", e2e.size() > 1 ? ", " : "", name,
                            JsonNumber(metrics.Get(name)).c_str());
    }
    e2e += "}\n";
    (void)pcr::Env::Default()->WriteStringToFile(
        pcr::StrFormat("%s/%s-seed%llu.e2e.json", kTraceRoot,
                       opt.workload.c_str(),
                       static_cast<unsigned long long>(opt.seed)),
        pcr::Slice(e2e));
    for (const auto& [name, unit] : kPerLayer) {
      if (metrics.all().count(name) == 0) metrics.Set(name, 0, unit);
      names.push_back(name);
    }
    fprintf(stderr, "\n%-36s %16s %10s\n", "per-layer metric", "value",
            "unit");
    for (const std::string& name : names) {
      const auto& [value, unit] = metrics.all().at(name);
      fprintf(stderr, "%-36s %16.4f %10s\n", name.c_str(), value,
              unit.c_str());
    }
  } else {
    names.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }

  PrintMachine();
  std::string out = pcr::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& [value, unit] = metrics.all().at(names[i]);
    out += pcr::StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                          i > 0 ? ", " : "", names[i].c_str(),
                          JsonNumber(value).c_str(), unit.c_str());
  }
  out += "}}";
  printf("%s\n", out.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--corrupt-one") {
      opt.corrupt_one = true;
    } else if (arg == "--drop-one") {
      opt.drop_one = true;
    } else if (arg == "--prepare") {
      opt.prepare = true;
    } else {
      fprintf(stderr,
              "usage: %s [--prepare] --workload <name> --seed <n> "
              "--seconds <s> --trace <0|1> [--corrupt-one | --drop-one]\n",
              argv[0]);
      return 2;
    }
  }
  if (opt.seconds <= 0) opt.seconds = 1;
  perfbench::Tracer::Enable(opt.trace);
  if (opt.workload == "loader-ladder-remote") {
    return perfbench::RunLadder(opt);
  }
  if (opt.workload == "serve-warm-pixels" ||
      opt.workload == "serve-cold-mixed") {
    return perfbench::RunServe(opt);
  }
  fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}
