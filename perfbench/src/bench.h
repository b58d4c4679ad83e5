// Shared pieces of the PCR data-path benchmark: run options, the metric
// sink, timing helpers, the trainer's consume hash, and the output checker.
// Every workload drives the program only through its public API; nothing
// here reaches into program internals.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/record_source.h"
#include "util/slice.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Alter one delivered image before hashing: the checker must fail.
  bool corrupt_one = false;
  /// Leave one record out of the checker: every delivery of the first
  /// record a trainer gets in the window, as if the stream had stopped
  /// serving it. The checker must fail.
  bool drop_one = false;
  /// Only generate the seed's inputs and oracle, then exit.
  bool prepare = false;
};

/// Generated inputs, and span dumps of traced runs (relative to the
/// working directory, the repository root).
constexpr const char kCacheRoot[] = ".bench_cache";
constexpr const char kTraceRoot[] = ".bench_trace";

double NowSec();
/// User+sys CPU seconds of this process so far (getrusage).
double ProcessCpuSec();
/// Peak resident set of this process, MiB.
double PeakRssMib();
/// Threads of this process right now (/proc/self/task entries).
int ProcessThreads();

/// The trainer's consume step: a 64-bit hash over an image's geometry and
/// every pixel byte. The oracle uses the same function on reference decodes.
uint64_t HashImage(uint32_t width, uint32_t height, uint32_t channels,
                   const uint8_t* data, uint64_t length);

/// Value at rank q (0..1) of `v` (sorted in place), linear interpolation.
double Quantile(std::vector<double>& v, double q);
/// The highest sample with at least 10 samples above it, and the
/// percentile that sample sits at (written to *percentile).
double TailWithTenBeyond(std::vector<double>& v, double* percentile);

/// Ordered name -> (value, unit) map printed as the run's metrics.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& all() const {
    return values_;
  }
  double Get(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One delivered batch as the checker sees it.
struct Delivery {
  int stream = 0;
  int record = -1;
  int scan_group = 0;
  uint64_t bytes_read = 0;
  std::vector<int64_t> labels;
  std::vector<uint64_t> hashes;
};

/// Collects deliveries from every trainer and checks them after the run:
/// exactly-once per completed epoch, labels, pixel hashes against the
/// oracle, and bytes_read against the source's metadata.
///
/// Epochs are judged by position. A stream's deliveries p = 0, 1, ... of a
/// source with N records: the j-th delivery of a record (j from 0) belongs
/// to epoch j and must sit in [jN, (j+1)N). A stream may be given a reorder
/// window W > 0 when its source does not keep epochs apart in delivery order
/// (LoaderPipeline lets a later epoch's batches overtake an earlier one's);
/// then [jN - W, (j+1)N + W) is accepted, and each delivery outside the
/// exact span but inside the widened one is counted as reordered rather
/// than failed. Either way a record that is delivered twice too soon, or
/// is missing for more than its epoch (plus W), fails the check.
class Checker {
 public:
  /// `oracle(group)` is the per-image hash table at that scan group,
  /// indexed by global image index; `labels` the generator's classes.
  Checker(const pcr::RecordSource* source, int images_per_record,
          const std::vector<int64_t>* labels,
          const std::map<int, std::vector<uint64_t>>* oracle)
      : source_(source),
        images_per_record_(images_per_record),
        labels_(labels),
        oracle_(oracle) {}

  /// Records one delivery for checking after the run. Thread-safe; a
  /// stream's deliveries must be added in the order the trainer got them.
  void Add(Delivery delivery);

  /// How a stream's bytes_read must be judged.
  enum class BytesRule {
    /// Exact: record fetched before in this stream at group g' leaves
    /// RecordReadBytes(g) - RecordReadBytes(g') to read (0 when g' >= g),
    /// and a first fetch reads RecordReadBytes(g). The stream owns its
    /// prefix cache, which holds the whole dataset.
    kExactPrivatePrefix,
    /// Shared daemon caches: any valid residency is possible, so
    /// bytes_read must equal RecordReadBytes(g) minus the bytes of some
    /// group g' <= g (or of none), or 0 for a decoded-cache hit.
    kAnyResidentPrefix,
  };
  void SetStream(int stream, BytesRule rule, bool epochs_must_complete,
                 int reorder_window = 0);
  /// Marks a round boundary on every stream: the prefix cache was
  /// replaced, so nothing is resident any more.
  void ResetResidency();

  /// Visits every recorded delivery, stream by stream, in arrival order.
  template <typename Fn>
  void ForEachDelivery(Fn fn) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, s] : streams_) {
      for (const Delivery& d : s.deliveries) {
        if (d.record != kResetMarker) fn(d);
      }
    }
  }

  /// Runs every check; returns the failures (empty = correct).
  std::vector<std::string> Check();
  /// Deliveries the last Check() accepted only within a reorder window.
  int64_t reordered() const { return reordered_; }
  /// The farthest of those lay this many positions outside its epoch.
  int64_t max_displacement() const { return max_displacement_; }

 private:
  struct StreamState {
    BytesRule rule = BytesRule::kAnyResidentPrefix;
    bool epochs_must_complete = false;
    int reorder_window = 0;
    std::vector<Delivery> deliveries;  // Arrival order, plus resets.
    std::vector<int> records;          // Delivery order.
    std::map<int, int> resident;       // record -> deepest group seen.
  };
  static constexpr int kResetMarker = -2;
  void CheckDelivery(StreamState& s, const Delivery& d,
                     std::vector<std::string>* failures);
  void CheckBytes(StreamState& s, const Delivery& d,
                  std::vector<std::string>* failures);

  const pcr::RecordSource* source_;
  int images_per_record_;
  const std::vector<int64_t>* labels_;
  const std::map<int, std::vector<uint64_t>>* oracle_;

  std::mutex mu_;
  std::map<int, StreamState> streams_;
  int64_t reordered_ = 0;
  int64_t max_displacement_ = 0;
};

int RunLadder(const RunOptions& options);
int RunServe(const RunOptions& options);

}  // namespace perfbench
