// Pieces every workload shares: the measurement window, the end of a run
// (checker, trace dump, result lines), and the metric names.
#pragma once

#include <map>
#include <vector>

#include "bench.h"
#include "util/status.h"

namespace perfbench {

/// A trainer's step consumes this many images; its batch wait is the time
/// it blocked in Next()/Receive* while gathering them. Records of 64 images
/// make one call a step; smaller records take several calls.
constexpr int kStepImages = 64;

double Median(std::vector<double> v);

/// The shared measurement window, cut into segments (a ladder round, or a
/// one-second slice of a serve run). Rates and CPU per image are medians
/// over segments, so one disturbed second moves them little; batch waits
/// are pooled over the whole window.
class Window {
 public:
  /// One segment: its wall and CPU time and the images each trainer got.
  void AddSegment(double wall_s, double cpu_s,
                  const std::vector<int64_t>& trainer_images);
  /// One step's batch wait.
  void AddWait(double seconds) { waits_.push_back(seconds); }

  double seconds() const { return wall_s_; }
  int64_t images() const { return images_; }

  /// Sets every end-to-end metric, and peak_rss_mib.
  void Report(Metrics* metrics, double setup_s) const;

 private:
  struct Segment {
    double wall_s = 0;
    double cpu_s = 0;
    std::vector<int64_t> trainer_images;
  };
  std::vector<Segment> segments_;
  double wall_s_ = 0;
  int64_t images_ = 0;
  std::vector<double> waits_;
};

/// Prints why inputs or set-up could not be made and returns the exit code.
int InputFailure(const pcr::Status& status);

/// Ends a run: checks the outputs, writes spans (traced runs), fills
/// per-layer metrics a workload's path does not touch with 0, and prints
/// the machine descriptor and the result line. Returns the exit code.
int Finish(const RunOptions& opt, Checker& checker, Metrics& metrics,
           int64_t attempted, int64_t failed);

}  // namespace perfbench
