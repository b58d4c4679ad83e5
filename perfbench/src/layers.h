// The traced run's layer-by-layer pass. LoaderPipeline and the daemon call
// storage, core and jpeg internally, so their costs cannot be read off the
// end-to-end run. This pass feeds the workload's own records through the
// public per-layer functions one layer at a time -- PlanFetch, the plan's
// IoScheduler, CompleteFetch, AssembleRecord, jpeg::Decode -- at scan
// groups 1, 2, 5 and 10 in rising order (a fidelity ladder, so upgrades
// plan against the resident prefix exactly as the prefix cache would), and
// then measures decode alone on every core.
#pragma once

#include <vector>

#include "bench.h"
#include "core/record_source.h"

namespace perfbench {

/// Sets storage.fetch_p50_ms, storage.fetch_tail_ms,
/// core.plan_us_per_record, core.assemble_us_per_record,
/// jpeg.decode_us_per_image.g{1,2,5,10} and
/// jpeg.decode_ceiling_images_per_s. Returns false (with a message on
/// stderr) if any layer call fails.
bool RunLayerPass(pcr::RecordSource* source, const std::vector<int>& records,
                  Metrics* metrics);

/// The records the layer pass takes, in the order the workload delivered
/// them (duplicates skipped): at least 64 records (one fetch sample per
/// record and group, so the fetch tail has samples beyond it) and 256
/// images, or every record delivered if there are fewer.
std::vector<int> FirstRecords(const std::vector<int>& delivered,
                              const pcr::RecordSource& source);

}  // namespace perfbench
