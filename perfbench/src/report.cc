// Timing, resource and hashing helpers, the metric sink, and the checker.
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "util/string_util.h"

namespace perfbench {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSec() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
         ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
}

double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB.
}

int ProcessThreads() {
  int n = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (struct dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') ++n;
    }
    closedir(dir);
  }
  return n;
}

uint64_t HashImage(uint32_t width, uint32_t height, uint32_t channels,
                   const uint8_t* data, uint64_t length) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = (static_cast<uint64_t>(width) << 40) ^
               (static_cast<uint64_t>(height) << 16) ^ channels ^ length;
  uint64_t i = 0;
  for (; i + 8 <= length; i += 8) {
    uint64_t v;
    std::memcpy(&v, data + i, 8);
    h = (h ^ v) * kMul;
    h ^= h >> 29;
  }
  for (; i < length; ++i) h = (h ^ data[i]) * kMul;
  return h ^ (h >> 32);
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double TailWithTenBeyond(std::vector<double>& v, double* percentile) {
  if (v.empty()) {
    *percentile = 0;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t idx = n > 11 ? n - 11 : 0;
  *percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

double Metrics::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

// --- Checker ----------------------------------------------------------------

void Checker::SetStream(int stream, BytesRule rule, bool epochs_must_complete,
                        int reorder_window) {
  std::lock_guard<std::mutex> lock(mu_);
  streams_[stream].rule = rule;
  streams_[stream].epochs_must_complete = epochs_must_complete;
  streams_[stream].reorder_window = reorder_window;
}

void Checker::ResetResidency() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, s] : streams_) {
    Delivery reset;
    reset.record = kResetMarker;
    s.deliveries.push_back(std::move(reset));
  }
}

void Checker::CheckBytes(StreamState& s, const Delivery& d,
                               std::vector<std::string>* failures) {
  const uint64_t want_full = source_->RecordReadBytes(d.record, d.scan_group);
  bool ok = false;
  uint64_t expected = want_full;
  if (s.rule == BytesRule::kExactPrivatePrefix) {
    const auto it = s.resident.find(d.record);
    if (it != s.resident.end()) {
      expected = it->second >= d.scan_group
                     ? 0
                     : want_full -
                           source_->RecordReadBytes(d.record, it->second);
    }
    ok = d.bytes_read == expected;
    int& deepest = s.resident[d.record];
    deepest = std::max(deepest, d.scan_group);
  } else {
    ok = d.bytes_read == 0 || d.bytes_read == want_full;
    for (int g = 1; g < d.scan_group && !ok; ++g) {
      ok = d.bytes_read == want_full - source_->RecordReadBytes(d.record, g);
    }
  }
  if (!ok && failures->size() < 20) {
    failures->push_back(pcr::StrFormat(
        "stream %d record %d group %d: bytes_read %llu, expected %llu "
        "(RecordReadBytes minus resident bytes)",
        d.stream, d.record, d.scan_group,
        static_cast<unsigned long long>(d.bytes_read),
        static_cast<unsigned long long>(expected)));
  }
}

void Checker::Add(Delivery d) {
  std::lock_guard<std::mutex> lock(mu_);
  streams_[d.stream].deliveries.push_back(std::move(d));
}

void Checker::CheckDelivery(StreamState& s, const Delivery& d,
                            std::vector<std::string>* failures) {
  auto fail = [&](const std::string& msg) {
    if (failures->size() < 20) failures->push_back(msg);
  };
  if (d.record < 0 || d.record >= source_->num_records()) {
    fail(pcr::StrFormat("stream %d: record index %d out of range", d.stream,
                        d.record));
    return;
  }
  s.records.push_back(d.record);
  const int expected_images = source_->RecordImages(d.record);
  if (static_cast<int>(d.hashes.size()) != expected_images ||
      d.labels.size() != d.hashes.size()) {
    fail(pcr::StrFormat("stream %d record %d: %zu images / %zu labels, "
                        "expected %d",
                        d.stream, d.record, d.hashes.size(), d.labels.size(),
                        expected_images));
    return;
  }
  const auto table = oracle_->find(d.scan_group);
  if (table == oracle_->end()) {
    fail(pcr::StrFormat("stream %d record %d: no oracle for group %d",
                        d.stream, d.record, d.scan_group));
    return;
  }
  for (size_t i = 0; i < d.hashes.size(); ++i) {
    const size_t image =
        static_cast<size_t>(d.record) * images_per_record_ + i;
    if (d.labels[i] != (*labels_)[image]) {
      fail(pcr::StrFormat("stream %d record %d image %zu: label %lld, "
                          "generator gave %lld",
                          d.stream, d.record, i,
                          static_cast<long long>(d.labels[i]),
                          static_cast<long long>((*labels_)[image])));
    }
    if (d.hashes[i] != table->second[image]) {
      fail(pcr::StrFormat("stream %d record %d image %zu group %d: pixel "
                          "hash differs from the reference decode",
                          d.stream, d.record, i, d.scan_group));
    }
  }
  CheckBytes(s, d, failures);
}

std::vector<std::string> Checker::Check() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> failures;
  int64_t deliveries = 0;
  for (auto& [id, s] : streams_) {
    for (const Delivery& d : s.deliveries) {
      if (d.record == kResetMarker) {
        s.resident.clear();
        continue;
      }
      ++deliveries;
      CheckDelivery(s, d, &failures);
    }
  }
  const int64_t per_epoch = source_->num_records();
  reordered_ = 0;
  max_displacement_ = 0;
  for (const auto& [id, s] : streams_) {
    const int64_t n = static_cast<int64_t>(s.records.size());
    const int64_t w = s.reorder_window;
    std::map<int, int64_t> seen;  // record -> deliveries so far
    for (int64_t p = 0; p < n; ++p) {
      const int record = s.records[p];
      const int64_t epoch = seen[record]++;
      const int64_t lo = epoch * per_epoch, hi = lo + per_epoch;
      if (p >= lo && p < hi) continue;
      if (p >= lo - w && p < hi + w) {
        ++reordered_;
        max_displacement_ =
            std::max(max_displacement_, p < lo ? lo - p : p - hi + 1);
        continue;
      }
      if (failures.size() < 20) {
        failures.push_back(pcr::StrFormat(
            "stream %d: record %d's delivery %lld at position %lld lies "
            "outside epoch %lld (positions %lld-%lld, reorder window %lld): "
            "a record was delivered twice in one epoch or missed one",
            id, record, static_cast<long long>(epoch + 1),
            static_cast<long long>(p), static_cast<long long>(epoch),
            static_cast<long long>(lo), static_cast<long long>(hi - 1),
            static_cast<long long>(w)));
      }
    }
    // A record not seen again although its next epoch (plus the window)
    // has been delivered in full was dropped.
    for (int record = 0; record < per_epoch; ++record) {
      const auto it = seen.find(record);
      const int64_t count = it == seen.end() ? 0 : it->second;
      if (n >= (count + 1) * per_epoch + w && failures.size() < 20) {
        failures.push_back(pcr::StrFormat(
            "stream %d: record %d delivered %lld times in %lld deliveries "
            "(%lld records per epoch)",
            id, record, static_cast<long long>(count),
            static_cast<long long>(n), static_cast<long long>(per_epoch)));
      }
    }
    if (s.epochs_must_complete && n % per_epoch != 0) {
      failures.push_back(pcr::StrFormat(
          "stream %d epoch %lld: ended after %lld of %lld records", id,
          static_cast<long long>(n / per_epoch),
          static_cast<long long>(n % per_epoch),
          static_cast<long long>(per_epoch)));
    }
  }
  if (deliveries == 0) failures.push_back("no batch was delivered");
  return failures;
}

}  // namespace perfbench
