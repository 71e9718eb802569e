#pragma once

#include <string>
#include <vector>

#include "vgr/sim/timeline.hpp"

namespace vgr::scenario {

/// Minimal CSV writer for experiment series, so figure data can be plotted
/// outside the harness. Benches write files when VGR_CSV_DIR is set
/// (bench/bench_util.hpp).
class CsvWriter {
 public:
  /// Opens `<dir>/<name>.csv` for writing; throws nothing — a failed open
  /// turns every later call into a no-op (`ok()` reports the state).
  CsvWriter(const std::string& dir, const std::string& name);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  void header(const std::vector<std::string>& columns);
  void row(const std::vector<double>& values);

  /// Convenience: dumps one or more aligned timelines as
  /// `t,<label0>,<label1>,...` rows (bin upper edges as t).
  static void write_timelines(const std::string& dir, const std::string& name,
                              const std::vector<std::string>& labels,
                              const std::vector<const sim::BinnedRate*>& series);

 private:
  std::FILE* file_{nullptr};
};

}  // namespace vgr::scenario
