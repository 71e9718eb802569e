#include "vgr/scenario/csv.hpp"

#include <cassert>
#include <cstdio>

namespace vgr::scenario {

CsvWriter::CsvWriter(const std::string& dir, const std::string& name) {
  if (dir.empty()) return;
  const std::string path = dir + "/" + name + ".csv";
  file_ = std::fopen(path.c_str(), "w");
}

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CsvWriter::header(const std::vector<std::string>& columns) {
  if (file_ == nullptr) return;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::fprintf(file_, "%s%s", i == 0 ? "" : ",", columns[i].c_str());
  }
  std::fprintf(file_, "\n");
}

void CsvWriter::row(const std::vector<double>& values) {
  if (file_ == nullptr) return;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(file_, "%s%.6f", i == 0 ? "" : ",", values[i]);
  }
  std::fprintf(file_, "\n");
}

void CsvWriter::write_timelines(const std::string& dir, const std::string& name,
                                const std::vector<std::string>& labels,
                                const std::vector<const sim::BinnedRate*>& series) {
  if (dir.empty() || series.empty()) return;
  assert(labels.size() == series.size());
  CsvWriter out{dir, name};
  if (!out.ok()) return;
  std::vector<std::string> columns{"t"};
  columns.insert(columns.end(), labels.begin(), labels.end());
  out.header(columns);
  const std::size_t bins = series.front()->bin_count();
  const double width = series.front()->bin_width().to_seconds();
  for (std::size_t i = 0; i < bins; ++i) {
    std::vector<double> values{(static_cast<double>(i) + 1.0) * width};
    for (const auto* s : series) values.push_back(s->rate(i));
    out.row(values);
  }
}

}  // namespace vgr::scenario
