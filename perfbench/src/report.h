// Measurement bookkeeping of one benchmark run: sample summaries, the
// metric table, correctness checks and the attempted/failed tallies that
// end up in the result line perfbench/run.py prints.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary epoch.
double NowSeconds();

/// Quantile q in [0, 1] of `samples` (nearest-rank on a sorted copy);
/// 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Process CPU time (user + system) in seconds, from getrusage.
double ProcessCpuSeconds();
/// Peak resident set size of this process in MB.
double PeakRssMb();

struct MetricValue {
  double value = 0.0;
  std::string unit;
  /// Samples the value summarizes (1 for a single measurement).
  size_t samples = 1;
};

/// Collects metrics, checks and operation tallies of one run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1);

  /// Records one correctness check; a failed check counts as a failed
  /// attempt and is printed to stderr.
  bool Check(bool ok, const std::string& what);

  /// Records `attempted` operations of which `failed` failed.
  void Count(size_t attempted, size_t failed);

  /// Harness information: printed as a "# " line, never a metric.
  static void Info(const std::string& line);

  bool correct() const { return checks_failed_ == 0; }

  /// Prints the metric table and, as the last line, the JSON result
  /// holding every recorded metric.
  void Print() const;

 private:
  std::map<std::string, MetricValue> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t checks_failed_ = 0;
};

}  // namespace perfbench
