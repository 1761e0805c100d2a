#include "bench/bench_util.h"

#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace genclus::bench {

double SubsetNmi(const std::vector<uint32_t>& pred, const Labels& truth,
                 const std::vector<NodeId>& subset) {
  std::vector<uint32_t> p(pred.size(), kUnlabeled);
  std::vector<uint32_t> t(pred.size(), kUnlabeled);
  for (NodeId v : subset) {
    p[v] = pred[v];
    t[v] = truth.Get(v);
  }
  return NormalizedMutualInformation(p, t);
}

double OverallNmi(const std::vector<uint32_t>& pred, const Labels& truth) {
  return NormalizedMutualInformation(pred, truth.raw());
}

MeanStd Summarize(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  for (double v : values) out.mean += v;
  out.mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - out.mean) * (v - out.mean);
  out.std = std::sqrt(var / static_cast<double>(values.size()));
  return out;
}

void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i == 0) {
      std::printf("%-26s", cells[i].c_str());
    } else {
      std::printf("%14s", cells[i].c_str());
    }
  }
  std::printf("\n");
}

std::string Fmt(double value) {
  if (std::isnan(value)) return "-";
  return StrFormat("%.4f", value);
}

std::string FmtMeanStd(const MeanStd& ms) {
  return StrFormat("%.3f+-%.3f", ms.mean, ms.std);
}

}  // namespace genclus::bench
