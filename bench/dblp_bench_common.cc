#include "bench/dblp_bench_common.h"

#include "common/timer.h"
#include "core/engine.h"

namespace genclus::bench {

void RunDblpAccuracyBench(
    const Dataset& dataset,
    const std::vector<std::pair<std::string, std::vector<NodeId>>>& groups,
    const DblpBenchOptions& options,
    const std::vector<std::string>& relation_names) {
  const size_t num_groups = groups.size();
  std::vector<MethodSamples> methods(3);
  methods[0].name = "NetPLSA";
  methods[1].name = "iTopicModel";
  methods[2].name = options.fixed_gamma ? "GenClus(gamma=1)" : "GenClus";
  for (auto& m : methods) m.per_group.resize(num_groups);

  std::vector<double> gamma_mean(relation_names.size(), 0.0);
  size_t gamma_samples = 0;

  WallTimer timer;
  for (size_t run = 0; run < options.runs; ++run) {
    const uint64_t seed = 1000 + 77 * run;

    NetPlsaConfig np_config;
    np_config.num_clusters = 4;
    np_config.seed = seed;
    auto np = RunNetPlsa(dataset.network, dataset.attributes[0], np_config);
    if (!np.ok()) {
      std::fprintf(stderr, "NetPLSA failed: %s\n",
                   np.status().ToString().c_str());
      continue;
    }
    ITopicModelConfig it_config;
    it_config.num_clusters = 4;
    it_config.seed = seed;
    auto it = RunITopicModel(dataset.network, dataset.attributes[0],
                             it_config);
    if (!it.ok()) {
      std::fprintf(stderr, "iTopicModel failed: %s\n",
                   it.status().ToString().c_str());
      continue;
    }
    FitOptions fit_options;
    fit_options.attributes = {"text"};
    fit_options.config = options.MakeGenClusConfig(seed);
    auto gen = Engine::Fit(dataset, fit_options);
    if (!gen.ok()) {
      std::fprintf(stderr, "GenClus failed: %s\n",
                   gen.status().ToString().c_str());
      continue;
    }

    const std::vector<std::vector<uint32_t>> preds = {
        RowArgMax(np->theta), RowArgMax(it->theta),
        gen->model.HardLabels()};
    for (size_t m = 0; m < methods.size(); ++m) {
      for (size_t g = 0; g < num_groups; ++g) {
        const double nmi =
            groups[g].second.empty()
                ? OverallNmi(preds[m], dataset.labels)
                : SubsetNmi(preds[m], dataset.labels, groups[g].second);
        methods[m].per_group[g].push_back(nmi);
      }
    }
    for (size_t r = 0; r < relation_names.size(); ++r) {
      gamma_mean[r] += gen->model.gamma[r];
    }
    ++gamma_samples;
  }

  // Mean NMI table.
  std::vector<std::string> header = {"method (mean NMI)"};
  for (const auto& [name, subset] : groups) header.push_back(name);
  PrintRow(header);
  for (const auto& m : methods) {
    std::vector<std::string> row = {m.name};
    for (size_t g = 0; g < num_groups; ++g) {
      row.push_back(Fmt(Summarize(m.per_group[g]).mean));
    }
    PrintRow(row);
  }
  // Std table (the paper's right-hand panels).
  std::vector<std::string> std_header = {"method (std NMI)"};
  for (const auto& [name, subset] : groups) std_header.push_back(name);
  PrintRow(std_header);
  for (const auto& m : methods) {
    std::vector<std::string> row = {m.name};
    for (size_t g = 0; g < num_groups; ++g) {
      row.push_back(Fmt(Summarize(m.per_group[g]).std));
    }
    PrintRow(row);
  }

  if (gamma_samples > 0) {
    std::printf("\nmean learned strengths over %zu runs:\n", gamma_samples);
    for (size_t r = 0; r < relation_names.size(); ++r) {
      std::printf("  gamma(%s) = %.3f\n", relation_names[r].c_str(),
                  gamma_mean[r] / static_cast<double>(gamma_samples));
    }
  }
  std::printf("total time: %.1fs (%zu runs x 3 methods)\n", timer.Seconds(),
              options.runs);
}

}  // namespace genclus::bench
