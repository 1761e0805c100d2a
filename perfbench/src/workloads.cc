#include "workloads.h"

#include <algorithm>

#include "datagen/dblp_generator.h"
#include "datagen/weather_generator.h"
#include "hin/io.h"

namespace perfbench {

using namespace genclus;

namespace {

// Shares of --seconds: fit / serve / refresh.
constexpr WorkloadSpec kWorkloads[] = {
    {"fit-weather", DataKind::kWeather, 0.35, 0.25, 0.40},
    {"fit-acp", DataKind::kAcp, 0.35, 0.25, 0.40},
};

// Distinct streams for data and fit from one --seed.
uint64_t DataSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 1; }
uint64_t FitSeed(uint64_t seed) { return seed * 0xBF58476D1CE4E5B9ULL + 7; }

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

const char* DataName(DataKind kind) {
  return kind == DataKind::kWeather ? "weather" : "acp";
}

size_t BaseNodes(size_t full_nodes) { return full_nodes * 9 / 10; }

Status Generate(DataKind kind, uint64_t seed, const std::string& dir) {
  Dataset full;
  if (kind == DataKind::kWeather) {
    // Setting 2: the four patterns share marginal means, so only both
    // attributes together separate them; each sensor observes one.
    WeatherConfig config = WeatherConfig::Setting2();
    config.num_temperature_sensors = 20000;
    config.num_precipitation_sensors = 20000;
    config.observations_per_sensor = 5;
    config.k_nearest = 5;
    config.seed = DataSeed(seed);
    GENCLUS_ASSIGN_OR_RETURN(WeatherData data, GenerateWeatherNetwork(config));
    full = std::move(data.dataset);
  } else {
    // Text on papers only; every venue row holds thousands of links.
    DblpConfig config;
    config.num_authors = 20000;
    config.num_papers = 50000;
    config.num_conferences = 20;
    config.seed = DataSeed(seed);
    GENCLUS_ASSIGN_OR_RETURN(DblpCorpus corpus, GenerateDblpCorpus(config));
    GENCLUS_ASSIGN_OR_RETURN(AcpNetworkData data,
                             BuildAcpNetwork(corpus, config));
    full = std::move(data.dataset);
  }
  GENCLUS_ASSIGN_OR_RETURN(
      Dataset base,
      SliceDatasetPrefix(full, BaseNodes(full.network.num_nodes()), nullptr));
  GENCLUS_RETURN_IF_ERROR(SaveDataset(base, dir + "/base.txt"));
  return SaveDataset(full, dir + "/full.txt");
}

FitOptions MakeFitOptions(DataKind kind, uint64_t seed, size_t threads) {
  FitOptions options;
  GenClusConfig& config = options.config;
  config.num_clusters = 4;
  config.seed = FitSeed(seed);
  config.num_threads = threads;
  if (kind == DataKind::kWeather) {
    // Paper §5.2.1 weather settings (as bench/weather_bench_common.cc).
    options.attributes = {"temperature", "precipitation"};
    config.outer_iterations = 5;
    config.em_iterations = 40;
    config.num_init_seeds = 5;
    config.init_em_steps = 5;
  } else {
    // Paper DBLP settings: 10 outer iterations. §4.3's best-of-seeds init
    // with 4 seeds scored after 25 EM steps: scored after 3 or 10 steps,
    // one fit seed in three to five ends in a basin at NMI ~0.63 instead of
    // ~0.85 (16 of 16 seeds reach it at 4 x 25). No numerical attribute, so
    // the k-means candidate is skipped. The sweep budget is fixed (no
    // early stop) so every seed does the same work: 100 + 10 x 25 sweeps.
    options.attributes = {"text"};
    config.outer_iterations = 10;
    config.outer_tolerance = 0.0;
    config.em_iterations = 25;
    config.em_tolerance = 0.0;
    config.num_init_seeds = 4;
    config.init_em_steps = 25;
  }
  return options;
}

RefitOptions MakeRefitOptions(DataKind kind, uint64_t seed, size_t threads) {
  RefitOptions options;
  options.config = MakeFitOptions(kind, seed, threads).config;
  // A warm refresh absorbs a 10 % delta in two outer iterations with
  // converged blocks skipped (as bench/refit_bench.cc).
  options.config.outer_iterations = 2;
  options.config.em_tolerance = GenClusConfig().em_tolerance;
  options.config.block_convergence_tol = options.config.em_tolerance;
  return options;
}

Result<HarnessInputs> LoadHarnessInputs(const std::string& dir) {
  HarnessInputs in;
  GENCLUS_ASSIGN_OR_RETURN(in.full, LoadDataset(dir + "/full.txt"));
  in.base_nodes = BaseNodes(in.full.network.num_nodes());
  GENCLUS_ASSIGN_OR_RETURN(
      Dataset base, SliceDatasetPrefix(in.full, in.base_nodes, &in.remainder));
  (void)base;

  // Fold-in queries: each arriving node asks for its membership from its
  // links into the base snapshot, once without its own attribute (the
  // attribute-free shape) and once with it (a reading, or a paper's text).
  const Network& net = in.full.network;
  for (NodeId u = static_cast<NodeId>(in.base_nodes); u < net.num_nodes();
       ++u) {
    NewObjectQuery links_only;
    for (const LinkEntry& e : net.OutLinks(u)) {
      if (e.neighbor < in.base_nodes) {
        links_only.links.push_back({e.neighbor, e.type, e.weight});
      }
    }
    NewObjectQuery with_attribute = links_only;
    for (AttributeId a = 0; a < in.full.attributes.size(); ++a) {
      const Attribute& attr = in.full.attributes[a];
      if (attr.kind() == AttributeKind::kNumerical) {
        const std::vector<double>& values = attr.Values(u);
        if (!values.empty()) {
          with_attribute.observations.push_back(
              NewObjectObservation::Numerical(a, values.front()));
        }
      } else {
        for (const TermCount& tc : attr.TermCounts(u)) {
          with_attribute.observations.push_back(
              NewObjectObservation::Categorical(a, tc.term, tc.count));
        }
      }
    }
    if (links_only.links.empty()) continue;
    in.queries.push_back(std::move(links_only));
    if (!with_attribute.observations.empty()) {
      in.queries.push_back(std::move(with_attribute));
    }
  }
  return in;
}

std::vector<NetworkDelta> SplitDelta(const NetworkDelta& remainder,
                                     size_t base_nodes, size_t count) {
  const size_t added = remainder.nodes.size();
  count = std::clamp<size_t>(count, 1, std::max<size_t>(added, 1));
  auto batch_of = [&](NodeId v) -> size_t {
    return v < base_nodes ? 0 : (v - base_nodes) * count / added;
  };
  std::vector<NetworkDelta> batches(count);
  for (size_t i = 0; i < added; ++i) {
    NetworkDelta& b = batches[i * count / added];
    b.nodes.push_back(remainder.nodes[i]);
    if (!remainder.node_labels.empty()) {
      b.node_labels.push_back(remainder.node_labels[i]);
    }
  }
  for (const DeltaLink& link : remainder.links) {
    batches[std::max(batch_of(link.src), batch_of(link.dst))].links.push_back(
        link);
  }
  for (const DeltaObservation& obs : remainder.observations) {
    batches[batch_of(obs.node)].observations.push_back(obs);
  }
  return batches;
}

}  // namespace perfbench
