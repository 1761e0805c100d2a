// Batch-planned serving scalability bench on fig11-style weather
// fixtures, companion to em_bench/strength_bench in the machine-readable
// perf trajectory: sweeps batch size (1/16/256) and thread count over the
// Plan/Execute pipeline and writes BENCH_serve.json so every future PR
// has serving numbers to beat.
//
// Phases timed per (batch, threads) cell, best of --reps rounds:
//   plan_us_per_query   Engine::Plan (validation + query x node CSR)
//   exec_us_per_query   Engine::Execute (SpMM link term + blocked sweeps)
//   us_per_query        Plan + Execute end to end
//   ref_us_per_query    the per-query InferMembership reference path,
//                       measured once per batch size (thread-independent)
//
// Correctness gates (non-zero exit, CI treats as broken build):
//   * planned memberships must stay within 1e-12 of the per-query
//     reference for every query (they are in fact bitwise identical);
//   * the planned path must be bitwise identical across thread counts
//     (the fixed-grain blocked execution's contract).
//
// Flags: --out FILE (default BENCH_serve.json), --small (CI fixture),
//        --reps N (default 7).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/engine.h"
#include "datagen/weather_generator.h"

namespace {

using namespace genclus;

struct Cell {
  size_t nodes = 0;
  size_t batch = 0;
  size_t threads = 0;
  double plan_us_per_query = 0.0;
  double exec_us_per_query = 0.0;
  double us_per_query = 0.0;
  double ref_us_per_query = 0.0;
  double speedup_vs_reference = 0.0;
  double max_drift_vs_reference = 0.0;
};

// Deterministic fold-in queries mirroring the generator's construction:
// each freshly deployed sensor belongs to a weather pattern, links to
// 2 * k nearest "neighbors" (tt + tp relations) and reports
// observations_per_sensor readings of its own attribute drawn from its
// pattern's marginal — the workload a weather serving tier folds in.
std::vector<NewObjectQuery> MakeQueries(const WeatherData& data,
                                        const WeatherConfig& config,
                                        size_t count) {
  Rng rng(29);
  const size_t num_nodes = data.dataset.network.num_nodes();
  std::vector<NewObjectQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    NewObjectQuery q;
    for (size_t j = 0; j < config.k_nearest; ++j) {
      q.links.push_back({static_cast<NodeId>(rng.UniformIndex(num_nodes)),
                         data.tt_link, 1.0});
      q.links.push_back({static_cast<NodeId>(rng.UniformIndex(num_nodes)),
                         data.tp_link, 1.0});
    }
    // A new sensor of pattern i mod K: observations_per_sensor - 1
    // readings of its own attribute plus one of the other, so serving
    // touches both of the model's Gaussian tables (model attribute 0 =
    // temperature, 1 = precipitation; FitOptions order below).
    const WeatherPattern& pattern =
        config.patterns[i % config.patterns.size()];
    for (size_t j = 0; j + 1 < config.observations_per_sensor; ++j) {
      q.observations.push_back(NewObjectObservation::Numerical(
          0, rng.Gaussian(pattern.temperature_mean,
                          config.pattern_stddev)));
    }
    q.observations.push_back(NewObjectObservation::Numerical(
        1, rng.Gaussian(pattern.precipitation_mean,
                        config.pattern_stddev)));
    queries.push_back(std::move(q));
  }
  return queries;
}

size_t RoundsFor(size_t batch) { return std::max<size_t>(2, 512 / batch); }

}  // namespace

int main(int argc, char** argv) {
  using namespace genclus::bench;
  Flags flags = Flags::Parse(argc, argv);
  const bool small = flags.GetBool("small", false);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 7));
  const std::string out_path = flags.GetString("out", "BENCH_serve.json");

  WeatherConfig wconfig = WeatherConfig::Setting1();
  wconfig.num_temperature_sensors = small ? 250 : 1000;
  wconfig.num_precipitation_sensors = small ? 60 : 250;
  wconfig.observations_per_sensor = 5;
  wconfig.seed = 11;
  auto data = GenerateWeatherNetwork(wconfig);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  FitOptions fit_options;
  fit_options.attributes = {"temperature", "precipitation"};
  fit_options.config.num_clusters = data->true_membership.cols();
  fit_options.config.outer_iterations = 2;
  fit_options.config.em_iterations = 10;
  fit_options.config.num_threads = 4;
  fit_options.config.seed = 5;
  auto fit = Engine::Fit(data->dataset, fit_options);
  if (!fit.ok()) {
    std::fprintf(stderr, "Engine::Fit failed: %s\n",
                 fit.status().ToString().c_str());
    return 1;
  }
  const Model model = std::move(fit).value().model;

  const std::vector<size_t> batch_sizes = {1, 16, 256};
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  const size_t num_nodes = data->dataset.network.num_nodes();
  const std::vector<NewObjectQuery> all_queries =
      MakeQueries(*data, wconfig, 256);

  PrintHeader("batch-planned serving (Plan/Execute over the SpMM kernel)");
  std::printf("host hardware threads: %u\n",
              std::thread::hardware_concurrency());
  PrintRow({"batch", "threads", "plan", "exec", "per_query", "reference",
            "speedup"});

  std::vector<Cell> cells;
  bool gates_ok = true;
  for (size_t batch : batch_sizes) {
    const std::span<const NewObjectQuery> queries(all_queries.data(), batch);
    const size_t rounds = RoundsFor(batch);

    // Reference path: the kept per-query InferMembership loop. Thread
    // independent, so measured once per batch size. One untimed warmup
    // round keeps cold caches out of the best-of window.
    std::vector<std::vector<double>> reference(batch);
    for (size_t i = 0; i < batch; ++i) {
      auto warm = InferMembership(data->dataset.network, model,
                                  queries[i].links, queries[i].observations);
      if (!warm.ok()) {
        std::fprintf(stderr, "InferMembership failed: %s\n",
                     warm.status().ToString().c_str());
        return 1;
      }
    }
    double ref_ms = 1e300;
    for (size_t rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < batch; ++i) {
          auto direct =
              InferMembership(data->dataset.network, model,
                              queries[i].links, queries[i].observations);
          if (!direct.ok()) {
            std::fprintf(stderr, "InferMembership failed: %s\n",
                         direct.status().ToString().c_str());
            return 1;
          }
          reference[i] = *std::move(direct);
        }
      }
      ref_ms = std::min(ref_ms, timer.Millis());
    }
    const double ref_us_per_query =
        ref_ms * 1e3 / static_cast<double>(rounds * batch);

    Matrix serial_memberships;
    for (size_t threads : thread_counts) {
      EngineOptions options;
      options.num_threads = threads;
      auto engine = Engine::Create(&data->dataset.network, model, options);
      if (!engine.ok()) {
        std::fprintf(stderr, "Engine::Create failed: %s\n",
                     engine.status().ToString().c_str());
        return 1;
      }

      Cell cell;
      cell.nodes = num_nodes;
      cell.batch = batch;
      cell.threads = threads;
      cell.ref_us_per_query = ref_us_per_query;
      double plan_ms = 1e300;
      double total_ms = 1e300;
      InferenceResult result;
      result = engine->Execute(engine->Plan(queries));  // untimed warmup
      for (size_t rep = 0; rep < reps; ++rep) {
        WallTimer total_timer;
        double rep_plan_ms = 0.0;
        for (size_t round = 0; round < rounds; ++round) {
          WallTimer plan_timer;
          InferPlan plan = engine->Plan(queries);
          rep_plan_ms += plan_timer.Millis();
          result = engine->Execute(plan);
        }
        total_ms = std::min(total_ms, total_timer.Millis());
        plan_ms = std::min(plan_ms, rep_plan_ms);
      }
      const double denom = static_cast<double>(rounds * batch);
      cell.plan_us_per_query = plan_ms * 1e3 / denom;
      cell.us_per_query = total_ms * 1e3 / denom;
      cell.exec_us_per_query = cell.us_per_query - cell.plan_us_per_query;
      cell.speedup_vs_reference =
          cell.us_per_query > 0.0 ? ref_us_per_query / cell.us_per_query
                                  : 0.0;

      // Gate 1: membership drift vs the reference path.
      for (size_t i = 0; i < batch; ++i) {
        if (!result.ok(i)) {
          std::fprintf(stderr, "FAIL: query %zu failed: %s\n", i,
                       result.statuses[i].ToString().c_str());
          return 1;
        }
        for (size_t k = 0; k < reference[i].size(); ++k) {
          cell.max_drift_vs_reference =
              std::max(cell.max_drift_vs_reference,
                       std::fabs(result.memberships(i, k) -
                                 reference[i][k]));
        }
      }
      if (cell.max_drift_vs_reference > 1e-12) {
        std::fprintf(stderr,
                     "FAIL: planned membership drifted %.3e (> 1e-12) "
                     "from InferMembership (batch=%zu, threads=%zu)\n",
                     cell.max_drift_vs_reference, batch, threads);
        gates_ok = false;
      }
      // Gate 2: bitwise identical across thread counts.
      if (threads == thread_counts.front()) {
        serial_memberships = result.memberships;
      } else if (result.memberships.data() != serial_memberships.data()) {
        std::fprintf(stderr,
                     "FAIL: planned path not bitwise thread-invariant "
                     "(batch=%zu, threads=%zu)\n",
                     batch, threads);
        gates_ok = false;
      }

      PrintRow({StrFormat("%zu", batch), StrFormat("%zu", threads),
                StrFormat("%.2fus", cell.plan_us_per_query),
                StrFormat("%.2fus", cell.exec_us_per_query),
                StrFormat("%.2fus", cell.us_per_query),
                StrFormat("%.2fus", cell.ref_us_per_query),
                StrFormat("%.2fx", cell.speedup_vs_reference)});
      cells.push_back(cell);
    }

    // Gate 3: serving through 2 and 4 Θ column shards stays bitwise equal
    // to the un-sharded memberships (ascending shard-order merge). Serving
    // adopts the model's stamped shard count, so each count is stamped on
    // a copy of the model.
    for (size_t shards : {2, 4}) {
      Model sharded_model = model;
      sharded_model.theta_shards = shards;
      auto engine = Engine::Create(&data->dataset.network,
                                   std::move(sharded_model),
                                   {.num_threads = 2});
      if (!engine.ok()) {
        std::fprintf(stderr, "Engine::Create failed: %s\n",
                     engine.status().ToString().c_str());
        return 1;
      }
      const InferenceResult sharded =
          engine->Execute(engine->Plan(queries));
      if (sharded.memberships.data() != serial_memberships.data()) {
        std::fprintf(stderr,
                     "FAIL: sharded serving (theta_shards=%zu) not bitwise "
                     "equal to un-sharded (batch=%zu)\n",
                     shards, batch);
        gates_ok = false;
      }
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"serve_batch_planned\",\n");
  std::fprintf(f, "  \"fixture\": \"%s\",\n",
               small ? "weather_s1_small" : "weather_s1_fig11");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"nodes\": %zu, \"batch\": %zu, \"threads\": %zu, "
        "\"plan_us_per_query\": %.4f, \"exec_us_per_query\": %.4f, "
        "\"us_per_query\": %.4f, \"ref_us_per_query\": %.4f, "
        "\"speedup_vs_reference\": %.3f, "
        "\"max_drift_vs_reference\": %.3e}%s\n",
        c.nodes, c.batch, c.threads, c.plan_us_per_query,
        c.exec_us_per_query, c.us_per_query, c.ref_us_per_query,
        c.speedup_vs_reference, c.max_drift_vs_reference,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!gates_ok) return 1;
  return 0;
}
