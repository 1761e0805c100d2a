// The system benchmark's harness (perfbench/README.md documents the
// workloads and metrics; perfbench/run.py builds and drives it).
//
//   genclus_perfbench gen --workload W --seed S --dir DIR
//       writes the seed's inputs into DIR (not timed);
//   genclus_perfbench run --workload W --seed S --seconds N --trace 0|1
//                         --dir DIR [--trace-file PATH]
//       runs the workload's lifecycle on them, checks every output and
//       prints the metrics, the last line being one JSON object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/flags.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/model_io.h"
#include "core/server.h"
#include "core/update.h"
#include "eval/nmi.h"
#include "hin/delta.h"
#include "hin/io.h"
#include "report.h"
#include "serving.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace genclus;

// Open-loop serving. The nominal rate sits far below the knee of the tier
// (about 150k/s on an idle host): when the shared host takes CPU away the
// knee fell to 30k/s and 60k/s overloaded the tier (p50 up to 20 ms),
// while at 20k/s p50 held at 0.2-0.3 ms. The ladder climbs from twice the
// nominal rate in fixed steps of 2^(1/5) (~15 %); a step passes when at
// least half its windows pass (serving.h), and the climb stops after two
// failing steps in a row.
constexpr double kNominalQps = 20000.0;
constexpr double kLadderStep = 1.148698354997035;  // 2^(1/5)
constexpr int kLadderSteps = 20;
// Past the knee the backlog grows and p99 climbs by orders of magnitude;
// a limit this loose tells that apart from the few-ms tails a busy host
// adds (3-12 ms at 20k/s), so the ladder finds the knee, not the host.
constexpr double kP99LimitMs = 20.0;
// Serving statistics are kept per window of this many due requests
// (serving.h); the reported p50s and p99s are medians over windows.
constexpr size_t kWindowRequests = 2000;
// Outstanding requests beyond which a due request is skipped, under the
// server's queue capacity so admission never rejects: at the nominal rate
// it absorbs a 0.4 s stall of the host, past the knee it is reached
// within a fraction of a step.
constexpr size_t kQueueCapacity = 16384;
constexpr size_t kBacklogLimit = 8192;
constexpr int kSetupRepeats = 5;
// Fits and refits repeat for their phase's share of --seconds, at least
// this often, and report the median.
constexpr size_t kMinRepeats = 3;
// One delta batch per this many seconds of the refresh stream.
constexpr double kBatchInterval = 0.25;

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

// Refuses builds whose timings would not describe the shipped library.
bool BuildIsTimeable() {
  bool ok = true;
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to time: NDEBUG is not defined\n");
  ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "refusing to time: built with a sanitizer\n");
  ok = false;
#endif
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (!sanitize.empty() && sanitize != "OFF") {
    std::fprintf(stderr, "refusing to time: GENCLUS_SANITIZE=%s\n",
                 sanitize.c_str());
    ok = false;
  }
  if (Failpoints::kEnabled) {
    std::fprintf(stderr, "refusing to time: failpoints compiled in\n");
    ok = false;
  }
  return ok;
}

double Nmi(const Model& model, const Labels& labels) {
  return NormalizedMutualInformation(model.HardLabels(), labels.raw());
}

// Θ rows on the simplex, γ finite and non-negative.
bool ModelIsSane(const Model& model) {
  for (size_t v = 0; v < model.num_nodes(); ++v) {
    double sum = 0.0;
    for (size_t k = 0; k < model.num_clusters(); ++k) {
      const double x = model.theta(v, k);
      if (!(x >= 0.0 && x <= 1.0)) return false;
      sum += x;
    }
    if (std::fabs(sum - 1.0) > 1e-9) return false;
  }
  for (double g : model.gamma) {
    if (!(g >= 0.0) || !std::isfinite(g)) return false;
  }
  return true;
}

// A file name unique to the fit's settings (the directory is the seed's).
std::string FitKey(const FitOptions& options) {
  const GenClusConfig& c = options.config;
  std::string key = "fit";
  for (const std::string& a : options.attributes) key += "-" + a;
  for (double v : {double(c.num_clusters), double(c.outer_iterations),
                   c.outer_tolerance, double(c.em_iterations), c.em_tolerance,
                   double(c.num_init_seeds), double(c.init_em_steps),
                   double(c.theta_init)}) {
    key += Fmt("-%g", v);
  }
  return key + ".fingerprint";
}

// Fingerprint of the fit at this seed, kept beside the inputs so repeat
// runs in one checkout compare against the first.
bool SameAsEarlierRuns(const std::string& path, uint64_t fingerprint) {
  std::ifstream in(path);
  std::string earlier;
  if (in >> earlier) return earlier == Hex(fingerprint);
  std::ofstream(path) << Hex(fingerprint) << "\n";
  return true;
}

struct CpuPhase {
  double cpu = ProcessCpuSeconds();
  double wall = NowSeconds();
  double Utilization(size_t threads) const {
    const double dwall = NowSeconds() - wall;
    return dwall > 0.0 ? (ProcessCpuSeconds() - cpu) /
                             (dwall * static_cast<double>(threads))
                       : 0.0;
  }
};

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

class Run {
 public:
  Run(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace,
      std::string dir, std::string trace_file)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        dir_(std::move(dir)),
        trace_file_(std::move(trace_file)),
        nproc_(std::max(1u, std::thread::hardware_concurrency())),
        workers_(std::max<size_t>(1, nproc_ - 1)),
        rng_(seed ^ 0x5EEDULL) {}

  int Main();

 private:
  Tracer* tracer() { return trace_ ? &tracer_ : nullptr; }
  bool Setup();
  bool FitPhase();
  bool StartServer();
  void ServePhase();
  bool RefreshPhase();
  void Finish();
  void VerifyLog();
  void ReplayInference();
  void Account(const SegmentResult& s);

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string dir_;
  const std::string trace_file_;
  const size_t nproc_;
  const size_t workers_;
  Rng rng_;
  Report report_;
  Tracer tracer_;

  HarnessInputs in_;
  Dataset base_;  // the served network; never mutated
  FitOptions fit_options_;
  Model fitted_;
  std::unique_ptr<Server> server_;
  std::vector<std::shared_ptr<const Model>> versions_;  // [v - 1]
  std::vector<NetworkDelta> batches_;
  std::vector<double> setup_load_s_, setup_model_s_, setup_create_s_;
  // Requests sent, admitted, resolved and failed over every segment; the
  // raw samples are kept for the nominal-rate segments only.
  struct Tally {
    size_t sent = 0, admitted = 0, resolved = 0, failed = 0;
  } tally_;
  std::vector<SegmentResult> nominal_;
  AnswerLog log_;
  double max_qps_ = 0.0;
  std::vector<size_t> batch_sizes_;  // server batch-size histogram
};

bool Run::Setup() {
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span(tracer(), "setup.load_dataset");
    const double start = NowSeconds();
    Result<Dataset> loaded = LoadDataset(dir_ + "/base.txt");
    setup_load_s_.push_back(NowSeconds() - start);
    if (!report_.Check(loaded.ok(), "LoadDataset(base.txt): " +
                                        loaded.status().ToString())) {
      return false;
    }
    base_ = std::move(*loaded);
  }
  return report_.Check(base_.network.num_nodes() == in_.base_nodes,
                       "base snapshot has the expected node count");
}

bool Run::FitPhase() {
  fit_options_ = MakeFitOptions(spec_.data, seed_, nproc_);
  const double budget = seconds_ * spec_.fit_share;
  const double start = NowSeconds();
  CpuPhase cpu;
  std::vector<double> fit_s;
  std::vector<double> nmi;
  // The traced run times two plain fits, the second (warm, like the
  // re-drive after it) being the overhead baseline, then the traced
  // re-drive; the plain run repeats fits for the phase budget.
  auto more_fits = [&] {
    return trace_ ? fit_s.size() < 2
                  : fit_s.size() < kMinRepeats || NowSeconds() - start < budget;
  };
  while (more_fits()) {
    ScopedSpan span(tracer(), "fit.engine");
    const double t0 = NowSeconds();
    Result<FitResult> fit = Engine::Fit(base_, fit_options_);
    fit_s.push_back(NowSeconds() - t0);
    if (!report_.Check(fit.ok(), "Engine::Fit: " + fit.status().ToString())) {
      return false;
    }
    nmi.push_back(Nmi(fit->model, base_.labels));
    if (fit_s.size() == 1) {
      fitted_ = std::move(fit->model);
    } else {
      report_.Check(fit->model.Fingerprint() == fitted_.Fingerprint(),
                    "repeat fits at one seed fingerprint equal");
    }
  }
  const double fit_nmi = Median(nmi);
  report_.Set("fit_s", Median(fit_s), "s", fit_s.size());
  report_.Set("fit_nmi", fit_nmi, "ratio", nmi.size());
  report_.Set("proc.cpu_util_fit", cpu.Utilization(nproc_), "ratio");
  report_.Check(fit_nmi >= kNmiFloor,
                "fit NMI " + Fmt("%.4f", fit_nmi) + " >= floor");
  report_.Check(ModelIsSane(fitted_), "fitted Θ on the simplex, γ >= 0");
  report_.Check(SameAsEarlierRuns(dir_ + "/" + FitKey(fit_options_),
                                  fitted_.Fingerprint()),
                "fit fingerprint equals earlier runs at this seed");
  Report::Info("fit fingerprint " + Hex(fitted_.Fingerprint()));

  if (trace_) {
    Result<TracedFit> traced = RunTracedFit(base_, fit_options_, tracer());
    if (!report_.Check(traced.ok(), "traced fit: " +
                                        traced.status().ToString())) {
      return false;
    }
    report_.Check(traced->model.Fingerprint() == fitted_.Fingerprint(),
                  "traced re-drive fingerprint equals Engine::Fit");
    const double traced_s = tracer_.Duration(traced->root_span);
    const auto self = tracer_.SelfTimes(traced->root_span);
    double covered = 0.0;
    for (const auto& [name, s] : self) {
      if (name == "fit") {
        report_.Set("trace.untraced_s", s, "s");
      } else {
        report_.Set("trace.self." + name + "_s", s, "s");
      }
      covered += s;
    }
    report_.Set("trace.fit_s", traced_s, "s");
    report_.Set("trace.overhead_s", traced_s - fit_s.back(), "s");
    report_.Check(std::fabs(covered - traced_s) <= 1e-6 * traced_s,
                  "self times plus untraced sum to the traced fit");
    auto total = [&](const char* name) {
      const std::vector<double> d = tracer_.Durations(name);
      return std::accumulate(d.begin(), d.end(), 0.0);
    };
    const std::vector<double> steps = tracer_.Durations("em.step");
    std::vector<double> step_ms;
    for (double s : steps) step_ms.push_back(s * 1e3);
    size_t links = 0;
    for (LinkTypeId r = 0; r < base_.network.schema().num_link_types(); ++r) {
      links += base_.network.OutCsr(r).nnz();
    }
    report_.Set("init.best_of_seeds_s", total("init.best_of_seeds"), "s");
    report_.Set("init.kmeans_s", total("init.kmeans"), "s");
    report_.Set("em.sweeps", static_cast<double>(steps.size()), "count");
    report_.Set("em.sweep_ms", Median(step_ms), "ms", step_ms.size());
    report_.Set("em.busy_s", total("em.step"), "s");
    report_.Set("em.objective_s", total("em.objective"), "s");
    report_.Set("em.links_per_s",
                static_cast<double>(links * steps.size()) / total("em.step"),
                "1/s");
    report_.Set("strength.stats_build_s", total("strength.stats_build"), "s");
    report_.Set("strength.learn_s", total("strength.learn"), "s");
    report_.Set("strength.newton_iters",
                static_cast<double>(traced->newton_iterations), "count");
    report_.Set("strength.newton_iter_ms",
                traced->newton_iterations > 0
                    ? total("strength.learn") * 1e3 /
                          static_cast<double>(traced->newton_iterations)
                    : 0.0,
                "ms", traced->newton_iterations);
    report_.Set("strength.fallbacks",
                static_cast<double>(traced->newton_fallbacks), "count");
    report_.Set("em.speedup",
                EmStepSpeedup(base_, fit_options_, fitted_, nproc_), "x");
    report_.Set("strength.speedup",
                StrengthSpeedup(base_, fit_options_, fitted_,
                                traced->last_gamma_in, nproc_),
                "x");
  }
  return true;
}

bool Run::StartServer() {
  const std::string path = dir_ + "/served.bin";
  if (!report_.Check(SaveModelBinary(fitted_, path).ok(),
                     "SaveModelBinary")) {
    return false;
  }
  ServerOptions options;
  options.num_workers = workers_;
  options.queue_capacity = kQueueCapacity;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server_.reset();  // stop the previous repeat's workers, untimed
    ScopedSpan span(tracer(), "setup.load_model_and_server");
    double t0 = NowSeconds();
    Result<Model> model = LoadModelBinary(path);
    setup_model_s_.push_back(NowSeconds() - t0);
    if (!report_.Check(model.ok(), "LoadModelBinary: " +
                                       model.status().ToString())) {
      return false;
    }
    report_.Check(model->Fingerprint() == fitted_.Fingerprint(),
                  "binary model round trip is bitwise");
    t0 = NowSeconds();
    Result<std::unique_ptr<Server>> server =
        Server::Create(&base_.network, std::move(*model), options);
    setup_create_s_.push_back(NowSeconds() - t0);
    if (!report_.Check(server.ok(), "Server::Create: " +
                                        server.status().ToString())) {
      return false;
    }
    server_ = std::move(*server);
  }
  versions_.push_back(server_->model());
  return true;
}

void Run::ServePhase() {
  // Expected answers of the served model (version 1), computed through
  // the direct Engine path before any request is sent.
  Matrix expected(in_.queries.size(), fitted_.num_clusters());
  {
    Result<Engine> engine = Engine::Create(&base_.network, fitted_);
    if (!report_.Check(engine.ok(), "Engine::Create for the oracle")) return;
    auto answers = engine->InferBatch(in_.queries);
    size_t bad = 0;
    for (size_t i = 0; i < answers.size(); ++i) {
      if (!answers[i].ok()) {
        ++bad;
        continue;
      }
      expected.SetRow(i, *answers[i]);
    }
    if (!report_.Check(bad == 0, "every pool query is valid")) return;
  }
  const Oracle oracle{1, &expected, nullptr};

  const double budget = seconds_ * spec_.serve_share;
  // A tenth of the phase warms the tier up at the nominal rate (the first
  // seconds after Server::Create ran p99s ten times the steady ones; only
  // the correctness of those answers counts), 40 % measures it there and
  // the rest climbs the ladder in steps of equal length, about eleven of
  // which reach past the knee.
  const double warmup_seconds = budget * 0.1;
  const double nominal_seconds = budget * 0.4;
  const double step_seconds = budget * 0.5 / 11.0;
  CpuPhase cpu;
  auto run = [&](double rate, double seconds) {
    ScopedSpan span(tracer(), "serve.segment");
    SegmentResult s = RunSegment(*server_, in_.queries, rate, seconds,
                                 kBacklogLimit, kWindowRequests, oracle, rng_);
    Account(s);
    const double share = PassingShare(s, kP99LimitMs);
    auto p99 = [&](std::vector<double> Window::*samples) {
      return WindowedQuantile(s.windows, samples, 0.99);
    };
    Report::Info(Fmt("rate %9.0f/s", rate) +
                 Fmt(" sent %7.0f", static_cast<double>(s.sent)) +
                 Fmt(" ok %7.0f", static_cast<double>(s.succeeded)) +
                 Fmt(" failed %4.0f", static_cast<double>(s.failed())) +
                 Fmt(" skipped %6.0f", static_cast<double>(s.skipped)) +
                 Fmt(" p50 %7.3f ms", Quantile(s.Latencies(), 0.5)) +
                 Fmt(" p99 %8.3f ms", p99(&Window::latency_ms)) +
                 Fmt(" server p99 %7.3f ms", p99(&Window::server_ms)) +
                 Fmt(" late p99 %7.1f us", p99(&Window::lateness_us)) +
                 Fmt(" passing windows %3.0f%%", share * 100.0));
    if (rate == kNominalQps) nominal_.push_back(std::move(s));
    return share;
  };
  Account(RunSegment(*server_, in_.queries, kNominalQps, warmup_seconds,
                     kBacklogLimit, kWindowRequests, oracle, rng_));
  double last_rate = kNominalQps;
  double last_share = run(kNominalQps, nominal_seconds);
  // Failing already at the nominal rate, the knee lies below it:
  // interpolate linearly toward zero load, where every window passes.
  if (last_share < 0.5) max_qps_ = kNominalQps * 0.5 / (1.0 - last_share);
  // max qps: the last passing rate before the climb stopped, moved
  // log-linearly toward the next step by how far the passing share was
  // above one half — a share, unlike a pass/fail flip, varies smoothly.
  int fails = 0;
  for (int i = 0; i < kLadderSteps && fails < 2; ++i) {
    const double rate = 2.0 * kNominalQps * std::pow(kLadderStep, i);
    const double share = run(rate, step_seconds);
    if (share >= 0.5) {
      fails = 0;
      max_qps_ = rate;
    } else if (fails++ == 0 && last_share >= 0.5) {
      const double t = (last_share - 0.5) / (last_share - share);
      max_qps_ = last_rate * std::pow(rate / last_rate, t);
    }
    last_rate = rate;
    last_share = share;
  }
  if (fails < 2) Report::Info("ladder top passed; max qps is a lower bound");
  report_.Set("proc.cpu_util_serve", cpu.Utilization(workers_ + 1), "ratio");
}

bool Run::RefreshPhase() {
  const double budget = seconds_ * spec_.refresh_share;
  const double phase_end = NowSeconds() + budget;
  const double stream_seconds = budget * 0.6;
  const size_t count = std::max<size_t>(
      4, static_cast<size_t>(std::lround(stream_seconds / kBatchInterval)));
  batches_ = SplitDelta(in_.remainder, in_.base_nodes, count);
  Dataset grown = base_;
  Model model = fitted_;

  CpuPhase cpu;
  SegmentResult stream;
  Rng stream_rng = rng_.Split();
  std::thread generator([&] {
    stream = RunSegment(*server_, in_.queries, kNominalQps, stream_seconds,
                        kBacklogLimit, kWindowRequests,
                        Oracle{0, nullptr, &log_}, stream_rng);
  });
  std::vector<double> update_ms, apply_ms, swap_ms, touched;
  bool ok = true;
  const double start = NowSeconds();
  for (size_t b = 0; b < batches_.size() && ok; ++b) {
    const double at = start + stream_seconds * static_cast<double>(b + 1) /
                                  static_cast<double>(batches_.size() + 1);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, at - NowSeconds())));
    ScopedSpan span(tracer(), "refresh.batch");
    const double t0 = NowSeconds();
    Result<UpdateReport> applied =
        ApplyUpdates(&grown, &model, std::span(&batches_[b], 1));
    const double t1 = NowSeconds();
    ok = report_.Check(applied.ok(),
                       "ApplyUpdates: " + applied.status().ToString());
    if (!ok) break;
    auto snapshot = std::make_shared<const Model>(model);
    const double t2 = NowSeconds();
    ok = report_.Check(server_->SwapModel(snapshot).ok(), "SwapModel");
    const double t3 = NowSeconds();
    versions_.push_back(std::move(snapshot));
    update_ms.push_back((t3 - t0) * 1e3);
    apply_ms.push_back((t1 - t0) * 1e3);
    swap_ms.push_back((t3 - t2) * 1e3);
    touched.push_back(static_cast<double>(applied->touched_nodes));
  }
  generator.join();
  report_.Set("serve.refresh_p99_ms",
              WindowedQuantile(stream.windows, &Window::latency_ms, 0.99),
              "ms", stream.succeeded);
  Account(stream);
  nominal_.push_back(std::move(stream));
  report_.Set("proc.cpu_util_refresh", cpu.Utilization(workers_ + 2),
              "ratio");
  if (!ok) return false;
  report_.Check(ModelIsSane(model), "updated Θ on the simplex, γ >= 0");
  report_.Set("update_p50_ms", Median(update_ms), "ms", update_ms.size());
  report_.Set("update.apply_ms", Median(apply_ms), "ms", apply_ms.size());
  report_.Set("server.swap_ms", Median(swap_ms), "ms", swap_ms.size());
  report_.Set("update.touched_nodes", Median(touched), "count",
              touched.size());

  // The nightly tier: warm refit on the grown dataset, then a final swap.
  // Refits repeat for the rest of the phase (at least kMinRepeats); each
  // must reproduce the first one's model.
  const RefitOptions refit_options =
      MakeRefitOptions(spec_.data, seed_, nproc_);
  std::optional<FitResult> refit;
  std::vector<double> refit_s;
  while (refit_s.size() < kMinRepeats || NowSeconds() < phase_end) {
    ScopedSpan span(tracer(), "refit");
    const double t0 = NowSeconds();
    Result<FitResult> again = Engine::Refit(grown, model, refit_options);
    refit_s.push_back(NowSeconds() - t0);
    if (!report_.Check(again.ok(), "Engine::Refit: " +
                                       again.status().ToString())) {
      return false;
    }
    if (!refit) {
      refit = std::move(*again);
    } else {
      report_.Check(again->model.Fingerprint() == refit->model.Fingerprint(),
                    "repeat refits fingerprint equal");
    }
  }
  report_.Set("refit_s", Median(refit_s), "s", refit_s.size());
  const double refit_nmi = Nmi(refit->model, grown.labels);
  report_.Set("refit.nmi", refit_nmi, "ratio");
  report_.Check(refit_nmi >= kNmiFloor,
                "refit NMI " + Fmt("%.4f", refit_nmi) + " >= floor");
  report_.Check(ModelIsSane(refit->model), "refit Θ on the simplex, γ >= 0");
  report_.Check(grown.network.num_nodes() == in_.full.network.num_nodes(),
                "delta batches rebuild the full dataset");
  size_t sweeps = 0;
  for (const OuterIterationRecord& r : refit->report.trace) {
    sweeps += r.em_iterations;
  }
  report_.Set("refit.em_sweeps", static_cast<double>(sweeps), "count");
  report_.Set("refit.blocks_skipped",
              static_cast<double>(refit->report.em_blocks_skipped), "count");
  auto final_model = std::make_shared<const Model>(std::move(refit->model));
  report_.Check(server_->SwapModel(final_model).ok(), "final SwapModel");
  versions_.push_back(std::move(final_model));
  return true;
}

// Every answer logged under the refresh stream must equal
// Engine::InferBatch on the model version stamped on it. Version v's
// network is the base grown by the first v - 1 batches (the refit model
// covers all of them).
void Run::VerifyLog() {
  const size_t k = fitted_.num_clusters();
  std::vector<std::vector<size_t>> by_version(versions_.size() + 1);
  size_t unknown = 0;
  for (size_t i = 0; i < log_.query.size(); ++i) {
    const uint64_t v = log_.version[i];
    if (v == 0 || v > versions_.size()) {
      ++unknown;
    } else {
      by_version[v].push_back(i);
    }
  }
  size_t drifted = unknown;
  Dataset network_of_version = base_;
  for (size_t v = 1; v <= versions_.size(); ++v) {
    if (v >= 2 && v - 2 < batches_.size()) {
      Result<Dataset> grown =
          ApplyNetworkDelta(network_of_version, batches_[v - 2]);
      if (!report_.Check(grown.ok(), "replaying delta batches")) return;
      network_of_version = std::move(*grown);
    }
    if (by_version[v].empty()) continue;
    Result<Engine> engine =
        Engine::Create(&network_of_version.network, *versions_[v - 1]);
    if (!report_.Check(engine.ok(), "Engine::Create for version " +
                                        std::to_string(v))) {
      return;
    }
    auto answers = engine->InferBatch(in_.queries);
    for (size_t i : by_version[v]) {
      const auto& want = answers[log_.query[i]];
      if (!want.ok() ||
          std::memcmp(want->data(), &log_.membership[i * k],
                      k * sizeof(double)) != 0) {
        ++drifted;
      }
    }
  }
  nominal_.back().drifted += drifted;
  tally_.failed += drifted;
  report_.Check(drifted == 0,
                std::to_string(drifted) +
                    " refresh-stream answers differ from Engine::InferBatch "
                    "on their stamped model version");
}

// Engine::Plan / Execute replayed at the batch sizes the server ran.
void Run::ReplayInference() {
  Result<Engine> engine = Engine::Create(&base_.network, fitted_,
                                         EngineOptions{.num_threads = 1});
  if (!report_.Check(engine.ok(), "Engine::Create for the replay")) return;
  const size_t total_batches =
      std::accumulate(batch_sizes_.begin(), batch_sizes_.end(), size_t{0});
  if (total_batches == 0) return;
  double plan_s = 0.0, exec_s = 0.0;
  size_t queries = 0;
  std::vector<NewObjectQuery> batch;
  for (size_t size = 1; size < batch_sizes_.size(); ++size) {
    // ~2000 replayed batches, spread like the served ones.
    const size_t reps = (batch_sizes_[size] * 2000 + total_batches - 1) /
                        total_batches;
    for (size_t r = 0; r < reps; ++r) {
      batch.clear();
      for (size_t i = 0; i < size; ++i) {
        batch.push_back(in_.queries[rng_.UniformIndex(in_.queries.size())]);
      }
      const double t0 = NowSeconds();
      InferPlan plan = engine->Plan(batch);
      const double t1 = NowSeconds();
      InferenceResult result = engine->Execute(plan);
      exec_s += NowSeconds() - t1;
      plan_s += t1 - t0;
      queries += result.size();
    }
  }
  const double n = static_cast<double>(std::max<size_t>(queries, 1));
  report_.Set("inference.plan_us", plan_s * 1e6 / n, "us", queries);
  report_.Set("inference.execute_us", exec_s * 1e6 / n, "us", queries);
}

void Run::Account(const SegmentResult& s) {
  tally_.sent += s.sent;
  tally_.admitted += s.sent - s.rejected;
  tally_.resolved += s.succeeded + s.errored + s.drifted;
  tally_.failed += s.failed();
}

void Run::Finish() {
  server_->Stop();
  const ServerStats stats = server_->Stats();
  batch_sizes_ = stats.batch_size_histogram;
  VerifyLog();

  // Requests due at the nominal rate (the serve phase's first segment
  // and the refresh stream) give the latency and failure figures. A
  // request skipped there went unserved and counts as attempted and
  // failed; above the nominal rate a skip only marks a ladder step as
  // past the knee.
  const size_t sent = tally_.sent, admitted = tally_.admitted;
  const size_t resolved = tally_.resolved, failed = tally_.failed;
  size_t nominal_due = 0, nominal_failed = 0, nominal_skipped = 0;
  std::vector<double> submit_us, lateness_us, nominal_latency;
  std::vector<Window> nominal_windows;
  for (const SegmentResult& s : nominal_) {
    nominal_due += s.sent + s.skipped;
    nominal_failed += s.failed() + s.skipped;
    nominal_skipped += s.skipped;
    Append(&submit_us, s.submit_us);
    Append(&lateness_us, s.Lateness());
    Append(&nominal_latency, s.Latencies());
    nominal_windows.insert(nominal_windows.end(), s.windows.begin(),
                           s.windows.end());
  }
  report_.Count(sent + nominal_skipped, failed + nominal_skipped);
  report_.Check(stats.accepted + stats.rejected + stats.deadline_rejected ==
                    sent,
                "submissions == accepted + rejected + deadline_rejected");
  report_.Check(stats.accepted ==
                    stats.completed + stats.cancelled + stats.deadline_shed,
                "accepted == completed + cancelled + deadline_shed");
  report_.Check(stats.accepted == admitted && resolved == admitted,
                "client tallies match ServerStats");
  report_.Check(stats.model_fingerprint == versions_.back()->Fingerprint(),
                "server reports the fingerprint of the last swapped model");
  const size_t samples = nominal_latency.size();
  report_.Set("serve_p50_ms",
              WindowedQuantile(nominal_windows, &Window::latency_ms, 0.5), "ms",
              samples);
  report_.Set("serve_p99_ms",
              WindowedQuantile(nominal_windows, &Window::latency_ms, 0.99),
              "ms", samples);
  report_.Set("serve.nominal_p99_all_ms", Quantile(nominal_latency, 0.99),
              "ms", samples);
  report_.Set("serve.server_p99_ms",
              WindowedQuantile(nominal_windows, &Window::server_ms, 0.99),
              "ms", samples);
  report_.Set("serve_max_qps", max_qps_, "qps");
  report_.Set("serve_fail_frac",
              nominal_due > 0 ? static_cast<double>(nominal_failed) /
                                    static_cast<double>(nominal_due)
                              : 1.0,
              "ratio", nominal_due);
  report_.Set("loadgen.lateness_us_p50", Quantile(lateness_us, 0.5), "us",
              lateness_us.size());
  report_.Set("loadgen.lateness_us_p99", Quantile(lateness_us, 0.99), "us",
              lateness_us.size());
  report_.Set("server.submit_us_p50", Quantile(submit_us, 0.5), "us",
              submit_us.size());
  report_.Set("server.submit_us_p99", Quantile(submit_us, 0.99), "us",
              submit_us.size());
  double weighted = 0.0;
  for (size_t size = 1; size < batch_sizes_.size(); ++size) {
    weighted += static_cast<double>(size * batch_sizes_[size]);
  }
  report_.Set("server.batch_size_mean",
              stats.batches > 0 ? weighted / static_cast<double>(stats.batches)
                                : 0.0,
              "count", stats.batches);
  report_.Set("server.queue_wait_us_p50", stats.queue_wait.p50_us, "us",
              stats.queue_wait.count);
  report_.Set("server.queue_wait_us_p99", stats.queue_wait.p99_us, "us",
              stats.queue_wait.count);
  report_.Set("server.exec_us", stats.exec.p50_us, "us", stats.exec.count);
  report_.Set("server.rejected", static_cast<double>(stats.rejected),
              "count");
  report_.Set("server.deadline_shed",
              static_cast<double>(stats.deadline_shed), "count");
  report_.Set("server.degraded", static_cast<double>(stats.degraded),
              "count");
  if (trace_) ReplayInference();

  report_.Set("setup_s", Median(setup_load_s_) + Median(setup_model_s_) +
                             Median(setup_create_s_),
              "s", setup_load_s_.size());
  report_.Set("hin.load_dataset_s", Median(setup_load_s_), "s",
              setup_load_s_.size());
  report_.Set("model_io.load_s", Median(setup_model_s_), "s",
              setup_model_s_.size());
  report_.Set("peak_rss_mb", PeakRssMb(), "MB");
}

int Run::Main() {
  Report::Info(std::string("workload ") + spec_.name + " seed " +
               std::to_string(seed_) + " seconds " +
               Fmt("%.0f", seconds_) + (trace_ ? " traced" : ""));
  Report::Info("threads: fit " + std::to_string(nproc_) + ", serve 1 + " +
               std::to_string(workers_) + " workers, refresh 1 + " +
               std::to_string(workers_) + " workers + 1 updater, refit " +
               std::to_string(nproc_));
  {
    const double t0 = NowSeconds();
    Result<HarnessInputs> in = LoadHarnessInputs(dir_);
    if (!in.ok()) {
      std::fprintf(stderr, "inputs: %s\n", in.status().ToString().c_str());
      return 1;
    }
    in_ = std::move(*in);
    Report::Info(Fmt("harness inputs loaded in %.2f s", NowSeconds() - t0) +
                 ", " + std::to_string(in_.queries.size()) + " queries");
  }
  const bool completed = Setup() && FitPhase() && StartServer() &&
                         (ServePhase(), true) && RefreshPhase();
  if (completed) Finish();
  if (trace_ && !trace_file_.empty()) {
    report_.Check(tracer_.Write(trace_file_).ok(),
                  "writing the trace to " + trace_file_);
  }
  report_.Print();
  return completed && report_.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const genclus::Flags flags = genclus::Flags::Parse(argc, argv);
  const std::string mode =
      flags.positional().empty() ? "" : flags.positional().front();
  const WorkloadSpec* spec = FindWorkload(flags.GetString("workload", ""));
  const std::string dir = flags.GetString("dir", "");
  const int64_t seed = flags.GetInt("seed", -1);
  if (spec == nullptr || dir.empty() || seed < 0 ||
      (mode != "gen" && mode != "run")) {
    std::fprintf(stderr,
                 "usage: genclus_perfbench gen|run --workload W --seed S "
                 "--dir DIR [--seconds N --trace 0|1 --trace-file F]\n");
    return 2;
  }
  Report::Info(std::string("build: ") + PERFBENCH_BUILD_TYPE + ", compiler " +
               __VERSION__ + ", nproc " +
               std::to_string(std::thread::hardware_concurrency()));
  if (mode == "gen") {
    const double t0 = NowSeconds();
    genclus::Status status =
        Generate(spec->data, static_cast<uint64_t>(seed), dir);
    if (!status.ok()) {
      std::fprintf(stderr, "generate: %s\n", status.ToString().c_str());
      return 1;
    }
    Report::Info(std::string("generated ") + DataName(spec->data) +
                 " inputs in " + std::to_string(NowSeconds() - t0) + " s");
    return 0;
  }
  if (!BuildIsTimeable()) return 3;
  Run run(*spec, static_cast<uint64_t>(seed),
          static_cast<double>(flags.GetInt("seconds", 10)),
          flags.GetInt("trace", 0) != 0, dir,
          flags.GetString("trace-file", ""));
  return run.Main();
}
