// Spans recorded by the harness around its calls into the library, and
// the traced fit: Algorithm 1 re-driven from the library's public pieces
// (BestOfSeedsInit's parts -> EmOptimizer::Step -> G1Objective ->
// StrengthLearner -> Learn) with a span around each call, so the fit's
// time splits into layers. The re-driven model must fingerprint equal to
// Engine::Fit's, which proves the traced loop is the same program.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/model.h"
#include "hin/dataset.h"

namespace perfbench {

/// Single-threaded span recorder: spans nest in call order.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int Begin(const std::string& name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  double Duration(int id) const {
    return spans_[id].end - spans_[id].start;
  }

  /// Self time (duration minus time covered by child spans) summed per
  /// span name over the subtree rooted at `root`, root included.
  std::map<std::string, double> SelfTimes(int root) const;

  /// Durations of every span named `name`, in begin order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span as a Chrome trace-event JSON file (open it in
  /// chrome://tracing or Perfetto).
  genclus::Status Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Outcome of the traced fit: the model plus the last iterate's inputs to
/// the thread-scaling probes.
struct TracedFit {
  genclus::Model model;
  int root_span = -1;
  size_t newton_iterations = 0;
  size_t newton_fallbacks = 0;
  // Gamma the final strength step started from.
  std::vector<double> last_gamma_in;
};

/// Runs Algorithm 1 exactly as Engine::Fit does (no warm start) with a
/// span around each library call. Span names: fit, init.best_of_seeds,
/// init.kmeans, init.candidate, init.score, em.step, em.objective,
/// strength.stats_build, strength.learn.
genclus::Result<TracedFit> RunTracedFit(const genclus::Dataset& dataset,
                                        const genclus::FitOptions& options,
                                        Tracer* tracer);

/// Median wall time of one EmOptimizer::Step at 1 thread over that at
/// `threads` threads, both from the same iterate.
double EmStepSpeedup(const genclus::Dataset& dataset,
                     const genclus::FitOptions& options,
                     const genclus::Model& model, size_t threads);

/// Wall time of one strength step (StrengthLearner construction + Learn
/// from `gamma_in`) at 1 thread over that at `threads` threads.
double StrengthSpeedup(const genclus::Dataset& dataset,
                       const genclus::FitOptions& options,
                       const genclus::Model& model,
                       const std::vector<double>& gamma_in, size_t threads);

}  // namespace perfbench
