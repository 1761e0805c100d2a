// Open-loop load generation against a genclus::Server.
//
// One generator thread sends fold-in queries on a Poisson schedule,
// whatever the server's state — independent users, not callers waiting
// for replies. Each request is timed from when it was DUE, so a stall in
// the server (or the generator) is charged to every request it delays:
//
//   latency = (submit start - due) + QueryResult::total_seconds
//
// where total_seconds is the server's own admission-to-completion time.
// Completed answers are harvested without blocking while the generator
// waits for the next due time and checked against the expected answers.
//
// Every statistic is also kept per window of consecutive due times, and
// verdicts are medians over windows: a shared virtual machine stalls
// threads for milliseconds now and then, and one stall should move one
// window, not the result.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/inference.h"
#include "core/server.h"
#include "linalg/matrix.h"

namespace perfbench {

/// Answers logged for checking after the run (used while the served
/// model changes under the stream).
struct AnswerLog {
  std::vector<uint32_t> query;
  std::vector<uint64_t> version;
  std::vector<double> membership;  // K doubles per answer
};

/// How served answers are checked: bitwise against `expected` row
/// `query` when `expected` is set (and the answer must come from
/// `version`), else appended to `log`.
struct Oracle {
  uint64_t version = 0;
  const genclus::Matrix* expected = nullptr;
  AnswerLog* log = nullptr;
};

/// Requests due within one window of the segment.
struct Window {
  std::vector<double> latency_ms;   // successes, from the due time
  std::vector<double> server_ms;    // successes, admission to completion
  std::vector<double> lateness_us;  // submit start - due, per send
  size_t failed = 0;   // rejected, errored or drifted
  size_t skipped = 0;  // not sent: the backlog guard was exceeded
};

struct SegmentResult {
  double rate = 0.0;     // target requests per second
  size_t sent = 0;
  size_t succeeded = 0;
  size_t rejected = 0;  // refused at Submit
  size_t errored = 0;   // future resolved with a non-OK status
  size_t drifted = 0;   // answer differs from the expected one
  size_t skipped = 0;   // due but not sent (backlog guard)
  std::vector<Window> windows;
  std::vector<double> submit_us;  // time spent inside Submit, per send

  size_t failed() const { return rejected + errored + drifted; }
  /// Every window's samples, in due order.
  std::vector<double> Latencies() const;
  std::vector<double> Lateness() const;
};

/// Sends queries drawn uniformly from `queries` at `rate` per second for
/// `seconds`, then waits for every admitted request. A request falling due
/// while more than `backlog_limit` are outstanding is skipped, so the
/// server's queue never fills. Windows hold `window_requests` due
/// requests each.
SegmentResult RunSegment(genclus::Server& server,
                         const std::vector<genclus::NewObjectQuery>& queries,
                         double rate, double seconds, size_t backlog_limit,
                         size_t window_requests, const Oracle& oracle,
                         genclus::Rng& rng);

/// The median over windows of each window's q-quantile of `samples`
/// (e.g. &Window::latency_ms).
double WindowedQuantile(const std::vector<Window>& windows,
                        std::vector<double> Window::*samples, double q);

/// Share of the segment's windows that pass: every due request was sent
/// and answered correctly, with the window's p99 within `p99_limit_ms`.
double PassingShare(const SegmentResult& segment, double p99_limit_ms);

}  // namespace perfbench
