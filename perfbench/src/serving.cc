#include "serving.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <thread>

#include "report.h"

namespace perfbench {

using namespace genclus;

namespace {

struct Pending {
  std::future<QueryResult> future;
  double due = 0.0;
  double submitted = 0.0;
  uint32_t query = 0;
  uint32_t window = 0;
};

void Harvest(Pending& p, const Oracle& oracle, SegmentResult* out) {
  Window& window = out->windows[p.window];
  QueryResult result = p.future.get();
  if (!result.ok()) {
    ++out->errored;
    ++window.failed;
    return;
  }
  const size_t k = result.membership.size();
  if (oracle.expected != nullptr) {
    const bool same =
        result.model_version == oracle.version &&
        k == oracle.expected->cols() &&
        std::memcmp(result.membership.data(), oracle.expected->Row(p.query),
                    k * sizeof(double)) == 0;
    if (!same) {
      ++out->drifted;
      ++window.failed;
      return;
    }
  } else if (oracle.log != nullptr) {
    oracle.log->query.push_back(p.query);
    oracle.log->version.push_back(result.model_version);
    oracle.log->membership.insert(oracle.log->membership.end(),
                                  result.membership.begin(),
                                  result.membership.end());
  }
  ++out->succeeded;
  window.latency_ms.push_back(
      ((p.submitted - p.due) + result.total_seconds) * 1e3);
  window.server_ms.push_back(result.total_seconds * 1e3);
}

}  // namespace

std::vector<double> SegmentResult::Latencies() const {
  std::vector<double> out;
  for (const Window& w : windows) {
    out.insert(out.end(), w.latency_ms.begin(), w.latency_ms.end());
  }
  return out;
}

std::vector<double> SegmentResult::Lateness() const {
  std::vector<double> out;
  for (const Window& w : windows) {
    out.insert(out.end(), w.lateness_us.begin(), w.lateness_us.end());
  }
  return out;
}

SegmentResult RunSegment(Server& server,
                         const std::vector<NewObjectQuery>& queries,
                         double rate, double seconds, size_t backlog_limit,
                         size_t window_requests, const Oracle& oracle,
                         Rng& rng) {
  SegmentResult out;
  out.rate = rate;
  const double window_seconds = static_cast<double>(window_requests) / rate;
  out.windows.resize(static_cast<size_t>(std::ceil(seconds / window_seconds)));
  for (Window& w : out.windows) {
    w.latency_ms.reserve(window_requests * 5 / 4);
    w.server_ms.reserve(window_requests * 5 / 4);
    w.lateness_us.reserve(window_requests * 5 / 4);
  }
  out.submit_us.reserve(static_cast<size_t>(rate * seconds * 1.25) + 16);
  std::deque<Pending> pending;
  auto harvest_ready = [&] {
    if (!pending.empty() &&
        pending.front().future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      Harvest(pending.front(), oracle, &out);
      pending.pop_front();
      return true;
    }
    return false;
  };

  const double start = NowSeconds();
  double due = start;
  while (true) {
    due += -std::log1p(-rng.Uniform()) / rate;
    const size_t window_index =
        static_cast<size_t>((due - start) / window_seconds);
    if (window_index >= out.windows.size() || due >= start + seconds) break;
    Window& window = out.windows[window_index];
    // Wait for the due time: sleep while it is far, else harvest / spin.
    for (double now = NowSeconds(); now < due; now = NowSeconds()) {
      if (harvest_ready()) continue;
      if (due - now > 300e-6) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(due - now - 200e-6));
      }
    }
    while (harvest_ready()) {
    }
    if (pending.size() > backlog_limit) {
      ++out.skipped;
      ++window.skipped;
      continue;
    }
    const uint32_t query =
        static_cast<uint32_t>(rng.UniformIndex(queries.size()));
    const double submitted = NowSeconds();
    Result<std::future<QueryResult>> admitted = server.Submit(queries[query]);
    const double returned = NowSeconds();
    ++out.sent;
    window.lateness_us.push_back((submitted - due) * 1e6);
    out.submit_us.push_back((returned - submitted) * 1e6);
    if (!admitted.ok()) {
      ++out.rejected;
      ++window.failed;
      continue;
    }
    pending.push_back({std::move(*admitted), due, submitted, query,
                       static_cast<uint32_t>(window_index)});
  }
  for (Pending& p : pending) Harvest(p, oracle, &out);
  return out;
}

double WindowedQuantile(const std::vector<Window>& windows,
                        std::vector<double> Window::*samples, double q) {
  std::vector<double> per_window;
  for (const Window& w : windows) {
    if (!(w.*samples).empty()) per_window.push_back(Quantile(w.*samples, q));
  }
  return Median(per_window);
}

double PassingShare(const SegmentResult& segment, double p99_limit_ms) {
  if (segment.windows.empty()) return 0.0;
  size_t passing = 0;
  for (const Window& w : segment.windows) {
    if (w.failed == 0 && w.skipped == 0 && !w.latency_ms.empty() &&
        Quantile(w.latency_ms, 0.99) <= p99_limit_ms) {
      ++passing;
    }
  }
  return static_cast<double>(passing) /
         static_cast<double>(segment.windows.size());
}

}  // namespace perfbench
