// Failpoints: named fault-injection sites, compiled to nothing unless the
// build sets -DGENCLUS_FAILPOINTS (CMake option GENCLUS_FAILPOINTS=ON).
// They exist so tests can drive error paths DETERMINISTICALLY — a worker
// throw, a truncated model file, a queue storm — instead of hoping a
// stress test happens to hit them.
//
// A site names itself and states what happens when it fires:
//
//   GENCLUS_FAILPOINT("server.execute",
//                     throw std::runtime_error("injected failure"));
//   GENCLUS_FAILPOINT("bounded_queue.push", return false);
//
// Tests arm a site by name with a FailpointSpec:
//
//   Failpoints::Arm("server.execute", {.max_fires = 1});        // throw once
//   Failpoints::Arm("server.execute",
//                   {.delay_us = 20000, .fail = false});        // 20ms stall,
//                                                               // no throw
//   Failpoints::Arm("model_io.save", {.skip_hits = 2});         // 3rd hit on
//
// Fire() applies the configured delay (if any) and returns whether the
// site's action body should run. Unarmed sites return false immediately;
// with failpoints compiled out the macro expands to an empty statement, so
// production builds carry zero overhead — no registry lookup, no branch,
// no string. The registry API itself (Arm/Disarm/HitCount) always links,
// so test code compiles in every lane and gates on Failpoints::kEnabled.
//
// Placement rule (enforced by tools/lint_determinism.py R5): in the
// numeric hot-path directories src/core and src/linalg, failpoint sites
// may appear only in the designated fault-injection surfaces (server.cc,
// model_io.cc) or inside an explicit #ifdef GENCLUS_FAILPOINTS region —
// never bare inside a kernel loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace genclus {

/// How an armed failpoint behaves. Hits are counted per Fire() call at
/// the site; a hit "triggers" once skip_hits have passed and while fewer
/// than max_fires triggers have happened. Every trigger applies delay_us
/// first; the site's action body runs only when `fail` is true.
struct FailpointSpec {
  /// Hits to pass through untouched before the first trigger (N-th-hit
  /// triggers: skip_hits = N - 1).
  size_t skip_hits = 0;
  /// Triggers after which the point goes quiet (stays armed for
  /// HitCount accounting). Default: unlimited.
  size_t max_fires = std::numeric_limits<size_t>::max();
  /// Sleep applied on each trigger, before the action body — the "slow
  /// worker" / "wedged I/O" injection.
  int64_t delay_us = 0;
  /// Whether a trigger runs the site's action body (error-return /
  /// throw). false = delay-only failpoint.
  bool fail = true;
};

/// Global registry of armed failpoints. All methods are thread-safe;
/// with failpoints compiled out, Arm/Disarm are accepted but no site
/// ever consults the registry.
class Failpoints {
 public:
#if defined(GENCLUS_FAILPOINTS)
  static constexpr bool kEnabled = true;
#else
  static constexpr bool kEnabled = false;
#endif

  /// Arms (or re-arms, resetting counters) the named failpoint.
  static void Arm(std::string_view name, FailpointSpec spec = {});

  /// Disarms the named failpoint (no-op when not armed).
  static void Disarm(std::string_view name);

  /// Disarms everything — test teardown hygiene.
  static void DisarmAll();

  /// Fire() calls the named site has seen since it was (last) armed;
  /// 0 when not armed.
  static size_t HitCount(std::string_view name);

  /// Called by GENCLUS_FAILPOINT at an armed site: counts the hit,
  /// applies the configured delay when triggering, and returns whether
  /// the site's action body should run. Not meant to be called directly.
  static bool Fire(const char* name);
};

}  // namespace genclus

#if defined(GENCLUS_FAILPOINTS)
/// Names a fault-injection site. The variadic action body runs when the
/// site is armed and triggers (see FailpointSpec); it may throw, return,
/// or mutate local state. Omit the body for a delay-only site.
#define GENCLUS_FAILPOINT(name, ...)           \
  do {                                         \
    if (::genclus::Failpoints::Fire(name)) {   \
      __VA_ARGS__;                             \
    }                                          \
  } while (0)
#else
#define GENCLUS_FAILPOINT(name, ...) \
  do {                               \
  } while (0)
#endif
