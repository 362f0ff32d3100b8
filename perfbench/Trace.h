//===- perfbench/Trace.h - Per-layer spans for the repo benchmark -*- C++ -*-===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing layer. Nothing here lives inside the library:
/// time is attributed by wrapping the library's public seams.
///
///   * TracingBackend -- an smt::DecisionProcedure decorator over "native"
///     that forwards every call unchanged and times one-shot isSat calls,
///     session checks and quantifier elimination. It is registered with
///     smt::registerBackend under kTracedBackend and selected through
///     Options::Backend, so every ErrorDiagnoser goes through it, including
///     those of triage workers and daemon sessions.
///   * TimedOracle -- a core::Oracle wrapper timing oracle answers and
///     recording when each question was asked and answered.
///   * Span -- an RAII timer around one pipeline stage the benchmark calls
///     itself (parse, annotate, analyze, ...).
///
/// Totals accumulate in per-thread slots of relaxed atomics, so concurrent
/// daemon sessions record without locks and without data races; snapshot()
/// sums the slots. Neither the decorators nor the spans allocate from the
/// malloc heap, so a traced run makes the same allocations as an untraced
/// one (see Trace.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ABDIAG_PERFBENCH_TRACE_H
#define ABDIAG_PERFBENCH_TRACE_H

#include "core/Oracle.h"
#include "smt/DecisionProcedure.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// The bytes the process's allocations hold in MB: malloc's allocated
/// chunks, mmapped ones included (mallinfo2). Unlike the resident set, it
/// leaves out the memory malloc's arenas keep after a free, which depends
/// on which arena each thread happened to use.
double heapInUseMb();

/// Timed layers. The first group are pipeline stages the benchmark calls
/// directly (top-level spans of one report); the second group are calls
/// made from inside those stages through the decorators.
enum class Layer : uint8_t {
  Parse,
  Annotate,
  Analyze,
  Shortcut,    ///< Lemma 1/2 validity checks
  OracleBuild, ///< ConcreteOracle constructor
  Diagnose,    ///< DiagnosisEngine::run, escalated retry included
  IsSat,       ///< one-shot DecisionProcedure::isSat
  SessionCheck,
  Qe,          ///< DecisionProcedure::eliminateForall
  OracleAnswer,
  NumLayers
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::NumLayers);

struct LayerTotals {
  std::array<double, kNumLayers> Ms{};
  std::array<uint64_t, kNumLayers> Calls{};
  /// Time of smt calls and oracle answers made while Diagnose was the
  /// enclosing stage (for core.diagnose_self_ms).
  double DiagnoseChildMs = 0;

  double ms(Layer L) const { return Ms[static_cast<size_t>(L)]; }
  uint64_t calls(Layer L) const { return Calls[static_cast<size_t>(L)]; }
};

/// Enables recording (off by default, so untraced runs pay nothing but a
/// branch in the oracle wrapper).
void setTracing(bool On);
bool tracing();

/// Sums every slot recorded so far.
LayerTotals snapshot();
void resetTotals();

/// Adds one timed call to \p L on the calling thread's slot.
void record(Layer L, double Ms);

/// RAII span around one top-level pipeline stage. While a span is open on a
/// thread, nested decorator calls on that thread know their parent stage.
class Span {
public:
  explicit Span(Layer L);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Layer L;
  Layer Outer;
  bool HadOuter;
  Clock::time_point Start;
};

/// Registry name of the decorator backend (short enough that copies of
/// Options::Backend stay in std::string's inline buffer, like "native").
inline constexpr const char *kTracedBackend = "traced";

/// Registers kTracedBackend (idempotent).
void registerTracedBackend();

/// Oracle wrapper: forwards to \p Inner, records the answer time when
/// tracing is on, and always keeps the ask/answer timestamps of the current
/// report (the latency probe reads them).
class TimedOracle : public abdiag::core::Oracle {
public:
  explicit TimedOracle(abdiag::core::Oracle &Inner) : Inner(Inner) {}

  Answer isInvariant(const abdiag::smt::Formula *F) override;
  Answer isPossible(const abdiag::smt::Formula *F,
                    const abdiag::smt::Formula *Given) override;

  /// One entry per question: when it was asked and when it was answered.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> Stamps;

private:
  abdiag::core::Oracle &Inner;
  template <typename Fn> Answer timed(Fn &&Call);
};

} // namespace perfbench

#endif // ABDIAG_PERFBENCH_TRACE_H
