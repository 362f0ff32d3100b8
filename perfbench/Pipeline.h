//===- perfbench/Pipeline.h - One report, through the library ---*- C++ -*-===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two ways to triage one report outside core::TriageEngine, both in the
/// order TriageEngine::triageOne uses: load, the Lemma 1/2 validity checks,
/// the concrete oracle, and the diagnosis loop with one 4x-budget retry.
///
///   * diagnoseCold makes exactly the library calls triageOne makes, on a
///     fresh core::ErrorDiagnoser per report, as an interactive session
///     starts cold. It times when each question is asked and, with a log
///     attached, records every question in the rendering a session puts on
///     the wire (the daemon workload's answer table).
///   * ReportRunner splits the load into its public stages (parse, loop
///     annotation, symbolic analysis) and times every stage with a Span
///     (Trace.h). It owns one FormulaManager and backend across reports,
///     like a triage worker, so its verdicts and question counts must equal
///     the engine's for the same queue; the traced run checks that they do.
///
//===----------------------------------------------------------------------===//

#ifndef ABDIAG_PERFBENCH_PIPELINE_H
#define ABDIAG_PERFBENCH_PIPELINE_H

#include "Trace.h"

#include "core/Triage.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct PipelineConfig {
  abdiag::Options Pipeline;
  abdiag::core::ConcreteOracleConfig Oracle;
  uint64_t DeadlineMs = 0;
  double InjectUnknownRate = 0.0;
};

/// One oracle question as a session would render it, with its answer.
struct LoggedAnswer {
  bool Invariant = true;
  std::string Formula;
  std::string Given; ///< "" when the question had no (or a trivial) context
  abdiag::core::Answer Ans = abdiag::core::Answer::Unknown;
};

/// What one report came back with.
struct ReportOutcome {
  abdiag::core::TriageStatus Status = abdiag::core::TriageStatus::Crashed;
  abdiag::core::DiagnosisOutcome Outcome =
      abdiag::core::DiagnosisOutcome::Inconclusive;
  size_t Queries = 0;
  size_t AnswersUnknown = 0;
  size_t PotentialPeak = 0; ///< potential invariants + witnesses at the end
  bool Escalated = false;
  uint32_t SummariesInstantiated = 0;
  size_t OracleRuns = 0;
  double WallMs = 0;
  /// Report start to first question (or to the verdict when none is asked).
  double FirstQuestionMs = 0;
  /// Each answer to the next question or the verdict.
  std::vector<double> NextQuestionMs;
  abdiag::smt::SolverStats Solver; ///< delta over this report
};

/// "real_bug", "false_alarm", "inconclusive", or the status name.
std::string verdictName(abdiag::core::TriageStatus S,
                        abdiag::core::DiagnosisOutcome O);

/// Triages the report at \p Path on a fresh ErrorDiagnoser, timed from the
/// load, as TriageEngine times a report. \p Name salts unknown injection
/// exactly as the triage engine does. \p Log, when set, receives every
/// question.
ReportOutcome diagnoseCold(const PipelineConfig &Cfg, const std::string &Path,
                           const std::string &Name,
                           std::vector<LoggedAnswer> *Log = nullptr);

/// Stage-by-stage triage with a Span around every stage.
class ReportRunner {
public:
  explicit ReportRunner(PipelineConfig Cfg);
  ~ReportRunner();

  /// Triages the report at \p Path; \p Name salts unknown injection.
  ReportOutcome run(const std::string &Path, const std::string &Name);

private:
  struct Worker;
  PipelineConfig Cfg;
  std::unique_ptr<Worker> W;
};

} // namespace perfbench

#endif // ABDIAG_PERFBENCH_PIPELINE_H
