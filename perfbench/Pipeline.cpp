//===- perfbench/Pipeline.cpp - One report, through the library ------------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "analysis/IntervalAnnotator.h"
#include "lang/Inline.h"
#include "lang/Parser.h"
#include "smt/Printer.h"

#include <optional>

using namespace abdiag;
using namespace abdiag::core;

namespace perfbench {

std::string verdictName(TriageStatus S, DiagnosisOutcome O) {
  return S == TriageStatus::Diagnosed ? diagnosisVerdictName(O)
                                      : triageStatusName(S);
}

namespace {

using Stamps = std::vector<std::pair<Clock::time_point, Clock::time_point>>;

/// Records each question in the wire rendering of core::InteractiveSession.
class LoggingOracle : public Oracle {
public:
  LoggingOracle(Oracle &Inner, const smt::VarTable &VT,
                std::vector<LoggedAnswer> &Log)
      : Inner(Inner), VT(VT), Log(Log) {}

  Answer isInvariant(const smt::Formula *F) override {
    return log(true, F, nullptr, Inner.isInvariant(F));
  }
  Answer isPossible(const smt::Formula *F, const smt::Formula *G) override {
    return log(false, F, G, Inner.isPossible(F, G));
  }

private:
  Oracle &Inner;
  const smt::VarTable &VT;
  std::vector<LoggedAnswer> &Log;

  Answer log(bool Invariant, const smt::Formula *F, const smt::Formula *G,
             Answer A) {
    LoggedAnswer E;
    E.Invariant = Invariant;
    E.Formula = smt::toString(F, VT);
    if (G && !G->isTrue())
      E.Given = smt::toString(G, VT);
    E.Ans = A;
    Log.push_back(std::move(E));
    return A;
  }
};

/// One deadline token per attempt, as in triageOne. The backend only
/// borrows the token, so it is cleared before the token goes away.
class Deadline {
public:
  Deadline(uint64_t Ms, smt::DecisionProcedure &DP) : Ms(Ms), DP(DP) {}
  ~Deadline() { DP.setCancellation(nullptr); }
  Deadline(const Deadline &) = delete;
  Deadline &operator=(const Deadline &) = delete;

  void arm() {
    if (!Ms)
      return;
    Token.emplace(std::chrono::milliseconds(Ms));
    DP.setCancellation(&*Token);
  }

private:
  uint64_t Ms;
  smt::DecisionProcedure &DP;
  std::optional<support::CancellationToken> Token;
};

/// The diagnosis step of triageOne: \p Run(config, oracle) once, and once
/// more with 4x budgets and a fresh deadline when inconclusive. Questions
/// go to \p Concrete behind unknown injection (when a rate is set), the
/// log (when given) and a TimedOracle; returns the TimedOracle's stamps.
template <typename RunFn>
Stamps askOracle(const PipelineConfig &Cfg, Oracle &Concrete,
                 const std::string &Name, const smt::VarTable &VT,
                 std::vector<LoggedAnswer> *Log, Deadline &DL,
                 ReportOutcome &R, RunFn &&Run) {
  UnknownInjectingOracle Injected(Concrete, Name, Cfg.InjectUnknownRate);
  Oracle &Answering = Cfg.InjectUnknownRate > 0.0
                          ? static_cast<Oracle &>(Injected)
                          : Concrete;
  std::optional<LoggingOracle> Logged;
  if (Log)
    Logged.emplace(Answering, VT, *Log);
  TimedOracle Timed(Logged ? static_cast<Oracle &>(*Logged) : Answering);

  DiagnosisConfig Base = Cfg.Pipeline.diagnosisConfig();
  DiagnosisResult Res = Run(Base, Timed);
  if (Res.Outcome == DiagnosisOutcome::Inconclusive) {
    R.Escalated = true;
    DL.arm();
    Base.MaxIterations *= 4;
    Base.MaxQueries *= 4;
    Base.MsaMaxSubsets *= 4;
    Res = Run(Base, Timed);
  }
  R.Status = TriageStatus::Diagnosed;
  R.Outcome = Res.Outcome;
  R.Queries = Res.Transcript.size();
  for (const QueryRecord &Q : Res.Transcript)
    R.AnswersUnknown += Q.Ans == Answer::Unknown;
  R.PotentialPeak = Res.PotentialInvariantCount + Res.PotentialWitnessCount;
  return std::move(Timed.Stamps);
}

/// Fills the report's wall and question latencies from \p Start to now.
void finishTiming(ReportOutcome &R, Clock::time_point Start,
                  const Stamps &S) {
  Clock::time_point End = Clock::now();
  R.WallMs = msBetween(Start, End);
  R.FirstQuestionMs = msBetween(Start, S.empty() ? End : S[0].first);
  for (size_t Q = 0; Q < S.size(); ++Q)
    R.NextQuestionMs.push_back(
        msBetween(S[Q].second, Q + 1 < S.size() ? S[Q + 1].first : End));
}

} // namespace

ReportOutcome diagnoseCold(const PipelineConfig &Cfg, const std::string &Path,
                           const std::string &Name,
                           std::vector<LoggedAnswer> *Log) {
  ReportOutcome R;
  ErrorDiagnoser D(Cfg.Pipeline);
  Clock::time_point Start = Clock::now();
  Stamps S;
  {
    Deadline DL(Cfg.DeadlineMs, D.procedure());
    try {
      DL.arm();
      if (!D.loadFile(Path)) {
        R.Status = TriageStatus::LoadError;
      } else {
        R.SummariesInstantiated = D.analysis().SummariesInstantiated;
        if (D.dischargedByAnalysis()) {
          R.Status = TriageStatus::Diagnosed;
          R.Outcome = DiagnosisOutcome::Discharged;
        } else if (D.validatedByAnalysis()) {
          R.Status = TriageStatus::Diagnosed;
          R.Outcome = DiagnosisOutcome::Validated;
        } else {
          std::unique_ptr<ConcreteOracle> Concrete =
              D.makeConcreteOracle(Cfg.Oracle);
          R.OracleRuns = Concrete->numRuns();
          S = askOracle(Cfg, *Concrete, Name, D.manager().vars(), Log, DL, R,
                        [&](const DiagnosisConfig &C, Oracle &O) {
                          return D.diagnoseWith(C, O);
                        });
        }
      }
    } catch (const support::CancelledError &) {
      R.Status = TriageStatus::Timeout;
    } catch (const std::exception &) {
      R.Status = TriageStatus::Crashed;
    }
  }
  R.Solver = D.procedure().stats();
  finishTiming(R, Start, S);
  return R;
}

/// The state a triage worker keeps across reports (cf. ErrorDiagnoser).
struct ReportRunner::Worker {
  smt::FormulaManager M;
  std::unique_ptr<smt::DecisionProcedure> DP;
  lang::Program Prog;
  analysis::AnalysisResult Analysis;

  explicit Worker(const abdiag::Options &O)
      : DP(smt::createBackend(O.Backend, M)) {
    DP->setSimplexMaxPivots(O.SimplexMaxPivots);
  }
};

ReportRunner::ReportRunner(PipelineConfig Cfg_)
    : Cfg(std::move(Cfg_)), W(std::make_unique<Worker>(Cfg.Pipeline)) {}

ReportRunner::~ReportRunner() = default;

ReportOutcome ReportRunner::run(const std::string &Path,
                                const std::string &Name) {
  const abdiag::Options &Opts = Cfg.Pipeline;
  ReportOutcome R;
  Clock::time_point Start = Clock::now();
  smt::SolverStats Before = W->DP->stats();
  Stamps S;
  {
    Deadline DL(Cfg.DeadlineMs, *W->DP);
    try {
      DL.arm();
      std::optional<lang::ParseResult> P;
      {
        Span Sp(Layer::Parse);
        P.emplace(lang::parseProgramFile(Path));
      }
      bool Loaded = P->ok();
      if (Loaded) {
        W->Prog = std::move(*P->Prog);
        if (Opts.InlineCalls && !W->Prog.Functions.empty()) {
          lang::InlineResult IR = lang::inlineCalls(W->Prog);
          Loaded = IR.ok();
          if (Loaded)
            W->Prog = std::move(*IR.Prog);
        }
      }
      if (!Loaded) {
        R.Status = TriageStatus::LoadError;
      } else {
        if (Opts.AutoAnnotate) {
          Span Sp(Layer::Annotate);
          W->Prog = analysis::annotateLoops(W->Prog);
        }
        {
          Span Sp(Layer::Analyze);
          W->Analysis =
              analysis::analyzeProgram(W->Prog, *W->DP, Opts.analyzerOptions());
        }
        R.SummariesInstantiated = W->Analysis.SummariesInstantiated;
        smt::FormulaManager &M = W->M;
        const smt::Formula *I = W->Analysis.Invariants;
        const smt::Formula *Phi = W->Analysis.SuccessCondition;

        bool Discharged = false, Validated = false;
        {
          Span Sp(Layer::Shortcut);
          Discharged = W->DP->isValid(M.mkImplies(I, Phi));
          if (!Discharged)
            Validated = W->DP->isValid(M.mkImplies(I, M.mkNot(Phi)));
        }
        if (Discharged || Validated) {
          R.Status = TriageStatus::Diagnosed;
          R.Outcome = Discharged ? DiagnosisOutcome::Discharged
                                 : DiagnosisOutcome::Validated;
        } else {
          ConcreteOracleConfig OC = Cfg.Oracle;
          if (!OC.Cancel)
            OC.Cancel = W->DP->cancellation();
          std::unique_ptr<ConcreteOracle> Concrete;
          {
            Span Sp(Layer::OracleBuild);
            Concrete =
                std::make_unique<ConcreteOracle>(W->Prog, W->Analysis, OC);
          }
          R.OracleRuns = Concrete->numRuns();
          Span Sp(Layer::Diagnose);
          S = askOracle(Cfg, *Concrete, Name, M.vars(), nullptr, DL, R,
                        [&](const DiagnosisConfig &C, Oracle &O) {
                          return DiagnosisEngine(*W->DP, C).run(I, Phi, O);
                        });
        }
      }
    } catch (const support::CancelledError &) {
      R.Status = TriageStatus::Timeout;
    } catch (const std::exception &) {
      R.Status = TriageStatus::Crashed;
    }
  }
  R.Solver = W->DP->stats();
  R.Solver -= Before;
  finishTiming(R, Start, S);
  // Like a triage worker: unwound state is not trusted for later reports.
  if (R.Status == TriageStatus::Timeout || R.Status == TriageStatus::Crashed)
    W = std::make_unique<Worker>(Cfg.Pipeline);
  return R;
}

} // namespace perfbench
