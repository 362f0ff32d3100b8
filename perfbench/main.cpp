//===- perfbench/main.cpp - The repo benchmark -------------------------------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark for the whole repository, run through perfbench/run.py:
///
///   perfbench --workload paper_suite|corpus_triage|daemon_sessions
///             --seed N --seconds S --trace 0|1 [--tiny] [--work DIR]
///   perfbench --check-decorator native|traced
///
/// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
/// README.md in this directory defines every metric. The last line of
/// standard output is one JSON object: {"correct", "attempted", "failed",
/// "metrics"}. Any contradicted verdict, any daemon verdict that differs
/// from batch triage of the same program, and any traced run that does not
/// reproduce the untraced verdicts and question counts makes the run
/// incorrect and the exit code 1.
///
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "Pipeline.h"
#include "Trace.h"

#include "core/InteractiveSession.h"
#include "server/Server.h"
#include "study/Benchmarks.h"
#include "study/Corpus.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <sched.h>

using namespace abdiag;
using namespace abdiag::core;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Fixed workload parameters (documented in README.md)
//===----------------------------------------------------------------------===//

/// The six-cause corpus of ROADMAP.md: generator seed 1, 300 programs. The
/// run's --seed orders it, so every run triages the same programs.
constexpr uint64_t kCorpusSeed = 1;
constexpr size_t kCorpusSize = 300;
constexpr size_t kTinyCorpusSize = 18;
constexpr double kInjectUnknownRate = 0.1;
constexpr uint64_t kDeadlineMs = 10000;
/// Cold-probe cycles over the inputs per round of an untraced batch run,
/// about a third of a round's time.
constexpr size_t kProbeCycles = 2;
/// Upper bound on the daemon passes of one run (session records are
/// allocated up front).
constexpr size_t kMaxDaemonPasses = 64;
/// The traced daemon run replays open-loop sessions at 47.6/s: about a
/// quarter of the 174/s that the daemon sustained with cpuCount() sessions
/// in flight on a 4-vCPU machine when the rate was chosen.
constexpr double kNominalRate = 47.6;
/// Programs probed one session at a time for the session-step and wire
/// overhead numbers.
constexpr size_t kProbePrograms = 60;

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Better; ///< "higher" or "lower"
};

const MetricDef kEndToEnd[] = {
    {"reports_per_s", "1/s", "higher"},
    {"report_p50_ms", "ms", "lower"},
    {"report_p95_ms", "ms", "lower"},
    {"questions_per_report", "count", "lower"},
    {"decided_share", "ratio", "higher"},
    {"first_question_p50_ms", "ms", "lower"},
    {"first_question_p95_ms", "ms", "lower"},
    {"next_question_p50_ms", "ms", "lower"},
    {"next_question_p99_ms", "ms", "lower"},
    {"peak_heap_mb", "MB", "lower"},
    {"setup_s", "s", "lower"},
};

const MetricDef kPerLayer[] = {
    {"lang.parse_ms", "ms", "lower"},
    {"lang.parse_share", "ratio", "lower"},
    {"lang.parse_calls", "count", "lower"},
    {"analysis.annotate_ms", "ms", "lower"},
    {"analysis.annotate_share", "ratio", "lower"},
    {"analysis.analyze_ms", "ms", "lower"},
    {"analysis.analyze_share", "ratio", "lower"},
    {"analysis.summaries_instantiated", "count", "lower"},
    {"smt.session_check_ms", "ms", "lower"},
    {"smt.session_check_share", "ratio", "lower"},
    {"smt.session_check_calls", "count", "lower"},
    {"smt.qe_ms", "ms", "lower"},
    {"smt.qe_share", "ratio", "lower"},
    {"smt.qe_calls", "count", "lower"},
    {"smt.theory_checks", "count", "lower"},
    {"smt.theory_conflicts", "count", "lower"},
    {"smt.theory_checks_per_conflict", "ratio", "lower"},
    {"smt.simplex_pivots", "count", "lower"},
    {"smt.core_skip_ratio", "ratio", "higher"},
    {"smt.is_sat_ms", "ms", "lower"},
    {"smt.is_sat_share", "ratio", "lower"},
    {"smt.is_sat_calls", "count", "lower"},
    {"smt.cache_hit_ratio", "ratio", "higher"},
    {"smt.qe_cache_hit_ratio", "ratio", "higher"},
    {"smt.formula_nodes", "count", "lower"},
    {"smt.arena_bytes", "bytes", "lower"},
    {"core.oracle_build_ms", "ms", "lower"},
    {"core.oracle_build_share", "ratio", "lower"},
    {"core.oracle_runs", "count", "lower"},
    {"core.oracle_answer_ms", "ms", "lower"},
    {"core.oracle_answer_share", "ratio", "lower"},
    {"core.oracle_answer_calls", "count", "lower"},
    {"core.shortcut_ms", "ms", "lower"},
    {"core.shortcut_share", "ratio", "lower"},
    {"core.diagnose_ms", "ms", "lower"},
    {"core.diagnose_share", "ratio", "lower"},
    {"core.diagnose_self_ms", "ms", "lower"},
    {"core.diagnose_self_share", "ratio", "lower"},
    {"core.escalations", "count", "lower"},
    {"core.answers_unknown", "count", "lower"},
    {"core.potential_peak", "count", "lower"},
    {"core.session_step_p50_ms", "ms", "lower"},
    {"core.unaccounted_ms", "ms", "lower"},
    {"core.unaccounted_share", "ratio", "lower"},
    {"server.wire_overhead_p50_ms", "ms", "lower"},
    {"server.open_sessions_p99", "count", "lower"},
    {"server.peak_active", "count", "lower"},
    {"server.refused", "count", "lower"},
    {"server.protocol_errors", "count", "lower"},
    {"study.gen_programs_per_s", "1/s", "higher"},
    {"study.gen_acceptance_ratio", "ratio", "higher"},
    {"loadgen.late_p99_ms", "ms", "lower"},
    {"trace.wall_ms", "ms", "lower"},
    {"trace.overhead_ms", "ms", "lower"},
    {"trace.overhead_share", "ratio", "lower"},
};

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  std::string CheckDecorator; ///< backend name for --check-decorator
  std::string Work = ".bench_build/work";
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--work DIR]\n"
               "       perfbench --check-decorator BACKEND\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + Flag).c_str());
      return Argv[++I];
    };
    if (Flag == "--workload")
      A.Workload = Value();
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value().c_str());
    else if (Flag == "--trace")
      A.Trace = Value() != "0";
    else if (Flag == "--work")
      A.Work = Value();
    else if (Flag == "--tiny")
      A.Tiny = true;
    else if (Flag == "--check-decorator")
      A.CheckDecorator = Value();
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (A.CheckDecorator.empty() && A.Workload != "paper_suite" &&
      A.Workload != "corpus_triage" && A.Workload != "daemon_sessions")
    usage("--workload must be paper_suite, corpus_triage or daemon_sessions");
  if (A.Seconds <= 0)
    usage("--seconds must be positive");
  return A;
}

/// Linear-interpolation percentile (the numpy default); 0 when empty.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// The smallest time seen for each item of a run. An item is a report's
/// place in the pass order, a program's first question, or one question of
/// a program; every replay of an item does the same work. A shared host
/// stalls some samples and never speeds one up, so an item's best time
/// estimates its cost without those stalls. Percentiles are over items.
class BestTimes {
public:
  void add(size_t Item, size_t Sub, double Ms) {
    auto [It, New] = Best.try_emplace({Item, Sub}, Ms);
    if (!New)
      It->second = std::min(It->second, Ms);
  }
  std::vector<double> values() const {
    std::vector<double> V;
    for (const auto &[Key, Ms] : Best)
      V.push_back(Ms);
    return V;
  }
  double sum() const {
    double Sum = 0;
    for (const auto &[Key, Ms] : Best)
      Sum += Ms;
    return Sum;
  }
  void merge(const BestTimes &Other) {
    for (const auto &[Key, Ms] : Other.Best)
      add(Key.first, Key.second, Ms);
  }

private:
  std::map<std::pair<size_t, size_t>, double> Best;
};

unsigned cpuCount() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? "" : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string number(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Seed ^ 0x5eedULL);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[static_cast<size_t>(R.next() % I)]);
  return Order;
}

/// A seeded order that keeps the corpus's causes evenly interleaved: round
/// j takes the j-th program of every cause (each cause's programs in seeded
/// order), so the expensive unknown_answer reports never bunch up.
std::vector<size_t>
stratifiedOrder(const std::vector<study::CorpusProgram> &Programs,
                uint64_t Seed) {
  std::vector<std::vector<size_t>> ByCause(study::NumReportCauses);
  for (size_t I : seededOrder(Programs.size(), Seed))
    ByCause[static_cast<size_t>(Programs[I].Cause)].push_back(I);
  std::vector<size_t> Order;
  for (size_t Round = 0; Order.size() < Programs.size(); ++Round)
    for (const std::vector<size_t> &Cause : ByCause)
      if (Round < Cause.size())
        Order.push_back(Cause[Round]);
  return Order;
}

/// Runs F(T) on threads T = 0..cpuCount()-1, T = 0 on the calling thread.
template <typename Fn> void onThreads(Fn &&F) {
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < cpuCount(); ++T)
    Pool.emplace_back(F, T);
  F(0u);
  for (std::thread &T : Pool)
    T.join();
}

/// Runs F(I, T) for I in [0, N) on threads T = 0..cpuCount()-1.
template <typename Fn> void parallelFor(size_t N, Fn &&F) {
  std::atomic<size_t> Next{0};
  onThreads([&](unsigned T) {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      F(I, T);
  });
}

using Values = std::map<std::string, double>;

/// Collects failures; any entry makes the run incorrect.
struct Checks {
  std::vector<std::string> Errors;
  void fail(std::string Msg) {
    if (Errors.size() < 20)
      std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
    Errors.push_back(std::move(Msg));
  }
  void merge(const Checks &Other) {
    Errors.insert(Errors.end(), Other.Errors.begin(), Other.Errors.end());
  }
};

//===----------------------------------------------------------------------===//
// Set-up: the inputs of each workload
//===----------------------------------------------------------------------===//

struct Input {
  std::string Name, Path, Source;
  bool IsRealBug = false;
};

struct Setup {
  std::vector<Input> Inputs; ///< in the run's seeded order
  double GenPrograms = 0, GenMs = 0, GenAccepted = 0, GenCandidates = 0;
  std::vector<DaemonProgram> Daemon; ///< daemon_sessions only, input order
  std::unique_ptr<server::DaemonServer> Server;
  std::string Socket;
};

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The 11 Figure 7 programs, written out and certified (analysis leaves
/// each undecided; exhaustive execution confirms its classification).
void setupPaper(const Args &A, Setup &S, Checks &C) {
  std::string Dir = A.Work + "/paper_suite";
  fs::create_directories(Dir);
  Clock::time_point Start = Clock::now();
  std::vector<Input> All;
  for (const study::BenchmarkInfo &B : study::benchmarkSuite()) {
    Input In{B.Name, Dir + "/" + B.File, readFile(study::benchmarkPath(B)),
             B.IsRealBug};
    if (In.Source.empty() || !writeFile(In.Path, In.Source)) {
      C.fail("cannot copy " + study::benchmarkPath(B));
      continue;
    }
    ErrorDiagnoser D;
    if (!D.loadFile(In.Path)) {
      C.fail(B.Name + ": does not load");
      continue;
    }
    if (D.dischargedByAnalysis() || D.validatedByAnalysis())
      C.fail(B.Name + ": decided by analysis alone");
    if (D.makeConcreteOracle()->anyFailingRun() != B.IsRealBug)
      C.fail(B.Name + ": concrete runs contradict its classification");
    All.push_back(std::move(In));
  }
  S.GenMs = msBetween(Start, Clock::now());
  S.GenPrograms = S.GenAccepted = S.GenCandidates =
      static_cast<double>(All.size());
  for (size_t I : seededOrder(All.size(), A.Seed))
    S.Inputs.push_back(All[I]);
}

/// The certified six-cause corpus, generated on cpuCount() threads (each
/// index is generated independently) and written out.
void setupCorpus(const Args &A, Setup &S, Checks &C, const std::string &Dir) {
  study::CorpusOptions O;
  O.Seed = kCorpusSeed;
  O.Count = A.Tiny ? kTinyCorpusSize : kCorpusSize;
  O.Causes.clear();
  for (size_t I = 0; I < study::NumReportCauses; ++I)
    O.Causes.push_back(static_cast<study::ReportCause>(I));

  Clock::time_point Start = Clock::now();
  std::vector<study::CorpusProgram> Programs(O.Count);
  std::vector<std::string> Errors(O.Count);
  std::vector<study::CorpusGenerator> Gens(cpuCount(),
                                           study::CorpusGenerator(O));
  parallelFor(O.Count, [&](size_t I, unsigned T) {
    try {
      Programs[I] = Gens[T].generate(I);
    } catch (const std::exception &E) {
      Errors[I] = E.what();
    }
  });
  study::CauseStats Total;
  for (const study::CorpusGenerator &G : Gens)
    Total += G.stats().total();
  for (const std::string &E : Errors)
    if (!E.empty())
      C.fail("corpus generation: " + E);
  fs::create_directories(Dir);
  if (std::string E = study::writeCorpus(Dir, Programs); !E.empty())
    C.fail("writing the corpus: " + E);
  S.GenMs = msBetween(Start, Clock::now());
  S.GenPrograms = static_cast<double>(O.Count);
  S.GenAccepted = static_cast<double>(Total.Accepted);
  S.GenCandidates = static_cast<double>(Total.Candidates);
  for (size_t I : stratifiedOrder(Programs, A.Seed))
    S.Inputs.push_back({Programs[I].Name, Dir + "/" + Programs[I].FileName,
                        Programs[I].Source, Programs[I].IsRealBug});
}

bool isVerdict(const std::string &V) {
  return V == "real_bug" || V == "false_alarm";
}

void checkVerdict(const Input &In, const std::string &V, Checks &C) {
  if (isVerdict(V) && (V == "real_bug") != In.IsRealBug)
    C.fail(In.Name + ": verdict " + V + " contradicts its classification");
}

PipelineConfig batchConfig(bool Inject) {
  PipelineConfig P;
  P.DeadlineMs = kDeadlineMs;
  P.InjectUnknownRate = Inject ? kInjectUnknownRate : 0.0;
  return P;
}

/// Records every program's questions and answers on a cold diagnoser, as
/// each daemon session starts cold. The verdicts are replaced by serial
/// triage's once set-up is done (checkAgainstTriage).
std::vector<DaemonProgram> answerTable(const std::vector<Input> &Inputs,
                                       bool Inject) {
  std::vector<DaemonProgram> Table(Inputs.size());
  parallelFor(Inputs.size(), [&](size_t I, unsigned) {
    DaemonProgram &P = Table[I];
    P.Name = Inputs[I].Name;
    P.Source = Inputs[I].Source;
    ReportOutcome R =
        diagnoseCold(batchConfig(Inject), Inputs[I].Path, P.Name, &P.Answers);
    P.Verdict = verdictName(R.Status, R.Outcome);
  });
  return Table;
}

std::unique_ptr<server::DaemonServer>
startDaemon(const std::string &Socket, const std::string &Backend, Checks &C) {
  server::ServerConfig Cfg;
  Cfg.UnixPath = Socket;
  Cfg.MaxActiveSessions = cpuCount();
  Cfg.MaxPendingSessions = 4096;
  Cfg.SessionDeadlineMs = kDeadlineMs;
  Cfg.Pipeline.Backend = Backend;
  auto Server = std::make_unique<server::DaemonServer>(Cfg);
  std::string Err;
  if (!Server->start(Err)) {
    C.fail("daemon start: " + Err);
    return nullptr;
  }
  return Server;
}

Setup setupOnce(const Args &A, Checks &C) {
  Setup S;
  if (A.Workload == "paper_suite") {
    setupPaper(A, S, C);
  } else if (A.Workload == "corpus_triage") {
    setupCorpus(A, S, C, A.Work + "/corpus_triage");
  } else {
    std::string Dir = A.Work + "/daemon_sessions";
    setupCorpus(A, S, C, Dir);
    S.Daemon = answerTable(S.Inputs, true);
    S.Socket = Dir + "/abdiagd.sock";
    S.Server = startDaemon(S.Socket, "native", C);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Batch workloads
//===----------------------------------------------------------------------===//

struct Row {
  std::string Verdict;
  size_t Queries = 0;
};

/// What one thread of a batch run saw.
struct BatchSamples {
  /// Engine passes: each input's best report WallMs.
  BestTimes Report;
  /// Cold probes: each program's best time to its first question, and each
  /// of its questions' best time from the answer before it.
  BestTimes First, Next;
  std::vector<Row> FirstPass;
  size_t Passes = 0, Reports = 0, Failed = 0;
  double EngineMs = 0; ///< wall of the engine passes
  double PeakHeapMb = 0; ///< sampled as reports finish, when asked for
  Checks C;
};

/// Compares one pass's verdicts and question counts with the reference's;
/// both triaged Inputs[Order[0]], Inputs[Order[1]], ...
void checkSame(const std::vector<Input> &Inputs,
               const std::vector<size_t> &Order, const std::vector<Row> &Ref,
               const std::vector<Row> &Got, const char *What, Checks &C) {
  for (size_t I = 0; I < Order.size(); ++I)
    if (Ref[I].Verdict != Got[I].Verdict || Ref[I].Queries != Got[I].Queries)
      C.fail(Inputs[Order[I]].Name + ": " + What + " gave " +
             Got[I].Verdict + "/" + std::to_string(Got[I].Queries) +
             " questions, engine " + Ref[I].Verdict + "/" +
             std::to_string(Ref[I].Queries));
}

/// The inputs in the seeded order, starting at \p First and wrapping round.
std::vector<size_t> rotation(size_t N, size_t First) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = (First + I) % N;
  return Order;
}

/// One serial TriageEngine pass with a fresh engine over Inputs[Order[0]],
/// Inputs[Order[1]], ...; checks every verdict against its classification.
/// With \p PeakHeapMb, samples the heap in use as each report finishes.
std::vector<Row> enginePass(const std::vector<Input> &Inputs,
                            const std::vector<size_t> &Order, bool Inject,
                            BatchSamples &B, double *PeakHeapMb = nullptr) {
  TriageOptions O;
  O.DeadlineMs = kDeadlineMs;
  O.InjectUnknownRate = Inject ? kInjectUnknownRate : 0.0;
  std::vector<TriageRequest> Queue;
  for (size_t I : Order)
    Queue.emplace_back(Inputs[I].Path, Inputs[I].Name);
  TriageEngine::RowCallback Sample;
  if (PeakHeapMb)
    Sample = [&](const TriageReport &) {
      *PeakHeapMb = std::max(*PeakHeapMb, heapInUseMb());
    };
  TriageResult Res = TriageEngine(O).run(Queue, Sample);
  std::vector<Row> Rows;
  for (const TriageReport &R : Res.Reports) {
    const Input &In = Inputs[Order[Rows.size()]];
    B.Report.add(Order[Rows.size()], 0, R.WallMs);
    Rows.push_back({verdictName(R.Status, R.Outcome), R.Queries});
    checkVerdict(In, Rows.back().Verdict, B.C);
    B.Failed += R.Status != TriageStatus::Diagnosed;
  }
  B.Reports += Order.size();
  B.EngineMs += Res.Summary.WallMs;
  ++B.Passes;
  return Rows;
}

/// The verdict of serial batch triage of each program on its own: a fresh
/// TriageEngine per program, so each starts cold, as a daemon session or a
/// probe does. Cold is the comparable state: a warm engine's caches change
/// the question sequence, injected unknowns follow the question index, and
/// so a report decided cold can end inconclusive after other reports (seed
/// 503 does this to gen_000227_dontknow_bug). The programs run on
/// cpuCount() threads, each engine at jobs 1.
std::vector<std::string> coldTriage(const std::vector<Input> &Inputs,
                                    bool Inject, Checks &C) {
  std::vector<std::string> Verdicts(Inputs.size());
  parallelFor(Inputs.size(), [&](size_t I, unsigned) {
    TriageOptions O;
    O.DeadlineMs = kDeadlineMs;
    O.InjectUnknownRate = Inject ? kInjectUnknownRate : 0.0;
    TriageResult Res =
        TriageEngine(O).run({TriageRequest(Inputs[I].Path, Inputs[I].Name)});
    Verdicts[I] = verdictName(Res.Reports[0].Status, Res.Reports[0].Outcome);
  });
  for (size_t I = 0; I < Inputs.size(); ++I)
    checkVerdict(Inputs[I], Verdicts[I], C);
  return Verdicts;
}

/// Triages input \p I on a cold diagnoser (diagnoseCold), timing when each
/// question is asked; its verdict must be cold batch triage's.
void probe(size_t I, const Input &In, const std::string &Ref, bool Inject,
           BatchSamples &B) {
  ReportOutcome R = diagnoseCold(batchConfig(Inject), In.Path, In.Name);
  std::string Verdict = verdictName(R.Status, R.Outcome);
  if (Verdict != Ref)
    B.C.fail(In.Name + ": a cold diagnoser gave " + Verdict +
             ", cold batch triage " + Ref);
  B.Failed += R.Status != TriageStatus::Diagnosed;
  B.First.add(I, 0, R.FirstQuestionMs);
  for (size_t Q = 0; Q < R.NextQuestionMs.size(); ++Q)
    B.Next.add(I, Q, R.NextQuestionMs[Q]);
}

/// The untraced batch measurement; fills the end-to-end metrics.
///
/// First one serial pass on this thread alone, over the inputs sorted by
/// name: the heap one engine needs. Its times are not used.
///
/// Then rounds with cpuCount() reports in flight, as that many analysts at
/// work, while another round still fits in the run: thread T runs one
/// serial pass over the seeded order rotated to start at input
/// T * N / cpuCount(), on a fresh TriageEngine at jobs 1; then the threads
/// take the inputs in turn kProbeCycles times on cold diagnosers, as
/// interactive sessions start, timing when each question is asked. Cold
/// probes fill the time that is left. The rotations keep the threads on
/// different inputs at any moment, and the rounds spread every input's
/// samples over the whole run.
void measureBatch(const Args &A, const std::vector<Input> &Inputs, bool Inject,
                  Values &V, std::map<std::string, size_t> &N,
                  size_t &Attempted, size_t &Failed, Checks &C) {
  std::vector<std::string> Cold = coldTriage(Inputs, Inject, C);
  size_t Count = Inputs.size();
  Clock::time_point Start = Clock::now();
  double Budget = A.Seconds * 1000;

  BatchSamples Solo;
  std::vector<size_t> ByName = rotation(Count, 0);
  std::sort(ByName.begin(), ByName.end(), [&](size_t X, size_t Y) {
    return Inputs[X].Name < Inputs[Y].Name;
  });
  enginePass(Inputs, ByName, Inject, Solo, &Solo.PeakHeapMb);

  std::vector<BatchSamples> T(cpuCount());
  auto Probe = [&](size_t K, unsigned I) {
    size_t In = K % Count;
    probe(In, Inputs[In], Cold[In], Inject, T[I]);
  };
  size_t Probes = 0;
  Clock::time_point Loaded = Clock::now();
  for (size_t Round = 1;; ++Round) {
    onThreads([&](unsigned I) {
      BatchSamples &B = T[I];
      std::vector<size_t> Order = rotation(Count, I * Count / T.size());
      std::vector<Row> Rows = enginePass(Inputs, Order, Inject, B);
      if (B.FirstPass.empty())
        B.FirstPass = Rows;
      else
        checkSame(Inputs, Order, B.FirstPass, Rows, "a later engine pass",
                  B.C);
    });
    parallelFor(kProbeCycles * Count, Probe);
    Probes += kProbeCycles * Count;
    double MeanRound =
        msBetween(Loaded, Clock::now()) / static_cast<double>(Round);
    if (A.Tiny || msBetween(Start, Clock::now()) + MeanRound > Budget)
      break;
  }
  while (!A.Tiny && msBetween(Start, Clock::now()) < Budget) {
    parallelFor(Count, Probe);
    Probes += Count;
  }

  BestTimes Report, First, Next;
  Attempted = Solo.Reports + Probes;
  Failed = Solo.Failed;
  C.merge(Solo.C);
  for (const BatchSamples &B : T) {
    Report.merge(B.Report);
    First.merge(B.First);
    Next.merge(B.Next);
    Attempted += B.Reports;
    Failed += B.Failed;
    C.merge(B.C);
  }
  std::vector<double> ReportMs = Report.values();
  std::vector<double> FirstMs = First.values(), NextMs = Next.values();
  // cpuCount() engines, each report at its best time under load.
  V["reports_per_s"] = ratio(static_cast<double>(T.size() * Count),
                             Report.sum() / 1000.0);
  V["report_p50_ms"] = percentile(ReportMs, 50);
  V["report_p95_ms"] = percentile(ReportMs, 95);
  N["report_p95_ms"] = ReportMs.size();
  size_t Queries = 0, Decided = 0;
  for (const Row &R : T[0].FirstPass) {
    Queries += R.Queries;
    Decided += isVerdict(R.Verdict);
  }
  V["questions_per_report"] = ratio(static_cast<double>(Queries),
                                    static_cast<double>(Count));
  V["decided_share"] = ratio(static_cast<double>(Decided),
                             static_cast<double>(Count));
  V["first_question_p50_ms"] = percentile(FirstMs, 50);
  V["first_question_p95_ms"] = percentile(FirstMs, 95);
  N["first_question_p95_ms"] = FirstMs.size();
  V["next_question_p50_ms"] = percentile(NextMs, 50);
  V["next_question_p99_ms"] = percentile(NextMs, 99);
  N["next_question_p99_ms"] = NextMs.size();
  V["peak_heap_mb"] = Solo.PeakHeapMb;
}

//===----------------------------------------------------------------------===//
// In-process session steps and the daemon's wire overhead
//===----------------------------------------------------------------------===//

const LoggedAnswer *lookup(const std::vector<LoggedAnswer> &Log,
                           const SessionQuery &Q) {
  bool Inv = Q.K == QueryRecord::Kind::Invariant;
  auto Matches = [&](const LoggedAnswer &E) {
    return E.Invariant == Inv && E.Formula == Q.Formula &&
           E.Given == Q.GivenText;
  };
  if (Q.Index < Log.size() && Matches(Log[Q.Index]))
    return &Log[Q.Index];
  for (const LoggedAnswer &E : Log)
    if (Matches(E))
      return &E;
  return nullptr;
}

/// answer() -> next() latency of in-process sessions, one at a time,
/// keyed by (program, question index).
std::map<std::pair<size_t, uint64_t>, double>
sessionSteps(const std::vector<DaemonProgram> &Programs, size_t Count) {
  std::map<std::pair<size_t, uint64_t>, double> Steps;
  for (size_t P = 0; P < std::min(Count, Programs.size()); ++P) {
    InteractiveSessionOptions O;
    O.DeadlineMs = kDeadlineMs;
    InteractiveSession S({Programs[P].Name, Programs[P].Source, ""}, O);
    SessionEvent E = S.next();
    while (E.K != SessionEvent::Kind::Done) {
      const LoggedAnswer *Hit = lookup(Programs[P].Answers, E.Query);
      uint64_t Q = E.Query.Index;
      Clock::time_point Sent = Clock::now();
      S.answer(Hit ? Hit->Ans : Answer::Unknown);
      E = S.next();
      Steps[{P, Q}] = msBetween(Sent, Clock::now());
    }
  }
  return Steps;
}

/// Cold per-program answer logs for batch inputs (the session-step probe).
std::vector<DaemonProgram> coldLogs(const std::vector<Input> &Inputs,
                                    bool Inject, size_t Count) {
  std::vector<DaemonProgram> Logs(std::min(Count, Inputs.size()));
  for (size_t I = 0; I < Logs.size(); ++I) {
    Logs[I].Name = Inputs[I].Name;
    Logs[I].Source = Inputs[I].Source;
    diagnoseCold(batchConfig(Inject), Inputs[I].Path, Inputs[I].Name,
                 &Logs[I].Answers);
  }
  return Logs;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Adds NAME_share = NAME_ms / Wall for every per-layer time.
void addShares(Values &V, double WallMs) {
  for (const MetricDef &M : kPerLayer) {
    std::string N = M.Name;
    if (N.size() > 6 && N.compare(N.size() - 6, 6, "_share") == 0) {
      std::string Ms = N.substr(0, N.size() - 6) + "_ms";
      V[N] = ratio(V[Ms], WallMs);
    }
  }
}

/// Fills the per-layer values that come from the decorators and counters.
void addLayerTotals(Values &V, const LayerTotals &T,
                    const smt::SolverStats &S) {
  V["lang.parse_ms"] = T.ms(Layer::Parse);
  V["lang.parse_calls"] = static_cast<double>(T.calls(Layer::Parse));
  V["analysis.annotate_ms"] = T.ms(Layer::Annotate);
  V["analysis.analyze_ms"] = T.ms(Layer::Analyze);
  V["smt.session_check_ms"] = T.ms(Layer::SessionCheck);
  V["smt.session_check_calls"] =
      static_cast<double>(T.calls(Layer::SessionCheck));
  V["smt.qe_ms"] = T.ms(Layer::Qe);
  V["smt.qe_calls"] = static_cast<double>(T.calls(Layer::Qe));
  V["smt.is_sat_ms"] = T.ms(Layer::IsSat);
  V["smt.is_sat_calls"] = static_cast<double>(T.calls(Layer::IsSat));
  V["core.oracle_build_ms"] = T.ms(Layer::OracleBuild);
  V["core.oracle_answer_ms"] = T.ms(Layer::OracleAnswer);
  V["core.oracle_answer_calls"] =
      static_cast<double>(T.calls(Layer::OracleAnswer));
  V["core.shortcut_ms"] = T.ms(Layer::Shortcut);
  V["core.diagnose_ms"] = T.ms(Layer::Diagnose);
  V["core.diagnose_self_ms"] =
      std::max(0.0, T.ms(Layer::Diagnose) - T.DiagnoseChildMs);
  V["smt.theory_checks"] = static_cast<double>(S.TheoryChecks);
  V["smt.theory_conflicts"] = static_cast<double>(S.TheoryConflicts);
  V["smt.theory_checks_per_conflict"] =
      ratio(static_cast<double>(S.TheoryChecks),
            static_cast<double>(S.TheoryConflicts));
  V["smt.simplex_pivots"] = static_cast<double>(S.SimplexPivots);
  V["smt.core_skip_ratio"] = ratio(static_cast<double>(S.CoreSkips),
                                   static_cast<double>(S.SessionChecks));
  V["smt.cache_hit_ratio"] =
      ratio(static_cast<double>(S.CacheHits),
            static_cast<double>(S.CacheHits + S.CacheMisses));
  V["smt.qe_cache_hit_ratio"] =
      ratio(static_cast<double>(S.QeCacheHits),
            static_cast<double>(S.QeCacheHits + S.QeCacheMisses));
  V["smt.formula_nodes"] = static_cast<double>(S.FormulaNodes);
  V["smt.arena_bytes"] = static_cast<double>(S.FormulaArenaBytes);
}

#ifdef __clang__
const char *const kCompiler = "clang " __clang_version__;
#else
const char *const kCompiler = "gcc " __VERSION__;
#endif

void printMachine(const Args &A) {
  std::printf("machine {\"nproc\":%u,\"cpu\":\"%s\",\"build_type\":\"%s\","
              "\"compiler\":\"%s\",\"seed\":%llu,\"workload\":\"%s\","
              "\"trace\":%d}\n",
              cpuCount(), server::jsonEscape(cpuModel()).c_str(),
              PERFBENCH_BUILD_TYPE, server::jsonEscape(kCompiler).c_str(),
              static_cast<unsigned long long>(A.Seed), A.Workload.c_str(),
              A.Trace ? 1 : 0);
}

int finish(bool Trace, const Values &V, const std::map<std::string, size_t> &N,
           size_t Attempted, size_t Failed, const Checks &C) {
  std::string Json = "{\"correct\": ";
  Json += C.Errors.empty() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(std::max<size_t>(1, Attempted));
  Json += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool First = true;
  const MetricDef *Begin =
      Trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef *End = Trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricDef *M = Begin; M != End; ++M) {
    auto It = V.find(M->Name);
    double Val = It == V.end() ? 0.0 : It->second;
    auto Samples = N.find(M->Name);
    std::printf("%-34s %22s %-6s (%s is better)\n", M->Name,
                number(Val).c_str(), M->Unit, M->Better);
    if (Samples != N.end())
      std::printf("%-34s %14zu samples\n", "", Samples->second);
    Json += First ? "" : ", ";
    First = false;
    Json += "\"" + std::string(M->Name) + "\": {\"value\": " + number(Val) +
            ", \"unit\": \"" + M->Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return C.Errors.empty() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// --check-decorator
//===----------------------------------------------------------------------===//

std::string statsText(const smt::SolverStats &S) {
  std::ostringstream OS;
  S.dump(OS);
  return OS.str();
}

/// Triages the 11-program suite through \p Backend and prints each report's
/// verdict, question count and every SolverStats counter. The tests compare
/// this output for "native" and kTracedBackend, each in a fresh process: the
/// native stack breaks some ties by heap layout, so even two native runs in
/// one process can differ in `simplex_pivots`.
int checkDecorator(const std::string &Backend) {
  registerTracedBackend();
  setTracing(true);
  std::vector<TriageRequest> Queue;
  for (const study::BenchmarkInfo &B : study::benchmarkSuite())
    Queue.emplace_back(study::benchmarkPath(B), B.Name);
  TriageOptions O;
  O.Pipeline.Backend = Backend;
  TriageResult Res = TriageEngine(O).run(Queue);
  for (const TriageReport &R : Res.Reports)
    std::printf("%s %s %zu\n%s", R.Name.c_str(),
                verdictName(R.Status, R.Outcome).c_str(), R.Queries,
                statsText(R.Solver).c_str());
  LayerTotals T = snapshot();
  std::fprintf(stderr, "decorated calls: %llu\n",
               static_cast<unsigned long long>(T.calls(Layer::IsSat) +
                                               T.calls(Layer::SessionCheck) +
                                               T.calls(Layer::Qe)));
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

namespace {

int runBatch(const Args &A, Setup &S, double SetupS, Checks &C) {
  bool Inject = A.Workload == "corpus_triage";
  Values V;
  std::map<std::string, size_t> N;
  if (!A.Trace) {
    size_t Attempted = 0, Failed = 0;
    measureBatch(A, S.Inputs, Inject, V, N, Attempted, Failed, C);
    V["setup_s"] = SetupS;
    return finish(false, V, N, Attempted, Failed, C);
  }

  // Untraced reference passes, then traced passes of the stage-by-stage
  // pipeline on one warm runner through the decorator backend, for half the
  // time each.
  BatchSamples Ref;
  std::vector<Row> RefRows;
  std::vector<size_t> Seeded = rotation(S.Inputs.size(), 0);
  Clock::time_point Start = Clock::now();
  do {
    std::vector<Row> Rows = enginePass(S.Inputs, Seeded, Inject, Ref);
    if (RefRows.empty())
      RefRows = Rows;
  } while (msBetween(Start, Clock::now()) < A.Seconds * 500 && !A.Tiny);
  C.merge(Ref.C);

  registerTracedBackend();
  PipelineConfig Cfg = batchConfig(Inject);
  Cfg.Pipeline.Backend = kTracedBackend;
  setTracing(true);
  resetTotals();
  double TracedWallMs = 0, ReportWallMs = 0;
  smt::SolverStats Solver;
  size_t Attempted = 0, Failed = 0, TracedPasses = 0, Escalations = 0,
         Unknown = 0, PotentialPeak = 0, OracleRuns = 0, Summaries = 0;
  Start = Clock::now();
  do {
    Clock::time_point PassStart = Clock::now();
    ReportRunner Runner(Cfg);
    std::vector<Row> Rows;
    for (const Input &In : S.Inputs) {
      ReportOutcome R = Runner.run(In.Path, In.Name);
      Rows.push_back({verdictName(R.Status, R.Outcome), R.Queries});
      ReportWallMs += R.WallMs;
      Solver += R.Solver;
      Escalations += R.Escalated;
      Unknown += R.AnswersUnknown;
      PotentialPeak = std::max(PotentialPeak, R.PotentialPeak);
      OracleRuns += R.OracleRuns;
      Summaries += R.SummariesInstantiated;
      ++Attempted;
      Failed += R.Status != TriageStatus::Diagnosed;
    }
    TracedWallMs += msBetween(PassStart, Clock::now());
    ++TracedPasses;
    checkSame(S.Inputs, Seeded, RefRows, Rows, "the traced pipeline", C);
  } while (msBetween(Start, Clock::now()) < A.Seconds * 500 && !A.Tiny);
  LayerTotals T = snapshot();
  setTracing(false);

  addLayerTotals(V, T, Solver);
  V["analysis.summaries_instantiated"] = static_cast<double>(Summaries);
  V["core.oracle_runs"] = static_cast<double>(OracleRuns);
  V["core.escalations"] = static_cast<double>(Escalations);
  V["core.answers_unknown"] = static_cast<double>(Unknown);
  V["core.potential_peak"] = static_cast<double>(PotentialPeak);
  double Spans = 0;
  for (Layer L : {Layer::Parse, Layer::Annotate, Layer::Analyze,
                  Layer::Shortcut, Layer::OracleBuild, Layer::Diagnose})
    Spans += T.ms(L);
  V["core.unaccounted_ms"] = std::max(0.0, ReportWallMs - Spans);
  V["trace.wall_ms"] = ReportWallMs;
  double RefPass = Ref.EngineMs / static_cast<double>(Ref.Passes);
  double TracedPass = TracedWallMs / static_cast<double>(TracedPasses);
  V["trace.overhead_ms"] = TracedPass - RefPass;
  V["trace.overhead_share"] = ratio(TracedPass - RefPass, RefPass);
  addShares(V, ReportWallMs);

  std::vector<DaemonProgram> Logs = coldLogs(S.Inputs, Inject, kProbePrograms);
  std::vector<double> Steps;
  for (auto &[Key, Ms] : sessionSteps(Logs, Logs.size()))
    Steps.push_back(Ms);
  V["core.session_step_p50_ms"] = percentile(Steps, 50);
  V["study.gen_programs_per_s"] = ratio(S.GenPrograms, S.GenMs / 1000.0);
  V["study.gen_acceptance_ratio"] = ratio(S.GenAccepted, S.GenCandidates);
  if (V["core.unaccounted_share"] > 0.05)
    std::fprintf(stderr, "perfbench: spans cover only %.1f%% of traced wall\n",
                 100.0 * (1.0 - V["core.unaccounted_share"]));
  return finish(true, V, N, Attempted, Failed, C);
}

/// Checks the answer table's cold verdicts against cold batch triage of
/// each program, whose verdicts daemon sessions are then checked against.
void checkAgainstTriage(Setup &S, Checks &C) {
  std::vector<std::string> Cold = coldTriage(S.Inputs, true, C);
  for (size_t I = 0; I < Cold.size(); ++I) {
    if (S.Daemon[I].Verdict != Cold[I])
      C.fail(S.Inputs[I].Name + ": a cold diagnoser gave " +
             S.Daemon[I].Verdict + ", cold batch triage " + Cold[I]);
    S.Daemon[I].Verdict = Cold[I];
  }
}

/// Counts for one run of the daemon.
struct DaemonRun {
  PhaseStats Measured; ///< every session of the run
  /// Closed loop: each program's best session and first-question time, and
  /// each of its questions' best next-question time.
  BestTimes Report, First, Next;
  /// Open loop: sampled open-session counts.
  std::vector<double> OpenSamples;
  size_t Attempted = 0, Failed = 0;
  std::vector<std::pair<std::string, size_t>> Rows; ///< open-loop verdicts
};

/// Open-loop sessions at the nominal rate lasting about half the run (one
/// pass over the corpus in tiny mode). Sessions cycle through the corpus in
/// the seeded order, which keeps the causes interleaved, so a partial last
/// pass keeps their mix.
size_t nominalCount(const Args &A, size_t Programs) {
  if (A.Tiny)
    return Programs;
  return static_cast<size_t>(kNominalRate * A.Seconds / 2);
}

/// Drives the daemon. With \p Closed (the untraced run), closed-loop passes
/// over the corpus with cpuCount() sessions in flight, a new submit as soon
/// as one finishes, at least one and another only while the mean pass still
/// fits in the run. Without (the traced run), \p Nominal open-loop sessions
/// at kNominalRate.
DaemonRun driveDaemon(const Args &A, Setup &S, size_t Nominal, bool Closed,
                      Checks &C) {
  DaemonRun D;
  size_t Programs = S.Daemon.size();
  std::vector<size_t> Order(Programs);
  for (size_t I = 0; I < Programs; ++I)
    Order[I] = I; // S.Daemon is already in the run's seeded order
  LoadGenerator LG(S.Daemon, Order,
                   Closed ? kMaxDaemonPasses * Programs : Nominal);
  std::string Err;
  if (!LG.connect(S.Socket, std::max(1u, cpuCount() - 1), Err)) {
    C.fail("connect: " + Err);
    return D;
  }
  auto Account = [&](const PhaseStats &P) {
    D.Attempted += P.Sessions;
    D.Failed += P.Sessions - P.Diagnosed;
    D.Measured.append(P);
  };

  if (!Closed) {
    PhaseStats P = LG.runPhase(Nominal, kNominalRate);
    Account(P);
    for (size_t K = 0; K < P.Sessions; ++K)
      D.Rows.emplace_back(LG.sessions()[K].Verdict, LG.sessions()[K].Queries);
    D.OpenSamples = LG.openSamples();
  } else {
    Clock::time_point Start = Clock::now();
    for (size_t Pass = 1; Pass <= kMaxDaemonPasses; ++Pass) {
      PhaseStats P = LG.runPhase(Programs, 0, cpuCount());
      Account(P);
      for (size_t K = LG.phaseBegin(); K < LG.phaseBegin() + P.Sessions; ++K) {
        const SessionRecord &R = LG.sessions()[K];
        if (!R.Done || R.Refused)
          continue;
        D.Report.add(R.Program, 0, msBetween(R.Due, R.Finished));
        D.First.add(R.Program, 0, msBetween(R.Due, R.FirstFrame));
        for (size_t Q = 0; Q < R.NextQuestionMs.size(); ++Q)
          D.Next.add(R.Program, Q, R.NextQuestionMs[Q]);
      }
      if (A.Tiny || msBetween(Start, Clock::now()) * static_cast<double>(
                                                         Pass + 1) /
                            static_cast<double>(Pass) >
                        A.Seconds * 1000)
        break;
    }
  }

  LG.close();
  for (const std::string &M : LG.mismatches())
    C.fail("daemon verdict differs from cold batch triage: " + M);
  if (D.Measured.Done != D.Measured.Sessions)
    C.fail("daemon sessions did not finish");
  if (size_t Errors = LG.protocolErrors())
    C.fail("the daemon sent " + std::to_string(Errors) +
           " frames the client could not match to a session");
  if (size_t Misses = LG.answerMisses())
    std::fprintf(stderr, "perfbench: %zu asks had no recorded answer\n",
                 Misses);
  return D;
}

int runDaemon(const Args &A, Setup &S, double SetupS, Checks &C) {
  Values V;
  std::map<std::string, size_t> N;
  if (!S.Server)
    return finish(A.Trace, V, N, 0, 0, C);

  if (!A.Trace) {
    DaemonRun D = driveDaemon(A, S, 0, true, C);
    const PhaseStats &P = D.Measured;
    double Sessions = static_cast<double>(P.Sessions);
    std::vector<double> Report = D.Report.values();
    std::vector<double> First = D.First.values();
    std::vector<double> Next = D.Next.values();
    // cpuCount() sessions in flight, each at its best time.
    V["reports_per_s"] = ratio(static_cast<double>(cpuCount() * Report.size()),
                               D.Report.sum() / 1000.0);
    V["report_p50_ms"] = percentile(Report, 50);
    V["report_p95_ms"] = percentile(Report, 95);
    N["report_p95_ms"] = Report.size();
    V["questions_per_report"] =
        ratio(static_cast<double>(P.Queries), Sessions);
    V["decided_share"] = ratio(static_cast<double>(P.Decided), Sessions);
    V["first_question_p50_ms"] = percentile(First, 50);
    V["first_question_p95_ms"] = percentile(First, 95);
    N["first_question_p95_ms"] = First.size();
    V["next_question_p50_ms"] = percentile(Next, 50);
    V["next_question_p99_ms"] = percentile(Next, 99);
    N["next_question_p99_ms"] = Next.size();
    // The heap at the busiest 1% of submits: the largest sample depends
    // on which heavy sessions happen to overlap.
    V["peak_heap_mb"] = percentile(P.HeapMb, 99);
    N["peak_heap_mb"] = P.HeapMb.size();
    V["setup_s"] = SetupS;
    return finish(false, V, N, D.Attempted, D.Failed, C);
  }

  // Untraced reference at the nominal rate, then the wire probe (one
  // session at a time), then the same schedule on a daemon whose sessions
  // go through the decorator backend.
  size_t Nominal = nominalCount(A, S.Daemon.size());
  DaemonRun Ref = driveDaemon(A, S, Nominal, false, C);
  server::DaemonServer::Stats St = S.Server->stats();

  std::map<std::pair<size_t, uint64_t>, double> Wire;
  {
    std::vector<size_t> Order(std::min(kProbePrograms, S.Daemon.size()));
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    LoadGenerator LG(S.Daemon, Order, Order.size());
    std::string Err;
    if (LG.connect(S.Socket, 1, Err)) {
      LG.runPhase(Order.size(), 0);
      for (size_t K = 0; K < Order.size(); ++K) {
        const SessionRecord &Rec = LG.sessions()[K];
        for (size_t Q = 0; Q < Rec.NextQuestionMs.size(); ++Q)
          Wire[{Rec.Program, Q}] = Rec.NextQuestionMs[Q];
      }
    } else {
      C.fail("connect: " + Err);
    }
  }
  S.Server->stop();
  S.Server.reset();

  std::map<std::pair<size_t, uint64_t>, double> Steps =
      sessionSteps(S.Daemon, kProbePrograms);
  std::vector<double> StepMs, Overhead;
  for (auto &[Key, Ms] : Steps) {
    StepMs.push_back(Ms);
    if (auto It = Wire.find(Key); It != Wire.end())
      Overhead.push_back(It->second - Ms);
  }

  registerTracedBackend();
  S.Server = startDaemon(S.Socket, kTracedBackend, C);
  if (!S.Server)
    return finish(true, V, N, 0, 0, C);
  setTracing(true);
  resetTotals();
  DaemonRun Tr = driveDaemon(A, S, Nominal, false, C);
  LayerTotals T = snapshot();
  setTracing(false);
  server::DaemonServer::Stats TrSt = S.Server->stats();
  if (Tr.Rows != Ref.Rows)
    C.fail("traced daemon sessions differ from untraced ones in verdicts "
           "or question counts");

  addLayerTotals(V, T, smt::SolverStats());
  // Session solver counters are not on the wire; only times are traced.
  for (const char *K : {"smt.theory_checks", "smt.theory_conflicts",
                        "smt.theory_checks_per_conflict", "smt.simplex_pivots",
                        "smt.core_skip_ratio", "smt.cache_hit_ratio",
                        "smt.qe_cache_hit_ratio", "smt.formula_nodes",
                        "smt.arena_bytes"})
    V[K] = 0;
  double Wall = Tr.Measured.ServerWallMs;
  double SmtMs = T.ms(Layer::IsSat) + T.ms(Layer::SessionCheck) +
                 T.ms(Layer::Qe);
  V["core.unaccounted_ms"] = std::max(0.0, Wall - SmtMs);
  V["trace.wall_ms"] = Wall;
  V["trace.overhead_ms"] = Wall - Ref.Measured.ServerWallMs;
  V["trace.overhead_share"] =
      ratio(Wall - Ref.Measured.ServerWallMs, Ref.Measured.ServerWallMs);
  addShares(V, Wall);
  V["core.session_step_p50_ms"] = percentile(StepMs, 50);
  V["server.wire_overhead_p50_ms"] = percentile(Overhead, 50);
  V["server.open_sessions_p99"] = percentile(Ref.OpenSamples, 99);
  V["server.peak_active"] = static_cast<double>(St.PeakActive);
  V["server.refused"] = static_cast<double>(St.Refused + TrSt.Refused);
  V["server.protocol_errors"] =
      static_cast<double>(St.ProtocolErrors + TrSt.ProtocolErrors);
  V["study.gen_programs_per_s"] = ratio(S.GenPrograms, S.GenMs / 1000.0);
  V["study.gen_acceptance_ratio"] = ratio(S.GenAccepted, S.GenCandidates);
  V["loadgen.late_p99_ms"] = percentile(Ref.Measured.LateMs, 99);
  return finish(true, V, N, Tr.Attempted, Tr.Failed, C);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (!A.CheckDecorator.empty())
    return checkDecorator(A.CheckDecorator);
  printMachine(A);
  Checks C;

  // Set up several times and report the median; keep the last set-up.
  int Repeats = A.Tiny ? 1 : (A.Workload == "paper_suite" ? 5 : 3);
  std::vector<double> SetupTimes;
  Setup S;
  for (int I = 0; I < Repeats; ++I) {
    S = Setup();
    Checks Once;
    Clock::time_point Start = Clock::now();
    S = setupOnce(A, Once);
    SetupTimes.push_back(msBetween(Start, Clock::now()) / 1000.0);
    if (I + 1 == Repeats)
      C = std::move(Once);
  }
  double SetupS = percentile(SetupTimes, 50);
  if (!C.Errors.empty())
    return finish(A.Trace, Values(), {}, 0, 0, C);
  if (A.Workload == "daemon_sessions")
    checkAgainstTriage(S, C);
  int Rc = A.Workload == "daemon_sessions" ? runDaemon(A, S, SetupS, C)
                                           : runBatch(A, S, SetupS, C);
  if (S.Server)
    S.Server->stop();
  return Rc;
}
