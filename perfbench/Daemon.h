//===- perfbench/Daemon.h - Load against abdiagd ----------------*- C++ -*-===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon workload's client side. A LoadGenerator holds a few unix
/// socket connections to an in-process server::DaemonServer, submits
/// sessions from the calling thread, closed loop or on an open-loop
/// schedule, and answers every ask at once from an answer table built
/// during set-up (no pipeline work in the client). Each connection's reader
/// thread timestamps frames; every latency is measured from when its
/// request was due or sent.
///
//===----------------------------------------------------------------------===//

#ifndef ABDIAG_PERFBENCH_DAEMON_H
#define ABDIAG_PERFBENCH_DAEMON_H

#include "Pipeline.h"

#include "support/Socket.h"

#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {

/// One program the daemon serves, with its recorded questions and answers
/// and the verdict of batch triage of it on a fresh engine.
struct DaemonProgram {
  std::string Name;
  std::string Source;
  std::vector<LoggedAnswer> Answers;
  std::string Verdict;
};

struct SessionRecord {
  size_t Program = 0; ///< fixed before any thread starts
  Clock::time_point Due, Sent; ///< written by the submitting thread
  // Written by the connection's reader thread.
  Clock::time_point FirstFrame, Finished, LastAnswerSent;
  bool GotFrame = false, Done = false, Refused = false;
  std::vector<double> NextQuestionMs;
  std::string Verdict; ///< verdictName() spelling, or "refused"
  uint64_t Queries = 0;
  double WallMs = 0; ///< the server's own wall time for the session
};

/// Counts of one batch of sessions; the latencies are in the records.
struct PhaseStats {
  std::vector<double> LateMs; ///< each submit's lateness from its due time
  std::vector<double> HeapMb; ///< the heap in use at each submit
  size_t Sessions = 0, Done = 0, Diagnosed = 0, Decided = 0, Refused = 0,
         Queries = 0;
  double ServerWallMs = 0;

  /// Adds another phase's samples and counts.
  void append(const PhaseStats &P);
};

class LoadGenerator {
public:
  /// \p Order lists program indices; session k serves Order[k % size].
  LoadGenerator(const std::vector<DaemonProgram> &Programs,
                const std::vector<size_t> &Order, size_t MaxSessions);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator &) = delete;
  LoadGenerator &operator=(const LoadGenerator &) = delete;

  bool connect(const std::string &SocketPath, unsigned Connections,
               std::string &Err);

  /// Submits \p Count sessions evenly spaced at \p Rate per second, waits
  /// until each has its result, and returns their samples. \p Rate 0 means
  /// closed loop: a new session as soon as fewer than \p Window are open.
  PhaseStats runPhase(size_t Count, double Rate, size_t Window = 1);

  /// Sessions of the last phase, in submission order.
  const std::vector<SessionRecord> &sessions() const { return Sessions; }
  size_t phaseBegin() const { return Begin; }

  /// Sampled open-session counts (submitted minus finished), one per submit.
  const std::vector<double> &openSamples() const { return OpenSamples; }
  /// Asks whose text matched no recorded question (answered "unknown").
  size_t answerMisses() const;
  /// Frames that were unparseable, named no live session, or were error
  /// frames other than refusals.
  size_t protocolErrors() const;
  /// Sessions whose verdict differs from the program's Verdict.
  const std::vector<std::string> &mismatches() const { return Mismatches; }

  /// Closes the connections and joins the readers.
  void close();

private:
  struct Conn;
  const std::vector<DaemonProgram> &Programs;
  std::vector<SessionRecord> Sessions;
  std::vector<std::unique_ptr<Conn>> Conns;
  size_t Begin = 0, Next = 0;

  mutable std::mutex Mu; ///< guards the counters below and Done flags
  std::condition_variable DoneCv;
  size_t Finished = 0;
  size_t Misses = 0, ProtoErrors = 0;
  std::vector<std::string> Mismatches;
  std::vector<double> OpenSamples;

  void readLoop(Conn &C);
  void onFrame(Conn &C, const std::string &Line);
};

} // namespace perfbench

#endif // ABDIAG_PERFBENCH_DAEMON_H
