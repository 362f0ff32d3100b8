//===- perfbench/Daemon.cpp - Load against abdiagd ------------------------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"

#include "server/Protocol.h"

#include <cstdlib>

using namespace abdiag;
using namespace abdiag::server;

namespace perfbench {

struct LoadGenerator::Conn {
  FdHandle Fd;
  std::mutex WriteMu; ///< the submitting thread and the reader both write
  std::thread Reader;

  bool send(const std::string &Frame) {
    std::lock_guard<std::mutex> Lock(WriteMu);
    return writeAll(Fd.get(), Frame + "\n");
  }
};

LoadGenerator::LoadGenerator(const std::vector<DaemonProgram> &Programs,
                             const std::vector<size_t> &Order,
                             size_t MaxSessions)
    : Programs(Programs), Sessions(MaxSessions) {
  for (size_t K = 0; K < MaxSessions; ++K)
    Sessions[K].Program = Order[K % Order.size()];
}

LoadGenerator::~LoadGenerator() { close(); }

bool LoadGenerator::connect(const std::string &SocketPath,
                            unsigned Connections, std::string &Err) {
  for (unsigned I = 0; I < Connections; ++I) {
    auto C = std::make_unique<Conn>();
    C->Fd = connectUnix(SocketPath, Err);
    if (!C->Fd.valid())
      return false;
    Conns.push_back(std::move(C));
  }
  // Readers start only once every record is in place.
  for (auto &C : Conns)
    C->Reader = std::thread([this, &C = *C] { readLoop(C); });
  return true;
}

void LoadGenerator::close() {
  for (auto &C : Conns)
    C->Fd.shutdownBoth();
  for (auto &C : Conns)
    if (C->Reader.joinable())
      C->Reader.join();
  Conns.clear();
}

size_t LoadGenerator::answerMisses() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Misses;
}

size_t LoadGenerator::protocolErrors() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return ProtoErrors;
}

void LoadGenerator::readLoop(Conn &C) {
  LineReader Reader(C.Fd.get());
  std::string Line;
  while (Reader.readLine(Line))
    onFrame(C, Line);
}

namespace {

double wallMsOf(const std::string &Line) {
  size_t At = Line.find("\"wall_ms\":");
  return At == std::string::npos ? 0.0 : std::atof(Line.c_str() + At + 10);
}

} // namespace

void LoadGenerator::onFrame(Conn &C, const std::string &Line) {
  Clock::time_point Now = Clock::now();
  std::string Err;
  std::optional<ServerMessage> M = parseServerMessage(Line, Err);
  size_t K = Sessions.size();
  if (M && M->Session.size() > 1 && M->Session[0] == 's')
    K = std::strtoull(M->Session.c_str() + 1, nullptr, 10);
  if (!M || K >= Sessions.size() || Sessions[K].Done) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++ProtoErrors;
    return;
  }
  SessionRecord &S = Sessions[K];
  auto NoteFrame = [&] {
    if (!S.GotFrame) {
      S.FirstFrame = Now;
      S.GotFrame = true;
    } else {
      S.NextQuestionMs.push_back(msBetween(S.LastAnswerSent, Now));
    }
  };
  auto Finish = [&](std::string Verdict) {
    std::lock_guard<std::mutex> Lock(Mu);
    const DaemonProgram &P = Programs[S.Program];
    if (!S.Refused && Verdict != P.Verdict)
      Mismatches.push_back(P.Name + ": daemon " + Verdict + ", batch " +
                           P.Verdict);
    S.Verdict = std::move(Verdict);
    S.Finished = Now;
    S.Done = true;
    ++Finished;
    DoneCv.notify_all();
  };

  switch (M->K) {
  case ServerMessage::Kind::Ask: {
    NoteFrame();
    const std::vector<LoggedAnswer> &Log = Programs[S.Program].Answers;
    auto Matches = [&](const LoggedAnswer &E) {
      return E.Invariant == M->Invariant && E.Formula == M->Formula &&
             E.Given == M->Given;
    };
    const LoggedAnswer *Hit = nullptr;
    if (M->Query < Log.size() && Matches(Log[M->Query]))
      Hit = &Log[M->Query];
    for (size_t I = 0; !Hit && I < Log.size(); ++I)
      if (Matches(Log[I]))
        Hit = &Log[I];
    if (!Hit) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Misses;
    }
    core::Answer A = Hit ? Hit->Ans : core::Answer::Unknown;
    std::string Frame = "{\"schema\":" + std::to_string(kProtocolSchema) +
                        ",\"op\":\"answer\",\"session\":\"" + M->Session +
                        "\",\"query\":" + std::to_string(M->Query) +
                        ",\"answer\":\"" + core::answerName(A) + "\"}";
    S.LastAnswerSent = Clock::now();
    C.send(Frame);
    return;
  }
  case ServerMessage::Kind::Result:
    NoteFrame();
    S.Queries = M->Queries;
    S.WallMs = wallMsOf(Line);
    Finish(M->Status == "diagnosed" ? M->Verdict : M->Status);
    return;
  case ServerMessage::Kind::Error:
    NoteFrame();
    if (M->Code == "busy" || M->Code == "draining" ||
        M->Code == "tenant_limit") {
      S.Refused = true;
      Finish("refused");
      return;
    }
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++ProtoErrors;
    }
    Finish("error:" + M->Code);
    return;
  }
}

void PhaseStats::append(const PhaseStats &P) {
  LateMs.insert(LateMs.end(), P.LateMs.begin(), P.LateMs.end());
  HeapMb.insert(HeapMb.end(), P.HeapMb.begin(), P.HeapMb.end());
  Sessions += P.Sessions;
  Done += P.Done;
  Diagnosed += P.Diagnosed;
  Decided += P.Decided;
  Refused += P.Refused;
  Queries += P.Queries;
  ServerWallMs += P.ServerWallMs;
}

PhaseStats LoadGenerator::runPhase(size_t Count, double Rate,
                                   size_t Window) {
  Begin = Next;
  size_t End = std::min(Begin + Count, Sessions.size());
  Next = End;
  PhaseStats P;
  if (Begin == End || Conns.empty())
    return P;

  size_t FinishedBefore;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    FinishedBefore = Finished;
  }
  Clock::time_point Due = Clock::now() + std::chrono::milliseconds(5);
  Clock::duration Gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Rate > 0 ? 1.0 / Rate : 0.0));
  for (size_t K = Begin; K < End; ++K) {
    SessionRecord &S = Sessions[K];
    if (Rate > 0) {
      if (K > Begin)
        Due += Gap;
      std::this_thread::sleep_until(Due);
    } else {
      std::unique_lock<std::mutex> Lock(Mu);
      DoneCv.wait(Lock, [&] {
        return K - Begin < Window + (Finished - FinishedBefore);
      });
      Due = Clock::now();
    }
    S.Due = Due;
    S.Sent = Clock::now();
    const DaemonProgram &Prog = Programs[S.Program];
    std::string Frame = "{\"schema\":" + std::to_string(kProtocolSchema) +
                        ",\"op\":\"submit\",\"session\":\"s" +
                        std::to_string(K) + "\",\"name\":\"" +
                        jsonEscape(Prog.Name) + "\",\"source\":\"" +
                        jsonEscape(Prog.Source) + "\"}";
    Conns[K % Conns.size()]->send(Frame);
    P.HeapMb.push_back(heapInUseMb());
    std::lock_guard<std::mutex> Lock(Mu);
    OpenSamples.push_back(static_cast<double>(K + 1 - Finished));
  }
  {
    std::unique_lock<std::mutex> Lock(Mu);
    DoneCv.wait_for(Lock, std::chrono::seconds(120), [&] {
      for (size_t K = Begin; K < End; ++K)
        if (!Sessions[K].Done)
          return false;
      return true;
    });
  }

  std::lock_guard<std::mutex> Lock(Mu);
  for (size_t K = Begin; K < End; ++K) {
    const SessionRecord &S = Sessions[K];
    ++P.Sessions;
    P.LateMs.push_back(msBetween(S.Due, S.Sent));
    if (!S.Done)
      continue;
    ++P.Done;
    P.Refused += S.Refused;
    bool Decided = S.Verdict == "real_bug" || S.Verdict == "false_alarm";
    P.Decided += Decided;
    P.Diagnosed += Decided || S.Verdict == "inconclusive";
    P.Queries += S.Queries;
    P.ServerWallMs += S.WallMs;
  }
  return P;
}

} // namespace perfbench
