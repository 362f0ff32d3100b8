//===- perfbench/Trace.cpp - Per-layer spans for the repo benchmark --------===//
//
// Part of the abdiag project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <malloc.h>
#include <mutex>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

using namespace abdiag;

namespace perfbench {
namespace {

std::atomic<bool> TracingOn{false};

/// Accumulators, one slot per recording thread until they run out; then
/// threads share slots, which the atomics make safe. Nothing on the
/// recording path allocates (see sideAlloc below for why that matters).
struct Slot {
  std::array<std::atomic<uint64_t>, kNumLayers> Ns{};
  std::array<std::atomic<uint64_t>, kNumLayers> Calls{};
  std::atomic<uint64_t> DiagnoseChildNs{0};
};

constexpr size_t kSlots = 256;
Slot Slots[kSlots];
std::atomic<size_t> NextSlot{0};

thread_local Slot *MySlot = nullptr;
thread_local bool InSpan = false;
thread_local Layer CurrentSpan = Layer::Parse;

Slot &slot() {
  if (!MySlot)
    MySlot = &Slots[NextSlot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  return *MySlot;
}

uint64_t toNs(double Ms) { return static_cast<uint64_t>(Ms * 1e6 + 0.5); }

} // namespace

double heapInUseMb() {
  struct mallinfo2 M = mallinfo2();
  return static_cast<double>(M.uordblks + M.hblkhd) / 1048576.0;
}

void setTracing(bool On) { TracingOn.store(On, std::memory_order_relaxed); }
bool tracing() { return TracingOn.load(std::memory_order_relaxed); }

void record(Layer L, double Ms) {
  Slot &S = slot();
  size_t I = static_cast<size_t>(L);
  S.Ns[I].fetch_add(toNs(Ms), std::memory_order_relaxed);
  S.Calls[I].fetch_add(1, std::memory_order_relaxed);
  if (InSpan && CurrentSpan == Layer::Diagnose && L >= Layer::IsSat)
    S.DiagnoseChildNs.fetch_add(toNs(Ms), std::memory_order_relaxed);
}

LayerTotals snapshot() {
  LayerTotals T;
  for (Slot &S : Slots) {
    for (size_t I = 0; I < kNumLayers; ++I) {
      T.Ms[I] += S.Ns[I].load(std::memory_order_relaxed) / 1e6;
      T.Calls[I] += S.Calls[I].load(std::memory_order_relaxed);
    }
    T.DiagnoseChildMs += S.DiagnoseChildNs.load(std::memory_order_relaxed) / 1e6;
  }
  return T;
}

void resetTotals() {
  for (Slot &S : Slots) {
    for (size_t I = 0; I < kNumLayers; ++I) {
      S.Ns[I].store(0, std::memory_order_relaxed);
      S.Calls[I].store(0, std::memory_order_relaxed);
    }
    S.DiagnoseChildNs.store(0, std::memory_order_relaxed);
  }
}

Span::Span(Layer L)
    : L(L), Outer(CurrentSpan), HadOuter(InSpan), Start(Clock::now()) {
  InSpan = true;
  CurrentSpan = L;
}

Span::~Span() {
  CurrentSpan = Outer;
  InSpan = HadOuter;
  record(L, msBetween(Start, Clock::now()));
}

//===----------------------------------------------------------------------===//
// TracingBackend
//===----------------------------------------------------------------------===//

namespace {

/// The native stack breaks some ties by heap layout: an extra malloc'd
/// object shifts later allocations and can change `simplex_pivots` by one
/// on a report. So the decorator's own objects come from mmap'd blocks off
/// the malloc heap, and the wrapped backend sees the allocation sequence a
/// plain "native" instance sees.
constexpr size_t kBlock = 128;
constexpr size_t kChunk = 1 << 16;
std::mutex PoolMu;
void *FreeBlocks = nullptr; // guarded by PoolMu; intrusive list
char *ChunkNext = nullptr;  // guarded by PoolMu
size_t ChunkLeft = 0;       // guarded by PoolMu

void *sideAlloc(size_t N) {
  if (N > kBlock)
    throw std::bad_alloc();
  std::lock_guard<std::mutex> Lock(PoolMu);
  if (void *P = FreeBlocks) {
    FreeBlocks = *static_cast<void **>(P);
    return P;
  }
  if (ChunkLeft < kBlock) {
    void *C = ::mmap(nullptr, kChunk, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (C == MAP_FAILED)
      throw std::bad_alloc();
    ChunkNext = static_cast<char *>(C);
    ChunkLeft = kChunk;
  }
  void *P = ChunkNext;
  ChunkNext += kBlock;
  ChunkLeft -= kBlock;
  return P;
}

void sideFree(void *P) {
  if (!P)
    return;
  std::lock_guard<std::mutex> Lock(PoolMu);
  *static_cast<void **>(P) = FreeBlocks;
  FreeBlocks = P;
}

template <typename Fn> auto timeCall(Layer L, Fn &&Call) {
  Clock::time_point Start = Clock::now();
  struct Done {
    Layer L;
    Clock::time_point Start;
    ~Done() { record(L, msBetween(Start, Clock::now())); }
  } D{L, Start};
  return Call();
}

class TracingSession final : public smt::DecisionProcedure::Session {
public:
  explicit TracingSession(std::unique_ptr<Session> Inner)
      : Inner(std::move(Inner)) {}

  bool check(const std::vector<const smt::Formula *> &Conjuncts,
             smt::Model *Out) override {
    return timeCall(Layer::SessionCheck,
                    [&] { return Inner->check(Conjuncts, Out); });
  }
  const std::vector<const smt::Formula *> &lastCore() const override {
    return Inner->lastCore();
  }
  size_t numCores() const override { return Inner->numCores(); }

  static void *operator new(size_t N) { return sideAlloc(N); }
  static void operator delete(void *P) { sideFree(P); }

private:
  std::unique_ptr<Session> Inner;
};

/// Forwards every call to a "native" instance over the same manager; only
/// the three query entry points are timed.
class TracingBackend final : public smt::DecisionProcedure {
public:
  explicit TracingBackend(smt::FormulaManager &M)
      : DecisionProcedure(M), Inner(smt::createBackend("native", M)) {}

  const char *name() const override { return kTracedBackend; }
  smt::BackendCapabilities capabilities() const override {
    return Inner->capabilities();
  }
  bool isSat(const smt::Formula *F, smt::Model *Out) override {
    return timeCall(Layer::IsSat, [&] { return Inner->isSat(F, Out); });
  }
  std::unique_ptr<Session> openSession() override {
    return std::make_unique<TracingSession>(Inner->openSession());
  }
  const smt::Formula *eliminateForall(const smt::Formula *F,
                                      const std::vector<smt::VarId> &Xs) override {
    return timeCall(Layer::Qe, [&] { return Inner->eliminateForall(F, Xs); });
  }
  const smt::SolverStats &stats() const override { return Inner->stats(); }
  void resetStats() override { Inner->resetStats(); }
  void setCancellation(const support::CancellationToken *T) override {
    Inner->setCancellation(T);
  }
  const support::CancellationToken *cancellation() const override {
    return Inner->cancellation();
  }
  void setCaching(bool On) override { Inner->setCaching(On); }
  bool cachingEnabled() const override { return Inner->cachingEnabled(); }
  void setSimplexMaxPivots(int MaxPivots) override {
    Inner->setSimplexMaxPivots(MaxPivots);
  }

  static void *operator new(size_t N) { return sideAlloc(N); }
  static void operator delete(void *P) { sideFree(P); }

private:
  std::unique_ptr<DecisionProcedure> Inner;
};

} // namespace

void registerTracedBackend() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    smt::registerBackend(kTracedBackend, [](smt::FormulaManager &M) {
      return std::unique_ptr<smt::DecisionProcedure>(
          std::make_unique<TracingBackend>(M));
    });
  });
}

//===----------------------------------------------------------------------===//
// TimedOracle
//===----------------------------------------------------------------------===//

template <typename Fn> core::Answer TimedOracle::timed(Fn &&Call) {
  Clock::time_point Asked = Clock::now();
  core::Answer A = Call();
  Clock::time_point Answered = Clock::now();
  Stamps.emplace_back(Asked, Answered);
  if (tracing())
    record(Layer::OracleAnswer, msBetween(Asked, Answered));
  return A;
}

core::Answer TimedOracle::isInvariant(const smt::Formula *F) {
  return timed([&] { return Inner.isInvariant(F); });
}

core::Answer TimedOracle::isPossible(const smt::Formula *F,
                                     const smt::Formula *Given) {
  return timed([&] { return Inner.isPossible(F, Given); });
}

} // namespace perfbench
