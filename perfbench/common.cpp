//===- common.cpp - Shared plumbing of the repository benchmark -----------===//

#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <sys/resource.h>

namespace perfbench {

double percentileOf(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] * (1.0 - Frac) + V[Hi] * Frac;
}

double median(std::vector<double> V) { return percentileOf(std::move(V), 50); }

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static double clockSeconds(clockid_t Clock) {
  timespec Ts{};
  clock_gettime(Clock, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double processCpuSeconds() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double threadCpuSeconds() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double geometricMean(const std::vector<double> &V) {
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return V.empty() ? 0.0 : std::exp(LogSum / static_cast<double>(V.size()));
}

double probeSeconds() {
  constexpr int Nodes = 4096;
  constexpr int Edges = 6 * Nodes;
  // The graph in compressed rows, built once.  The timed part allocates
  // nothing and reads only contiguous arrays, so neither the program's heap
  // nor its layout can change the probe's time.
  struct Csr {
    std::vector<int> First, Target, Weight;
  };
  static const Csr G = [] {
    std::vector<std::pair<int, std::pair<int, int>>> List;
    std::uint64_t X = 88172645463325252ULL;
    for (int E = 0; E < Edges; ++E) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      List.push_back({static_cast<int>(X % Nodes),
                      {static_cast<int>((X >> 20) % Nodes),
                       static_cast<int>((X >> 40) % 100) + 1}});
    }
    std::sort(List.begin(), List.end());
    Csr C;
    C.First.assign(Nodes + 1, 0);
    for (const auto &[U, VW] : List) {
      ++C.First[U + 1];
      C.Target.push_back(VW.first);
      C.Weight.push_back(VW.second);
    }
    for (int U = 0; U < Nodes; ++U)
      C.First[U + 1] += C.First[U];
    return C;
  }();
  static std::vector<int> Dist(Nodes);
  static std::vector<std::pair<int, int>> Heap;
  Heap.reserve(Edges + 1);
  const double T0 = nowSeconds();
  long long Sum = 0;
  for (int Source = 0; Source < 4; ++Source) {
    std::fill(Dist.begin(), Dist.end(), 1 << 30);
    Heap.assign(1, {0, Source});
    Dist[Source] = 0;
    while (!Heap.empty()) {
      std::pop_heap(Heap.begin(), Heap.end(), std::greater<>());
      const auto [D, U] = Heap.back();
      Heap.pop_back();
      if (D > Dist[U])
        continue;
      for (int E = G.First[U]; E < G.First[U + 1]; ++E)
        if (D + G.Weight[E] < Dist[G.Target[E]]) {
          Dist[G.Target[E]] = D + G.Weight[E];
          Heap.push_back({Dist[G.Target[E]], G.Target[E]});
          std::push_heap(Heap.begin(), Heap.end(), std::greater<>());
        }
    }
    for (int D : Dist)
      Sum += D;
  }
  static volatile long long Sink;
  Sink = Sum;
  return nowSeconds() - T0;
}

void SpeedScale::sample() {
  double Fastest = probeSeconds();
  for (int K = 1; K < 3; ++K)
    Fastest = std::min(Fastest, probeSeconds());
  Points.push_back(Fastest);
}

double SpeedScale::probeTypicalSeconds() const {
  return Points.empty() ? ProbeNominalSeconds : median(Points);
}

double SpeedScale::factor() const {
  return ProbeNominalSeconds / probeTypicalSeconds();
}

void scaleTimings(Report &Rep, const SpeedScale &S) {
  const double F = S.factor();
  for (const char *Name : {"loops_per_s", "latency_p50_ms", "latency_tail_ms",
                           "cpu_ms_per_loop", "setup_s"}) {
    auto It = Rep.Metrics.find(Name);
    if (It == Rep.Metrics.end())
      continue;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.10g", It->second.Value);
    Rep.Notes[std::string("measured.") + Name] = Buf;
    // A rate scales inversely to a time.
    It->second.Value = It->second.Unit == "1/s" ? It->second.Value / F
                                                : It->second.Value * F;
    It->second.Note += It->second.Note.empty() ? "" : "; ";
    It->second.Note += "at the nominal machine speed";
  }
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%.4f ms median of %zu, nominal %.4f ms",
                S.probeTypicalSeconds() * 1e3, S.samples(),
                ProbeNominalSeconds * 1e3);
  Rep.Notes["speed_probe"] = Buf;
  std::snprintf(Buf, sizeof(Buf), "%.6f", F);
  Rep.Notes["speed_factor"] = Buf;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

OneCpu::OneCpu(int Index) {
  CPU_ZERO(&Saved);
  if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0 ||
      CPU_COUNT(&Saved) == 0)
    return;
  int Skip = Index % CPU_COUNT(&Saved);
  int Chosen = -1;
  for (int C = 0; C < CPU_SETSIZE && Chosen < 0; ++C)
    if (CPU_ISSET(C, &Saved) && Skip-- == 0)
      Chosen = C;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Chosen, &One);
  if (sched_setaffinity(0, sizeof(One), &One) == 0)
    Cpu = Chosen;
}

OneCpu::~OneCpu() {
  if (Cpu >= 0)
    sched_setaffinity(0, sizeof(Saved), &Saved);
}

void Report::knob(const std::string &Name, double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.10g", Value);
  Knobs[Name] = Buf;
}

void Report::fail(const std::string &Why) {
  ++Failed;
  // Keep the report readable when one defect fails many loops.
  if (CheckFailures.size() < 50)
    CheckFailures.push_back(Why);
}

Tracer::Scope::Scope(Tracer &Tr, const char *Name, int Request)
    : T(Tr), Start(nowSeconds()) {
  if (!T.Enabled)
    return;
  Index = static_cast<int>(T.Spans.size());
  // Inner spans inherit the request of the span that caused them.
  int Req = Request;
  if (Req < 0 && T.Open >= 0)
    Req = T.Spans[static_cast<std::size_t>(T.Open)].Request;
  const double Rel = Start - T.Origin;
  T.Spans.push_back(Span{Name, Rel, Rel, T.Open, Req});
  T.Open = Index;
}

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  Span &S = T.Spans[static_cast<std::size_t>(Index)];
  S.End = nowSeconds() - T.Origin;
  T.Open = S.Parent;
}

double Tracer::Scope::elapsed() const { return nowSeconds() - Start; }

bool Tracer::writeJson(const std::string &Path, const std::string &Workload,
                       long long Seed) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F,
               "{\"workload\": \"%s\", \"seed\": %lld, "
               "\"time_unit\": \"s\",\n \"spans\": [\n",
               Workload.c_str(), Seed);
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"request\": %d}%s\n",
                 I, S.Name, S.Start, S.End, S.Parent, S.Request,
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, " ]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
