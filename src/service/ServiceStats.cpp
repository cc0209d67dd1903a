//===- ServiceStats.cpp - Service observability ---------------------------===//

#include "swp/service/ServiceStats.h"

#include "swp/support/Format.h"
#include "swp/support/TextTable.h"

#include <algorithm>

using namespace swp;

void LatencyHistogram::add(double Seconds) {
  double Us = Seconds * 1e6;
  int B = 0;
  while (B < NumBuckets - 1 && Us >= 2.0) {
    Us /= 2.0;
    ++B;
  }
  ++Buckets[static_cast<std::size_t>(B)];
  ++Count;
  TotalSeconds += Seconds;
  MaxSeconds = std::max(MaxSeconds, Seconds);
}

std::string LatencyHistogram::bucketLabel(int B) {
  double Us = static_cast<double>(1ULL << B);
  if (Us < 1e3)
    return strFormat("%.0fus", Us);
  if (Us < 1e6)
    return strFormat("%.0fms", Us / 1e3);
  return strFormat("%.1fs", Us / 1e6);
}

std::string ServiceStats::render() const {
  TextTable Counters;
  Counters.setHeader({"Metric", "Value"});
  Counters.addRow({"worker threads", std::to_string(Jobs)});
  Counters.addRow({"queue high-water", std::to_string(QueueHighWater)});
  Counters.addRow({"jobs submitted", std::to_string(Submitted)});
  Counters.addRow({"jobs completed", std::to_string(Completed)});
  Counters.addRow({"cache hits", std::to_string(CacheHits)});
  Counters.addRow({"cache misses", std::to_string(CacheMisses)});
  Counters.addRow({"cache size", std::to_string(CacheSize)});
  Counters.addRow({"cache evictions", std::to_string(CacheEvictions)});
  Counters.addRow({"cancellations", std::to_string(Cancellations)});
  Counters.addRow({"censored proofs", std::to_string(CensoredProofs)});
  if (PortfolioHeuristicWins + PortfolioIlpWins + PortfolioFallbacks > 0) {
    Counters.addRow({"portfolio heuristic wins",
                     std::to_string(PortfolioHeuristicWins)});
    Counters.addRow({"portfolio ilp wins",
                     std::to_string(PortfolioIlpWins)});
    Counters.addRow({"portfolio fallbacks",
                     std::to_string(PortfolioFallbacks)});
  }
  if (SearchNodes > 0)
    Counters.addRow({"search nodes", std::to_string(SearchNodes)});
  if (FaultedJobs + TypedErrors + WatchdogRetries + FallbackSlackWins +
          FallbackImsWins + DispatchFaults >
      0) {
    Counters.addRow({"faulted jobs", std::to_string(FaultedJobs)});
    Counters.addRow({"typed errors", std::to_string(TypedErrors)});
    Counters.addRow({"watchdog retries", std::to_string(WatchdogRetries)});
    Counters.addRow({"fallback slack wins",
                     std::to_string(FallbackSlackWins)});
    Counters.addRow({"fallback ims wins", std::to_string(FallbackImsWins)});
    Counters.addRow({"dispatch faults", std::to_string(DispatchFaults)});
  }
  if (LpSolves > 0) {
    Counters.addRow({"lp pivots", std::to_string(LpPivots)});
    Counters.addRow({"lp refactorizations",
                     std::to_string(LpRefactorizations)});
    Counters.addRow({"lp solves", std::to_string(LpSolves)});
    Counters.addRow(
        {"lp warm-start rate",
         strFormat("%.1f%%", 100.0 * static_cast<double>(LpWarmSolves) /
                                 static_cast<double>(LpSolves))});
  }
  Counters.addRow({"queue wait total",
                   strFormat("%.3fms", QueueWaitSeconds * 1e3)});
  Counters.addRow({"mean latency",
                   strFormat("%.3fms", Latency.meanSeconds() * 1e3)});
  Counters.addRow({"max latency",
                   strFormat("%.3fms", Latency.MaxSeconds * 1e3)});

  std::string Out = Counters.render();
  if (Latency.Count > 0) {
    TextTable Hist;
    Hist.setHeader({"Latency >=", "Loops"});
    for (int B = 0; B < LatencyHistogram::NumBuckets; ++B)
      if (Latency.Buckets[static_cast<std::size_t>(B)] != 0)
        Hist.addRow({LatencyHistogram::bucketLabel(B),
                     std::to_string(
                         Latency.Buckets[static_cast<std::size_t>(B)])});
    Out += "\n" + Hist.render();
  }
  return Out;
}
