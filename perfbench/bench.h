//===- bench.h - Shared plumbing of the repository benchmark ----*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constants shared by the workloads, statistics, process measurements, the
/// span recorder of the traced run, and the report each workload fills in.
/// The workloads live in library.cpp (corpus-ilp, corpus-sat) and swpd.cpp
/// (swpd-mixed); main.cpp prints the report.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_PERFBENCH_BENCH_H
#define SWP_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <sched.h>
#include <string>
#include <vector>

namespace perfbench {

/// Per-T wall-clock limit of every solve, far out of reach.  Below 1e8 s the
/// driver arms a wall-clock probe deadline and the B&B an LP deadline;
/// either would make answers depend on machine load.  Only the per-T node
/// or conflict budgets bound a solve.
inline constexpr double TimeLimitPerT = 1e9;
/// Steady-state iterations the cycle-level replay simulates per checked
/// schedule.
inline constexpr int ReplayIterations = 8;
/// Fresh set-up repetitions in the burst before the first pass or phase.
/// More follow every pass (one) or phase cycle (a burst), so that setup_s,
/// the median of all the repetitions, samples the machine over the whole
/// run: on a shared virtual machine the same set-up took 28-56 ms within
/// one second.
inline constexpr int SetupBurst = 5;
/// The speed probe's time over a quiet run on the machine the benchmark was
/// tuned on, a 4-vCPU virtual machine on a 2.1 GHz Xeon host.  Timing
/// metrics are reported at the machine speed at which the probe takes this
/// long (see SpeedScale), so on that machine they read close to the
/// measured values.
inline constexpr double ProbeNominalSeconds = 5.0e-3;
/// latency_tail_ms is this percentile of the per-loop or per-request times.
/// A fixed p90 keeps hundreds of samples beyond it; p99 of one 1066-loop
/// corpus moved 0.36-0.98 IQR/median across seeds.
inline constexpr double TailPercentile = 90;

double median(std::vector<double> V);
/// Linear-interpolated percentile \p P (0..100) of \p V.
double percentileOf(std::vector<double> V, double P);
double geometricMean(const std::vector<double> &V);

double nowSeconds();
/// CPU time of the whole process (all threads), seconds.
double processCpuSeconds();
/// CPU time of the calling thread, seconds.
double threadCpuSeconds();
/// Peak resident set size of this process so far, MB.
double peakRssMb();
/// Seconds one run of the speed probe takes: shortest paths from four
/// sources over a fixed 4096-node graph.  It does the kind of work the
/// solvers do (pointer chasing, branches, a few hundred KB of data) but runs
/// none of the program's code, so its time moves only with the speed the
/// machine gives the benchmark.
double probeSeconds();

/// Restricts the calling thread, and every thread it creates while the
/// object lives, to one CPU of those it may run on (the \p Index-th,
/// modulo their number); restores the previous set when destroyed.  A
/// closed loop of one client and the daemon then pays thread hand-offs as
/// context switches instead of cross-CPU wake-ups, whose latency on a
/// shared virtual machine swung closed-loop throughput 2-4x between runs of
/// identical code.
class OneCpu {
public:
  explicit OneCpu(int Index);
  ~OneCpu();
  OneCpu(const OneCpu &) = delete;
  OneCpu &operator=(const OneCpu &) = delete;
  /// The CPU in use, or -1 if the affinity could not be changed.
  int cpu() const { return Cpu; }

private:
  cpu_set_t Saved;
  int Cpu = -1;
};

/// Scales a run's times to one fixed machine speed.  The shared host gives
/// the benchmark a CPU whose speed drifts by a fifth or more over minutes,
/// which no repetition within a run averages out: ten corpus-sat runs of
/// one build read 10.4-13.5k loops/s within six minutes.  The speed probe,
/// sampled between passes or phases, follows that drift.  Each
/// sample is the fastest of three probe runs, which drops brief stalls; the
/// run's probe time is the median of its samples.
class SpeedScale {
public:
  /// Runs the probe three times and keeps the fastest.
  void sample();
  std::size_t samples() const { return Points.size(); }
  /// The median sample, seconds.
  double probeTypicalSeconds() const;
  /// Reported time over measured time: ProbeNominalSeconds over the run's
  /// probe time.
  double factor() const;

private:
  std::vector<double> Points;
};

/// One traced call.  Times are seconds since the recorder's origin.
struct Span {
  const char *Name;
  double Start;
  double End;
  int Parent;
  int Request;
};

/// In-memory span recorder of the traced run: spans are appended on begin,
/// closed on end, and written out once the run is over.  Disabled, a scope
/// only reads the clock (for elapsed()).
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  class Scope {
  public:
    Scope(Tracer &T, const char *Name, int Request = -1);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Seconds since this scope opened.
    double elapsed() const;

  private:
    Tracer &T;
    int Index = -1;
    double Start = 0.0;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as JSON to \p Path; false on I/O failure.
  bool writeJson(const std::string &Path, const std::string &Workload,
                 long long Seed) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  int Open = -1;
  double Origin = nowSeconds();
};

/// One metric as reported: value, unit and the samples behind it.
struct Metric {
  double Value = 0.0;
  std::string Unit;
  std::size_t Samples = 0;
  /// Optional detail printed beside the metric (e.g. "p99").
  std::string Note;
};

/// What a workload run produced.
struct Report {
  std::map<std::string, Metric> Metrics;
  /// Deterministic outcomes and counters, compared by run.py against the
  /// guard file and across passes within the run.
  std::map<std::string, double> Outcomes;
  /// The workload's fixed parameters, recorded with every result.
  std::map<std::string, std::string> Knobs;
  /// Derived sizes and diagnostics worth recording with the result.
  std::map<std::string, std::string> Notes;
  std::int64_t Attempted = 0;
  std::int64_t Failed = 0;
  /// Every failed independent check, one line each.
  std::vector<std::string> CheckFailures;

  void set(const std::string &Name, double Value, const std::string &Unit,
           std::size_t Samples, std::string Note = "") {
    Metrics[Name] = Metric{Value, Unit, Samples, std::move(Note)};
  }
  void knob(const std::string &Name, std::string Value) {
    Knobs[Name] = std::move(Value);
  }
  void knob(const std::string &Name, double Value);
  void fail(const std::string &Why);
};

/// The run's arguments.
struct RunContext {
  std::string Workload;
  long long Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  /// Directory for scratch files (snapshots, sockets, trace output).
  std::string WorkDir;
};

/// Reports the timing metrics of \p Rep (loops_per_s, latency_p50_ms,
/// latency_tail_ms, cpu_ms_per_loop, setup_s) at the fixed machine speed:
/// times are multiplied by \p S's factor and the rate divided by it.  The
/// measured values stay in the notes as "measured.<metric>".
void scaleTimings(Report &Rep, const SpeedScale &S);

Report runLibraryWorkload(const RunContext &Ctx);
Report runSwpdWorkload(const RunContext &Ctx);

} // namespace perfbench

#endif // SWP_PERFBENCH_BENCH_H
