//===- Serve.cpp - Serving workload: closed and open loop -----------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process, four threads: a 3-worker serve::Server and this thread as
/// the only load generator. The phased Zipfian streams of
/// serve::buildStream (ProgramCalls on) are offered two ways:
///
///  - closed loop, with at most Window requests in flight (below the queue
///    capacity, so admission never sheds): phase 1 (bulk inserts) and
///    phase 2 (70% lookups, 20% graph queries, 10% @serve calls) each give
///    a wall time, i.e. capacity. This runs for a server over the
///    ADE-compiled @serve and one over the module as written (MEMOIR);
///  - open loop (traced runs only; latency is a per-layer metric), phase 2
///    again at the fixed rate OpenLoopRps, about a third of the ADE
///    server's closed-loop capacity when the benchmark was written; each
///    request's latency runs from the time it was due.
///
/// Every stream digest is compared with serve::runOracle over the
/// un-enumerated module on the tree-walker; a mismatch or any shed,
/// deadline, budget or error response is a failure.
///
/// Phase times and latency percentiles are taken per window of
/// WindowRequests requests (medians over windows), and the generator runs
/// on a CPU of its own (CpuSplit): on the shared 4-vCPU host the benchmark
/// was tuned on, a thread is stalled for milliseconds now and then, and
/// without both a single stall decided a run's p99.
///
//===----------------------------------------------------------------------===//

#include "Perfbench.h"

#include "core/Pipeline.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "runtime/Telemetry.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Span.h"
#include "support/Histogram.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include <pthread.h>
#include <sched.h>

using namespace ade;
using namespace perfbench;

namespace {

/// The request handler, the same collection-bound histogram kernel as
/// examples/serve.memoir, kept here so the benchmark's program cannot
/// change under it.
const char *ServeSource = R"(
fn @serve(%key: u64) -> u64 {
  %input = new Seq<u64>
  %zero = const 0 : u64
  %n = const 64 : u64
  %one = const 1 : u64
  %scramble = const 2654435761 : u64
  %mod = const 1024 : u64
  forrange %zero, %n -> [%i] {
    %a = add %key, %i
    %b = mul %a, %scramble
    %c = rem %b, %mod
    append %input, %c
    yield
  }
  %hist = new Map<u64, u64>
  foreach %input -> [%i, %val] {
    %cond = has %hist, %val
    %f0 = if %cond {
      %f = read %hist, %val
      yield %f
    } else {
      insert %hist, %val
      %z = const 0 : u64
      yield %z
    }
    %f1 = add %f0, %one
    write %hist, %val, %f1
    yield
  }
  %sz = size %hist
  %k1 = mul %key, %scramble
  %kr = rem %k1, %mod
  %hit = has %hist, %kr
  %bonus = if %hit {
    %v = read %hist, %kr
    yield %v
  } else {
    %z2 = const 0 : u64
    yield %z2
  }
  %shift = const 4096 : u64
  %t = mul %sz, %shift
  %r = add %t, %bonus
  ret %r
}
)";

constexpr unsigned Workers = 3;
/// Deep enough to absorb a few milliseconds of host stall at the
/// open-loop rate without shedding.
constexpr size_t QueueCapacity = 8192;
/// Closed-loop in-flight window, below QueueCapacity.
constexpr uint64_t Window = 64;
/// Open-loop offered rate in requests per second (a constant, so every
/// commit is offered the same load).
constexpr double OpenLoopRps = 200000;
/// Requests per measurement window (20 ms at OpenLoopRps); a stall
/// inflates the window it hits, not the median over windows.
constexpr size_t WindowRequests = 4096;

serve::WorkloadSpec makeSpec(uint64_t Seed) {
  serve::WorkloadSpec S;
  S.Seed = Seed;
  S.Streams = 8;
  S.InsertsPerStream = 4096;
  S.BulkCount = 16;
  S.ReadsPerStream = 16384;
  S.ProgramCalls = true;
  // A key space larger than the default 2^16 so phase 1 keeps growing
  // the shards (rehash, epoch retire) instead of rewriting present keys.
  S.Geo.KeyUniverse = 1 << 18;
  return S;
}

serve::ServeConfig makeConfig(const serve::WorkloadSpec &Spec) {
  serve::ServeConfig C;
  C.Threads = Workers;
  C.QueueCapacity = QueueCapacity;
  C.Engine = vm::EngineKind::Vm;
  C.Geo = Spec.Geo;
  return C;
}

std::unique_ptr<ir::Module> parseOrThrow() {
  std::vector<std::string> Errors;
  std::unique_ptr<ir::Module> M = parser::parseModule(ServeSource, Errors);
  if (!M || !ir::verifyModule(*M, Errors))
    throw std::runtime_error("@serve does not parse");
  return M;
}

/// One request's response slot, written once by the completing worker.
struct Slot {
  serve::Response Resp;
  uint64_t DueNs = 0;
  uint64_t DoneNs = 0;
};

/// Streams interleaved round-robin into the one generator's two phases.
struct Streams {
  std::vector<std::vector<serve::Request>> ByStream;
  std::vector<const serve::Request *> Phase[2];

  explicit Streams(const serve::WorkloadSpec &Spec) {
    for (uint32_t S = 0; S != Spec.Streams; ++S)
      ByStream.push_back(serve::buildStream(Spec, S));
    uint32_t Boundary = serve::phaseBoundary(Spec);
    for (int Ph = 0; Ph != 2; ++Ph) {
      size_t Lo = Ph ? Boundary : 0;
      size_t Hi = Ph ? ByStream[0].size() : Boundary;
      for (size_t I = Lo; I != Hi; ++I)
        for (const auto &Reqs : ByStream)
          Phase[Ph].push_back(&Reqs[I]);
    }
  }
};

using serve::ResponseStatus;

/// Splits the allowed CPUs between the load generator (the first) and
/// the server's workers (the rest), so the generator's busy loop never
/// competes with a worker. Workers inherit the mask of the thread that
/// constructs the server. A no-op on a single CPU.
class CpuSplit {
public:
  CpuSplit() {
    if (pthread_getaffinity_np(pthread_self(), sizeof(All), &All) != 0)
      return;
    CPU_ZERO(&Gen);
    CPU_ZERO(&Rest);
    int First = -1;
    for (int C = 0; C != CPU_SETSIZE; ++C) {
      if (!CPU_ISSET(C, &All))
        continue;
      if (First < 0)
        First = C;
      else
        CPU_SET(C, &Rest);
    }
    if (First < 0 || CPU_COUNT(&Rest) == 0)
      return;
    CPU_SET(First, &Gen);
    Active = true;
  }
  ~CpuSplit() { bind(All); }
  CpuSplit(const CpuSplit &) = delete;
  CpuSplit &operator=(const CpuSplit &) = delete;

  void bindWorkers() { bind(Rest); }
  void bindGenerator() { bind(Gen); }

private:
  void bind(const cpu_set_t &Set) {
    if (Active)
      pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
  }

  cpu_set_t All, Gen, Rest;
  bool Active = false;
};

/// Submits \p Reqs with at most Window in flight. Returns the phase time
/// as the window count times the median window time.
double closedLoop(serve::Server &S,
                  const std::vector<const serve::Request *> &Reqs,
                  std::vector<Slot> &Slots, Histogram *SubmitNs) {
  std::atomic<uint64_t> Done{0};
  std::vector<double> WindowS;
  Clock::time_point WindowStart = Clock::now();
  for (size_t I = 0; I != Reqs.size(); ++I) {
    if (I && I % WindowRequests == 0) {
      Clock::time_point Now = Clock::now();
      WindowS.push_back(std::chrono::duration<double>(Now - WindowStart)
                            .count());
      WindowStart = Now;
    }
    while (I - Done.load(std::memory_order_acquire) >= Window)
      std::this_thread::yield();
    Slot *Sl = &Slots[I];
    uint64_t A = SubmitNs ? runtime::Telemetry::nowNanos() : 0;
    bool Ok = S.submit(*Reqs[I], [Sl, &Done](const serve::Response &Resp) {
      Sl->Resp = Resp;
      Done.fetch_add(1, std::memory_order_release);
    });
    if (SubmitNs)
      SubmitNs->record(runtime::Telemetry::nowNanos() - A);
    if (!Ok) {
      Sl->Resp.Id = Reqs[I]->Id;
      Sl->Resp.Status = ResponseStatus::Shed;
      Done.fetch_add(1, std::memory_order_release);
    }
  }
  while (Done.load(std::memory_order_acquire) != Reqs.size())
    std::this_thread::yield();
  WindowS.push_back(secondsSince(WindowStart));
  S.drain();
  return median(WindowS) * double(WindowS.size());
}

/// Offers \p Reqs at OpenLoopRps regardless of completions; each slot
/// gets its due and completion times.
void openLoop(serve::Server &S, const std::vector<const serve::Request *> &Reqs,
              std::vector<Slot> &Slots, Histogram &LagNs) {
  std::atomic<uint64_t> Done{0};
  uint64_t Start = runtime::Telemetry::nowNanos() + 100000;
  for (size_t I = 0; I != Reqs.size(); ++I) {
    uint64_t Due = Start + uint64_t(double(I) * 1e9 / OpenLoopRps);
    uint64_t Now;
    while ((Now = runtime::Telemetry::nowNanos()) < Due) {
    }
    LagNs.record(Now - Due);
    Slot *Sl = &Slots[I];
    Sl->DueNs = Due;
    bool Ok = S.submit(*Reqs[I], [Sl, &Done](const serve::Response &Resp) {
      Sl->Resp = Resp;
      Sl->DoneNs = runtime::Telemetry::nowNanos();
      Done.fetch_add(1, std::memory_order_release);
    });
    if (!Ok) {
      Sl->Resp.Id = Reqs[I]->Id;
      Sl->Resp.Status = ResponseStatus::Shed;
      Sl->DoneNs = Due;
      Done.fetch_add(1, std::memory_order_release);
    }
  }
  while (Done.load(std::memory_order_acquire) != Reqs.size())
    std::this_thread::yield();
  S.drain();
}

/// What one server's run produced.
struct ServerRun {
  double InitS = 0;
  double RoiS = 0;
  serve::ServerStats Stats;
  uint64_t LockWaitNs = 0;
  uint64_t RetiredLive = 0;
  uint64_t EngineCalls = 0;
  /// Open-loop latency percentiles (us) of each window.
  std::vector<double> P50Us, P99Us;
};

double quantileUs(const Histogram &H, double Q) {
  return double(H.quantile(Q)) * 1e-3;
}

/// Counts the attempted requests of one phase and every terminal failure
/// (shed, deadline, budget, error) among them; returns the @serve calls
/// that succeeded.
uint64_t checkStatuses(const std::vector<const serve::Request *> &Reqs,
                       const std::vector<Slot> &Slots, const char *Label,
                       Report &R) {
  uint64_t Calls = 0;
  for (size_t I = 0; I != Reqs.size(); ++I) {
    ++R.Attempted;
    ResponseStatus Status = Slots[I].Resp.Status;
    if (Status == ResponseStatus::Ok || Status == ResponseStatus::NotFound) {
      Calls += Reqs[I]->Op == serve::RequestOp::ProgramCall;
      continue;
    }
    R.fail(std::string(Label) + ": request " + std::to_string(Reqs[I]->Id) +
           " ended " + serve::responseStatusName(Status));
  }
  return Calls;
}

/// Compares every stream's digest over phase 1 and one phase-2 run with
/// the oracle's.
void checkDigests(const Streams &St, const std::vector<Slot> &Inserts,
                  const std::vector<Slot> &Reads,
                  const std::vector<uint64_t> &Oracle, const char *Label,
                  Report &R) {
  std::vector<std::vector<serve::Response>> Resp(St.ByStream.size());
  for (size_t S = 0; S != St.ByStream.size(); ++S)
    Resp[S].resize(St.ByStream[S].size());
  for (int Ph = 0; Ph != 2; ++Ph)
    for (size_t I = 0; I != St.Phase[Ph].size(); ++I) {
      const serve::Request &Req = *St.Phase[Ph][I];
      Resp[Req.Stream][Req.SeqInStream] = (Ph ? Reads : Inserts)[I].Resp;
    }
  for (size_t S = 0; S != Resp.size(); ++S)
    if (serve::streamDigest(Resp[S]) != Oracle[S])
      R.fail(std::string(Label) + ": stream " + std::to_string(S) +
             " digest differs from the oracle");
}

/// Runs one fresh server: phase 1 and phase 2 closed-loop, then, when
/// \p Open, phase 2 again open-loop. Phase 2 only reads, so the second
/// pass sees the same store and must give the same digests.
ServerRun runServer(const ir::Module &M, const serve::WorkloadSpec &Spec,
                    const Streams &St, const std::vector<uint64_t> &Oracle,
                    bool Open, const char *Label, serve::FlightRecorder *Flight,
                    Histogram *SubmitNs, Histogram &LagNs, Report &R) {
  serve::ServeConfig Cfg = makeConfig(Spec);
  Cfg.Flight = Flight;
  std::vector<Slot> Inserts(St.Phase[0].size()), Reads(St.Phase[1].size());
  ServerRun Run;
  CpuSplit Cpus;
  Cpus.bindWorkers();
  serve::Server S(M, Cfg);
  Cpus.bindGenerator();
  Run.InitS = closedLoop(S, St.Phase[0], Inserts, SubmitNs);
  Run.RetiredLive = S.store().Domain.retiredApprox();
  Run.RoiS = closedLoop(S, St.Phase[1], Reads, SubmitNs);
  Run.EngineCalls = checkStatuses(St.Phase[0], Inserts, Label, R) +
                    checkStatuses(St.Phase[1], Reads, Label, R);
  checkDigests(St, Inserts, Reads, Oracle, Label, R);
  if (Open) {
    std::vector<Slot> OpenReads(St.Phase[1].size());
    openLoop(S, St.Phase[1], OpenReads, LagNs);
    for (size_t Lo = 0; Lo < OpenReads.size(); Lo += WindowRequests) {
      Histogram H;
      for (size_t I = Lo; I != std::min(Lo + WindowRequests, OpenReads.size());
           ++I)
        H.record(OpenReads[I].DoneNs - OpenReads[I].DueNs);
      Run.P50Us.push_back(quantileUs(H, 0.50));
      Run.P99Us.push_back(quantileUs(H, 0.99));
    }
    std::string OpenLabel = std::string(Label) + "-open";
    checkStatuses(St.Phase[1], OpenReads, OpenLabel.c_str(), R);
    checkDigests(St, Inserts, OpenReads, Oracle, OpenLabel.c_str(), R);
  }
  S.stop();
  Run.Stats = S.stats();
  for (const serve::ShardContention &C : S.store().Map.contention())
    Run.LockWaitNs += C.WaitTotalNs;
  for (const serve::ShardContention &C : S.store().Set.contention())
    Run.LockWaitNs += C.WaitTotalNs;
  return Run;
}

} // namespace

void perfbench::runServe(const Options &Opt, Report &R) {
  serve::WorkloadSpec Spec = makeSpec(Opt.Seed);
  std::unique_ptr<ir::Module> Memoir, Ade;

  // Set-up: parse both builds, runADE, construct both servers (their
  // worker threads start in the constructor). Repeated for a steady
  // median; the modules of the last repetition are kept.
  for (int I = 0; I != 50; ++I) {
    Clock::time_point T0 = Clock::now();
    Memoir = parseOrThrow();
    Ade = parseOrThrow();
    double ParseS = secondsSince(T0);
    T0 = Clock::now();
    core::PipelineResult Pipe = core::runADE(*Ade);
    double AdeS = secondsSince(T0);
    if (I % 8 == 0)
      R.sample("calib", calibrationSeconds());
    serve::ServeConfig Cfg = makeConfig(Spec);
    T0 = Clock::now();
    auto SM = std::make_unique<serve::Server>(*Memoir, Cfg);
    auto SA = std::make_unique<serve::Server>(*Ade, Cfg);
    double ServerS = secondsSince(T0);
    SM.reset();
    SA.reset();
    R.sample("setup", ParseS + AdeS + ServerS);
    R.sample("parser.parse", ParseS);
    R.sample("core.ade", AdeS);
    R.sample("serve.server_init", ServerS);
    for (const TimerGroup::Phase &Ph : Pipe.Timing.phases())
      R.sample("core.pass." + Ph.Name, Ph.Seconds);
    if (I == 0) {
      R.Counts["core.enumerations"] = Pipe.Transform.EnumerationsCreated;
      R.Counts["core.enc_sites"] = Pipe.Transform.EncInserted;
      R.Counts["core.dec_sites"] = Pipe.Transform.DecInserted;
      R.Counts["core.add_sites"] = Pipe.Transform.AddInserted;
      R.Counts["core.rte_skipped"] = Pipe.Transform.TranslationsSkipped;
    }
  }

  Streams St(Spec);
  // The reference: the un-enumerated module, sequentially, on the
  // tree-walker.
  std::vector<uint64_t> Oracle =
      serve::runOracle(*Memoir, Spec, makeConfig(Spec), vm::EngineKind::Tree);

  Histogram SubmitNs, LagNs, DepthAtAccept;
  Histogram SpanNs[size_t(serve::SpanKind::NumKinds)];
  double Budget = Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds;
  for (int Traced = 0; Traced != 1 + int(Opt.Trace); ++Traced) {
    Clock::time_point Start = Clock::now();
    double LastRound = 0;
    for (unsigned Round = 0;
         Round == 0 || secondsSince(Start) + LastRound <= Budget; ++Round) {
      Clock::time_point RoundStart = Clock::now();
      R.sample("calib", calibrationSeconds());
      if (Traced) {
        serve::FlightRecorder::Options FO;
        FO.Workers = Workers;
        FO.SampleEvery = 1;
        serve::FlightRecorder Flight(FO);
        ServerRun Run = runServer(*Ade, Spec, St, Oracle, false,
                                  "ade-traced", &Flight, nullptr, LagNs, R);
        R.sample("serve.ade.roi_traced", Run.RoiS);
        for (size_t K = 0; K != size_t(serve::SpanKind::NumKinds); ++K)
          SpanNs[K].merge(Flight.stageHistogram(serve::SpanKind(K)));
        LastRound = secondsSince(RoundStart);
        continue;
      }
      // Both builds, alternating which goes first; in a traced run the
      // ADE server also takes the open-loop pass (latency is per layer).
      ServerRun Runs[2];
      for (unsigned K = 0; K != 2; ++K) {
        bool UseAde = (Round + K) % 2 == 1;
        bool Layers = Opt.Trace && UseAde;
        Runs[UseAde] = runServer(UseAde ? *Ade : *Memoir, Spec, St, Oracle,
                                 Layers, UseAde ? "ade" : "memoir", nullptr,
                                 Layers ? &SubmitNs : nullptr, LagNs, R);
      }
      const ServerRun &A = Runs[1], &M = Runs[0];
      R.sample("serve.ade.init", A.InitS);
      R.sample("serve.ade.roi", A.RoiS);
      R.sample("serve.memoir.init", M.InitS);
      R.sample("serve.memoir.roi", M.RoiS);
      R.sample("serve.roi_ratio", M.RoiS / A.RoiS);
      R.sample("serve.total_ratio",
               (M.InitS + M.RoiS) / (A.InitS + A.RoiS));
      R.sample("serve.shard.lock_wait", double(A.LockWaitNs) * 1e-9);
      R.sample("serve.epoch.retired_live", double(A.RetiredLive));
      for (double V : A.P50Us)
        R.sample("serve.latency_p50_us", V);
      for (double V : A.P99Us)
        R.sample("serve.latency_p99_us", V);
      DepthAtAccept.merge(A.Stats.DepthAtAccept);
      R.Counts["serve.admission.shed"] += M.Stats.Shed + A.Stats.Shed;
      if (Round == 0) {
        R.Counts["serve.shard.rehashes"] = A.Stats.ShardRehashes;
        R.Counts["serve.engine.calls"] = A.EngineCalls;
        R.Counts["serve.requests.phase1"] = St.Phase[0].size();
        R.Counts["serve.requests.phase2"] = St.Phase[1].size();
      }
      LastRound = secondsSince(RoundStart);
    }
  }

  if (Opt.Trace) {
    R.Layer["serve.admission.submit_ns_p50"] = double(SubmitNs.p50());
    R.Layer["serve.admission.submit_ns_p99"] = double(SubmitNs.p99());
    R.Layer["serve.queue.depth_p50"] = double(DepthAtAccept.p50());
    R.Layer["serve.queue.depth_p99"] = double(DepthAtAccept.p99());
    R.Layer["gen.lag_us_p99"] = quantileUs(LagNs, 0.99);
    for (size_t K = 0; K != size_t(serve::SpanKind::NumKinds); ++K) {
      std::string Name =
          std::string("span.") + serve::spanKindName(serve::SpanKind(K));
      std::replace(Name.begin(), Name.end(), '-', '_');
      R.Layer[Name + "_ns_p50"] = double(SpanNs[K].p50());
      R.Layer[Name + "_ns_p99"] = double(SpanNs[K].p99());
    }
  }
}
