//===- Suites.cpp - Compiled-program suites: MEMOIR vs ADE ----------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a fixed list of registry programs, each compiled twice — as
/// written (the MEMOIR baseline) and through core::runADE — on the bytecode
/// VM, interleaving the two builds per program and alternating which goes
/// first between repetitions. Every @kernel checksum is compared with a
/// reference computed by the tree-walking interpreter on the un-enumerated
/// module; a mismatch or an interp::InterpError is a failed run, never an
/// abort.
///
//===----------------------------------------------------------------------===//

#include "Perfbench.h"

#include "bench/Benchmarks.h"
#include "collections/MemoryTracker.h"
#include "core/Pipeline.h"
#include "interp/InterpError.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "runtime/Telemetry.h"
#include "support/Hashing.h"
#include "vm/Engine.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>

using namespace ade;
using namespace perfbench;

namespace {

uint64_t scaled(uint64_t Base, uint64_t Percent, uint64_t Min) {
  uint64_t V = Base * Percent / 100;
  return V < Min ? Min : V;
}

/// How the registry draws one program's input: the same bench/Workloads.h
/// generator and sizes, with the generator seed as a parameter. The
/// registry's own seed is GenSeed; \c inputFor uses the registry itself at
/// the default seed, and `adebench check-inputs` checks that this table
/// reproduces it.
struct Recipe {
  const char *Abbrev;
  uint64_t GenSeed;
  std::function<bench::Workload(uint64_t S, uint64_t Seed)> Make;
};

/// Input size (registry percent) of every program. At 10 the working sets
/// stay cache-resident: at 40 the same runs moved by up to 25% with the
/// memory traffic of other tenants on the shared host, at 10 by 1-5%. It
/// also keeps MCBM, whose recursive augmenting-path search exceeds the
/// interpreter's 4096 call-depth budget at full size, well inside it.
constexpr uint64_t Scale = 10;

const std::vector<Recipe> &recipes() {
  using namespace ade::bench;
  static const std::vector<Recipe> Table = {
      {"BC", 11,
       [](uint64_t S, uint64_t Seed) {
         Workload W = connectedGraph(scaled(8000, S, 16),
                                     scaled(32000, S, 32), Seed);
         W.P0 = 8;
         return W;
       }},
      {"BFS", 12,
       [](uint64_t S, uint64_t Seed) {
         Workload W = connectedGraph(scaled(50000, S, 16),
                                     scaled(200000, S, 32), Seed);
         W.P0 = scrambleLabel(0);
         return W;
       }},
      {"BP", 13,
       [](uint64_t S, uint64_t Seed) {
         Workload W = bipartiteGraph(scaled(10000, S, 16),
                                     scaled(60000, S, 64), Seed);
         W.P0 = 10;
         return W;
       }},
      {"CC", 14,
       [](uint64_t S, uint64_t Seed) {
         return connectedGraph(scaled(20000, S, 16), scaled(80000, S, 32),
                               Seed);
       }},
      {"CD", 15,
       [](uint64_t S, uint64_t Seed) {
         Workload W = connectedGraph(scaled(15000, S, 16),
                                     scaled(60000, S, 32), Seed);
         W.P0 = 6;
         return W;
       }},
      {"FIM", 16,
       [](uint64_t S, uint64_t Seed) {
         return transactions(scaled(30000, S, 20), 12, scaled(2000, S, 50),
                             Seed);
       }},
      {"IS", 17,
       [](uint64_t S, uint64_t Seed) {
         return connectedGraph(scaled(50000, S, 16), scaled(200000, S, 32),
                               Seed);
       }},
      {"KC", 18,
       [](uint64_t S, uint64_t Seed) {
         Workload W =
             rmatGraph(scaled(30000, S, 32), scaled(150000, S, 64), Seed);
         W.P0 = 4;
         return W;
       }},
      {"KT", 19,
       [](uint64_t S, uint64_t Seed) {
         Workload W = erdosRenyiGraph(scaled(5000, S, 16),
                                      scaled(30000, S, 32), Seed);
         W.P0 = 4;
         return W;
       }},
      {"MCBM", 20,
       [](uint64_t S, uint64_t Seed) {
         return bipartiteGraph(scaled(10000, S, 16), scaled(50000, S, 32),
                               Seed);
       }},
      {"MST", 21,
       [](uint64_t S, uint64_t Seed) {
         return weightedGraph(scaled(30000, S, 16), scaled(120000, S, 32),
                              Seed);
       }},
      {"PP", 22,
       [](uint64_t S, uint64_t Seed) {
         return flowNetwork(scaled(12, S, 3), scaled(24, S, 4), Seed);
       }},
      {"PR", 23,
       [](uint64_t S, uint64_t Seed) {
         Workload W = connectedGraph(scaled(20000, S, 16),
                                     scaled(100000, S, 32), Seed);
         W.P0 = 10;
         return W;
       }},
      {"PTA", 24,
       [](uint64_t S, uint64_t Seed) {
         return pointsToConstraints(scaled(12000, S, 40), scaled(48, S, 8),
                                    scaled(24000, S, 60), Seed);
       }},
      {"SSSP", 25,
       [](uint64_t S, uint64_t Seed) {
         Workload W = weightedGraph(scaled(30000, S, 16),
                                    scaled(120000, S, 32), Seed);
         W.P0 = scrambleLabel(0);
         return W;
       }},
      {"TC", 26,
       [](uint64_t S, uint64_t Seed) {
         return erdosRenyiGraph(scaled(4000, S, 16), scaled(60000, S, 32),
                                Seed);
       }},
  };
  return Table;
}

const Recipe &recipeFor(const std::string &Abbrev) {
  for (const Recipe &R : recipes())
    if (Abbrev == R.Abbrev)
      return R;
  throw std::runtime_error("no such suite program: " + Abbrev);
}

const bench::BenchmarkSpec &specFor(const std::string &Abbrev) {
  const bench::BenchmarkSpec *B = bench::findBenchmark(Abbrev);
  if (!B)
    throw std::runtime_error("program missing from the registry: " + Abbrev);
  return *B;
}

/// The input of draw \p Draw at \p Seed: the registry's own at seed 0,
/// otherwise a redraw from the same generator and sizes.
bench::Workload inputFor(const std::string &Abbrev, uint64_t Seed,
                         uint64_t Draw) {
  const Recipe &R = recipeFor(Abbrev);
  if (Seed == 0)
    return specFor(Abbrev).MakeInput(Scale);
  return R.Make(Scale, hashCombine(hashCombine(R.GenSeed, Seed), Draw));
}

std::unique_ptr<ir::Module> parseOrThrow(const std::string &Source) {
  std::vector<std::string> Errors;
  std::unique_ptr<ir::Module> M = parser::parseModule(Source, Errors);
  if (!M || !ir::verifyModule(*M, Errors))
    throw std::runtime_error("suite program does not parse: " +
                             (Errors.empty() ? std::string("?") : Errors[0]));
  return M;
}

/// One measured @build + @kernel execution.
struct RunOut {
  double InitS = 0;
  double RoiS = 0;
  uint64_t Checksum = 0;
  uint64_t PeakBytes = 0;
  runtime::InterpStats Stats;
  runtime::ProbeCounters Probes;
  /// Telemetry channel latency sums and op counts over @kernel.
  std::map<std::string, uint64_t> ChannelNs;
  uint64_t SampledOps = 0;
};

std::string channelName(const runtime::Telemetry::ChannelKey &K) {
  return std::string(runtime::rtKindName(K.first)) + "." +
         ir::selectionName(K.second);
}

/// Copies \p In into three engine-owned sequences; returns the @build
/// arguments.
std::vector<uint64_t> buildArgs(vm::Engine &E, ir::Module &M,
                                const bench::Workload &In) {
  ir::Type *SeqTy = M.types().seqTy(M.types().intTy(64, /*Signed=*/false));
  auto Fill = [&](const std::vector<uint64_t> &Data) {
    auto *Seq = static_cast<runtime::RtSeq *>(E.newCollection(SeqTy));
    for (uint64_t V : Data)
      Seq->append(V);
    return vm::Engine::collToBits(Seq);
  };
  return {Fill(In.A), Fill(In.B), Fill(In.C), In.P0, In.P1};
}

/// Runs @build then @kernel of \p M on \p In in a fresh VM. Throws
/// interp::InterpError when the program trips a guard rail.
RunOut runOnce(ir::Module &M, const bench::Workload &In, uint64_t MaxDepth,
               runtime::Telemetry *Tel) {
  interp::InterpOptions IO;
  IO.MaxDepth = MaxDepth;
  IO.Tel = Tel;
  MemoryTracker::instance().reset();
  vm::Engine E(vm::EngineKind::Vm, M, IO);
  std::vector<uint64_t> Args = buildArgs(E, M, In);

  RunOut Out;
  std::map<runtime::Telemetry::ChannelKey, runtime::Telemetry::Channel>
      Before;
  Clock::time_point T0 = Clock::now();
  E.callByName("build", Args);
  Out.InitS = secondsSince(T0);
  // Counts cover the region of interest only (Figure 4's framing).
  E.stats().reset();
  if (Tel)
    Before = Tel->channels();
  T0 = Clock::now();
  Out.Checksum = E.callByName("kernel", {});
  Out.RoiS = secondsSince(T0);
  Out.PeakBytes = MemoryTracker::instance().peakBytes();
  Out.Stats = E.stats();
  Out.Probes = E.probeTotals();
  if (Tel)
    for (const auto &[Key, Ch] : Tel->channels()) {
      auto It = Before.find(Key);
      uint64_t Ns = Ch.LatencyNs.sum(), Ops = Ch.SampledOps;
      if (It != Before.end()) {
        Ns -= It->second.LatencyNs.sum();
        Ops -= It->second.SampledOps;
      }
      if (Ops) {
        Out.ChannelNs[channelName(Key)] += Ns;
        Out.SampledOps += Ops;
      }
    }
  return Out;
}

/// One suite program: its input, expected checksum and both builds.
struct Program {
  std::string Abbrev;
  bench::Workload Input;
  uint64_t Expected = 0;
  std::unique_ptr<ir::Module> Memoir, Ade;
  core::TransformResult Transform;
  /// Counts of the first run of each build, which later runs must repeat.
  bool HaveCounts[2] = {false, false};
  std::map<std::string, uint64_t> Counts[2];
};

/// Times set-up of every program once: parse of both builds, runADE, and
/// construction of both engines. Keeps the compiled modules.
void setUp(std::vector<Program> &Progs, Report &R) {
  double ParseS = 0, AdeS = 0, EngineS = 0;
  std::map<std::string, double> PassS;
  for (Program &P : Progs) {
    const std::string &Source = specFor(P.Abbrev).Source;
    Clock::time_point T0 = Clock::now();
    P.Memoir = parseOrThrow(Source);
    P.Ade = parseOrThrow(Source);
    ParseS += secondsSince(T0);

    T0 = Clock::now();
    core::PipelineResult Pipe = core::runADE(*P.Ade);
    AdeS += secondsSince(T0);
    P.Transform = Pipe.Transform;
    for (const TimerGroup::Phase &Ph : Pipe.Timing.phases())
      PassS[Ph.Name] += Ph.Seconds;

    T0 = Clock::now();
    {
      vm::Engine EM(vm::EngineKind::Vm, *P.Memoir);
      vm::Engine EA(vm::EngineKind::Vm, *P.Ade);
    }
    EngineS += secondsSince(T0);
  }
  R.sample("setup", ParseS + AdeS + EngineS);
  R.sample("parser.parse", ParseS);
  R.sample("core.ade", AdeS);
  R.sample("vm.engine_init", EngineS);
  for (const auto &[Name, S] : PassS)
    R.sample("core.pass." + Name, S);
}

void recordCounts(Program &P, bool UseAde, const RunOut &Out, Report &R) {
  std::map<std::string, uint64_t> C;
  const runtime::InterpStats &S = Out.Stats;
  C["instructions"] = S.InstructionsExecuted;
  C["sparse"] = S.Sparse;
  C["dense"] = S.Dense;
  for (unsigned I = 0; I != runtime::InterpStats::NumCats; ++I)
    C[std::string("op.") + runtime::opCategoryName(runtime::OpCategory(I))] =
        S.ByCategory[I];
  C["probes"] = Out.Probes.Probes;
  C["rehashes"] = Out.Probes.Rehashes;
  C["peak_bytes"] = Out.PeakBytes;
  if (!P.HaveCounts[UseAde]) {
    P.HaveCounts[UseAde] = true;
    P.Counts[UseAde] = C;
    const char *Build = UseAde ? "ade" : "memoir";
    for (const auto &[Name, V] : C)
      R.Counts[std::string(Build) + "." + Name] += V;
  } else if (C != P.Counts[UseAde]) {
    R.fail(P.Abbrev + "/" + (UseAde ? "ade" : "memoir") +
           ": counts differ between repetitions");
  }
}

/// One measured run of one build, with failure accounting.
bool measure(Program &P, bool UseAde, const Options &Opt,
             runtime::Telemetry *Tel, RunOut &Out, Report &R) {
  const char *Build = UseAde ? "ade" : "memoir";
  ++R.Attempted;
  try {
    Out = runOnce(UseAde ? *P.Ade : *P.Memoir, P.Input, Opt.MaxDepth, Tel);
  } catch (const interp::InterpError &E) {
    R.fail(P.Abbrev + "/" + Build + ": " + E.what());
    return false;
  }
  if (Out.Checksum != P.Expected) {
    R.fail(P.Abbrev + "/" + Build + ": checksum " +
           std::to_string(Out.Checksum) + " != reference " +
           std::to_string(P.Expected));
    return false;
  }
  return true;
}

/// Nanoseconds per instruction of an arithmetic-only loop on the VM: the
/// dispatch cost every instruction pays (best of five).
double dispatchNsPerInstr() {
  const char *Arith = R"(fn @main(%n: u64) -> u64 {
  %zero = const 0 : u64
  %one = const 1 : u64
  %two = const 2 : u64
  %sum = forrange %zero, %n -> [%i] iter(%acc = %zero) {
    %a = xor %i, %one
    %b = add %a, %two
    %c = shl %i, %one
    %d = xor %c, %b
    %e = add %i, %two
    %f = add %e, %d
    %z = add %acc, %f
    yield %z
  }
  ret %sum
})";
  std::unique_ptr<ir::Module> M = parseOrThrow(Arith);
  double Best = 0;
  for (int Trial = 0; Trial != 5; ++Trial) {
    vm::Engine E(vm::EngineKind::Vm, *M);
    Clock::time_point T0 = Clock::now();
    E.callByName("main", {uint64_t(2000000)});
    double Ns = secondsSince(T0) * 1e9 /
                double(std::max<uint64_t>(1, E.stats().InstructionsExecuted));
    if (Trial == 0 || Ns < Best)
      Best = Ns;
  }
  return Best;
}

/// Cost of one steady-clock read, which every traced op's latency
/// includes once.
double clockReadNs() {
  constexpr int N = 1 << 20;
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I != N; ++I)
    (void)runtime::Telemetry::nowNanos();
  return secondsSince(T0) * 1e9 / N;
}

/// The tree-walking interpreter's @kernel result for \p Abbrev as
/// written (no runADE) on \p In: the independent reference.
uint64_t referenceChecksum(const std::string &Abbrev,
                           const bench::Workload &In) {
  std::unique_ptr<ir::Module> M = parseOrThrow(specFor(Abbrev).Source);
  interp::InterpOptions IO;
  IO.CollectStats = false;
  vm::Engine E(vm::EngineKind::Tree, *M, IO);
  std::vector<uint64_t> Args = buildArgs(E, *M, In);
  try {
    E.callByName("build", Args);
    return E.callByName("kernel", {});
  } catch (const interp::InterpError &Err) {
    throw std::runtime_error("reference run of " + Abbrev +
                             " failed: " + Err.what());
  }
}

/// Draws every program's input and takes its expected checksum from
/// \p Opt.Expected or, failing that, from the reference run (untimed).
std::vector<Program> loadPrograms(const Options &Opt) {
  std::vector<Program> Progs;
  for (const std::string &Abbrev : Opt.Programs) {
    Program P;
    P.Abbrev = Abbrev;
    P.Input = inputFor(Abbrev, Opt.Seed, Opt.Draw);
    auto It = Opt.Expected.find(Abbrev);
    P.Expected = It != Opt.Expected.end() ? It->second
                                          : referenceChecksum(Abbrev, P.Input);
    Progs.push_back(std::move(P));
  }
  return Progs;
}

} // namespace

int perfbench::runReference(const Options &Opt) {
  for (const std::string &Abbrev : Opt.Programs)
    std::printf("%s %llu\n", Abbrev.c_str(),
                (unsigned long long)referenceChecksum(
                    Abbrev, inputFor(Abbrev, Opt.Seed, Opt.Draw)));
  return 0;
}

int perfbench::checkInputs() {
  int Bad = 0;
  for (const Recipe &R : recipes()) {
    bench::Workload Mine = R.Make(Scale, R.GenSeed);
    bench::Workload Reg = specFor(R.Abbrev).MakeInput(Scale);
    if (Mine.A != Reg.A || Mine.B != Reg.B || Mine.C != Reg.C ||
        Mine.P0 != Reg.P0 || Mine.P1 != Reg.P1) {
      std::fprintf(stderr, "check-inputs: %s differs from the registry\n",
                   R.Abbrev);
      ++Bad;
    }
  }
  return Bad;
}

void perfbench::runSuite(const Options &Opt, Report &R) {
  std::vector<Program> Progs = loadPrograms(Opt);

  // Set-up is milliseconds; repeat it so its median is steady.
  for (int I = 0; I != 25; ++I) {
    if (I % 8 == 0)
      R.sample("calib", calibrationSeconds());
    setUp(Progs, R);
  }
  for (const Program &P : Progs) {
    R.Counts["core.enumerations"] += P.Transform.EnumerationsCreated;
    R.Counts["core.enc_sites"] += P.Transform.EncInserted;
    R.Counts["core.dec_sites"] += P.Transform.DecInserted;
    R.Counts["core.add_sites"] += P.Transform.AddInserted;
    R.Counts["core.rte_skipped"] += P.Transform.TranslationsSkipped;
  }

  // The untraced pass gives every end-to-end sample; a traced run spends
  // the second half of its budget with a telemetry sink on the ADE build.
  double Budget = Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds;
  for (int Traced = 0; Traced != 1 + int(Opt.Trace); ++Traced) {
    Clock::time_point Start = Clock::now();
    double LastRep = 0;
    for (unsigned Rep = 0;
         Rep == 0 || secondsSince(Start) + LastRep <= Budget; ++Rep) {
      Clock::time_point RepStart = Clock::now();
      if (!Traced)
        R.sample("calib", calibrationSeconds());
      std::map<std::string, uint64_t> ChannelNs;
      uint64_t SampledOps = 0;
      for (Program &P : Progs) {
        RunOut Outs[2];
        bool Ok[2] = {false, false};
        for (unsigned K = 0; K != 2; ++K) {
          bool UseAde = (Rep + K) % 2 == 1;
          // Every op sampled: the channel sums are then whole latencies.
          std::optional<runtime::Telemetry> Tel;
          if (Traced && UseAde)
            Tel.emplace(runtime::Telemetry::Options{0, 4096});
          Ok[UseAde] = measure(P, UseAde, Opt, Tel ? &*Tel : nullptr,
                               Outs[UseAde], R);
          if (Ok[UseAde])
            recordCounts(P, UseAde, Outs[UseAde], R);
        }
        if (Traced) {
          if (Ok[1]) {
            R.sample(P.Abbrev + ".ade.roi_traced", Outs[1].RoiS);
            for (const auto &[Name, Ns] : Outs[1].ChannelNs)
              ChannelNs[Name] += Ns;
            SampledOps += Outs[1].SampledOps;
          }
          continue;
        }
        for (unsigned UseAde = 0; UseAde != 2; ++UseAde) {
          if (!Ok[UseAde])
            continue;
          std::string Key = P.Abbrev + (UseAde ? ".ade." : ".memoir.");
          R.sample(Key + "init", Outs[UseAde].InitS);
          R.sample(Key + "roi", Outs[UseAde].RoiS);
        }
        if (Ok[0] && Ok[1]) {
          R.sample(P.Abbrev + ".roi_ratio", Outs[0].RoiS / Outs[1].RoiS);
          R.sample(P.Abbrev + ".total_ratio",
                   (Outs[0].InitS + Outs[0].RoiS) /
                       (Outs[1].InitS + Outs[1].RoiS));
        }
      }
      if (Traced) {
        for (const auto &[Name, Ns] : ChannelNs)
          R.sample("coll.time." + Name, double(Ns) * 1e-9);
        R.sample("trace.sampled_ops", double(SampledOps));
      }
      LastRep = secondsSince(RepStart);
    }
  }
  if (Opt.Trace) {
    R.Layer["vm.dispatch_ns_per_instr"] = dispatchNsPerInstr();
    R.Layer["trace.clock_read_ns"] = clockReadNs();
  }
}
