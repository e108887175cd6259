//===- adebench.cpp - Benchmark measurement process -----------------------===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One measurement process of the benchmark; perfbench/run.py starts
/// several and pools their output. Usage:
///
///   adebench suite --programs=CC,CD [--expect=CC:N,CD:N] --seed=S
///                  [--draw=J] --seconds=T [--trace] [--max-depth=D]
///   adebench serve --seed=S --seconds=T [--trace]
///   adebench reference --programs=CC,CD --seed=S [--draw=J]
///   adebench check-inputs
///
/// `suite` and `serve` print one JSON document: attempted/failed counts,
/// failure messages, raw samples per name, deterministic counts and
/// per-layer values. `reference` prints "<program> <checksum>" lines from
/// the tree-walking interpreter on the un-enumerated module.
///
//===----------------------------------------------------------------------===//

#include "Perfbench.h"

#include "support/Json.h"
#include "support/RawOstream.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <unordered_map>

using namespace ade;
using namespace perfbench;

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::calibrationSeconds() {
  std::unordered_map<uint64_t, uint64_t> Table;
  uint64_t X = 0x9e3779b97f4a7c15ULL, Sum = 0;
  auto Next = [&X] {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    return X >> 48;
  };
  Clock::time_point T0 = Clock::now();
  for (uint64_t I = 0; I != (1 << 15); ++I)
    Table[Next()] += I;
  for (int Round = 0; Round != 2; ++Round)
    for (uint64_t I = 0; I != (1 << 15); ++I) {
      auto It = Table.find(Next());
      Sum += It == Table.end() ? 1 : It->second;
    }
  for (uint64_t I = 0; I != (1 << 19); ++I)
    Sum = (Sum * 31 + I) ^ (Sum >> 7);
  double S = secondsSince(T0);
  // Keeps the loops from being optimized away.
  return Sum == 42 ? S + 1e-12 : S;
}

namespace {

std::vector<std::string> split(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  std::string Tok;
  while (std::getline(SS, Tok, Sep))
    if (!Tok.empty())
      Out.push_back(Tok);
  return Out;
}

bool parseUnsigned(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Out = std::strtoull(S.c_str(), nullptr, 10);
  return true;
}

int usage(const char *Why) {
  std::fprintf(stderr, "adebench: %s\n", Why);
  std::fprintf(stderr,
               "usage: adebench suite|serve|reference|check-inputs "
               "[--programs=A,B] [--expect=A:N,B:N] [--seed=S] [--draw=J] "
               "[--seconds=T] [--trace] [--max-depth=D]\n");
  return 2;
}

void writeReport(const Report &R) {
  RawOstream &OS = outs();
  json::Writer W(OS);
  W.beginObject();
  W.member("attempted", R.Attempted).member("failed", R.Failed);
  W.key("failures").beginArray();
  for (const std::string &F : R.Failures)
    W.value(F);
  W.endArray();
  W.key("samples").beginObject();
  for (const auto &[Name, Vs] : R.Samples) {
    W.key(Name).beginArray(/*Inline=*/true);
    for (double V : Vs)
      W.value(V);
    W.endArray();
  }
  W.endObject();
  W.key("counts").beginObject();
  for (const auto &[Name, V] : R.Counts)
    W.member(Name, V);
  W.endObject();
  W.key("layer").beginObject();
  for (const auto &[Name, V] : R.Layer)
    W.member(Name, V);
  W.endObject();
  W.endObject();
  OS << '\n';
  OS.flush();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage("missing command");
  std::string Cmd = Argv[1];
  Options Opt;
  for (int I = 2; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::char_traits<char>::length(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    if (const char *V = Value("--programs=")) {
      Opt.Programs = split(V, ',');
    } else if (const char *V = Value("--expect=")) {
      for (const std::string &Pair : split(V, ',')) {
        size_t Colon = Pair.find(':');
        uint64_t Sum = 0;
        if (Colon == std::string::npos ||
            !parseUnsigned(Pair.substr(Colon + 1), Sum))
          return usage("--expect wants PROGRAM:CHECKSUM pairs");
        Opt.Expected[Pair.substr(0, Colon)] = Sum;
      }
    } else if (const char *V = Value("--seed=")) {
      if (!parseUnsigned(V, Opt.Seed))
        return usage("--seed wants an unsigned integer");
    } else if (const char *V = Value("--draw=")) {
      if (!parseUnsigned(V, Opt.Draw))
        return usage("--draw wants an unsigned integer");
    } else if (const char *V = Value("--seconds=")) {
      Opt.Seconds = std::strtod(V, nullptr);
      if (!(Opt.Seconds > 0))
        return usage("--seconds wants a positive number");
    } else if (const char *V = Value("--max-depth=")) {
      if (!parseUnsigned(V, Opt.MaxDepth))
        return usage("--max-depth wants an unsigned integer");
    } else if (Arg == "--trace") {
      Opt.Trace = true;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }

  try {
    if (Cmd == "check-inputs")
      return checkInputs() ? 1 : 0;
    if (Cmd == "reference")
      return runReference(Opt);
    Report R;
    if (Cmd == "suite")
      runSuite(Opt, R);
    else if (Cmd == "serve")
      runServe(Opt, R);
    else
      return usage("unknown command");
    writeReport(R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "adebench: %s\n", E.what());
    return 1;
  }
  return 0;
}
