//===- bench/bench_micro.cpp - Core-layer micro-benchmarks ----------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-benchmarks for the layers under the headline
/// experiments: hash-consed term construction, native evaluation, machine
/// transduction, solver satisfiability queries, and the bottom-up
/// enumerator with observational-equivalence pruning (the DESIGN.md
/// ablation of hash-consing and OE shows up here as throughput).
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "solver/Solver.h"
#include "sygus/Enumerator.h"
#include "term/Eval.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <vector>

using namespace genic;

namespace {

void BM_TermConstructionHashConsed(benchmark::State &State) {
  TermFactory F;
  TermRef X = F.mkVar(0, Type::intTy());
  int64_t K = 0;
  for (auto _ : State) {
    // Alternating fresh and repeated shapes: repeated ones hit the pool.
    TermRef T = F.mkIntOp(Op::IntAdd, X, F.mkInt(K % 64));
    benchmark::DoNotOptimize(T);
    ++K;
  }
  State.counters["pool"] = F.poolSize();
}
BENCHMARK(BM_TermConstructionHashConsed);

void BM_TermEvalBase64Round(benchmark::State &State) {
  // Evaluate the Figure 2 output expression E((x & 3) << 4 | y >> 4).
  TermFactory F;
  Type B8 = Type::bitVecTy(8);
  TermRef X = F.mkVar(0, B8), Y = F.mkVar(1, B8);
  TermRef P0 = F.mkVar(0, B8);
  const FuncDef *E = F.makeFunc(
      "E", {B8}, B8,
      F.mkIte(F.mkBvOp(Op::BvUle, P0, F.mkBv(0x19, 8)),
              F.mkBvOp(Op::BvAdd, P0, F.mkBv(0x41, 8)),
              F.mkBvOp(Op::BvAdd, P0, F.mkBv(0x47, 8))),
      F.mkBvOp(Op::BvUle, P0, F.mkBv(0x3f, 8)));
  TermRef T = F.mkCall(
      E, {F.mkBvOp(Op::BvOr,
                   F.mkBvOp(Op::BvShl,
                            F.mkBvOp(Op::BvAnd, X, F.mkBv(3, 8)),
                            F.mkBv(4, 8)),
                   F.mkBvOp(Op::BvLshr, Y, F.mkBv(4, 8)))});
  std::vector<Value> Env{Value::bitVecVal(0, 8), Value::bitVecVal(0, 8)};
  uint64_t K = 0;
  for (auto _ : State) {
    Env[0] = Value::bitVecVal(K & 0xFF, 8);
    Env[1] = Value::bitVecVal((K >> 8) & 0xFF, 8);
    benchmark::DoNotOptimize(eval(T, Env));
    ++K;
  }
}
BENCHMARK(BM_TermEvalBase64Round);

void BM_TransduceBase64(benchmark::State &State) {
  TermFactory F;
  auto Ast = parseGenic(coderCorpus()[0].Source);
  auto P = lowerProgram(F, *Ast);
  std::mt19937_64 Rng(1);
  ValueList Input;
  for (int I = 0; I < 48; ++I)
    Input.push_back(Value::bitVecVal(Rng() & 0xFF, 8));
  for (auto _ : State)
    benchmark::DoNotOptimize(P->Machine.transduceFunctional(Input));
  State.SetItemsProcessed(State.iterations() * Input.size());
}
BENCHMARK(BM_TransduceBase64);

void BM_SolverSatQuery(benchmark::State &State) {
  TermFactory F;
  Solver S(F);
  TermRef X = F.mkVar(0, Type::bitVecTy(8));
  TermRef Query = F.mkAnd(
      F.mkBvOp(Op::BvUge, X, F.mkBv(0x41, 8)),
      F.mkBvOp(Op::BvUle, F.mkBvOp(Op::BvAdd, X, F.mkBv(1, 8)),
               F.mkBv(0x5b, 8)));
  for (auto _ : State)
    benchmark::DoNotOptimize(S.checkSat(Query));
}
BENCHMARK(BM_SolverSatQuery);

void BM_EnumeratorThroughput(benchmark::State &State) {
  // Search for a size-7 bit fiddle with OE pruning; counts candidates/sec.
  TermFactory F;
  Grammar G = Grammar::standard(Type::bitVecTy(8), {Type::bitVecTy(8)});
  G.addConstant(Value::bitVecVal(4, 8));
  std::vector<std::vector<Value>> Ex;
  std::vector<Value> Target;
  for (uint64_t V : {0x12u, 0xABu, 0xF0u, 0x07u, 0x55u}) {
    Ex.push_back({Value::bitVecVal(V, 8)});
    Target.push_back(Value::bitVecVal(((V << 4) | (V >> 4)) & 0xFF, 8));
  }
  size_t Tried = 0;
  for (auto _ : State) {
    Enumerator E(F, G, Ex);
    auto T = E.findMatching(Target);
    benchmark::DoNotOptimize(T);
    Tried += E.stats().CandidatesTried;
  }
  State.counters["candidates/s"] = benchmark::Counter(
      static_cast<double>(Tried), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EnumeratorThroughput);

void BM_ParseAndLowerBase64(benchmark::State &State) {
  const std::string &Source = coderCorpus()[0].Source;
  for (auto _ : State) {
    TermFactory F;
    auto Ast = parseGenic(Source);
    auto P = lowerProgram(F, *Ast);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_ParseAndLowerBase64);

} // namespace

// Like BENCHMARK_MAIN(), but results land in BENCH_micro.json by default so
// runs are diffable data; any explicit --benchmark_out wins.
int main(int Argc, char **Argv) {
  std::vector<char *> Args(Argv, Argv + Argc);
  char OutArg[] = "--benchmark_out=BENCH_micro.json";
  char FmtArg[] = "--benchmark_out_format=json";
  bool HasOut = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--benchmark_out=", 16) == 0)
      HasOut = true;
  if (!HasOut) {
    Args.push_back(OutArg);
    Args.push_back(FmtArg);
  }
  int N = static_cast<int>(Args.size());
  benchmark::Initialize(&N, Args.data());
  if (benchmark::ReportUnrecognizedArguments(N, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
