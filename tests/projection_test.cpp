//===- tests/projection_test.cpp - Bit-vector projection images -----------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the terms Solver::project returns for bit-vector image predicates,
/// and the output-automaton guards built from them. Most image values come
/// from concrete evaluation around one solver model, and the rest from a
/// blocking loop; the result must not depend on that split. So every
/// (rule, output position) guard of the 14 corpus coders' output automata
/// is compared with an independent reference: a blocking loop of models on
/// a second session's scoped stack, rendered as the maximal-interval term.
/// An image at the cap has no closed form; its guard is the existential
/// image predicate, checked against reference membership on sampled
/// values. Synthetic predicates pin the choice function at the cap (599,
/// 600 and 601 values), the solver's completion of what the walk cannot
/// reach, empty and full domains, the deadline and fault paths, and the
/// walk's evaluation counts.
///
//===----------------------------------------------------------------------===//

#include "coders/Corpus.h"
#include "coders/Synthetic.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "solver/FaultInjector.h"
#include "solver/Solver.h"
#include "support/Deadline.h"
#include "support/Metrics.h"
#include "term/Printer.h"
#include "transducer/Injectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>

using namespace genic;

namespace {

/// project()'s enumeration cap for widths above 9 bits.
constexpr size_t Cap = 600;

/// A closed interval of image values.
struct Run {
  uint64_t Lo;
  uint64_t Hi;
};

/// The maximal runs of a set of values.
std::vector<Run> runsOf(std::vector<uint64_t> Values) {
  std::sort(Values.begin(), Values.end());
  std::vector<Run> Runs;
  for (uint64_t V : Values) {
    if (!Runs.empty() && Runs.back().Hi + 1 == V)
      Runs.back().Hi = V;
    else
      Runs.push_back({V, V});
  }
  return Runs;
}

/// The term project() renders for a union of maximal runs over Var(0).
TermRef runsTerm(TermFactory &F, const std::vector<Run> &Runs,
                 unsigned Width) {
  const uint64_t Max = Value::maskOf(Width);
  TermRef V = F.mkVar(0, Type::bitVecTy(Width));
  std::vector<TermRef> Disjuncts;
  for (const Run &R : Runs) {
    if (R.Lo == R.Hi) {
      Disjuncts.push_back(F.mkEq(V, F.mkBv(R.Lo, Width)));
      continue;
    }
    std::vector<TermRef> Bounds;
    if (R.Lo != 0)
      Bounds.push_back(F.mkBvOp(Op::BvUge, V, F.mkBv(R.Lo, Width)));
    if (R.Hi != Max)
      Bounds.push_back(F.mkBvOp(Op::BvUle, V, F.mkBv(R.Hi, Width)));
    Disjuncts.push_back(F.mkAnd(std::move(Bounds)));
  }
  return F.mkOr(std::move(Disjuncts));
}

/// Reference queries about the image of f_I under the guard, on the
/// scoped stack of a session of its own: the membership predicate
/// Guard /\ y = f_I(x), with y = Var(NumInputs), is asserted for the
/// reference's lifetime.
class ReferenceImage {
public:
  ReferenceImage(Solver &S, const ImagePredicate &P, unsigned I)
      : S(S), F(S.factory()), Width(P.Outputs[I]->type().width()),
        Y(F.mkVar(P.NumInputs, Type::bitVecTy(Width))),
        Types(P.NumInputs + 1, Type::boolTy()), Scope(S) {
    // Only y is read back; the inputs' entries are placeholders.
    Types.back() = Y->type();
    Scope.add(F.mkAnd(P.Guard, F.mkEq(Y, P.Outputs[I])));
  }

  /// The image by blocking loop: one model per value, each blocked by a
  /// y != v assertion, until Unsat or \p Limit values (0 = no limit).
  /// Returns whether the loop finished under the limit; \p Values gets
  /// every value found either way.
  bool values(size_t Limit, std::vector<uint64_t> &Values) {
    ScopedAssertions Blocks(S);
    while (Limit == 0 || Values.size() < Limit) {
      Result<std::optional<std::vector<Value>>> M =
          S.modelAssuming({}, Types);
      EXPECT_TRUE(M.isOk()) << M.status().message();
      if (!M.isOk() || !M->has_value())
        return true;
      uint64_t V = (**M).back().getBits();
      Values.push_back(V);
      Blocks.add(F.mkNot(F.mkEq(Y, F.mkBv(V, Width))));
    }
    return false;
  }

  /// Whether some member satisfies \p Extra (a formula over y).
  bool any(TermRef Extra) {
    SatResult R = S.checkSatAssuming({Extra});
    EXPECT_NE(R, SatResult::Unknown);
    return R == SatResult::Sat;
  }
  bool member(uint64_t V) { return any(F.mkEq(Y, F.mkBv(V, Width))); }

  unsigned width() const { return Width; }

private:
  Solver &S;
  TermFactory &F;
  unsigned Width;
  TermRef Y;
  std::vector<Type> Types;
  ScopedAssertions Scope;
};

/// Checks \p Guard, the output-automaton guard of position \p I of the
/// rule \p P, against the reference. An image under the cap (or of width
/// <= 9) must come back as the exact run term. At the cap, project() must
/// report no closed form, and the guard (the existential image predicate,
/// witnesses free) must agree with reference membership on sampled values:
/// image values, their neighbours and the domain's ends.
void expectReferenceGuard(Solver &Tested, Solver &Ref, const ImagePredicate &P,
                          unsigned I, TermRef Guard, const std::string &What) {
  SCOPED_TRACE(What);
  TermFactory &F = Tested.factory();
  ReferenceImage Image(Ref, P, I);
  const unsigned Width = Image.width();
  std::vector<uint64_t> Values;
  if (Image.values(Width <= 9 ? 0 : Cap, Values)) {
    EXPECT_EQ(Guard, runsTerm(F, runsOf(Values), Width)) << printTerm(Guard);
    return;
  }
  Result<std::optional<TermRef>> R = Tested.project(P, I);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_FALSE(R->has_value()) << printTerm(**R);
  const uint64_t Max = Value::maskOf(Width);
  std::vector<uint64_t> Samples{0, 1, Max - 1, Max};
  for (size_t K = 0; K < Values.size(); K += Values.size() / 16) {
    Samples.push_back(Values[K]);
    Samples.push_back((Values[K] + 1) & Max);
    Samples.push_back((Values[K] - 1) & Max);
  }
  unsigned In = 0;
  for (uint64_t V : Samples) {
    TermRef Pin[] = {F.mkBv(V, Width)};
    Result<bool> Sat = Tested.isSat(F.substitute(Guard, Pin));
    ASSERT_TRUE(Sat.isOk()) << Sat.status().message();
    const bool Member = Image.member(V);
    EXPECT_EQ(*Sat, Member) << "value " << V << ", guard "
                            << printTerm(Guard);
    In += Member;
  }
  EXPECT_GE(In, 16u);
}

/// The output-automaton guard of position \p I of a one-rule machine with
/// \p P's guard and outputs over inputs of type \p In.
TermRef outputGuard(Solver &S, const ImagePredicate &P, unsigned I, Type In) {
  Seft A(1, 0, In, P.Outputs[I]->type());
  A.addTransition({0, Seft::FinalState, P.NumInputs, P.Guard,
                   std::vector<TermRef>(P.Outputs.begin(), P.Outputs.end())});
  Result<CartesianSefa> AO = buildOutputAutomaton(A, S);
  EXPECT_TRUE(AO.isOk()) << AO.status().message();
  if (!AO.isOk() || AO->transitions().size() != 1)
    return nullptr;
  return AO->transitions()[0].Guards[I];
}

/// expectReferenceGuard on the guard outputGuard builds in \p Tested.
void expectReferenceProjection(Solver &Tested, Solver &Ref,
                               const ImagePredicate &P, unsigned I, Type In,
                               const std::string &What) {
  TermRef Guard = outputGuard(Tested, P, I, In);
  ASSERT_NE(Guard, nullptr);
  expectReferenceGuard(Tested, Ref, P, I, Guard, What);
}

class ProjectionImageTest : public ::testing::TestWithParam<size_t> {};

std::string coderName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = coderCorpus()[Info.param].name();
  std::replace(Name.begin(), Name.end(), ' ', '_');
  std::replace(Name.begin(), Name.end(), '-', '_');
  return Name;
}

TEST_P(ProjectionImageTest, EveryRuleImageMatchesTheReferenceLoop) {
  const CoderSpec &Spec = coderCorpus()[GetParam()];
  TermFactory F;
  Result<AstProgram> Ast = parseGenic(Spec.Source);
  ASSERT_TRUE(Ast.isOk()) << Ast.status().message();
  Result<LoweredProgram> Prog = lowerProgram(F, *Ast);
  ASSERT_TRUE(Prog.isOk()) << Prog.status().message();
  Solver Tested(F), Ref(F);
  Result<CartesianSefa> AO = buildOutputAutomaton(Prog->Machine, Tested);
  ASSERT_TRUE(AO.isOk()) << AO.status().message();
  // Every rule has outputs, so the automaton keeps every rule, in order.
  const auto &Ts = Prog->Machine.transitions();
  ASSERT_EQ(AO->transitions().size(), Ts.size());
  unsigned Projected = 0;
  for (unsigned Rule = 0; Rule != Ts.size(); ++Rule) {
    const SeftTransition &T = Ts[Rule];
    ImagePredicate P;
    P.Guard = T.Guard;
    P.Outputs.assign(T.Outputs.begin(), T.Outputs.end());
    P.NumInputs = T.Lookahead;
    ASSERT_EQ(AO->transitions()[Rule].Guards.size(), P.arity());
    for (unsigned J = 0; J != P.arity(); ++J) {
      ASSERT_TRUE(P.Outputs[J]->type().isBitVec());
      expectReferenceGuard(Tested, Ref, P, J, AO->transitions()[Rule].Guards[J],
                           "rule " + std::to_string(Rule) + ", position " +
                               std::to_string(J));
      ++Projected;
    }
  }
  EXPECT_GT(Projected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Corpus, ProjectionImageTest,
                         ::testing::Range<size_t>(0, 14), coderName);

class ProjectionTest : public ::testing::Test {
protected:
  TermFactory F;
  Type B8 = Type::bitVecTy(8);
  Type B16 = Type::bitVecTy(16);
  TermRef bv(uint64_t V, unsigned W) { return F.mkBv(V, W); }
};

TEST_F(ProjectionTest, CoupledGuardIsCompletedByTheSolver) {
  // f = x0 under x0 ^ x1 = 0x5a /\ x0 < 200. The walk varies only x0, and
  // with x1 held at the seed's value no other x0 passes the guard, so the
  // walk adds nothing and the blocking loop finds all 200 values.
  TermRef X0 = F.mkVar(0, B8), X1 = F.mkVar(1, B8);
  ImagePredicate P;
  P.Guard = F.mkAnd(F.mkEq(F.mkBvOp(Op::BvXor, X0, X1), bv(0x5a, 8)),
                    F.mkBvOp(Op::BvUlt, X0, bv(200, 8)));
  P.Outputs = {X0};
  P.NumInputs = 2;
  Solver Tested(F), Ref(F);
  expectReferenceProjection(Tested, Ref, P, 0, B8, "coupled guard");
  Solver S(F);
  ASSERT_TRUE(S.project(P, 0).isOk());
  EXPECT_EQ(S.stats().ImageValuesEvaluated, 0u);
  EXPECT_EQ(S.stats().ImageValuesSolved, 200u);
}

TEST_F(ProjectionTest, WalkAndSolverShareAFragmentedImage) {
  // f = x0 + x1 under x0 < 16 /\ x1 & 0x0f = 0 /\ x1 ^ x2 = 0x33: the walk
  // holds x2 fixed, so it reaches only one x1, and the solver completes
  // the other 15 blocks of 16.
  TermRef X0 = F.mkVar(0, B8), X1 = F.mkVar(1, B8), X2 = F.mkVar(2, B8);
  ImagePredicate P;
  P.Guard = F.mkAnd({F.mkBvOp(Op::BvUlt, X0, bv(16, 8)),
                     F.mkEq(F.mkBvOp(Op::BvAnd, X1, bv(0x0f, 8)), bv(0, 8)),
                     F.mkEq(F.mkBvOp(Op::BvXor, X1, X2), bv(0x33, 8))});
  P.Outputs = {F.mkBvOp(Op::BvAdd, X0, X1)};
  P.NumInputs = 3;
  Solver Tested(F), Ref(F);
  expectReferenceProjection(Tested, Ref, P, 0, B8, "fragmented image");
  Solver S(F);
  ASSERT_TRUE(S.project(P, 0).isOk());
  const Solver::Stats &St = S.stats();
  EXPECT_EQ(St.ImageValuesEvaluated + St.ImageValuesSolved, 256u);
  EXPECT_GT(St.ImageValuesEvaluated, 0u);
  EXPECT_GT(St.ImageValuesSolved, 1u);
}

TEST_F(ProjectionTest, WalkEvaluationsDrainIntoTheEvalCounters) {
  // The concrete walk's evaluations are work like any other concrete
  // evaluation: drainStats adds the inputs it evaluated to the session
  // family's "eval.<family>.evals" counter, at least one per value the
  // walk found.
  const CoderSpec *Spec = nullptr;
  for (const CoderSpec &C : coderCorpus())
    if (C.name() == "BASE64 encoder")
      Spec = &C;
  ASSERT_NE(Spec, nullptr);
  Result<AstProgram> Ast = parseGenic(Spec->Source);
  ASSERT_TRUE(Ast.isOk()) << Ast.status().message();
  Result<LoweredProgram> Prog = lowerProgram(F, *Ast);
  ASSERT_TRUE(Prog.isOk()) << Prog.status().message();
  MetricsRegistry Registry;
  Solver S(F);
  SolverControl Control;
  Control.Metrics = &Registry;
  S.setControl(Control);
  for (const SeftTransition &T : Prog->Machine.transitions()) {
    ImagePredicate P;
    P.Guard = T.Guard;
    P.Outputs.assign(T.Outputs.begin(), T.Outputs.end());
    P.NumInputs = T.Lookahead;
    for (unsigned J = 0; J != P.arity(); ++J)
      ASSERT_TRUE(S.project(P, J).isOk());
  }
  S.drainStats();
  uint64_t Evaluated =
      Registry.counter("solver.shared.image.values.evaluated").value();
  EXPECT_GT(Evaluated, 0u);
  EXPECT_GE(Registry.counter("eval.shared.evals").value(), Evaluated);
}

TEST_F(ProjectionTest, CapBoundaryPinsTheChoiceFunction) {
  // f = x & 0xfffb (bit 2 cleared) under f <= T: runs of four values in
  // every eight. T = 1194, 1195, 1200 give 599, 600 and 601 values. Under
  // the cap the exact set comes back; at and over it there is no closed
  // form.
  TermRef X = F.mkVar(0, B16);
  TermRef Out = F.mkBvOp(Op::BvAnd, X, bv(0xfffb, 16));
  for (uint64_t T : {1194u, 1195u, 1200u}) {
    SCOPED_TRACE("T = " + std::to_string(T));
    std::vector<uint64_t> Values;
    for (uint64_t V = 0; V <= T; ++V)
      if ((V & 4) == 0)
        Values.push_back(V);
    ASSERT_EQ(Values.size(), T == 1194 ? 599u : T == 1195 ? 600u : 601u);
    ImagePredicate P;
    P.Guard = F.mkBvOp(Op::BvUle, Out, bv(T, 16));
    P.Outputs = {Out};
    P.NumInputs = 1;
    Solver Tested(F), Ref(F);
    expectReferenceProjection(Tested, Ref, P, 0, B16, "cap boundary");
    Solver S(F);
    Result<std::optional<TermRef>> R = S.project(P, 0);
    ASSERT_TRUE(R.isOk()) << R.status().message();
    if (Values.size() < Cap) {
      ASSERT_TRUE(R->has_value());
      EXPECT_EQ(**R, runsTerm(F, runsOf(Values), 16)) << printTerm(**R);
    } else {
      EXPECT_FALSE(R->has_value()) << printTerm(**R);
    }
  }
}

TEST_F(ProjectionTest, EmptyImageIsFalse) {
  TermRef X = F.mkVar(0, B16);
  ImagePredicate P;
  P.Guard = F.mkBvOp(Op::BvUlt, X, bv(0, 16));
  P.Outputs = {X};
  P.NumInputs = 1;
  Solver Tested(F), Ref(F);
  expectReferenceProjection(Tested, Ref, P, 0, B16, "empty image");
  Solver S(F);
  Result<std::optional<TermRef>> R = S.project(P, 0);
  ASSERT_TRUE(R.isOk() && R->has_value());
  EXPECT_EQ(**R, F.mkFalse());
  EXPECT_EQ(S.stats().ImageValuesSolved, 0u);
  EXPECT_EQ(S.stats().ImageValuesEvaluated, 0u);
}

TEST_F(ProjectionTest, FullNineBitDomainIsTrue) {
  // Every bit flip is a neighbour, so the walk reaches most of the 512
  // values from the seed, and a known full domain needs no closing query.
  Type B9 = Type::bitVecTy(9);
  TermRef X = F.mkVar(0, B9);
  ImagePredicate P;
  P.Guard = F.mkTrue();
  P.Outputs = {X};
  P.NumInputs = 1;
  Solver Tested(F), Ref(F);
  expectReferenceProjection(Tested, Ref, P, 0, B9, "full domain");
  Solver S(F);
  Result<std::optional<TermRef>> R = S.project(P, 0);
  ASSERT_TRUE(R.isOk() && R->has_value());
  EXPECT_EQ(**R, F.mkTrue());
  const Solver::Stats &St = S.stats();
  EXPECT_EQ(St.ImageValuesEvaluated + St.ImageValuesSolved, 512u);
  EXPECT_GT(St.ImageValuesEvaluated, 256u);
  EXPECT_EQ(St.SatQueries, St.ImageValuesSolved);
}

TEST_F(ProjectionTest, ExpiredDeadlineIsCancelled) {
  TermRef X = F.mkVar(0, B8);
  ImagePredicate P;
  P.Guard = F.mkBvOp(Op::BvUlt, X, bv(100, 8));
  P.Outputs = {X};
  P.NumInputs = 1;
  Solver S(F);
  SolverControl Expired;
  Expired.Cancel = CancellationToken(Deadline::after(0));
  S.setControl(Expired);
  Result<std::optional<TermRef>> R = S.project(P, 0);
  ASSERT_FALSE(R.isOk());
  EXPECT_EQ(R.status().code(), StatusCode::Cancelled);
}

TEST(ProjectionDeadline, IntProjectionsStopAtTheDeadline) {
  // The Int output projections of a 100-state LIA machine run Z3's
  // qe_lite -> qe -> qe2 cascade once per (rule, position), well over
  // 0.3 s of work at --jobs 2. The cascade checks the token before each
  // projection's translation (which would build the task's Z3 context) and
  // before each tactic, and clamps each tactic's budget to the time left,
  // so the automaton build gives up at the deadline with a budget status.
  TermFactory F;
  Result<AstProgram> Ast = parseGenic(makeRandomLiaProgram(1, 100));
  ASSERT_TRUE(Ast.isOk()) << Ast.status().message();
  Result<LoweredProgram> Prog = lowerProgram(F, *Ast);
  ASSERT_TRUE(Prog.isOk()) << Prog.status().message();
  Solver S(F);
  SolverControl Timed;
  Timed.Cancel = CancellationToken(Deadline::after(0.3));
  S.setControl(Timed);
  InjectivityOptions Opts;
  Opts.Jobs = 2;
  auto Start = std::chrono::steady_clock::now();
  Result<CartesianSefa> AO = buildOutputAutomaton(Prog->Machine, S, Opts);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  ASSERT_FALSE(AO.isOk()) << "the projections finished within 0.3 s";
  EXPECT_TRUE(AO.status().code() == StatusCode::Cancelled ||
              AO.status().code() == StatusCode::Timeout)
      << AO.status().message();
  // Unloaded it ends about 0.02 s past the deadline; the bound leaves room
  // for a loaded machine, and a cascade that ignores the token runs about
  // 0.7 s past.
  EXPECT_LT(Seconds, 0.55) << "the build ran " << Seconds - 0.3
                           << " s past the deadline";
}

TEST_F(ProjectionTest, InjectedThrowIsSolverErrorAndTheSessionAnswers) {
  TermRef X = F.mkVar(0, B8);
  ImagePredicate P;
  P.Guard = F.mkBvOp(Op::BvUlt, X, bv(100, 8));
  P.Outputs = {X};
  P.NumInputs = 1;
  Solver S(F);
  SolverControl Faulty;
  Result<FaultPlan> Plan = parseFaultPlan("throw@1");
  ASSERT_TRUE(Plan.isOk());
  Faulty.Faults = *Plan;
  S.setControl(Faulty);
  Result<std::optional<TermRef>> Thrown = S.project(P, 0);
  ASSERT_FALSE(Thrown.isOk());
  EXPECT_EQ(Thrown.status().code(), StatusCode::SolverError);
  Result<std::optional<TermRef>> After = S.project(P, 0);
  ASSERT_TRUE(After.isOk()) << After.status().message();
  ASSERT_TRUE(After->has_value());
  EXPECT_EQ(**After, runsTerm(F, {{0, 99}}, 8)) << printTerm(**After);
}

} // namespace
