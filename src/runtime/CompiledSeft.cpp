//===- runtime/CompiledSeft.cpp --------------------------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledSeft.h"

#include <algorithm>

using namespace genic;

Result<CompiledSeft> CompiledSeft::compile(const Seft &Machine) {
  CompiledSeft CS;
  CS.States.resize(Machine.numStates());
  CS.Initial = Machine.initial();
  CS.InputType = Machine.inputType();
  CS.OutputType = Machine.outputType();

  if (Machine.initial() >= Machine.numStates())
    return Status::error("compiled s-EFT: initial state out of range");

  const std::vector<SeftTransition> &Ts = Machine.transitions();
  for (unsigned I = 0, E = Ts.size(); I != E; ++I) {
    const SeftTransition &T = Ts[I];
    if (T.From >= Machine.numStates())
      return Status::error("compiled s-EFT: rule from unknown state");
    if (T.To != Seft::FinalState && T.To >= Machine.numStates())
      return Status::error("compiled s-EFT: rule to unknown state");
    if (T.To != Seft::FinalState && T.Lookahead == 0)
      return Status::error("compiled s-EFT: continuing rule with lookahead 0");
    if (!T.Guard)
      return Status::error("compiled s-EFT: rule without a guard");

    CompiledSeftRule R;
    R.Guard = T.Guard;
    R.Outputs.assign(T.Outputs.begin(), T.Outputs.end());
    R.Lookahead = T.Lookahead;
    R.To = T.To;
    R.Index = I;

    // The whole rule as one unboxed program. A rule outside the fused
    // fragment runs eval() on its terms instead.
    if (std::optional<FusedRuleProgram> Fused =
            fuseRule(T.Guard, T.Outputs, T.Lookahead, CS.InputType)) {
      CS.MaxFusedStack = std::max(CS.MaxFusedStack, Fused->StackDepth);
      ++CS.NumFusedRules;
      CS.FusedStore.push_back(std::move(*Fused));
      R.Fused = &CS.FusedStore.back();
    }
    ++CS.NumRules;

    CompiledSeftState &Q = CS.States[T.From];
    CS.MaxLookahead = std::max(CS.MaxLookahead, T.Lookahead);
    if (T.To == Seft::FinalState) {
      Q.MaxFinalizerLookahead = std::max(Q.MaxFinalizerLookahead, T.Lookahead);
      Q.HasFinalizer = true;
      Q.Finalizers.push_back(std::move(R));
    } else {
      Q.MaxContinuingLookahead =
          std::max(Q.MaxContinuingLookahead, T.Lookahead);
      Q.Continuing.push_back(std::move(R));
    }
  }

  for (CompiledSeftState &Q : CS.States) {
    unsigned Bound = Q.MaxContinuingLookahead;
    if (Q.HasFinalizer)
      Bound = std::max(Bound, Q.MaxFinalizerLookahead + 1);
    Q.StallBound = Bound;
  }

  return CS;
}
