//===- term/Value.h - Concrete values of the background universe ----------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concrete element of the background universe D: a boolean, a
/// (64-bit-bounded) integer, or a bit-vector of up to 64 bits. Values are
/// what transducers read from and append to lists, and what the native
/// evaluator computes.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_TERM_VALUE_H
#define GENIC_TERM_VALUE_H

#include "term/Type.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace genic {

/// A typed concrete value.
///
/// Integers are represented as int64_t. The paper's LIA benchmarks use small
/// constants, so 64-bit arithmetic is an exact model of the fragment
/// exercised; the solver layer (Z3) still reasons over unbounded integers.
/// Bit-vectors are stored zero-extended in a uint64_t and always masked to
/// their width.
class Value {
public:
  /// Default-constructs boolean false; prefer the named constructors.
  Value() : Ty(Type::boolTy()), Bits(0) {}

  static Value boolVal(bool B) {
    Value V;
    V.Ty = Type::boolTy();
    V.Bits = B ? 1 : 0;
    return V;
  }

  static Value intVal(int64_t N) {
    Value V;
    V.Ty = Type::intTy();
    V.Bits = static_cast<uint64_t>(N);
    return V;
  }

  static Value bitVecVal(uint64_t Raw, unsigned Width) {
    Value V;
    V.Ty = Type::bitVecTy(Width);
    V.Bits = Raw & maskOf(Width);
    return V;
  }

  const Type &type() const { return Ty; }

  bool getBool() const {
    assert(Ty.isBool() && "getBool() on a non-boolean value");
    return Bits != 0;
  }

  int64_t getInt() const {
    assert(Ty.isInt() && "getInt() on a non-integer value");
    return static_cast<int64_t>(Bits);
  }

  /// Unsigned bit pattern, zero-extended.
  uint64_t getBits() const {
    assert(Ty.isBitVec() && "getBits() on a non-bitvector value");
    return Bits;
  }

  /// The raw 64-bit payload regardless of type: bool as 0/1, integers as
  /// their two's-complement pattern, bit-vectors zero-extended. For code
  /// that has already established the type statically (the fused rule
  /// interpreter in runtime/FusedRule.h) and wants the untyped word.
  uint64_t rawBits() const { return Bits; }

  /// The value of type \p Ty whose rawBits() is \p Raw (any nonzero word
  /// is boolean true): unpacks a lane word of term/LaneEval.h.
  static Value fromRawBits(const Type &Ty, uint64_t Raw) {
    if (Ty.isBool())
      return boolVal(Raw != 0);
    if (Ty.isInt())
      return intVal(static_cast<int64_t>(Raw));
    return bitVecVal(Raw, Ty.width());
  }

  bool operator==(const Value &Other) const {
    return Ty == Other.Ty && Bits == Other.Bits;
  }
  bool operator!=(const Value &Other) const { return !(*this == Other); }

  /// Total order usable as a container key; groups by type first.
  bool operator<(const Value &Other) const {
    if (Ty.kind() != Other.Ty.kind())
      return Ty.kind() < Other.Ty.kind();
    if (Ty.isBitVec() && Ty.width() != Other.Ty.width())
      return Ty.width() < Other.Ty.width();
    if (Ty.isInt())
      return getInt() < Other.getInt();
    return Bits < Other.Bits;
  }

  size_t hash() const { return Ty.hash() * 1000003u + Bits; }

  /// Renders the value as a literal: "true", "-3", or "#x3d".
  std::string str() const;

  /// All-ones mask for \p Width bits.
  static uint64_t maskOf(unsigned Width) {
    return Width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << Width) - 1);
  }

private:
  Type Ty;
  uint64_t Bits;
};

/// A list over the universe: the input/output of a transduction.
using ValueList = std::vector<Value>;

/// Renders a list as "[v0, v1, ...]".
std::string toString(const ValueList &List);

} // namespace genic

template <> struct std::hash<genic::Value> {
  size_t operator()(const genic::Value &V) const { return V.hash(); }
};

#endif // GENIC_TERM_VALUE_H
