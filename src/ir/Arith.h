//===- ir/Arith.h - Two's-complement IR arithmetic -------------*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IR integer arithmetic wraps modulo 2^64 (two's complement; docs/IR.md).
/// C++ leaves signed overflow undefined, so both engines compute Add, Sub,
/// Mul, ProfCounterAddTo and base+offset effective addresses through these
/// helpers: the operation runs on uint64_t, where wrapping is defined, and
/// the result converts back to int64_t, which C++20 defines as modulo 2^64.
/// Hashing workloads overflow routinely; engine bit-identity rests here.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_IR_ARITH_H
#define SPROF_IR_ARITH_H

#include <cstdint>

namespace sprof {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

} // namespace sprof

#endif // SPROF_IR_ARITH_H
