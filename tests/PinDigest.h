//===- PinDigest.h - Digests for the pin tests ------------------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 64-bit FNV-1a digest the pin tests (test_encoding_pins,
/// test_pivot_pins) fold models, solutions and counters into, and its hex
/// form for the expected values.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_TESTS_PINDIGEST_H
#define SWP_TESTS_PINDIGEST_H

#include <cstdint>
#include <cstdio>
#include <string>

namespace swp {

/// 64-bit FNV-1a over the bytes of each value fed to it.
struct Fnv1a {
  std::uint64_t H = 14695981039346656037ull;

  void bytes(const void *P, std::size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (std::size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
  }
  void num(std::int64_t V) { bytes(&V, sizeof V); }
  void real(double V) { bytes(&V, sizeof V); }
};

inline std::string hex(std::uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace swp

#endif // SWP_TESTS_PINDIGEST_H
