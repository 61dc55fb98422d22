// Raw 256-bit little-endian limb arithmetic. These are the building blocks for
// the Montgomery field implementation in fp.h; they carry no modular
// semantics themselves.
#ifndef SRC_FF_U256_H_
#define SRC_FF_U256_H_

#include <array>
#include <cstdint>
#include <string>

// AddU256 and SubU256 run on the x86-64 carry flag (ADC/SBB through
// the _addcarry_u64/_subborrow_u64 intrinsics, which every x86-64 CPU has).
// GCC 12 renders the portable __int128 chains as carry bits moved through
// general registers (SETC/MOVZX, XOR/SBB pairs), about twice as slow per
// field addition; the portable build keeps them so CI tests them.
#if defined(__x86_64__) && !defined(ZKML_DISABLE_SIMD_BUILD)
#define ZKML_HAVE_CARRY_INTRINSICS 1
#include <immintrin.h>
#endif

namespace zkml {

struct U256 {
  // limbs[0] is least significant.
  uint64_t limbs[4] = {0, 0, 0, 0};

  static U256 Zero() { return U256{}; }
  static U256 FromU64(uint64_t v) {
    U256 r;
    r.limbs[0] = v;
    return r;
  }
  // Parses a big-endian hex string (no 0x prefix required but accepted).
  static U256 FromHex(const std::string& hex);

  bool IsZero() const {
    return limbs[0] == 0 && limbs[1] == 0 && limbs[2] == 0 && limbs[3] == 0;
  }
  bool IsOdd() const { return (limbs[0] & 1) != 0; }

  bool operator==(const U256& o) const {
    return limbs[0] == o.limbs[0] && limbs[1] == o.limbs[1] && limbs[2] == o.limbs[2] &&
           limbs[3] == o.limbs[3];
  }
  bool operator!=(const U256& o) const { return !(*this == o); }

  // Index of the highest set bit, or -1 when zero.
  int HighestBit() const;
  bool Bit(int i) const { return (limbs[i / 64] >> (i % 64)) & 1; }

  std::string ToHex() const;
};

// Returns -1, 0, 1 for a < b, a == b, a > b. Inline (as are the add/sub
// primitives below): these sit under every Montgomery operation, and the
// out-of-line call overhead is measurable across a whole proof.
inline int CmpU256(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limbs[i] < b.limbs[i]) {
      return -1;
    }
    if (a.limbs[i] > b.limbs[i]) {
      return 1;
    }
  }
  return 0;
}

// r = a + b; returns the carry-out bit.
inline uint64_t AddU256(const U256& a, const U256& b, U256* r) {
#ifdef ZKML_HAVE_CARRY_INTRINSICS
  unsigned char carry = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned long long limb;
    carry = _addcarry_u64(carry, a.limbs[i], b.limbs[i], &limb);
    r->limbs[i] = limb;
  }
  return carry;
#else
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 cur = carry + a.limbs[i] + b.limbs[i];
    r->limbs[i] = static_cast<uint64_t>(cur);
    carry = cur >> 64;
  }
  return static_cast<uint64_t>(carry);
#endif
}

// r = a - b; returns the borrow-out bit.
inline uint64_t SubU256(const U256& a, const U256& b, U256* r) {
#ifdef ZKML_HAVE_CARRY_INTRINSICS
  unsigned char borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned long long limb;
    borrow = _subborrow_u64(borrow, a.limbs[i], b.limbs[i], &limb);
    r->limbs[i] = limb;
  }
  return borrow;
#else
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 cur = static_cast<unsigned __int128>(a.limbs[i]) - b.limbs[i] - borrow;
    r->limbs[i] = static_cast<uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  return static_cast<uint64_t>(borrow);
#endif
}

// In-place right shift by s bits (0 <= s < 256).
U256 ShrU256(const U256& a, int s);

}  // namespace zkml

#endif  // SRC_FF_U256_H_
