/**
 * @file
 * IEEE-754 binary32 bit-level utilities.
 *
 * RayFlex sources its floating-point functional units from the Berkeley
 * Hardfloat library. This module is the C++ substitute: a softfloat
 * implementation of binary32 addition, subtraction and multiplication with
 * round-to-nearest-even performed after every operation (the paper rounds
 * after every add/mul, Section III-F), plus hardware-style comparators
 * whose <, <=, ==, >=, > predicates are all false when either input is NaN
 * (Section IV-A).
 *
 * All operations are bit-exact with host IEEE binary32 arithmetic compiled
 * without FP contraction, which is what the golden-model tests rely on.
 */
#ifndef RAYFLEX_FP_FLOAT32_HH
#define RAYFLEX_FP_FLOAT32_HH

#include <cstdint>
#include <cstring>

namespace rayflex::fp
{

/** Raw IEEE-754 binary32 value carried as its bit pattern. */
using F32 = uint32_t;

/** Quiet NaN produced by invalid operations (matches x86 default NaN). */
inline constexpr F32 kDefaultNaN = 0x7FC00000u;
/** Positive infinity. */
inline constexpr F32 kPosInf = 0x7F800000u;
/** Negative infinity. */
inline constexpr F32 kNegInf = 0xFF800000u;
/** Positive zero. */
inline constexpr F32 kPosZero = 0x00000000u;
/** Negative zero. */
inline constexpr F32 kNegZero = 0x80000000u;
/** Largest finite float. */
inline constexpr F32 kMaxFinite = 0x7F7FFFFFu;
/** Smallest positive normal (2^-126). */
inline constexpr F32 kMinNormal = 0x00800000u;
/** Smallest positive subnormal (2^-149). */
inline constexpr F32 kMinSubnormal = 0x00000001u;

/** Extract the sign bit. */
inline constexpr bool signF32(F32 v) { return (v >> 31) != 0; }
/** Extract the 8-bit biased exponent field. */
inline constexpr uint32_t expF32(F32 v) { return (v >> 23) & 0xFFu; }
/** Extract the 23-bit fraction field. */
inline constexpr uint32_t fracF32(F32 v) { return v & 0x7FFFFFu; }

/** Assemble a binary32 from sign/exponent/fraction fields. */
inline constexpr F32
packF32(bool sign, uint32_t exp, uint32_t frac)
{
    return (static_cast<uint32_t>(sign) << 31) | (exp << 23) | frac;
}

/** True for signaling or quiet NaN. */
inline constexpr bool isNaNF32(F32 v)
{
    return expF32(v) == 0xFFu && fracF32(v) != 0;
}

/** True for +/- infinity. */
inline constexpr bool isInfF32(F32 v)
{
    return expF32(v) == 0xFFu && fracF32(v) == 0;
}

/** True for +/- zero. */
inline constexpr bool isZeroF32(F32 v) { return (v << 1) == 0; }

/** True for nonzero values with a zero exponent field. */
inline constexpr bool isSubnormalF32(F32 v)
{
    return expF32(v) == 0 && fracF32(v) != 0;
}

/** True for normal, subnormal or zero values (not inf/NaN). */
inline constexpr bool isFiniteF32(F32 v) { return expF32(v) != 0xFFu; }

/** Quiet a NaN by setting the MSB of its fraction, preserving payload. */
inline constexpr F32 quietNaNF32(F32 v) { return v | 0x00400000u; }

/** Reinterpret a host float as its bit pattern. */
inline F32
toBits(float f)
{
    F32 u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** Reinterpret a bit pattern as a host float. */
inline float
fromBits(F32 u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

/**
 * Right shift that ORs every shifted-out bit into the result LSB
 * ("jamming"), preserving stickiness for correct rounding.
 */
inline constexpr uint32_t
shiftRightJam32(uint32_t v, uint32_t dist)
{
    if (dist >= 31)
        return v != 0 ? 1u : 0u;
    return (v >> dist) | ((v & ((1u << dist) - 1u)) != 0 ? 1u : 0u);
}

/** 64-bit variant of shiftRightJam32. */
inline constexpr uint64_t
shiftRightJam64(uint64_t v, uint32_t dist)
{
    if (dist >= 63)
        return v != 0 ? 1u : 0u;
    return (v >> dist) | ((v & ((uint64_t(1) << dist) - 1u)) != 0 ? 1u : 0u);
}

/**
 * Round and pack a normalized result into binary32 (round-to-nearest-even).
 *
 * @param sign Result sign.
 * @param exp  Exponent such that the value equals sig * 2^(exp - 156);
 *             i.e. a normal result stores exponent field exp + 1 once the
 *             hidden bit carries in during packing.
 * @param sig  Significand with its leading 1 at bit 30 and seven rounding
 *             bits at the bottom. A sig below 2^30 is only legal on the
 *             subnormal path (exp < 0 after denormalization).
 * @return Rounded binary32, handling overflow to infinity and gradual
 *         underflow to subnormals/zero.
 */
F32 roundPackF32(bool sign, int32_t exp, uint32_t sig);

/** IEEE binary32 addition, round-to-nearest-even. */
F32 addF32(F32 a, F32 b);

/** IEEE binary32 subtraction, round-to-nearest-even. */
F32 subF32(F32 a, F32 b);

/** IEEE binary32 multiplication, round-to-nearest-even. */
F32 mulF32(F32 a, F32 b);

/** IEEE binary32 division, round-to-nearest-even (used only at ray
 *  creation on the GPU-core side; RayFlex itself contains no dividers). */
F32 divF32(F32 a, F32 b);

/** Four-way comparison outcome of a hardware FP comparator. */
enum class Cmp : uint8_t {
    LT, ///< a < b
    EQ, ///< a == b (+0 equals -0)
    GT, ///< a > b
    UN, ///< unordered: at least one operand is NaN
};

/**
 * Hardware FP comparator. Produces LT/EQ/GT/UN; every ordered predicate
 * derived from it is false when the result is UN, matching the NaN
 * semantics the paper relies on for coplanar-ray misses.
 */
Cmp compareF32(F32 a, F32 b);

/** a < b, false if unordered. */
inline bool ltF32(F32 a, F32 b) { return compareF32(a, b) == Cmp::LT; }
/** a <= b, false if unordered. */
inline bool
leF32(F32 a, F32 b)
{
    Cmp c = compareF32(a, b);
    return c == Cmp::LT || c == Cmp::EQ;
}
/** a == b, false if unordered. */
inline bool eqF32(F32 a, F32 b) { return compareF32(a, b) == Cmp::EQ; }
/** a > b, false if unordered. */
inline bool gtF32(F32 a, F32 b) { return compareF32(a, b) == Cmp::GT; }
/** a >= b, false if unordered. */
inline bool
geF32(F32 a, F32 b)
{
    Cmp c = compareF32(a, b);
    return c == Cmp::GT || c == Cmp::EQ;
}
/**
 * Two-input max as a comparator + mux, with explicit NaN propagation: the
 * Hardfloat comparator exposes an "unordered" signal, so the select logic
 * forwards the canonical NaN whenever either input is NaN. This is what
 * guarantees that a NaN slab distance poisons the reduction tree and the
 * final hit comparison returns miss.
 */
F32 maxPropF32(F32 a, F32 b);

/** NaN-propagating two-input min; see maxPropF32. */
F32 minPropF32(F32 a, F32 b);

/** NaN-propagating max over four values (balanced depth-2 tree). */
F32 max4PropF32(F32 a, F32 b, F32 c, F32 d);

/** NaN-propagating min over four values (balanced depth-2 tree). */
F32 min4PropF32(F32 a, F32 b, F32 c, F32 d);

} // namespace rayflex::fp

#endif // RAYFLEX_FP_FLOAT32_HH
