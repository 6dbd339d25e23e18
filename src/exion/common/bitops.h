/**
 * @file
 * Bit-level primitives used by the eager-prediction log-domain path.
 *
 * The leading-one detector (LOD) approximates |x| by its most
 * significant set bit; the two-step LOD (TS-LOD, Section IV-D of the
 * paper) additionally captures the next set bit, halving the worst-case
 * approximation error at the cost of quadrupling addition operands.
 */

#ifndef EXION_COMMON_BITOPS_H_
#define EXION_COMMON_BITOPS_H_

#include <bit>
#include <cstdint>

#include "exion/common/logging.h"
#include "exion/common/types.h"

namespace exion
{

/** Sentinel for "no set bit" (value was zero). */
inline constexpr int kNoLeadingOne = -1;

/**
 * Position of the leading one of v (0 = LSB), or kNoLeadingOne.
 *
 * This is the single-step LOD of the original eager-prediction
 * hardware (FACT): v is approximated as 2^lod(v). Zero input is
 * well-defined and returns kNoLeadingOne — callers must check the
 * sentinel before using the position as a shift amount.
 */
constexpr int
leadingOne(u32 v)
{
    if (v == 0)
        return kNoLeadingOne;
    return 31 - std::countl_zero(v);
}

/** Result of a two-step leading-one detection. */
struct TsLod
{
    /** Position of the most significant set bit, or kNoLeadingOne. */
    int first = kNoLeadingOne;
    /** Position of the next set bit after clearing first, or -1. */
    int second = kNoLeadingOne;

    constexpr bool operator==(const TsLod &) const = default;
};

/**
 * Two-step leading-one detection: v ~= 2^first + 2^second.
 *
 * Used by the EPRE (Fig. 15): first conduct LOD, convert the leading
 * one to zero, then detect one more bit. Zero input yields both
 * fields at kNoLeadingOne; a power of two yields second ==
 * kNoLeadingOne.
 */
constexpr TsLod
twoStepLeadingOne(u32 v)
{
    TsLod out;
    out.first = leadingOne(v);
    if (out.first == kNoLeadingOne)
        return out;
    const u32 cleared = v & ~(u32{1} << out.first);
    out.second = leadingOne(cleared);
    return out;
}

/**
 * Value reconstructed from a single-step LOD approximation (0 -> 0):
 * 2^leadingOne(v), the isolated leading one. Branch-free — LOD
 * inputs are data-random: v | 1 has v's leading one and is never
 * zero, and masking with v maps 0 to 0.
 */
constexpr u32
lodValue(u32 v)
{
    return (u32{1} << (31 - std::countl_zero(v | 1))) & v;
}

/**
 * Value reconstructed from a TS-LOD approximation (0 -> 0):
 * 2^first + 2^second, the two leading set bits of v.
 */
constexpr u32
tsLodValue(u32 v)
{
    const u32 top = lodValue(v);
    return top | lodValue(v ^ top);
}

/** Number of set bits in a 64-bit word. */
constexpr int
popcount64(u64 v)
{
    return std::popcount(v);
}

/**
 * Ceiling division. @pre den > 0; num + den - 1 must not overflow.
 *
 * den == 0 would be undefined behaviour in the division; it is
 * asserted here (and rejected at compile time in constant evaluation).
 */
constexpr u64
ceilDiv(u64 num, u64 den)
{
    EXION_ASSERT(den > 0, "ceilDiv by zero (num ", num, ")");
    return (num + den - 1) / den;
}

} // namespace exion

#endif // EXION_COMMON_BITOPS_H_
