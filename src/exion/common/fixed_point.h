/**
 * @file
 * Integer quantisation helpers.
 *
 * EXION's post-training quantisation (Section V-A) reduces MMUL
 * operands to INT12 (SDUE/EPRE) and keeps special functions in INT16 or
 * INT32 on the CFSE. We model symmetric per-tensor quantisation with a
 * power-free scale: q = clamp(round(x / scale)) and x' = q * scale.
 */

#ifndef EXION_COMMON_FIXED_POINT_H_
#define EXION_COMMON_FIXED_POINT_H_

#include <span>
#include <vector>

#include "exion/common/types.h"

namespace exion
{

/** Bit widths the EXION datapath uses. */
enum class IntWidth
{
    Int12, //!< SDUE / EPRE MMUL operands
    Int16, //!< CFSE two-way mode
    Int32, //!< CFSE one-way mode
};

/** Number of magnitude+sign bits for a width. */
int intWidthBits(IntWidth width);

/** Max representable value for a signed integer of the given width. */
i32 intWidthMax(IntWidth width);

/** Symmetric per-tensor quantisation parameters. */
struct QuantParams
{
    double scale = 1.0;   //!< real value represented by integer 1
    IntWidth width = IntWidth::Int12;
};

/**
 * Picks a scale so max(|x|) maps to the top of the integer range.
 *
 * @param data   values to cover
 * @param width  target width
 * @return       parameters with scale = maxAbs / intMax (1.0 if empty)
 */
QuantParams chooseQuantParams(std::span<const float> data,
                              IntWidth width);

/**
 * Quantises one value: clamp(round(x / scale)). A NaN quotient (NaN
 * x, or +-Inf x over an Inf scale) quantises to 0.
 */
i32 quantize(float x, const QuantParams &params);

/** Dequantises one value: q * scale. */
float dequantize(i32 q, const QuantParams &params);

/** Round-trips a value through the integer grid. */
float quantizeDequantize(float x, const QuantParams &params);

/** Saturating add for an accumulator of the given width. */
i64 saturatingAdd(i64 a, i64 b, int bits);

} // namespace exion

#endif // EXION_COMMON_FIXED_POINT_H_
