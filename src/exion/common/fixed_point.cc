#include "exion/common/fixed_point.h"

#include <algorithm>
#include <cmath>

#include "exion/common/logging.h"

namespace exion
{

int
intWidthBits(IntWidth width)
{
    switch (width) {
      case IntWidth::Int12:
        return 12;
      case IntWidth::Int16:
        return 16;
      case IntWidth::Int32:
        return 32;
    }
    EXION_PANIC("unhandled IntWidth");
}

i32
intWidthMax(IntWidth width)
{
    const int bits = intWidthBits(width);
    return static_cast<i32>((i64{1} << (bits - 1)) - 1);
}

QuantParams
chooseQuantParams(std::span<const float> data, IntWidth width)
{
    QuantParams params;
    params.width = width;
    float max_abs = 0.0f;
    for (float v : data)
        max_abs = std::max(max_abs, std::abs(v));
    if (max_abs == 0.0f) {
        params.scale = 1.0;
    } else {
        params.scale = static_cast<double>(max_abs) / intWidthMax(width);
    }
    return params;
}

i32
quantize(float x, const QuantParams &params)
{
    const i32 max_q = intWidthMax(params.width);
    const i32 min_q = -max_q - 1;
    const double scaled = std::nearbyint(x / params.scale);
    // NaN (a NaN input, or +-Inf over an Inf scale) has no grid
    // point, and casting it is undefined: it quantises to 0.
    if (std::isnan(scaled))
        return 0;
    const double clamped = std::clamp(
        scaled, static_cast<double>(min_q), static_cast<double>(max_q));
    return static_cast<i32>(clamped);
}

float
dequantize(i32 q, const QuantParams &params)
{
    return static_cast<float>(q * params.scale);
}

float
quantizeDequantize(float x, const QuantParams &params)
{
    return dequantize(quantize(x, params), params);
}

i64
saturatingAdd(i64 a, i64 b, int bits)
{
    EXION_ASSERT(bits >= 2 && bits <= 63, "accumulator width ", bits);
    const i64 max_v = (i64{1} << (bits - 1)) - 1;
    const i64 min_v = -max_v - 1;
    const i64 sum = a + b;
    return std::clamp(sum, min_v, max_v);
}

} // namespace exion
