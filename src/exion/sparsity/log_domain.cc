#include "exion/sparsity/log_domain.h"

#include <cstdlib>

#include "exion/tensor/gemm.h"

namespace exion
{

i64
ldProduct(i32 a, i32 b, LodMode mode)
{
    if (a == 0 || b == 0)
        return 0;
    const bool negative = (a < 0) != (b < 0);
    const u32 ua = static_cast<u32>(std::abs(static_cast<i64>(a)));
    const u32 ub = static_cast<u32>(std::abs(static_cast<i64>(b)));

    i64 magnitude = 0;
    if (mode == LodMode::Single) {
        const int pa = leadingOne(ua);
        const int pb = leadingOne(ub);
        // The zero-operand early return above makes the sentinel
        // unreachable here, but a kNoLeadingOne (-1) position used as
        // a shift amount would be UB — guard locally so the check
        // does not depend on distant control flow.
        if (pa == kNoLeadingOne || pb == kNoLeadingOne)
            return 0;
        magnitude = i64{1} << (pa + pb);
    } else {
        const TsLod ta = twoStepLeadingOne(ua);
        const TsLod tb = twoStepLeadingOne(ub);
        const int a_bits[2] = {ta.first, ta.second};
        const int b_bits[2] = {tb.first, tb.second};
        for (int ai : a_bits) {
            if (ai == kNoLeadingOne)
                continue;
            for (int bi : b_bits) {
                if (bi == kNoLeadingOne)
                    continue;
                magnitude += i64{1} << (ai + bi);
            }
        }
    }
    return negative ? -magnitude : magnitude;
}

namespace
{

/** img(v) = sign(v) * (ts)lodValue(|v|), branch-free in the sign
    (operand signs are data-random). */
template <LodMode Mode>
inline i32
signedImage(i32 v)
{
    const u32 sign = static_cast<u32>(v >> 31); // 0 or all ones
    const u32 mag = (static_cast<u32>(v) ^ sign) - sign;
    const u32 lod =
        Mode == LodMode::Single ? lodValue(mag) : tsLodValue(mag);
    return static_cast<i32>((lod ^ sign) - sign);
}

/** out[r * ld_r + c * ld_c] = img(q(r, c)). */
template <LodMode Mode>
void
fillImage(const QuantMatrix &q, i32 *out, Index ld_r, Index ld_c)
{
    const Index cols = q.cols();
    for (Index r = 0; r < q.rows(); ++r) {
        const i32 *row = q.rowPtr(r);
        i32 *dst = out + r * ld_r;
        for (Index c = 0; c < cols; ++c)
            dst[c * ld_c] = signedImage<Mode>(row[c]);
    }
}

} // namespace

QuantMatrix
ldImage(const QuantMatrix &q, LodMode mode, bool transposed)
{
    EXION_ASSERT(q.params().width != IntWidth::Int32,
                 "log-domain operands must be at most Int16 wide");
    QuantMatrix img(transposed ? q.cols() : q.rows(),
                    transposed ? q.rows() : q.cols(), q.params());
    if (img.size() == 0)
        return img;
    // Element (r, c) of q lands at (c, r) of a transposed image.
    const Index ld_r = transposed ? 1 : q.cols();
    const Index ld_c = transposed ? q.rows() : 1;
    if (mode == LodMode::Single)
        fillImage<LodMode::Single>(q, &img(0, 0), ld_r, ld_c);
    else
        fillImage<LodMode::TwoStep>(q, &img(0, 0), ld_r, ld_c);
    return img;
}

Matrix
ldMatmul(const QuantMatrix &a, const QuantMatrix &b, LodMode mode,
         SimdTier simd)
{
    return matmulQuantWith(ldImage(a, mode), ldImage(b, mode),
                           GemmBackend::Blocked, simd);
}

Matrix
ldMatmulTransposed(const QuantMatrix &a, const QuantMatrix &b,
                   LodMode mode, SimdTier simd)
{
    return matmulQuantWith(ldImage(a, mode), ldImage(b, mode, true),
                           GemmBackend::Blocked, simd);
}

Matrix
ldMatmulFloat(const Matrix &a, const Matrix &b, LodMode mode,
              SimdTier simd)
{
    const QuantMatrix qa = QuantMatrix::fromFloat(a, IntWidth::Int12);
    const QuantMatrix qb = QuantMatrix::fromFloat(b, IntWidth::Int12);
    return ldMatmul(qa, qb, mode, simd);
}

} // namespace exion
