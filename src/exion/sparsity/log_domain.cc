#include "exion/sparsity/log_domain.h"

#include <algorithm>
#include <cstdlib>

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

LdImage
ldImage(const QuantMatrix &q, LodMode mode, bool transposed)
{
    EXION_ASSERT(q.params().width != IntWidth::Int32,
                 "log-domain operands must be at most Int16 wide");
    LdImage img;
    img.rows = transposed ? q.cols() : q.rows();
    img.cols = transposed ? q.rows() : q.cols();
    img.mode = mode;
    img.scale = q.scale();
    img.values.resize(q.size());
    for (Index r = 0; r < q.rows(); ++r) {
        const i32 *row = q.rowPtr(r);
        for (Index c = 0; c < q.cols(); ++c) {
            const i32 v = row[c];
            const u32 mag = static_cast<u32>(std::abs(static_cast<i64>(v)));
            const i64 lod =
                mode == LodMode::Single ? lodValue(mag) : tsLodValue(mag);
            // Branch-free sign: operand signs are data-random.
            const i64 sign = v >> 31; // 0 or -1
            img.values[transposed ? c * q.rows() + r : r * q.cols() + c] =
                static_cast<double>((lod ^ sign) - sign);
        }
    }
    return img;
}

Matrix
ldMatmul(const LdImage &a, const LdImage &b)
{
    EXION_ASSERT(a.cols == b.rows, "ldMatmul shape mismatch");
    EXION_ASSERT(a.mode == b.mode, "ldMatmul LOD depth mismatch");
    EXION_ASSERT(a.cols < (Index{1} << 22),
                 "ldMatmul k too long for exact accumulation");
    Matrix c(a.rows, b.cols);
    const double out_scale = a.scale * b.scale;
    const Index n = b.cols;
    // One exact accumulator per output column; the j-sweep carries
    // no dependency, so it vectorises at whatever width the build
    // targets without changing a single bit of the sum.
    std::vector<double> acc(n);
    for (Index i = 0; i < a.rows; ++i) {
        std::fill(acc.begin(), acc.end(), 0.0);
        const double *arow = a.values.data() + i * a.cols;
        for (Index k = 0; k < a.cols; ++k) {
            const double aik = arow[k];
            const double *brow = b.values.data() + k * n;
            for (Index j = 0; j < n; ++j)
                acc[j] += aik * brow[j];
        }
        float *crow = c.rowPtr(i);
        for (Index j = 0; j < n; ++j)
            crow[j] = static_cast<float>(acc[j] * out_scale);
    }
    return c;
}

Matrix
ldMatmul(const QuantMatrix &a, const QuantMatrix &b, LodMode mode,
         SimdTier)
{
    return ldMatmul(ldImage(a, mode), ldImage(b, mode));
}

Matrix
ldMatmulTransposed(const QuantMatrix &a, const QuantMatrix &b,
                   LodMode mode, SimdTier)
{
    return ldMatmul(ldImage(a, mode), ldImage(b, mode, true));
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
