/**
 * @file
 * Dense linear-algebra reference kernels.
 *
 * These are the golden-model implementations every accelerated or
 * sparsity-skipping path in the repository is validated against.
 *
 * Accumulation contract of the matmul family: every output element is
 * a single accumulator starting at +0.0f that adds a(i,k)*b(k,j) for
 * k ascending, with plain IEEE-754 semantics and **no zero-operand
 * skipping** — a zero activation against a NaN/Inf weight produces
 * NaN, exactly as written. (An earlier matmul() skipped a == 0.0f
 * contributions while matmulTransposed() did not, so the two golden
 * kernels could disagree under NaN/Inf or signed-zero payloads;
 * sparsity shortcuts belong in the sparsity layer, not the golden
 * model.) Consequently matmul(a, b) and
 * matmulTransposed(a, transpose(b)) agree bit for bit on every input.
 *
 * The matmul family dispatches on the process-default GemmBackend
 * (see tensor/gemm.h); all backends honour the contract above
 * bit-identically.
 */

#ifndef EXION_TENSOR_OPS_H_
#define EXION_TENSOR_OPS_H_

#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

/** C = A * B. @pre A.cols() == B.rows(). */
Matrix matmul(const Matrix &a, const Matrix &b);

/** C = A * B^T. @pre A.cols() == B.cols(). */
Matrix matmulTransposed(const Matrix &a, const Matrix &b);

/** Returns A^T. */
Matrix transpose(const Matrix &a);

/** C = A + B elementwise. @pre identical shapes. */
Matrix add(const Matrix &a, const Matrix &b);

/** C = A - B elementwise. @pre identical shapes. */
Matrix sub(const Matrix &a, const Matrix &b);

/** C = A * s elementwise. */
Matrix scale(const Matrix &a, float s);

/** Adds a row vector (1 x cols) to every row of A in place. */
void addRowVector(Matrix &a, const Matrix &row);

/**
 * Adds a row vector (1 x cols) to rows [r0, r0+n) of A in place.
 *
 * The per-row arithmetic is identical to addRowVector(), so applying
 * it segment-by-segment over a stacked matrix is bit-identical to
 * applying addRowVector() to each segment separately.
 */
void addRowVectorToRows(Matrix &a, const Matrix &row, Index r0, Index n);

/** Integer matmul on quantised operands, float accumulator output. */
Matrix matmulQuant(const QuantMatrix &a, const QuantMatrix &b);

/** Frobenius norm of A. */
double frobeniusNorm(const Matrix &a);

/** Largest |a - b| over all elements. @pre identical shapes. */
double maxAbsDiff(const Matrix &a, const Matrix &b);

/**
 * Returns rows [r0, r0+n) of A as an n x cols matrix.
 *
 * The range check (here and in sliceCols/sliceBlock/viewBlock/
 * pasteRows/addRowVectorToRows) is wraparound-safe: Index is unsigned, so a
 * negative r0 or n computed in caller arithmetic arrives as a huge
 * value, and a naive `r0 + n <= rows` guard would wrap right past
 * the bound it is meant to enforce.
 */
Matrix sliceRows(const Matrix &a, Index r0, Index n);

/** Returns columns [c0, c0+n) of A as a rows x n matrix. */
Matrix sliceCols(const Matrix &a, Index c0, Index n);

/**
 * Returns the nr x nc block of A at (r0, c0). Equals
 * sliceCols(sliceRows(a, r0, nr), c0, nc) without the intermediate
 * copy.
 */
Matrix sliceBlock(const Matrix &a, Index r0, Index nr, Index c0,
                  Index nc);

/**
 * The nr x nc block of A at (r0, c0) as a zero-copy strided view
 * (Matrix::borrowStrided): the elements of sliceBlock, but aliasing
 * A, which must outlive the view unmodified.
 */
Matrix viewBlock(const Matrix &a, Index r0, Index nr, Index c0,
                 Index nc);

/** Writes the rows of src into A starting at row r0. */
void pasteRows(Matrix &a, const Matrix &src, Index r0);

} // namespace exion

#endif // EXION_TENSOR_OPS_H_
