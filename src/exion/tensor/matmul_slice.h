/**
 * @file
 * Column-sliced tensor-parallel GEMMs with a deterministic merge.
 *
 * Splits the *output* (column) dimension of a projection across a
 * SlicePlan and runs each slice's partial GEMM independently — on the
 * caller's thread, or fork-joined across a ThreadPool via a
 * SliceRunner. Because every output element's k-accumulation chain
 * lives entirely inside one slice (slicing B's columns never touches
 * the reduction), each partial equals the corresponding columns of
 * the solo result bit-for-bit under every GemmBackend x SimdTier, and
 * the merge is a disjoint column paste performed in ascending
 * slice-index order — ordered partial buffers, never reassociated
 * accumulation. TP-vs-solo bit identity therefore holds by
 * construction, exactly like Blocked-vs-Reference.
 *
 * Slice boundaries align to the 64-byte EXWS section granularity
 * (16 float/i32 elements), so a slice view of an mmap'd at-rest
 * weight starts on the same cache-line boundaries the store laid
 * down. Slices are zero-copy strided views (Matrix::borrowStrided /
 * QuantMatrix::borrowStrided) into the parent tensor; a quantized
 * slice keeps the whole tensor's QuantParams — slices are windows
 * onto one quantisation domain, never re-quantised.
 */

#ifndef EXION_TENSOR_MATMUL_SLICE_H_
#define EXION_TENSOR_MATMUL_SLICE_H_

#include <atomic>
#include <functional>
#include <vector>

#include "exion/tensor/gemm.h"
#include "exion/tensor/matrix.h"
#include "exion/tensor/quant_matrix.h"

namespace exion
{

class ThreadPool;

/** One slice's half-open column range [c0, c0 + n). */
struct SliceRange
{
    Index c0 = 0;
    Index n = 0;

    bool empty() const { return n == 0; }
};

/**
 * Partition of a column dimension into at most nSlices contiguous,
 * ascending, disjoint ranges that exactly cover [0, cols).
 */
class SlicePlan
{
  public:
    /** 64-byte EXWS section alignment in 4-byte elements. */
    static constexpr Index kAlignElems = 16;

    /**
     * Builds a balanced plan: cols is carved into alignElems-sized
     * chunks (the last chunk ragged) distributed as evenly as
     * possible. Slices may be empty when nSlices exceeds the chunk
     * count (e.g. nSlices > cols); a 0-column plan has only empty
     * slices. @pre nSlices >= 1
     */
    static SlicePlan make(Index cols, int nSlices,
                          Index alignElems = kAlignElems);

    /** Number of slices (== the nSlices the plan was built for). */
    int slices() const { return static_cast<int>(ranges_.size()); }

    /** Column range of slice s. */
    const SliceRange &range(int s) const { return ranges_[s]; }

    /** Total columns covered. */
    Index cols() const { return cols_; }

    /** True when more than one slice has columns to compute. */
    bool parallel() const { return nonEmpty_ > 1; }

  private:
    std::vector<SliceRange> ranges_;
    Index cols_ = 0;
    int nonEmpty_ = 0;
};

/**
 * Executes the nTasks slice bodies of one fork-join region. run()
 * returns only after every body has completed; bodies may execute on
 * any thread in any order (results are written to disjoint partial
 * buffers and merged by the caller afterwards, so execution order
 * never reaches the numerics).
 */
class SliceRunner
{
  public:
    virtual ~SliceRunner() = default;

    /** Runs fn(0) .. fn(nTasks-1) to completion. */
    virtual void run(int nTasks, const std::function<void(int)> &fn) = 0;
};

/** Runs every slice on the calling thread, in index order. */
class SerialSliceRunner : public SliceRunner
{
  public:
    void run(int nTasks, const std::function<void(int)> &fn) override;
};

/**
 * Fork-join over a ThreadPool, deadlock-free by caller participation:
 * run() posts up to nTasks-1 helper tasks at the highest priority and
 * then claims slices itself from a shared atomic counter, so a
 * saturated (or already stopping) pool degrades to the caller
 * computing every slice instead of blocking on helpers that can never
 * be scheduled. Helpers that lose every claim exit without work. The
 * first slice exception is rethrown on the caller after the join.
 *
 * Optional slice->CPU affinity (setSliceCpus): a helper pins itself
 * best-effort to slice s's CPU set before computing it, so --numa
 * deployments keep a slice's memory traffic on one node. Caller-run
 * slices keep the caller's affinity (the engine worker is typically
 * already pinned). Degrades with a single warning when the platform
 * refuses.
 */
class PoolSliceRunner : public SliceRunner
{
  public:
    /** The pool must outlive the runner. */
    explicit PoolSliceRunner(ThreadPool &pool);

    /**
     * Installs the slice->CPU map: slice s pins to
     * cpuSets[s % cpuSets.size()]. Empty disables pinning. Not
     * thread-safe against concurrent run() — install at setup time.
     */
    void setSliceCpus(std::vector<std::vector<int>> cpuSets);

    void run(int nTasks, const std::function<void(int)> &fn) override;

  private:
    ThreadPool *pool_;
    std::vector<std::vector<int>> sliceCpus_;
    std::atomic<bool> warnedAffinity_{false};
};

/**
 * How a call site runs its tensor-parallel GEMMs. Copyable value:
 * nSlices == 1 (or a null runner is fine — slices then run serially
 * on the caller) disables slicing and every sliced entry point
 * degenerates to its solo equivalent.
 */
struct TpContext
{
    int nSlices = 1;
    SliceRunner *runner = nullptr; //!< null: slices run on the caller

    bool active() const { return nSlices > 1; }
};

/** Zero-copy view of b's columns [r.c0, r.c0 + r.n). */
Matrix sliceCols(const Matrix &b, const SliceRange &r);

/** Zero-copy view of q's columns, keeping the whole-tensor params. */
QuantMatrix sliceCols(const QuantMatrix &q, const SliceRange &r);

/**
 * Dispatches the n slice bodies through tp.runner (serially on the
 * caller when the runner is null). The building block the sliced
 * entry points below — and the sparsity layer's sliced masked
 * products — share.
 */
void runSliced(const TpContext &tp, int n,
               const std::function<void(int)> &fn);

/*
 * Sliced GEMM entry points. Each is bit-identical to its solo
 * matmul*With counterpart for every backend/tier; with an inactive
 * TpContext they *are* the solo call.
 */

/** C = A * B, B's columns sliced across tp. */
Matrix matmulSliced(const Matrix &a, const Matrix &b, const TpContext &tp,
                    GemmBackend backend,
                    SimdTier simd = defaultSimdTier());

/** Integer matmul, B's columns sliced across tp. */
Matrix matmulQuantSliced(const QuantMatrix &a, const QuantMatrix &b,
                         const TpContext &tp, GemmBackend backend,
                         SimdTier simd = defaultSimdTier());

} // namespace exion

#endif // EXION_TENSOR_MATMUL_SLICE_H_
