#include "exion/tensor/matmul_slice.h"

#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>

#include "exion/common/logging.h"
#include "exion/common/numa.h"
#include "exion/common/threadpool.h"

namespace exion
{

namespace
{

/**
 * Slice helpers pre-empt queued requests: a request mid-GEMM holds a
 * worker hostage until its slices finish, so the pool should clear
 * slice work before starting anything new.
 */
constexpr i64 kSlicePriority = std::numeric_limits<i64>::max();

/**
 * Pastes the partial buffers into one m x cols result, in ascending
 * slice-index order. The ranges are disjoint, so this is a plain
 * column copy — no arithmetic, nothing to reassociate.
 */
Matrix
mergeParts(Index m, Index cols, const SlicePlan &plan,
           const std::vector<Matrix> &parts)
{
    Matrix out(m, cols);
    for (int s = 0; s < plan.slices(); ++s) {
        const SliceRange &r = plan.range(s);
        if (r.empty())
            continue;
        const Matrix &part = parts[s];
        EXION_ASSERT(part.rows() == m && part.cols() == r.n,
                     "slice ", s, " partial is ", part.rows(), "x",
                     part.cols(), ", want ", m, "x", r.n);
        for (Index i = 0; i < m; ++i)
            std::memcpy(out.rowPtr(i) + r.c0, part.rowPtr(i),
                        static_cast<size_t>(r.n) * sizeof(float));
    }
    return out;
}

} // namespace

SlicePlan
SlicePlan::make(Index cols, int nSlices, Index alignElems)
{
    EXION_ASSERT(nSlices >= 1, "slice plan needs >= 1 slices, got ",
                 nSlices);
    EXION_ASSERT(alignElems >= 1, "slice alignment must be >= 1");
    SlicePlan plan;
    plan.cols_ = cols;
    plan.ranges_.resize(static_cast<size_t>(nSlices));
    const Index chunks = (cols + alignElems - 1) / alignElems;
    const Index base = nSlices > 0 ? chunks / nSlices : 0;
    const Index extra = nSlices > 0 ? chunks % nSlices : 0;
    Index c0 = 0;
    for (int s = 0; s < nSlices; ++s) {
        const Index nChunks =
            base + (static_cast<Index>(s) < extra ? 1 : 0);
        Index c1 = c0 + nChunks * alignElems;
        if (c1 > cols)
            c1 = cols;
        plan.ranges_[static_cast<size_t>(s)] = {c0, c1 - c0};
        if (c1 > c0)
            ++plan.nonEmpty_;
        c0 = c1;
    }
    EXION_ASSERT(c0 == cols, "slice plan covers ", c0, " of ", cols,
                 " columns");
    return plan;
}

void
SerialSliceRunner::run(int nTasks, const std::function<void(int)> &fn)
{
    for (int s = 0; s < nTasks; ++s)
        fn(s);
}

PoolSliceRunner::PoolSliceRunner(ThreadPool &pool) : pool_(&pool) {}

void
PoolSliceRunner::setSliceCpus(std::vector<std::vector<int>> cpuSets)
{
    sliceCpus_ = std::move(cpuSets);
}

void
PoolSliceRunner::run(int nTasks, const std::function<void(int)> &fn)
{
    if (nTasks <= 0)
        return;
    if (nTasks == 1) {
        fn(0);
        return;
    }

    /** Shared fork-join state; helpers hold it past run()'s return. */
    struct Join
    {
        std::atomic<int> next{0}; //!< next unclaimed slice
        std::atomic<int> done{0}; //!< slices fully computed
        std::mutex mutex;
        std::condition_variable cv;
        std::exception_ptr error;
    };
    auto join = std::make_shared<Join>();
    const int n = nTasks;

    // Claim-loop shared by helpers and the caller. Work distribution
    // is an atomic counter, so a helper that never gets scheduled
    // simply loses every claim to the caller — the join can always
    // complete on the caller's thread alone (deadlock-free even when
    // the caller *is* a pool worker and the pool is saturated).
    auto claim = [this, join, n](const std::function<void(int)> &body,
                                 bool isHelper) {
        for (;;) {
            const int s = join->next.fetch_add(1);
            if (s >= n)
                break;
            if (isHelper && !sliceCpus_.empty()) {
                const std::vector<int> &cpus =
                    sliceCpus_[static_cast<size_t>(s)
                               % sliceCpus_.size()];
                if (!pinCurrentThread(cpus)
                    && !warnedAffinity_.exchange(true))
                    EXION_WARN("tensor-parallel slice affinity "
                               "unavailable; helpers stay floating");
            }
            try {
                body(s);
            } catch (...) {
                std::lock_guard<std::mutex> lock(join->mutex);
                if (!join->error)
                    join->error = std::current_exception();
            }
            if (join->done.fetch_add(1) + 1 == n) {
                std::lock_guard<std::mutex> lock(join->mutex);
                join->cv.notify_all();
            }
        }
    };

    // Helpers copy fn: one may wake after run() returned (all slices
    // claimed elsewhere), find no work and exit — but it still
    // evaluates its captures.
    try {
        for (int i = 0; i < n - 1; ++i)
            pool_->postTagged(
                [claim, fn]() { claim(fn, /*isHelper=*/true); },
                kSlicePriority);
    } catch (const ThreadPoolStopped &) {
        // Draining pool: the caller computes everything below.
    }

    claim(fn, /*isHelper=*/false);

    std::unique_lock<std::mutex> lock(join->mutex);
    join->cv.wait(lock, [&]() { return join->done.load() >= n; });
    if (join->error)
        std::rethrow_exception(join->error);
}

Matrix
sliceCols(const Matrix &b, const SliceRange &r)
{
    EXION_ASSERT(r.c0 + r.n <= b.cols(), "column slice [", r.c0, ", ",
                 r.c0 + r.n, ") out of ", b.cols(), " columns");
    if (b.rows() == 0 || r.n == 0)
        return Matrix::borrowStrided(nullptr, b.rows(), r.n,
                                     r.n > 0 ? r.n : b.rowStride());
    return Matrix::borrowStrided(b.rowPtr(0) + r.c0, b.rows(), r.n,
                                 b.rowStride());
}

QuantMatrix
sliceCols(const QuantMatrix &q, const SliceRange &r)
{
    EXION_ASSERT(r.c0 + r.n <= q.cols(), "column slice [", r.c0, ", ",
                 r.c0 + r.n, ") out of ", q.cols(), " columns");
    if (q.rows() == 0 || r.n == 0)
        return QuantMatrix::borrowStrided(nullptr, q.rows(), r.n,
                                          r.n > 0 ? r.n : q.rowStride(),
                                          q.params());
    return QuantMatrix::borrowStrided(q.rowPtr(0) + r.c0, q.rows(), r.n,
                                      q.rowStride(), q.params());
}

void
runSliced(const TpContext &tp, int n, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    if (tp.runner != nullptr && n > 1) {
        tp.runner->run(n, fn);
        return;
    }
    for (int s = 0; s < n; ++s)
        fn(s);
}

Matrix
matmulSliced(const Matrix &a, const Matrix &b, const TpContext &tp,
             GemmBackend backend, SimdTier simd)
{
    const SlicePlan plan =
        SlicePlan::make(b.cols(), tp.active() ? tp.nSlices : 1);
    if (!plan.parallel())
        return matmulWith(a, b, backend, simd);
    std::vector<Matrix> parts(static_cast<size_t>(plan.slices()));
    runSliced(tp, plan.slices(), [&](int s) {
        const SliceRange &r = plan.range(s);
        if (!r.empty())
            parts[static_cast<size_t>(s)] =
                matmulWith(a, sliceCols(b, r), backend, simd);
    });
    return mergeParts(a.rows(), b.cols(), plan, parts);
}

Matrix
matmulQuantSliced(const QuantMatrix &a, const QuantMatrix &b,
                  const TpContext &tp, GemmBackend backend,
                  SimdTier simd)
{
    const SlicePlan plan =
        SlicePlan::make(b.cols(), tp.active() ? tp.nSlices : 1);
    if (!plan.parallel())
        return matmulQuantWith(a, b, backend, simd);
    std::vector<Matrix> parts(static_cast<size_t>(plan.slices()));
    runSliced(tp, plan.slices(), [&](int s) {
        const SliceRange &r = plan.range(s);
        if (!r.empty())
            parts[static_cast<size_t>(s)] =
                matmulQuantWith(a, sliceCols(b, r), backend, simd);
    });
    return mergeParts(a.rows(), b.cols(), plan, parts);
}

} // namespace exion
