/**
 * @file
 * Tests for the batched serving engine: batched-vs-sequential
 * bit-identity under threading, priority scheduling, admission
 * control and cancellation; per-request state isolation; mixed
 * request scheduling; async submit/complete delivery (tickets,
 * callback, result queue); admission policies (class bounds, load
 * shedding, block-with-timeout); EngineMetrics reconciliation;
 * priority-inversion regression and ConMerge accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exion/serve/batch_engine.h"
#include "submit_all.h"

namespace exion
{
namespace
{

ModelConfig
tinyConfig()
{
    return makeTinyConfig(/*tokens=*/8, /*d_model=*/16, /*n_blocks=*/2,
                          /*iterations=*/6);
}

/** A mixed batch over one tiny model: modes, seeds, quantisation. */
std::vector<ServeRequest>
mixedBatch(Benchmark b, int n)
{
    std::vector<ServeRequest> batch;
    const ExecMode modes[] = {ExecMode::Dense, ExecMode::FfnReuseOnly,
                              ExecMode::EpOnly, ExecMode::Exion};
    for (int i = 0; i < n; ++i) {
        ServeRequest req;
        req.id = static_cast<u64>(i);
        req.benchmark = b;
        req.mode = modes[i % 4];
        req.quantize = i % 3 == 0;
        req.noiseSeed = 100 + static_cast<u64>(i);
        batch.push_back(req);
    }
    return batch;
}

void
expectBitIdentical(const std::vector<RequestResult> &a,
                   const std::vector<RequestResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (Index i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        ASSERT_EQ(a[i].output.rows(), b[i].output.rows());
        ASSERT_EQ(a[i].output.cols(), b[i].output.cols());
        for (Index e = 0; e < a[i].output.size(); ++e)
            EXPECT_EQ(a[i].output.data()[e], b[i].output.data()[e])
                << "request " << i << " element " << e;
        EXPECT_EQ(a[i].stats.totalExecuted(), b[i].stats.totalExecuted());
        EXPECT_EQ(a[i].stats.totalDense(), b[i].stats.totalDense());
    }
}

TEST(BatchEngine, BatchedMatchesSequentialBitExactly)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 4;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    const auto batch = mixedBatch(cfg.benchmark, 12);
    const auto sequential = engine.runSequential(batch);
    const auto batched = submitAll(engine, batch);
    expectBitIdentical(sequential, batched);
}

TEST(BatchEngine, RepeatedBatchesAreDeterministic)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 3;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    const auto batch = mixedBatch(cfg.benchmark, 8);
    expectBitIdentical(submitAll(engine, batch), submitAll(engine, batch));
}

TEST(BatchEngine, WorkerCountDoesNotChangeResults)
{
    const ModelConfig cfg = tinyConfig();
    const auto batch = mixedBatch(cfg.benchmark, 8);

    BatchEngine::Options one;
    one.workers = 1;
    BatchEngine engine1(one);
    engine1.addModel(cfg);

    BatchEngine::Options many;
    many.workers = 8;
    BatchEngine engine8(many);
    engine8.addModel(cfg);

    expectBitIdentical(submitAll(engine1, batch),
                       submitAll(engine8, batch));
}

TEST(BatchEngine, PrioritiesDoNotChangeResultsAtAnyWorkerCount)
{
    // The priority queue reorders execution, never numerics: a batch
    // with adversarially mixed classes and deadlines must stay
    // bit-identical to its sequential run at 1, 2 and 8 workers.
    const ModelConfig cfg = tinyConfig();
    auto batch = mixedBatch(cfg.benchmark, 12);
    const Priority classes[] = {Priority::Low, Priority::Critical,
                                Priority::Normal, Priority::High};
    for (Index i = 0; i < batch.size(); ++i) {
        batch[i].priority = classes[i % 4];
        batch[i].deadlineSeconds =
            i % 3 == 0 ? 0.0 : 0.5 * static_cast<double>(i);
    }

    std::vector<RequestResult> reference;
    for (int workers : {1, 2, 8}) {
        BatchEngine::Options opts;
        opts.workers = workers;
        BatchEngine engine(opts);
        engine.addModel(cfg);
        if (reference.empty())
            reference = engine.runSequential(batch);
        expectBitIdentical(reference, submitAll(engine, batch));
    }
}

TEST(BatchEngine, MatchesDirectPipelineRun)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.mode = ExecMode::Dense;
    req.noiseSeed = 42;
    const RequestResult result = engine.submit(req).get();

    DiffusionPipeline pipe(cfg);
    DenseExecutor exec;
    const Matrix expected = pipe.run(exec, /*noise_seed=*/42);
    ASSERT_EQ(result.output.size(), expected.size());
    for (Index e = 0; e < expected.size(); ++e)
        EXPECT_EQ(result.output.data()[e], expected.data()[e]);
    EXPECT_EQ(result.stats.totalExecuted(),
              exec.stats().totalExecuted());
}

TEST(BatchEngine, SparseRequestsKeepIndependentReuseState)
{
    // Two concurrent Exion requests with different seeds must match
    // their isolated single-stream runs: shared FFN-Reuse state would
    // corrupt masks and partial sums across streams.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::vector<ServeRequest> batch(2);
    batch[0].benchmark = cfg.benchmark;
    batch[0].mode = ExecMode::Exion;
    batch[0].noiseSeed = 1;
    batch[1] = batch[0];
    batch[1].id = 1;
    batch[1].noiseSeed = 2;

    const auto results = submitAll(engine, batch);
    for (int i = 0; i < 2; ++i) {
        DiffusionPipeline pipe(cfg);
        SparseExecutor exec(SparseExecutor::fromConfig(
            cfg, /*use_ffn_reuse=*/true, /*use_ep=*/true,
            /*quantize=*/false));
        const Matrix expected =
            pipe.run(exec, /*noise_seed=*/1 + static_cast<u64>(i));
        for (Index e = 0; e < expected.size(); ++e)
            EXPECT_EQ(results[i].output.data()[e], expected.data()[e])
                << "request " << i << " element " << e;
    }
}

TEST(BatchEngine, TracksConMergeStatsPerRequest)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.mode = ExecMode::Exion;
    req.trackConMerge = true;
    const RequestResult tracked = engine.submit(req).get();
    // 6 iterations x 2 blocks of masks flow through ConMerge; the
    // dense-interval pattern fires onFfnMask every iteration.
    EXPECT_GT(tracked.conmerge.groups, 0u);
    EXPECT_GT(tracked.conmerge.matrixColumns, 0u);

    req.trackConMerge = false;
    const RequestResult untracked = engine.submit(req).get();
    EXPECT_EQ(untracked.conmerge.groups, 0u);

    // Accounting must not perturb numerics.
    for (Index e = 0; e < tracked.output.size(); ++e)
        EXPECT_EQ(tracked.output.data()[e], untracked.output.data()[e]);
}

TEST(BatchEngine, ResultsKeepRequestOrderAndIds)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 4;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    auto batch = mixedBatch(cfg.benchmark, 10);
    for (Index i = 0; i < batch.size(); ++i)
        batch[i].id = 1000 + static_cast<u64>(i);
    const auto results = submitAll(engine, batch);
    ASSERT_EQ(results.size(), batch.size());
    for (Index i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].id, 1000 + static_cast<u64>(i));
}

TEST(BatchEngine, ServesMultipleModels)
{
    const ModelConfig tiny = tinyConfig();
    ModelConfig other = makeTinyConfig(/*tokens=*/4, /*d_model=*/8,
                                       /*n_blocks=*/1, /*iterations=*/4);
    other.benchmark = Benchmark::DiT;

    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine engine(opts);
    engine.addModel(tiny);
    engine.addModel(other);

    std::vector<ServeRequest> batch(2);
    batch[0].benchmark = tiny.benchmark;
    batch[1].benchmark = other.benchmark;
    batch[1].id = 1;
    const auto results = submitAll(engine, batch);
    EXPECT_EQ(results[0].output.rows(), tiny.latentTokens);
    EXPECT_EQ(results[1].output.rows(), other.latentTokens);
}

TEST(BatchEngine, TicketSurface)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    Ticket invalid;
    EXPECT_FALSE(invalid.valid());

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.id = 77;
    const Ticket a = engine.submit(req);
    const Ticket b = engine.submit(req);
    EXPECT_TRUE(a.valid());
    EXPECT_LT(a.id(), b.id());

    a.wait();
    EXPECT_TRUE(a.ready());
    // get() copies; the ticket stays consumable.
    const RequestResult first = a.get();
    const RequestResult again = a.get();
    EXPECT_EQ(first.id, 77u);
    EXPECT_TRUE(first.ok());
    for (Index e = 0; e < first.output.size(); ++e)
        EXPECT_EQ(first.output.data()[e], again.output.data()[e]);
    b.wait();
    engine.waitIdle();
    EXPECT_EQ(engine.inFlight(), 0u);
}

TEST(BatchEngine, PriorityInversionRegression)
{
    // A burst of low-priority requests submitted first must not delay
    // a high-priority request's completion: with one worker and the
    // scheduler paused while the burst queues, the high-priority
    // request must be the first completion delivered.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::mutex order_mutex;
    std::vector<u64> completion_order;
    engine.setOnComplete([&](const RequestResult &r) {
        std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(r.id);
    });

    engine.pause();
    std::vector<Ticket> tickets;
    for (int i = 0; i < 6; ++i) {
        ServeRequest low;
        low.benchmark = cfg.benchmark;
        low.id = static_cast<u64>(i);
        low.priority = Priority::Low;
        low.noiseSeed = 10 + static_cast<u64>(i);
        tickets.push_back(engine.submit(low));
    }
    ServeRequest high;
    high.benchmark = cfg.benchmark;
    high.id = 999;
    high.priority = Priority::High;
    tickets.push_back(engine.submit(high));
    engine.resume();

    engine.waitIdle();
    ASSERT_EQ(completion_order.size(), 7u);
    EXPECT_EQ(completion_order.front(), 999u)
        << "high-priority request completed behind queued "
           "low-priority work";
}

TEST(BatchEngine, EarlierDeadlineRunsFirstWithinClass)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::mutex order_mutex;
    std::vector<u64> completion_order;
    engine.setOnComplete([&](const RequestResult &r) {
        std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(r.id);
    });

    // Same class; deadlines 30 s, 10 s, 20 s, none — EDF order is
    // 10 s, 20 s, 30 s, then the deadline-free request.
    const double deadlines[] = {30.0, 10.0, 20.0, 0.0};
    engine.pause();
    for (int i = 0; i < 4; ++i) {
        ServeRequest req;
        req.benchmark = cfg.benchmark;
        req.id = static_cast<u64>(i);
        req.deadlineSeconds = deadlines[i];
        engine.submit(req);
    }
    engine.resume();
    engine.waitIdle();

    const std::vector<u64> expected = {1, 2, 0, 3};
    EXPECT_EQ(completion_order, expected);
}

TEST(BatchEngine, CallbackAndQueueDeliveryAreEquivalent)
{
    // Every submit() delivers each completion to both the callback
    // and the result queue; the two views must be bit-identical.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 3;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::mutex cb_mutex;
    std::vector<RequestResult> via_callback;
    engine.setOnComplete([&](const RequestResult &r) {
        std::lock_guard<std::mutex> lock(cb_mutex);
        via_callback.push_back(r);
    });

    const auto batch = mixedBatch(cfg.benchmark, 9);
    for (const ServeRequest &req : batch)
        engine.submit(req);

    std::vector<RequestResult> via_queue;
    for (Index i = 0; i < batch.size(); ++i) {
        auto r = engine.results().pop();
        ASSERT_TRUE(r.has_value());
        via_queue.push_back(std::move(*r));
    }
    EXPECT_FALSE(engine.results().tryPop().has_value());
    engine.waitIdle();

    const auto by_id = [](const RequestResult &a,
                          const RequestResult &b) { return a.id < b.id; };
    std::sort(via_callback.begin(), via_callback.end(), by_id);
    std::sort(via_queue.begin(), via_queue.end(), by_id);
    expectBitIdentical(via_callback, via_queue);
    expectBitIdentical(via_queue, engine.runSequential(batch));
}

TEST(BatchEngine, ThrowingCallbackDoesNotBreakDelivery)
{
    // Regression: an exception escaping the completion callback must
    // not leave the Ticket promise unset (deadlocking get()) or the
    // in-flight counter stuck nonzero.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);
    engine.setOnComplete([](const RequestResult &) {
        throw std::runtime_error("misbehaving sink");
    });

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.id = 3;
    const Ticket ticket = engine.submit(req);
    const RequestResult result = ticket.get();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.id, 3u);
    engine.waitIdle();
    EXPECT_EQ(engine.inFlight(), 0u);
    // The queue still got its copy despite the callback throwing.
    EXPECT_TRUE(engine.results().tryPop().has_value());
}

TEST(BatchEngine, QueueResultsOptionDisablesQueueDelivery)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    opts.queueResults = false;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    EXPECT_TRUE(engine.submit(req).get().ok());
    engine.waitIdle();
    EXPECT_EQ(engine.results().size(), 0u);
}

TEST(BatchEngine, ExtremeDeadlinesAreSafe)
{
    // Huge / infinite / NaN deadlines must not overflow the priority
    // encoding (UBSan-checked in CI); they clamp or count as "none"
    // and the requests still complete correctly.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    const double deadlines[] = {
        1e18, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -5.0, 1e-9};
    std::vector<Ticket> tickets;
    for (Index i = 0; i < 5; ++i) {
        ServeRequest req;
        req.benchmark = cfg.benchmark;
        req.id = i;
        req.deadlineSeconds = deadlines[i];
        tickets.push_back(engine.submit(req));
    }
    for (const Ticket &t : tickets)
        EXPECT_TRUE(t.get().ok());
}

TEST(BatchEngine, ShutdownDrainsPendingAndClosesQueue)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause();
    std::vector<Ticket> tickets;
    for (int i = 0; i < 5; ++i) {
        ServeRequest req;
        req.benchmark = cfg.benchmark;
        req.id = static_cast<u64>(i);
        tickets.push_back(engine.submit(req));
    }

    // Graceful: every pending request still runs to completion.
    engine.shutdown();
    for (const Ticket &t : tickets) {
        ASSERT_TRUE(t.ready());
        EXPECT_TRUE(t.get().ok());
    }

    // The queue still serves the drained results, then reports
    // closure instead of blocking forever.
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(engine.results().pop().has_value());
    EXPECT_FALSE(engine.results().pop().has_value());
    EXPECT_TRUE(engine.results().closed());

    ServeRequest late;
    late.benchmark = cfg.benchmark;
    EXPECT_THROW(engine.submit(late), ThreadPoolStopped);
}

TEST(Ticket, DefaultConstructedIsInert)
{
    // Regression: ready()/wait()/cancel() on a default-constructed
    // ticket were UB on the invalid std::shared_future; they must be
    // safe no-ops instead.
    Ticket ticket;
    EXPECT_FALSE(ticket.valid());
    EXPECT_FALSE(ticket.ready());
    ticket.wait(); // must return immediately, not crash or block
    EXPECT_FALSE(ticket.cancel());
    EXPECT_EQ(ticket.id(), 0u);
}

TEST(BatchEngine, UnknownModelRejectedAtSubmitBoundary)
{
    // The bad request fails the submitter, not a worker mid-run:
    // trySubmit reports UnknownModel, submit throws a typed error.
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(tinyConfig());

    ServeRequest req;
    req.benchmark = Benchmark::DiT; // not registered
    req.priority = Priority::High;
    const SubmitOutcome outcome = engine.trySubmit(req);
    EXPECT_FALSE(outcome.accepted());
    EXPECT_EQ(outcome.reason, RejectReason::UnknownModel);
    EXPECT_FALSE(outcome.ticket.valid());
    EXPECT_THROW(engine.submit(req), UnknownModelError);

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::High).rejectedUnknownModel, 2u);
    EXPECT_EQ(m.accepted(), 0u);
}

TEST(BatchEngine, TrySubmitAcceptsAndCompletes)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.id = 11;
    const SubmitOutcome outcome = engine.trySubmit(req);
    ASSERT_TRUE(outcome.accepted());
    EXPECT_FALSE(outcome.reason.has_value());
    const RequestResult result = outcome.ticket.get();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.id, 11u);
    engine.waitIdle();

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::Normal).accepted, 1u);
    EXPECT_EQ(m.at(Priority::Normal).completed, 1u);
    EXPECT_EQ(m.rejected(), 0u);
    EXPECT_EQ(m.queueWaitSamples, 1u);
}

TEST(BatchEngine, ClassBoundRejectsQueueFull)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.admission.maxQueuedPerClass = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause(); // hold the ready queue still
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    std::vector<Ticket> accepted;
    for (int i = 0; i < 2; ++i) {
        const SubmitOutcome outcome = engine.trySubmit(req);
        ASSERT_TRUE(outcome.accepted()) << "submission " << i;
        accepted.push_back(outcome.ticket);
    }
    const SubmitOutcome refused = engine.trySubmit(req);
    EXPECT_EQ(refused.reason, RejectReason::QueueFull);
    // The throwing fast path reports the same decision as a typed
    // exception carrying the reason.
    try {
        engine.submit(req);
        FAIL() << "submit over the class bound did not throw";
    } catch (const AdmissionRejected &e) {
        EXPECT_EQ(e.reason(), RejectReason::QueueFull);
    }

    engine.resume();
    engine.waitIdle();
    for (Ticket &t : accepted)
        EXPECT_TRUE(t.get().ok());

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::Normal).accepted, 2u);
    EXPECT_EQ(m.at(Priority::Normal).rejectedQueueFull, 2u);
    EXPECT_EQ(m.at(Priority::Normal).completed, 2u);
    EXPECT_EQ(m.at(Priority::Normal).peakQueued, 2u);
    EXPECT_EQ(m.queueDepth(), 0u);
}

TEST(BatchEngine, OverloadShedsLowWhileHighCompletes)
{
    // Acceptance scenario: with a class-bounded queue and saturating
    // Low-priority offered load, High-priority trySubmit still
    // accepts and completes, Low is shed with LoadShedLow, and
    // snapshot() reconciles exactly with the observed outcomes.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.admission.maxQueuedPerClass = 8;
    opts.admission.shedThreshold = 4;
    opts.admission.shedBelow = Priority::Normal;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::mutex order_mutex;
    std::vector<u64> completion_order;
    engine.setOnComplete([&](const RequestResult &r) {
        std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(r.id);
    });

    engine.pause(); // make the offered load saturate deterministically
    u64 low_accepted = 0, low_shed = 0;
    std::vector<Ticket> low_tickets;
    for (int i = 0; i < 10; ++i) {
        ServeRequest low;
        low.benchmark = cfg.benchmark;
        low.id = static_cast<u64>(i);
        low.priority = Priority::Low;
        low.noiseSeed = 50 + static_cast<u64>(i);
        const SubmitOutcome outcome = engine.trySubmit(low);
        if (outcome.accepted()) {
            ++low_accepted;
            low_tickets.push_back(outcome.ticket);
        } else {
            EXPECT_EQ(outcome.reason, RejectReason::LoadShedLow);
            ++low_shed;
        }
    }
    // Depth 0..3 admits, then the watermark (4) sheds the rest.
    EXPECT_EQ(low_accepted, 4u);
    EXPECT_EQ(low_shed, 6u);

    // High-priority traffic still gets through the saturated queue.
    ServeRequest high;
    high.benchmark = cfg.benchmark;
    high.id = 999;
    high.priority = Priority::High;
    const SubmitOutcome high_outcome = engine.trySubmit(high);
    ASSERT_TRUE(high_outcome.accepted());

    engine.resume();
    Ticket high_ticket = high_outcome.ticket;
    EXPECT_TRUE(high_ticket.get().ok());
    engine.waitIdle();

    // High completed ahead of every queued Low request.
    ASSERT_EQ(completion_order.size(), low_accepted + 1);
    EXPECT_EQ(completion_order.front(), 999u);

    // The snapshot reconciles exactly with what the caller observed.
    const EngineMetrics m = engine.snapshot();
    const ClassMetrics &low_m = m.at(Priority::Low);
    EXPECT_EQ(low_m.accepted, low_accepted);
    EXPECT_EQ(low_m.shed, low_shed);
    EXPECT_EQ(low_m.rejectedQueueFull, 0u);
    EXPECT_EQ(low_m.completed, low_accepted);
    EXPECT_EQ(low_m.cancelled, 0u);
    EXPECT_EQ(low_m.peakQueued, 4u);
    EXPECT_EQ(low_m.queued, 0u);
    const ClassMetrics &high_m = m.at(Priority::High);
    EXPECT_EQ(high_m.accepted, 1u);
    EXPECT_EQ(high_m.completed, 1u);
    EXPECT_EQ(high_m.rejected(), 0u);
    EXPECT_EQ(m.accepted(), low_accepted + 1);
    EXPECT_EQ(m.rejected(), low_shed);
    EXPECT_EQ(m.shed(), low_shed);
    EXPECT_EQ(m.completed(), m.accepted());
    EXPECT_EQ(m.queueDepth(), 0u);
    EXPECT_EQ(m.queueWaitSamples, m.completed());
    EXPECT_GE(m.queueWaitP99, m.queueWaitP50);
    for (Ticket &t : low_tickets)
        EXPECT_TRUE(t.get().ok());
}

TEST(BatchEngine, BlockModeAdmitsWhenSlotFrees)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.admission.maxQueuedPerClass = 1;
    opts.admission.blockTimeoutSeconds = 30.0; // far beyond the stall
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause();
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.id = 1;
    ASSERT_TRUE(engine.trySubmit(req).accepted()); // fills the class

    std::atomic<bool> admitted{false};
    std::thread submitter([&]() {
        ServeRequest blocked = req;
        blocked.id = 2;
        const SubmitOutcome outcome = engine.trySubmit(blocked);
        EXPECT_TRUE(outcome.accepted());
        admitted = true;
    });
    // The submitter must be blocked while the class is full.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(admitted.load());
    engine.resume(); // the worker starts request 1, freeing the slot
    submitter.join();
    EXPECT_TRUE(admitted.load());
    engine.waitIdle();

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::Normal).accepted, 2u);
    EXPECT_EQ(m.at(Priority::Normal).completed, 2u);
    EXPECT_EQ(m.rejected(), 0u);
}

TEST(BatchEngine, BlockModeTimesOutToQueueFull)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.admission.maxQueuedPerClass = 1;
    opts.admission.blockTimeoutSeconds = 0.02;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause();
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    ASSERT_TRUE(engine.trySubmit(req).accepted());
    // No slot ever frees while paused: the wait expires to QueueFull.
    const SubmitOutcome outcome = engine.trySubmit(req);
    EXPECT_EQ(outcome.reason, RejectReason::QueueFull);
    engine.resume();
    engine.waitIdle();

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::Normal).accepted, 1u);
    EXPECT_EQ(m.at(Priority::Normal).rejectedQueueFull, 1u);
}

TEST(BatchEngine, CancelDequeuesNotStartedWork)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause();
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.id = 1;
    Ticket keep = engine.submit(req);
    req.id = 2;
    Ticket victim = engine.submit(req);
    EXPECT_EQ(engine.inFlight(), 2u);

    ASSERT_TRUE(victim.cancel());
    EXPECT_FALSE(victim.cancel()) << "double cancel reported success";
    EXPECT_EQ(engine.inFlight(), 1u);
    // The cancelled ticket settles immediately with a marked result.
    ASSERT_TRUE(victim.ready());
    const RequestResult cancelled = victim.get();
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.error, "cancelled");
    EXPECT_EQ(cancelled.id, 2u);

    engine.resume();
    engine.waitIdle();
    EXPECT_TRUE(keep.get().ok());
    // A completed request is no longer cancellable.
    EXPECT_FALSE(keep.cancel());

    // Cancelled work never ran: only request 1 reached the queue.
    auto popped = engine.results().tryPop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->id, 1u);
    EXPECT_FALSE(engine.results().tryPop().has_value());

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::Normal).accepted, 2u);
    EXPECT_EQ(m.at(Priority::Normal).cancelled, 1u);
    EXPECT_EQ(m.at(Priority::Normal).completed, 1u);
    EXPECT_EQ(m.at(Priority::Normal).started, 1u);
}

TEST(BatchEngine, CancelFreesAdmissionSlot)
{
    // A cancellation must release the class-bound slot it held.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.admission.maxQueuedPerClass = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause();
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    Ticket first = engine.submit(req);
    EXPECT_EQ(engine.trySubmit(req).reason, RejectReason::QueueFull);
    ASSERT_TRUE(first.cancel());
    const SubmitOutcome retry = engine.trySubmit(req);
    EXPECT_TRUE(retry.accepted());
    engine.resume();
    engine.waitIdle();
}

TEST(BatchEngine, DeadlineMissIsCounted)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause();
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.priority = Priority::High;
    req.deadlineSeconds = 1e-4; // will expire during the stall
    Ticket ticket = engine.submit(req);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine.resume();
    EXPECT_TRUE(ticket.get().ok()); // advisory: the request still runs
    engine.waitIdle();

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::High).deadlineMisses, 1u);
    EXPECT_EQ(m.deadlineMisses(), 1u);
}

TEST(BatchEngine, BitIdentityUnderAdmissionAndCancellation)
{
    // Admission control and cancellation reorder and remove work;
    // they must never perturb numerics. A mixed batch submitted
    // through the admission path alongside cancelled decoys stays
    // bit-identical to its sequential run at 1, 2 and 8 workers.
    const ModelConfig cfg = tinyConfig();
    auto batch = mixedBatch(cfg.benchmark, 8);
    const Priority classes[] = {Priority::Low, Priority::High,
                                Priority::Normal, Priority::Critical};
    for (Index i = 0; i < batch.size(); ++i)
        batch[i].priority = classes[i % 4];

    std::vector<RequestResult> reference;
    for (int workers : {1, 2, 8}) {
        BatchEngine::Options opts;
        opts.workers = workers;
        opts.admission.maxQueuedPerClass = 64; // active but generous
        opts.admission.shedThreshold = 64;
        BatchEngine engine(opts);
        engine.addModel(cfg);
        if (reference.empty())
            reference = engine.runSequential(batch);

        engine.pause();
        std::vector<Ticket> tickets;
        std::vector<Ticket> decoys;
        for (const ServeRequest &req : batch) {
            const SubmitOutcome outcome = engine.trySubmit(req);
            ASSERT_TRUE(outcome.accepted());
            tickets.push_back(outcome.ticket);

            ServeRequest decoy = req;
            decoy.id = 1000 + req.id;
            decoy.noiseSeed = 9999; // would change numerics if run
            const SubmitOutcome decoy_outcome = engine.trySubmit(decoy);
            ASSERT_TRUE(decoy_outcome.accepted());
            decoys.push_back(decoy_outcome.ticket);
        }
        for (Ticket &d : decoys)
            ASSERT_TRUE(d.cancel());
        engine.resume();

        std::vector<RequestResult> admitted;
        for (Ticket &t : tickets)
            admitted.push_back(t.get());
        expectBitIdentical(reference, admitted);
        for (Ticket &d : decoys)
            EXPECT_TRUE(d.get().cancelled);
        engine.waitIdle();

        const EngineMetrics m = engine.snapshot();
        EXPECT_EQ(m.accepted(), 2 * batch.size());
        EXPECT_EQ(m.cancelled(), batch.size());
        EXPECT_EQ(m.completed(), batch.size());
    }
}

TEST(BatchEngine, BoundedResultQueueDeliversEverything)
{
    // A results() bound far below the traffic throttles the workers
    // instead of dropping completions.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    opts.resultQueueCapacity = 2;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    const auto batch = mixedBatch(cfg.benchmark, 8);
    for (const ServeRequest &req : batch)
        engine.submit(req);

    std::vector<u64> seen;
    for (Index i = 0; i < batch.size(); ++i) {
        auto r = engine.results().pop();
        ASSERT_TRUE(r.has_value());
        EXPECT_LE(engine.results().size(), 2u);
        seen.push_back(r->id);
    }
    engine.waitIdle();
    std::sort(seen.begin(), seen.end());
    for (Index i = 0; i < batch.size(); ++i)
        EXPECT_EQ(seen[i], static_cast<u64>(i));
}

TEST(BatchEngine, TrySubmitAfterShutdownReportsStopped)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);
    engine.shutdown();

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    const SubmitOutcome outcome = engine.trySubmit(req);
    EXPECT_EQ(outcome.reason, RejectReason::Stopped);
    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::Normal).rejectedStopped, 1u);
}

TEST(ServeNames, RejectReasonNames)
{
    EXPECT_EQ(rejectReasonName(RejectReason::QueueFull), "queue-full");
    EXPECT_EQ(rejectReasonName(RejectReason::LoadShedLow),
              "load-shed-low");
    EXPECT_EQ(rejectReasonName(RejectReason::UnknownModel),
              "unknown-model");
    EXPECT_EQ(rejectReasonName(RejectReason::Stopped), "stopped");
}

TEST(ServeNames, PriorityAndModeNames)
{
    EXPECT_EQ(priorityName(Priority::Low), "low");
    EXPECT_EQ(priorityName(Priority::Normal), "normal");
    EXPECT_EQ(priorityName(Priority::High), "high");
    EXPECT_EQ(priorityName(Priority::Critical), "critical");
    EXPECT_EQ(execModeName(ExecMode::Dense), "dense");
    EXPECT_EQ(execModeName(ExecMode::Exion), "exion");
}

TEST(BatchEngine, CohortBatchingKeepsBitIdentity)
{
    // With cohort batching on, a mixed batch (modes, seeds,
    // quantisation, priorities) must still match its sequential run
    // bit for bit at several worker counts: cohorts only regroup
    // execution, never numerics.
    const ModelConfig cfg = tinyConfig();
    auto batch = mixedBatch(cfg.benchmark, 12);
    const Priority classes[] = {Priority::Low, Priority::Critical,
                                Priority::Normal, Priority::High};
    for (Index i = 0; i < batch.size(); ++i)
        batch[i].priority = classes[i % 4];

    std::vector<RequestResult> reference;
    for (int workers : {1, 2, 4}) {
        BatchEngine::Options opts;
        opts.workers = workers;
        opts.cohortBatching = true;
        opts.cohortMaxRows = 5;
        BatchEngine engine(opts);
        engine.addModel(cfg);
        if (reference.empty())
            reference = engine.runSequential(batch);
        expectBitIdentical(reference, submitAll(engine, batch));
    }
}

TEST(BatchEngine, CohortOfOneMatchesSoloEngine)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.cohortBatching = true;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.mode = ExecMode::Exion;
    req.noiseSeed = 21;
    const RequestResult result = engine.submit(req).get();

    BatchEngine plain;
    plain.addModel(cfg);
    const auto solo = plain.runSequential({req});
    ASSERT_EQ(solo.size(), 1u);
    for (Index e = 0; e < solo[0].output.size(); ++e)
        EXPECT_EQ(result.output.data()[e], solo[0].output.data()[e]);
    EXPECT_EQ(result.stats.totalExecuted(),
              solo[0].stats.totalExecuted());
}

TEST(BatchEngine, CohortLeaderIsHighestPriorityMember)
{
    // With one worker and the scheduler paused while a mixed-priority
    // same-key burst queues, the worker starts the highest-priority
    // request — which therefore leads the cohort and absorbs the
    // rest; delivery follows absorption order, i.e. scheduling order.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.cohortBatching = true;
    opts.cohortMaxRows = 8;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::mutex order_mutex;
    std::vector<u64> completion_order;
    engine.setOnComplete([&](const RequestResult &r) {
        std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(r.id);
    });

    engine.pause();
    const Priority classes[] = {Priority::Low, Priority::High,
                                Priority::Normal, Priority::Critical};
    for (int i = 0; i < 4; ++i) {
        ServeRequest req;
        req.benchmark = cfg.benchmark;
        req.id = static_cast<u64>(i);
        req.noiseSeed = 30 + static_cast<u64>(i);
        req.priority = classes[i];
        engine.submit(req);
    }
    engine.resume();
    engine.waitIdle();

    // Critical (id 3) led; absorption follows class order.
    const std::vector<u64> expected = {3, 1, 2, 0};
    EXPECT_EQ(completion_order, expected);

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.completed(), 4u);
    EXPECT_EQ(m.accepted(), 4u);
}

TEST(BatchEngine, CancelMidCohortRemovesOnlyThatRow)
{
    // One member cancels itself from its progress hook mid-flight;
    // its row leaves the cohort at the next boundary while the other
    // members complete bit-identically to their solo runs.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.cohortBatching = true;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::vector<ServeRequest> batch(3);
    for (int i = 0; i < 3; ++i) {
        batch[i].benchmark = cfg.benchmark;
        batch[i].id = static_cast<u64>(i);
        batch[i].mode = ExecMode::Exion;
        batch[i].noiseSeed = 60 + static_cast<u64>(i);
    }

    engine.pause();
    Ticket keep_a = engine.submit(batch[0]);
    Ticket victim;
    ServeRequest victim_req = batch[1];
    victim_req.onProgress = [&victim](int iteration) {
        if (iteration == 1)
            victim.cancel();
    };
    victim = engine.submit(victim_req);
    Ticket keep_b = engine.submit(batch[2]);
    engine.resume();
    engine.waitIdle();

    const RequestResult cancelled = victim.get();
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(cancelled.error, "cancelled");
    EXPECT_EQ(cancelled.output.size(), 0u);

    BatchEngine plain;
    plain.addModel(cfg);
    const auto solo =
        plain.runSequential({batch[0], batch[2]});
    const RequestResult a = keep_a.get();
    const RequestResult b = keep_b.get();
    ASSERT_EQ(a.output.size(), solo[0].output.size());
    for (Index e = 0; e < a.output.size(); ++e)
        EXPECT_EQ(a.output.data()[e], solo[0].output.data()[e]);
    ASSERT_EQ(b.output.size(), solo[1].output.size());
    for (Index e = 0; e < b.output.size(); ++e)
        EXPECT_EQ(b.output.data()[e], solo[1].output.data()[e]);

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.cancelled(), 1u);
    EXPECT_EQ(m.completed(), 2u);
    EXPECT_EQ(m.accepted(), 3u);
}

TEST(BatchEngine, DeadlineMissedMemberDoesNotStallCohort)
{
    // A member whose deadline expired while queued still completes
    // with the cohort (deadlines are advisory); the miss is counted
    // and no other member is affected.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.cohortBatching = true;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause();
    std::vector<Ticket> tickets;
    for (int i = 0; i < 3; ++i) {
        ServeRequest req;
        req.benchmark = cfg.benchmark;
        req.id = static_cast<u64>(i);
        req.noiseSeed = 80 + static_cast<u64>(i);
        req.deadlineSeconds = i == 1 ? 1e-4 : 0.0;
        tickets.push_back(engine.submit(req));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    engine.resume();
    for (Ticket &t : tickets)
        EXPECT_TRUE(t.get().ok());
    engine.waitIdle();

    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.completed(), 3u);
    EXPECT_EQ(m.deadlineMisses(), 1u);
}

TEST(BatchEngine, CohortAbsorbsOnlyCompatibleRequests)
{
    // Different (mode, quantize) keys never share a cohort — results
    // must match the sequential reference even when incompatible
    // requests interleave in the queue.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.cohortBatching = true;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    const auto batch = mixedBatch(cfg.benchmark, 8);
    engine.pause();
    std::vector<Ticket> tickets;
    for (const ServeRequest &req : batch)
        tickets.push_back(engine.submit(req));
    engine.resume();
    std::vector<RequestResult> results;
    for (Ticket &t : tickets)
        results.push_back(t.get());
    expectBitIdentical(engine.runSequential(batch), results);
}

TEST(BatchEngine, CohortWindowGathersBurst)
{
    // A formation window lets the first request wait briefly for the
    // rest of a burst; everything still completes and reconciles.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 2;
    opts.cohortBatching = true;
    opts.cohortWindowSeconds = 0.05;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::vector<Ticket> tickets;
    for (int i = 0; i < 6; ++i) {
        ServeRequest req;
        req.benchmark = cfg.benchmark;
        req.id = static_cast<u64>(i);
        req.noiseSeed = 90 + static_cast<u64>(i);
        tickets.push_back(engine.submit(req));
    }
    for (Ticket &t : tickets)
        EXPECT_TRUE(t.get().ok());
    engine.waitIdle();
    EXPECT_EQ(engine.snapshot().completed(), 6u);
}

TEST(BatchEngine, CohortRefillDoesNotStarveQueuedHigherPriorityWork)
{
    // Absorption is priority-preserving: a running cohort must not
    // pull in a same-key request that the scheduler ranks behind a
    // queued non-matching one — otherwise sustained same-key load
    // could hold the worker forever while higher-priority work waits.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.cohortBatching = true;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::mutex order_mutex;
    std::vector<u64> completion_order;
    engine.setOnComplete([&](const RequestResult &r) {
        std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(r.id);
    });

    ServeRequest low_same;
    low_same.benchmark = cfg.benchmark;
    low_same.id = 2;
    low_same.priority = Priority::Low;
    low_same.noiseSeed = 41;

    ServeRequest high_other;
    high_other.benchmark = cfg.benchmark;
    high_other.id = 3;
    high_other.mode = ExecMode::Dense; // different key
    high_other.priority = Priority::High;

    // The leader submits both mid-run, so they are queued at its next
    // iteration boundary: the same-key Low candidate loses to the
    // queued High request and must NOT be absorbed.
    std::atomic<bool> injected{false};
    ServeRequest leader;
    leader.benchmark = cfg.benchmark;
    leader.id = 1;
    leader.priority = Priority::Low;
    leader.onProgress = [&](int) {
        if (!injected.exchange(true)) {
            engine.submit(low_same);
            engine.submit(high_other);
        }
    };
    engine.submit(leader);
    engine.waitIdle();

    const std::vector<u64> expected = {1, 3, 2};
    EXPECT_EQ(completion_order, expected)
        << "same-key refill jumped a queued higher-priority request";
}

TEST(BatchEngine, CohortTracksConMergePerMember)
{
    // Per-slot observers: ConMerge accounting in a cohort must match
    // the solo run of the same request, and an untracked member in
    // the same cohort must stay untouched.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.cohortBatching = true;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    ServeRequest tracked;
    tracked.benchmark = cfg.benchmark;
    tracked.id = 1;
    tracked.mode = ExecMode::Exion;
    tracked.trackConMerge = true;
    ServeRequest untracked = tracked;
    untracked.id = 2;
    untracked.trackConMerge = false;
    untracked.noiseSeed = 99;

    engine.pause();
    Ticket t1 = engine.submit(tracked);
    Ticket t2 = engine.submit(untracked);
    engine.resume();
    const RequestResult r1 = t1.get();
    const RequestResult r2 = t2.get();
    EXPECT_GT(r1.conmerge.groups, 0u);
    EXPECT_EQ(r2.conmerge.groups, 0u);

    BatchEngine plain;
    plain.addModel(cfg);
    const auto solo = plain.runSequential({tracked});
    EXPECT_EQ(r1.conmerge.groups, solo[0].conmerge.groups);
    EXPECT_EQ(r1.conmerge.matrixColumns, solo[0].conmerge.matrixColumns);
}

TEST(BatchEngine, RunningRequestCancelsCooperatively)
{
    // Solo path (cohort batching off): a started request cancelled
    // from its own progress hook stops at the next iteration boundary
    // with a cancelled result; callback and results() are not fed.
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::atomic<int> callbacks{0};
    engine.setOnComplete(
        [&](const RequestResult &) { ++callbacks; });

    Ticket ticket;
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.id = 5;
    req.onProgress = [&ticket](int iteration) {
        if (iteration == 2) {
            EXPECT_TRUE(ticket.cancel());
        }
    };
    engine.pause(); // the ticket must exist before the hook can fire
    ticket = engine.submit(req);
    engine.resume();
    const RequestResult result = ticket.get();
    EXPECT_TRUE(result.cancelled);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.error, "cancelled");
    EXPECT_EQ(result.id, 5u);
    engine.waitIdle();

    EXPECT_EQ(callbacks.load(), 0);
    EXPECT_FALSE(engine.results().tryPop().has_value());
    const EngineMetrics m = engine.snapshot();
    EXPECT_EQ(m.at(Priority::Normal).cancelled, 1u);
    EXPECT_EQ(m.at(Priority::Normal).completed, 0u);
    EXPECT_EQ(m.at(Priority::Normal).started, 1u);
    EXPECT_EQ(engine.inFlight(), 0u);
    // A second cancel of the same (already cancelled) request fails.
    EXPECT_FALSE(ticket.cancel());
}

TEST(BatchEngine, ProgressHookReportsEveryIteration)
{
    const ModelConfig cfg = tinyConfig(); // 6 iterations
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    std::mutex mu;
    std::vector<int> seen;
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    req.onProgress = [&](int iteration) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(iteration);
    };
    EXPECT_TRUE(engine.submit(req).get().ok());
    const std::vector<int> expected = {0, 1, 2, 3, 4, 5};
    EXPECT_EQ(seen, expected);
}

TEST(BatchEngine, ThrowingProgressHookFailsItsRequest)
{
    // One failure path for both settings: an exception escaping a
    // request's progress hook fails that request's ticket with the
    // original error, is counted, and leaves the engine serving.
    const ModelConfig cfg = tinyConfig();
    for (bool batching : {false, true}) {
        SCOPED_TRACE(batching ? "batching" : "solo");
        BatchEngine::Options opts;
        opts.workers = 1;
        opts.cohortBatching = batching;
        BatchEngine engine(opts);
        engine.addModel(cfg);

        ServeRequest bad;
        bad.benchmark = cfg.benchmark;
        bad.onProgress = [](int iteration) {
            if (iteration == 1)
                throw std::runtime_error("hook failed");
        };
        EXPECT_THROW(
            {
                try {
                    engine.submit(bad).get();
                } catch (const std::runtime_error &e) {
                    EXPECT_STREQ(e.what(), "hook failed");
                    throw;
                }
            },
            std::runtime_error);
        engine.waitIdle();
        EXPECT_EQ(engine.snapshot().at(Priority::Normal).failed, 1u);

        ServeRequest good;
        good.benchmark = cfg.benchmark;
        EXPECT_TRUE(engine.submit(good).get().ok());
    }
}

TEST(BatchEngine, CohortOccupancyCountsOnlyBatchingCohorts)
{
    // The router's affinity signal: while a request runs, an engine
    // with cohort batching reports its row and the spare ones; an
    // engine without it runs the request as an unpublished cohort of
    // one and reports neither.
    const ModelConfig cfg = tinyConfig();
    for (bool batching : {false, true}) {
        SCOPED_TRACE(batching ? "batching" : "solo");
        BatchEngine::Options opts;
        opts.workers = 1;
        opts.cohortBatching = batching;
        opts.cohortMaxRows = 4;
        BatchEngine engine(opts);
        engine.addModel(cfg);

        std::mutex mu;
        std::condition_variable cv;
        bool running = false;
        bool checked = false;
        ServeRequest req;
        req.benchmark = cfg.benchmark;
        req.mode = ExecMode::Exion;
        req.onProgress = [&](int iteration) {
            if (iteration != 0)
                return;
            std::unique_lock<std::mutex> lock(mu);
            running = true;
            cv.notify_all();
            cv.wait(lock, [&] { return checked; });
        };
        const Ticket ticket = engine.submit(req);
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return running; });
        }
        const BatchEngine::CohortOccupancy occ =
            engine.cohortOccupancy(req);
        {
            std::lock_guard<std::mutex> lock(mu);
            checked = true;
        }
        cv.notify_all();
        EXPECT_EQ(occ.queued, 0u);
        EXPECT_EQ(occ.running, batching ? 1u : 0u);
        EXPECT_EQ(occ.spareRows, batching ? 3u : 0u);
        EXPECT_TRUE(ticket.get().ok());
    }
}

TEST(BatchEngine, QueueFullCarriesRetryAfterHint)
{
    const ModelConfig cfg = tinyConfig();
    BatchEngine::Options opts;
    opts.workers = 1;
    opts.admission.maxQueuedPerClass = 1;
    BatchEngine engine(opts);
    engine.addModel(cfg);

    engine.pause();
    ServeRequest req;
    req.benchmark = cfg.benchmark;
    const SubmitOutcome accepted = engine.trySubmit(req);
    ASSERT_TRUE(accepted.accepted());
    EXPECT_EQ(accepted.suggestedBackoffSeconds, 0.0);

    const SubmitOutcome refused = engine.trySubmit(req);
    EXPECT_EQ(refused.reason, RejectReason::QueueFull);
    // No wait samples yet: the default nudge.
    EXPECT_GT(refused.suggestedBackoffSeconds, 0.0);
    EXPECT_LE(refused.suggestedBackoffSeconds, 5.0);

    // The throwing path carries the same hint.
    try {
        engine.submit(req);
        FAIL() << "submit over the class bound did not throw";
    } catch (const AdmissionRejected &e) {
        EXPECT_EQ(e.reason(), RejectReason::QueueFull);
        EXPECT_GT(e.suggestedBackoffSeconds(), 0.0);
    }
    engine.resume();
    engine.waitIdle();

    // With completions recorded, the hint tracks the class median
    // queue wait (clamped to the sane range).
    const SubmitOutcome ok2 = engine.trySubmit(req);
    ASSERT_TRUE(ok2.accepted());
    engine.waitIdle();
    const EngineMetrics m = engine.snapshot();
    EXPECT_GT(m.at(Priority::Normal).queueWaitSamples, 0u);
}

TEST(BatchEngine, UnknownModelHasNoRetryHint)
{
    BatchEngine::Options opts;
    opts.workers = 1;
    BatchEngine engine(opts);
    engine.addModel(tinyConfig());

    ServeRequest req;
    req.benchmark = Benchmark::DiT; // not registered
    const SubmitOutcome outcome = engine.trySubmit(req);
    EXPECT_EQ(outcome.reason, RejectReason::UnknownModel);
    EXPECT_EQ(outcome.suggestedBackoffSeconds, 0.0);
}

TEST(ExecContext, BindingIsolatesStatsAcrossContexts)
{
    DenseExecutor exec;
    ExecContext a, b;

    exec.bindContext(a);
    exec.beginIteration(3);
    exec.stats().qkvOpsDense = 10;

    exec.bindContext(b);
    EXPECT_EQ(exec.ctx().iteration, 0);
    EXPECT_EQ(exec.stats().qkvOpsDense, 0u);

    exec.unbindContext();
    EXPECT_EQ(a.iteration, 3);
    EXPECT_EQ(a.stats.qkvOpsDense, 10u);
}

} // namespace
} // namespace exion
