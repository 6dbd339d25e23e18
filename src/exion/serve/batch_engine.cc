#include "exion/serve/batch_engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "exion/common/logging.h"
#include "exion/model/weight_store.h"
#include "exion/sparsity/cohort_executor.h"

namespace exion
{

std::string
execModeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::Dense:
        return "dense";
      case ExecMode::FfnReuseOnly:
        return "ffn-reuse";
      case ExecMode::EpOnly:
        return "ep";
      case ExecMode::Exion:
        return "exion";
    }
    return "?";
}

std::string
priorityName(Priority p)
{
    switch (p) {
      case Priority::Low:
        return "low";
      case Priority::Normal:
        return "normal";
      case Priority::High:
        return "high";
      case Priority::Critical:
        return "critical";
    }
    return "?";
}

bool
Ticket::ready() const
{
    // An invalid (default-constructed) ticket has no shared state;
    // wait_for on it would be UB, so report "not ready" instead.
    if (!valid())
        return false;
    return future_.wait_for(std::chrono::seconds(0))
        == std::future_status::ready;
}

void
Ticket::wait() const
{
    if (!valid())
        return;
    future_.wait();
}

bool
Ticket::cancel()
{
    if (engine_ == nullptr || !valid())
        return false;
    return engine_->cancelTicket(id_);
}

BatchEngine::BatchEngine() : BatchEngine(Options{})
{
}

BatchEngine::BatchEngine(const Options &opts)
    : opts_(opts), admission_(opts.admission), conmergePipe_(opts.conmerge),
      results_(opts.resultQueueCapacity), pool_(opts.workers, opts.poolSeed)
{
    if (opts_.tensorParallel < 1) {
        EXION_WARN("tensorParallel ", opts_.tensorParallel,
                   " clamped to 1");
        opts_.tensorParallel = 1;
    }
    if (opts_.tensorParallel > 1) {
        tpRunner_ = std::make_unique<PoolSliceRunner>(pool_);
        if (!opts_.tpSliceCpus.empty())
            tpRunner_->setSliceCpus(opts_.tpSliceCpus);
    }
}

TpContext
BatchEngine::tpContext() const
{
    if (opts_.tensorParallel <= 1 || !tpRunner_)
        return {};
    return TpContext{opts_.tensorParallel, tpRunner_.get()};
}

BatchEngine::~BatchEngine()
{
    shutdown();
}

void
BatchEngine::addModel(const ModelConfig &cfg)
{
    registerModel(cfg.benchmark, WeightStore::build(cfg));
}

void
BatchEngine::registerModel(Benchmark b,
                           std::shared_ptr<const WeightStore> store)
{
    if (!store)
        throw std::invalid_argument("registerModel: null weight store");
    if (store->config().benchmark != b)
        throw std::invalid_argument(
            "registerModel: store holds "
            + benchmarkName(store->config().benchmark)
            + ", not " + benchmarkName(b));
    // Pipeline construction (cheap for a store: borrowed views, no
    // Rng build) happens outside the lock; the stopped check and the
    // map insert are atomic with respect to shutdown().
    auto pipe = std::make_unique<const DiffusionPipeline>(std::move(store));
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_)
        throw ThreadPoolStopped();
    models_[b] = std::move(pipe);
}

void
BatchEngine::registerModelFromFile(const std::string &path, bool pin)
{
    auto store = WeightStore::load(path, pin);
    const Benchmark b = store->config().benchmark;
    registerModel(b, std::move(store));
}

const DiffusionPipeline &
BatchEngine::pipeline(Benchmark b) const
{
    const auto it = models_.find(b);
    if (it == models_.end())
        throw UnknownModelError("benchmark " + benchmarkName(b)
                                + " not registered with the engine");
    return *it->second;
}

i64
BatchEngine::poolPriority(const ServeRequest &req) const
{
    // Class in the high bits; within a class, the earliest absolute
    // deadline (submission time + deadlineSeconds, measured against
    // the engine epoch) ranks highest — true EDF, so a long-queued
    // request is not starved by a fresh arrival with a tighter
    // relative deadline. "No deadline" ranks below every finite
    // deadline; ties fall back to the pool's FIFO order. Clamping
    // happens in the double domain: a huge/inf deadline must not
    // overflow the i64 cast (NaN fails the > 0 test and counts as
    // "no deadline").
    constexpr i64 kDeadlineRange = i64{1} << 40; // ~12.7 days at 1 µs
    i64 deadline_rank = 0;                       // no deadline: last
    if (req.deadlineSeconds > 0.0) {
        const double since_epoch_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - epoch_)
                .count();
        const double absolute_us =
            since_epoch_us + req.deadlineSeconds * 1e6;
        const i64 us = static_cast<i64>(std::clamp(
            absolute_us, 1.0,
            static_cast<double>(kDeadlineRange - 2)));
        deadline_rank = kDeadlineRange - 1 - us;
    }
    return static_cast<i64>(req.priority) * kDeadlineRange
        + deadline_rank;
}

ClassDepths
BatchEngine::readyDepths() const
{
    ClassDepths depths{};
    pool_.queuedAtLevels(kNumPriorityClasses, depths.data());
    return depths;
}

double
BatchEngine::suggestedBackoff(Priority cls) const
{
    const double p50 = metrics_.classQueueWaitP50(cls);
    if (p50 <= 0.0)
        return 0.010; // no congestion signal yet: a small fixed nudge
    return std::clamp(p50, 0.001, 5.0);
}

Ticket
BatchEngine::submit(const ServeRequest &req)
{
    SubmitOutcome outcome = trySubmit(req);
    if (outcome.accepted())
        return std::move(outcome.ticket);
    switch (*outcome.reason) {
      case RejectReason::UnknownModel:
        throw UnknownModelError("benchmark "
                                + benchmarkName(req.benchmark)
                                + " not registered with the engine");
      case RejectReason::Stopped:
        throw ThreadPoolStopped();
      case RejectReason::QueueFull:
      case RejectReason::LoadShedLow:
        break;
    }
    throw AdmissionRejected(*outcome.reason,
                            "request " + std::to_string(req.id)
                                + " rejected: "
                                + rejectReasonName(*outcome.reason),
                            outcome.suggestedBackoffSeconds);
}

SubmitOutcome
BatchEngine::trySubmit(const ServeRequest &req)
{
    const Priority cls = req.priority;
    std::unique_lock<std::mutex> lock(mutex_);

    // Validate at the API boundary: a bad request fails the
    // submitter, never a worker thread mid-run.
    if (models_.find(req.benchmark) == models_.end()) {
        metrics_.onRejected(cls, RejectReason::UnknownModel);
        return SubmitOutcome{Ticket{}, RejectReason::UnknownModel};
    }
    if (stopped_) {
        metrics_.onRejected(cls, RejectReason::Stopped);
        return SubmitOutcome{Ticket{}, RejectReason::Stopped};
    }

    std::optional<RejectReason> verdict =
        admission_.decide(cls, readyDepths());
    if (verdict == RejectReason::QueueFull && admission_.blocking()) {
        // Block-with-timeout mode: wait for a ready-queue slot (a
        // worker starting a queued request, or a cancellation). The
        // verdict is re-evaluated on every wake — it may flip to
        // LoadShedLow if the overall queue kept growing meanwhile.
        const auto deadline =
            std::chrono::steady_clock::now() + admission_.blockTimeout();
        while (!stopped_) {
            const bool timed_out =
                admissionCv_.wait_until(lock, deadline)
                == std::cv_status::timeout;
            verdict = admission_.decide(cls, readyDepths());
            if (timed_out || verdict != RejectReason::QueueFull)
                break;
        }
        if (stopped_)
            verdict = RejectReason::Stopped;
    }
    if (verdict.has_value()) {
        metrics_.onRejected(cls, *verdict);
        // Compute the hint off the engine lock: the overload path is
        // exactly when rejections are frequent, and the class-median
        // scan must not serialize submits/deliveries behind it.
        lock.unlock();
        SubmitOutcome outcome{Ticket{}, *verdict, 0.0};
        if (*verdict == RejectReason::QueueFull
            || *verdict == RejectReason::LoadShedLow)
            outcome.suggestedBackoffSeconds = suggestedBackoff(cls);
        return outcome;
    }

    // Admitted: account, register for cancellation, post to the pool
    // at the class's level — all under one lock, so a concurrent
    // admission check can never overshoot the class bound and the
    // worker (whose first action locks this mutex) can never observe
    // a half-registered request.
    auto promise = std::make_shared<std::promise<RequestResult>>();
    const u64 ticket_id = nextTicket_++;
    ++inFlight_;
    const auto enqueued = std::chrono::steady_clock::now();
    const i64 pool_prio = poolPriority(req);
    auto flag = std::make_shared<std::atomic<bool>>(false);
    const auto pending_it =
        pending_
            .emplace(ticket_id,
                     Pending{promise, req, cls, 0, pool_prio, enqueued, flag})
            .first;

    u64 token = 0;
    try {
        token = pool_.postTagged(
            [this, promise, ticket_id, enqueued]() {
                // Claim the pending entry: move the request and its
                // submission-time cancellation flag out (instead of a
                // third ServeRequest copy in this closure) and
                // register the flag as running before the entry goes,
                // so a concurrent cancel() always finds the request
                // in exactly one registry — and a cancel that lost
                // the dequeue race has already set this same flag.
                CohortMember member;
                member.promise = promise;
                member.enqueued = enqueued;
                member.ticketId = ticket_id;
                {
                    std::lock_guard<std::mutex> inner(mutex_);
                    const auto it = pending_.find(ticket_id);
                    EXION_ASSERT(it != pending_.end(),
                                 "started task without pending entry");
                    member.req = std::move(it->second.req);
                    member.cancelFlag =
                        std::move(it->second.cancelFlag);
                    running_.emplace(ticket_id, member.cancelFlag);
                    pending_.erase(it);
                }
                // A ready-queue slot freed: admit a block-mode waiter.
                admissionCv_.notify_all();
                const auto started_at = std::chrono::steady_clock::now();
                metrics_.onStarted(
                    member.req.priority,
                    std::chrono::duration<double>(started_at - enqueued)
                        .count());
                member.startedAt = started_at;
                runCohort(std::move(member));
            },
            pool_prio, classIndex(cls));
    } catch (...) {
        // The pool refused the task. Today shutdown() always flips
        // stopped_ (checked above) before stopping the pool, so this
        // is unreachable — but undo the accounting rather than rely
        // on that.
        pending_.erase(pending_it);
        --inFlight_;
        metrics_.onRejected(cls, RejectReason::Stopped);
        lock.unlock();
        idleCv_.notify_all();
        return SubmitOutcome{Ticket{}, RejectReason::Stopped};
    }
    pending_it->second.poolToken = token;
    metrics_.onAccepted(cls);
    // A cohort leader lingering in its formation window may want this
    // request at its next boundary.
    cohortCv_.notify_all();
    Ticket ticket(ticket_id, promise->get_future().share(), this);
    return SubmitOutcome{std::move(ticket), std::nullopt, 0.0};
}

bool
BatchEngine::cancelTicket(u64 ticket_id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = pending_.find(ticket_id);
    if (it == pending_.end()) {
        // Not queued: maybe running. Cooperative cancellation —
        // signal the request's cohort leader, which polls the flag at
        // every iteration boundary and settles the ticket with a
        // `cancelled` result when it drops the request. exchange()
        // makes a second cancel() report false.
        const auto rit = running_.find(ticket_id);
        if (rit == running_.end())
            return false; // already completed or cancelled
        return !rit->second->exchange(true);
    }
    if (!pool_.cancel(it->second.poolToken)) {
        // A worker is dequeuing it right now: too late to unqueue,
        // but the submission-time flag it will carry into running_
        // can still stop the run at its first iteration boundary.
        return !it->second.cancelFlag->exchange(true);
    }
    const Pending pending = std::move(it->second);
    pending_.erase(it);
    metrics_.onCancelled(pending.cls);
    RequestResult result;
    result.id = pending.req.id;
    result.cancelled = true;
    result.error = "cancelled";
    // Only the ticket sees a cancelled request: it never ran, so the
    // completion callback and results() are not fed.
    pending.promise->set_value(std::move(result));
    --inFlight_;
    lock.unlock();
    idleCv_.notify_all();
    admissionCv_.notify_all();
    return true;
}

void
BatchEngine::deliver(const CohortMember &member, RequestResult result,
                     std::exception_ptr failure)
{
    const ServeRequest &req = member.req;
    const bool cancelled = result.cancelled;
    // Deadline verdict taken as execution finishes: the delivery
    // below may block on a bounded results() (intended backpressure),
    // and consumer lag must not masquerade as the request missing its
    // deadline. A cancelled request has no completion to judge.
    const bool missed = !cancelled && req.deadlineSeconds > 0.0
        && std::chrono::duration<double>(
               std::chrono::steady_clock::now() - member.enqueued)
                .count()
            > req.deadlineSeconds;

    if (!cancelled) {
        CompletionCallback cb;
        {
            std::lock_guard<std::mutex> inner(mutex_);
            cb = onComplete_;
        }
        // A misbehaving delivery sink must not break the accounting
        // below it: an escaped exception here would leave the Ticket
        // promise unset (deadlocking get()) and inFlight_ stuck
        // nonzero.
        if (cb) {
            try {
                cb(result);
            } catch (...) {
                EXION_WARN("completion callback threw for request ",
                           result.id, "; ignoring");
            }
        }
        if (opts_.queueResults) {
            try {
                // Blocks on a bounded queue until a consumer pops:
                // unpopped results throttle the workers.
                results_.push(result);
            } catch (...) {
                EXION_WARN("result queue push failed for request ",
                           result.id, "; dropping");
            }
        }
    }
    if (failure)
        member.promise->set_exception(failure);
    else
        member.promise->set_value(std::move(result));

    if (cancelled)
        metrics_.onCancelled(req.priority);
    else
        metrics_.onCompleted(req.priority, failure != nullptr, missed);
    {
        std::lock_guard<std::mutex> inner(mutex_);
        running_.erase(member.ticketId);
        --inFlight_;
    }
    idleCv_.notify_all();
}

std::vector<BatchEngine::CohortMember>
BatchEngine::absorbCohortPeers(const ServeRequest &key, Index max_take)
{
    std::vector<CohortMember> absorbed;
    if (max_take == 0)
        return absorbed;
    std::unique_lock<std::mutex> lock(mutex_);
    // A paused engine stages queued work (pause() contract): leaders
    // keep stepping their current members but must not start more.
    if (paused_)
        return absorbed;

    // Candidates in scheduling order: highest pool priority first
    // (class, then EDF), submission order within ties — the order the
    // pool itself would have started them in. Track the best queued
    // request that does NOT match the key: absorbing anything the
    // scheduler would have started after it would starve it (a
    // refilling cohort could otherwise hold its worker forever while
    // a higher-priority non-matching request waits), so absorption
    // stops at the first candidate the non-matching request beats.
    std::vector<std::pair<i64, u64>> candidates;
    bool has_other = false;
    std::pair<i64, u64> best_other{0, 0};
    for (const auto &[id, p] : pending_) {
        if (p.req.benchmark == key.benchmark && p.req.mode == key.mode
            && p.req.quantize == key.quantize) {
            candidates.emplace_back(p.poolPrio, id);
        } else if (!has_other || p.poolPrio > best_other.first
                   || (p.poolPrio == best_other.first
                       && id < best_other.second)) {
            has_other = true;
            best_other = {p.poolPrio, id};
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });

    const auto started_at = std::chrono::steady_clock::now();
    for (const auto &[prio, id] : candidates) {
        if (absorbed.size() >= max_take)
            break;
        const bool scheduled_first = !has_other
            || prio > best_other.first
            || (prio == best_other.first && id < best_other.second);
        if (!scheduled_first)
            break; // candidates are sorted: the rest lose too
        const auto it = pending_.find(id);
        if (!pool_.cancel(it->second.poolToken))
            continue; // a worker is dequeuing it right now
        Pending pending = std::move(it->second);
        pending_.erase(it);

        CohortMember member;
        member.req = std::move(pending.req);
        member.promise = std::move(pending.promise);
        member.enqueued = pending.enqueued;
        member.ticketId = id;
        member.cancelFlag = std::move(pending.cancelFlag);
        member.startedAt = started_at;
        running_.emplace(id, member.cancelFlag);
        metrics_.onStarted(member.req.priority,
                           std::chrono::duration<double>(
                               started_at - member.enqueued)
                               .count());
        absorbed.push_back(std::move(member));
    }
    if (!absorbed.empty()) {
        // Ready-queue slots freed: admit block-mode waiters.
        lock.unlock();
        admissionCv_.notify_all();
    }
    return absorbed;
}

void
BatchEngine::runCohort(CohortMember first)
{
    // Slot ids are join order, so members[slot] is the member. Held
    // outside the try: a failure anywhere below (set-up, a join, a
    // poisoned forward, a throwing progress hook) fails every member
    // not yet delivered with the original error.
    std::vector<std::unique_ptr<CohortMember>> members;
    members.push_back(std::make_unique<CohortMember>(std::move(first)));
    try {
        stepCohort(members);
    } catch (...) {
        const std::exception_ptr failure = std::current_exception();
        std::string what = "unknown error";
        try {
            std::rethrow_exception(failure);
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        for (auto &mp : members) {
            if (mp->delivered)
                continue;
            RequestResult result;
            result.id = mp->req.id;
            result.error = what;
            mp->delivered = true;
            deliver(*mp, std::move(result), failure);
            mp->ctx.reset();
        }
    }
}

void
BatchEngine::stepCohort(std::vector<std::unique_ptr<CohortMember>> &members)
{
    const ServeRequest &key = members.front()->req;
    const DiffusionPipeline &pipe = pipeline(key.benchmark);
    const bool ffnr =
        key.mode == ExecMode::FfnReuseOnly || key.mode == ExecMode::Exion;
    const bool ep = key.mode == ExecMode::EpOnly || key.mode == ExecMode::Exion;
    SparseExecutor::Options cohort_opts =
        SparseExecutor::fromConfig(pipe.config(), ffnr, ep, key.quantize);
    cohort_opts.gemm = opts_.gemmBackend;
    cohort_opts.simd = opts_.simdTier;
    cohort_opts.tp = tpContext();
    CohortExecutor exec(cohort_opts);
    CohortRun run(pipe, exec);

    const auto join = [&](CohortMember &mem) {
        mem.ctx = std::make_unique<RequestContext>();
        mem.slot = run.join(mem.req.noiseSeed);
        EXION_ASSERT(mem.slot < members.size()
                         && members[mem.slot].get() == &mem,
                     "cohort slot ", mem.slot, " out of join order");
        exec.attachSlot(mem.slot, mem.ctx->exec, mem.ctx->ffn);
        if (mem.req.trackConMerge && ffnr) {
            RequestContext *ctx = mem.ctx.get();
            exec.slotObservers(mem.slot).onFfnMask =
                [this, ctx](int, const Bitmask2D &mask, bool) {
                    conmergePipe_.processMaskInto(mask, ctx->conmerge);
                };
        }
    };
    join(*members.front());

    // Without batching this is a cohort of one: it absorbs no peers,
    // lingers in no formation window and is not published, so
    // cohortOccupancy() reports no running rows for such an engine.
    const bool batching = opts_.cohortBatching;
    const Index max_rows = std::max<Index>(1, opts_.cohortMaxRows);

    // Publish this cohort's key and live row count for
    // cohortOccupancy() (the router's affinity signal); erased on
    // every exit path, including a poisoned iteration.
    struct CohortRegistration
    {
        BatchEngine *engine;
        u64 id = 0; //!< 0 = not published
        ~CohortRegistration()
        {
            if (id == 0)
                return;
            std::lock_guard<std::mutex> lock(engine->mutex_);
            engine->activeCohorts_.erase(id);
        }
    } registration{this};
    if (batching) {
        std::lock_guard<std::mutex> lock(mutex_);
        registration.id = nextCohortInstance_++;
        activeCohorts_.emplace(
            registration.id, ActiveCohort{key.benchmark, key.mode,
                                          key.quantize, run.activeCount()});
    }

    const auto absorb = [&]() {
        if (!batching)
            return;
        // Every absorbed member is held in members before any joins,
        // so a failing join still leaves all of them to be failed.
        const Index space = max_rows - std::min(max_rows,
                                                run.activeCount());
        const Index first_new = members.size();
        for (CohortMember &m : absorbCohortPeers(key, space))
            members.push_back(
                std::make_unique<CohortMember>(std::move(m)));
        for (Index i = first_new; i < members.size(); ++i)
            join(*members[i]);
        std::lock_guard<std::mutex> lock(mutex_);
        activeCohorts_[registration.id].activeRows = run.activeCount();
    };
    absorb();

    // Formation window: linger for same-key submissions before the
    // first step. Boundary absorption below picks up anything later.
    if (batching && opts_.cohortWindowSeconds > 0.0) {
        const auto window_deadline = std::chrono::steady_clock::now()
            + std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    opts_.cohortWindowSeconds));
        while (run.activeCount() < max_rows) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                if (stopped_
                    || cohortCv_.wait_until(lock, window_deadline)
                        == std::cv_status::timeout
                    || stopped_)
                    break;
            }
            absorb();
        }
        absorb();
    }

    while (!run.done()) {
        // Cooperative cancellation: drop flagged members before the
        // next iteration. Removing a row never perturbs the other
        // members.
        for (auto &mp : members) {
            CohortMember &m = *mp;
            if (m.delivered || !run.isActive(m.slot)
                || !m.cancelFlag->load(std::memory_order_relaxed))
                continue;
            run.leave(m.slot);
            exec.releaseSlot(m.slot);
            RequestResult result;
            result.id = m.req.id;
            result.cancelled = true;
            result.error = "cancelled";
            m.delivered = true;
            deliver(m, std::move(result), nullptr);
            m.ctx.reset();
        }
        if (run.done())
            break;

        const std::vector<Index> finished = run.step();

        // Progress hooks fire after the iteration.
        for (auto &mp : members) {
            if (mp->delivered || !mp->req.onProgress)
                continue;
            const int done_iter = run.iterationOf(mp->slot) - 1;
            if (done_iter >= 0
                && (run.isActive(mp->slot) || run.isFinished(mp->slot)))
                mp->req.onProgress(done_iter);
        }

        for (Index slot : finished) {
            CohortMember &m = *members[slot];
            RequestResult result;
            result.id = m.req.id;
            result.output = run.takeResult(m.slot);
            result.stats = m.ctx->exec.stats;
            result.conmerge = m.ctx->conmerge;
            result.seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now()
                                 - m.startedAt)
                                 .count();
            exec.releaseSlot(m.slot);
            m.delivered = true;
            deliver(m, std::move(result), nullptr);
            m.ctx.reset();
        }

        // Boundary absorption: late joiners attach here, starting
        // their own iteration 0 while earlier members run ahead.
        if (!run.done())
            absorb();
    }
}

void
BatchEngine::pause()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = true;
    }
    pool_.pause();
}

void
BatchEngine::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    pool_.resume();
    // Leaders lingering in a formation window may absorb again.
    cohortCv_.notify_all();
}

void
BatchEngine::setOnComplete(CompletionCallback cb)
{
    std::lock_guard<std::mutex> lock(mutex_);
    onComplete_ = std::move(cb);
}

EngineMetrics
BatchEngine::snapshot() const
{
    EngineMetrics m = metrics_.snapshot();
    for (int c = 0; c < kNumPriorityClasses; ++c) {
        m.perClass[c].queued = pool_.queuedAtLevel(c);
        m.perClass[c].peakQueued = pool_.peakQueuedAtLevel(c);
    }
    return m;
}

std::string
BatchEngine::metricsText() const
{
    return snapshot().toPrometheusText();
}

BatchEngine::CohortOccupancy
BatchEngine::cohortOccupancy(const ServeRequest &req) const
{
    CohortOccupancy occ;
    const u64 max_rows =
        static_cast<u64>(std::max<Index>(1, opts_.cohortMaxRows));
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[id, p] : pending_) {
        if (p.req.benchmark == req.benchmark && p.req.mode == req.mode
            && p.req.quantize == req.quantize)
            ++occ.queued;
    }
    for (const auto &[id, c] : activeCohorts_) {
        if (c.benchmark != req.benchmark || c.mode != req.mode
            || c.quantize != req.quantize)
            continue;
        occ.running += c.activeRows;
        occ.spareRows += max_rows - std::min(max_rows, c.activeRows);
    }
    return occ;
}

bool
BatchEngine::stoppedFlag() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stopped_;
}

int
BatchEngine::pinWorkers(const std::vector<std::vector<int>> &cpuSets)
{
    return pool_.pinWorkers(cpuSets);
}

u64
BatchEngine::inFlight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return inFlight_;
}

void
BatchEngine::waitIdle() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this]() { return inFlight_ == 0; });
}

void
BatchEngine::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
    }
    admissionCv_.notify_all(); // block-mode waiters fail with Stopped
    cohortCv_.notify_all();    // lingering cohort leaders start now
    pool_.shutdown(); // drains every accepted request, idempotent
    results_.close();
}

std::vector<RequestResult>
BatchEngine::runSequential(const std::vector<ServeRequest> &requests)
{
    std::vector<RequestResult> results;
    results.reserve(requests.size());
    for (const ServeRequest &req : requests) {
        const DiffusionPipeline &pipe = pipeline(req.benchmark);
        RequestContext ctx;
        std::unique_ptr<BlockExecutor> exec;
        if (req.mode == ExecMode::Dense) {
            auto dense = std::make_unique<DenseExecutor>(
                req.quantize, opts_.gemmBackend, opts_.simdTier,
                tpContext());
            dense->bindContext(ctx.exec);
            exec = std::move(dense);
        } else {
            const bool ffnr = req.mode != ExecMode::EpOnly;
            const bool ep = req.mode != ExecMode::FfnReuseOnly;
            SparseExecutor::Options sparse_opts = SparseExecutor::fromConfig(
                pipe.config(), ffnr, ep, req.quantize);
            sparse_opts.gemm = opts_.gemmBackend;
            sparse_opts.simd = opts_.simdTier;
            sparse_opts.tp = tpContext();
            auto sparse = std::make_unique<SparseExecutor>(sparse_opts);
            sparse->bindRequestState(ctx.exec, ctx.ffn);
            if (req.trackConMerge && ffnr) {
                sparse->observers.onFfnMask =
                    [this, &ctx](int, const Bitmask2D &mask, bool) {
                        conmergePipe_.processMaskInto(mask, ctx.conmerge);
                    };
            }
            exec = std::move(sparse);
        }

        const auto start = std::chrono::steady_clock::now();
        RequestResult result;
        result.id = req.id;
        result.output = pipe.run(*exec, req.noiseSeed);
        result.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        result.stats = ctx.exec.stats;
        result.conmerge = ctx.conmerge;
        results.push_back(std::move(result));
    }
    return results;
}

} // namespace exion
