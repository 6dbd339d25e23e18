#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exion/net/http_client.h"
#include "exion/net/http_server.h"
#include "exion/serve/http_front.h"
#include "traced.h"

namespace perfbench
{

using namespace exion;

namespace
{

bool
allFinite(const Matrix &m)
{
    for (Index r = 0; r < m.rows(); ++r)
        for (Index c = 0; c < m.cols(); ++c)
            if (!std::isfinite(m(r, c)))
                return false;
    return true;
}

bool
sampled(std::size_t index)
{
    return std::find(kVerifyIndices.begin(), kVerifyIndices.end(), index)
        != kVerifyIndices.end();
}

/** Checks a served output; keeps it on rec when rec is sampled. */
void
acceptOutput(const ModelConfig &cfg, RequestRecord &rec, Matrix output,
             const ExecStats &stats)
{
    if (output.rows() != cfg.latentTokens || output.cols() != cfg.latentDim)
        rec.error = "wrong output shape";
    else if (!allFinite(output))
        rec.error = "non-finite output";
    else if (rec.progressEvents != cfg.iterations)
        rec.error = "progress events " + std::to_string(rec.progressEvents)
            + " != iterations " + std::to_string(cfg.iterations);
    if (!rec.error.empty()) {
        rec.wrong = true;
        return;
    }
    rec.valid = true;
    if (sampled(rec.index)) {
        rec.output = std::move(output);
        rec.stats = stats;
    }
}

/** Progress of one in-flight request, written by the worker thread. */
struct Probe
{
    std::atomic<double> first{-1.0};
    std::atomic<double> last{-1.0};
    std::atomic<int> events{0};
};

/** A finished request handed from the completion callback. */
struct Completion
{
    u64 id = 0;
    double at = 0.0;
    RequestResult result;
};

/**
 * The in-process closed loop: one thread keeps w.clients requests in
 * flight until the window closes, then drains.
 */
std::vector<RequestRecord>
engineLoop(const Workload &w, BatchEngine &engine, SeedStream &seeds,
           double seconds)
{
    std::vector<RequestRecord> records;
    std::vector<std::unique_ptr<Probe>> probes;
    std::mutex m;
    std::condition_variable cv;
    std::deque<Completion> finished;
    const auto t0 = Clock::now();
    const auto since = [t0] { return secondsBetween(t0, Clock::now()); };

    engine.setOnComplete([&](const RequestResult &r) {
        Completion c{r.id, since(), r};
        // Notify under the lock: once the loop has popped the last
        // completion, no callback still touches m or cv.
        std::lock_guard<std::mutex> lock(m);
        finished.push_back(std::move(c));
        cv.notify_one();
    });

    // Submits one request; a refused one is recorded as a miss.
    const auto submit = [&]() -> bool {
        const u64 id = records.size();
        RequestRecord rec;
        rec.index = id;
        rec.seed = seeds.next();
        probes.push_back(std::make_unique<Probe>());
        Probe *probe = probes.back().get();
        ServeRequest req;
        req.id = id;
        req.benchmark = w.model.benchmark;
        req.mode = w.mode;
        req.noiseSeed = rec.seed;
        req.onProgress = [probe, since](int iteration) {
            const double t = since();
            if (iteration == 0)
                probe->first.store(t);
            probe->last.store(t);
            probe->events.fetch_add(1);
        };
        rec.cohortRows =
            static_cast<double>(engine.cohortOccupancy(req).running);
        rec.submit = since();
        const SubmitOutcome outcome = engine.trySubmit(req);
        if (!outcome.accepted())
            rec.error = "refused: " + rejectReasonName(*outcome.reason);
        records.push_back(std::move(rec));
        return outcome.accepted();
    };
    // A closed-loop client retries a refusal until the window closes.
    int outstanding = 0;
    const auto nextForClient = [&] {
        while (since() < seconds) {
            if (submit()) {
                ++outstanding;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };

    for (int c = 0; c < w.clients; ++c)
        nextForClient();
    while (outstanding > 0) {
        Completion c;
        {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return !finished.empty(); });
            c = std::move(finished.front());
            finished.pop_front();
        }
        --outstanding;
        RequestRecord &rec = records.at(c.id);
        const Probe &probe = *probes.at(c.id);
        rec.done = c.at;
        rec.serviceSeconds = c.result.seconds;
        rec.firstProgress = probe.first.load();
        rec.lastProgress = probe.last.load();
        rec.progressEvents = probe.events.load();
        if (c.result.ok())
            acceptOutput(w.model, rec, std::move(c.result.output),
                         c.result.stats);
        else
            rec.error = c.result.error;
        nextForClient();
    }
    engine.setOnComplete(nullptr);
    return records;
}

/**
 * Records the ticket of every accepted submission, so the benchmark
 * can read the bytes behind an HTTP job (the wire carries only the
 * job's status). Otherwise forwards to the wrapped backend.
 */
class TicketTap : public ServeBackend
{
  public:
    explicit TicketTap(ServeBackend &inner) : inner_(inner) {}

    SubmitOutcome trySubmit(const ServeRequest &req) override
    {
        SubmitOutcome outcome = inner_.trySubmit(req);
        if (outcome.accepted()) {
            std::lock_guard<std::mutex> lock(m_);
            tickets_[req.id] = outcome.ticket;
        }
        return outcome;
    }
    Ticket submit(const ServeRequest &req) override
    {
        Ticket t = inner_.submit(req);
        std::lock_guard<std::mutex> lock(m_);
        tickets_[req.id] = t;
        return t;
    }
    EngineMetrics snapshot() const override { return inner_.snapshot(); }
    std::string metricsText() const override
    {
        return inner_.metricsText();
    }
    void setOnComplete(CompletionCallback cb) override
    {
        inner_.setOnComplete(std::move(cb));
    }
    u64 inFlight() const override { return inner_.inFlight(); }
    void waitIdle() const override { inner_.waitIdle(); }
    void pause() override { inner_.pause(); }
    void resume() override { inner_.resume(); }
    void shutdown() override { inner_.shutdown(); }
    int workerCount() const override { return inner_.workerCount(); }

    /** Removes and returns the ticket of job id (invalid if none). */
    Ticket take(u64 id)
    {
        std::lock_guard<std::mutex> lock(m_);
        const auto it = tickets_.find(id);
        if (it == tickets_.end())
            return {};
        Ticket t = it->second;
        tickets_.erase(it);
        return t;
    }

  private:
    ServeBackend &inner_;
    std::mutex m_;
    std::map<u64, Ticket> tickets_;
};

/** The serving stack of one set-up. Members tear down in reverse:
    server, front, tap, engine. */
struct Rig
{
    explicit Rig(const Workload &w)
        : engine(engineOptions(w))
    {
        engine.addModel(w.model);
        if (!w.http)
            return;
        tap = std::make_unique<TicketTap>(engine);
        front = std::make_unique<HttpFront>(*tap);
        HttpServer::Options opts; // 127.0.0.1, ephemeral port
        server = std::make_unique<HttpServer>(
            opts, [f = front.get()](const HttpRequest &req,
                                    ResponseWriter &writer) {
                f->handle(req, writer);
            });
        server->start();
    }

    BatchEngine engine;
    std::unique_ptr<TicketTap> tap;
    std::unique_ptr<HttpFront> front;
    std::unique_ptr<HttpServer> server;
};

/** Number after "key": in a flat JSON object; NAN when absent. */
double
jsonNumber(const std::string &body, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto at = body.find(needle);
    if (at == std::string::npos)
        return NAN;
    const char *start = body.c_str() + at + needle.size();
    char *end = nullptr;
    const double v = std::strtod(start, &end);
    return end == start ? NAN : v;
}

/** One POST + SSE cycle on conn. */
void
httpRequest(const Workload &w, Rig &rig, HttpConnection &conn,
            Clock::time_point t0, RequestRecord &rec)
{
    const auto since = [t0] { return secondsBetween(t0, Clock::now()); };
    const u16 port = rig.server->port();
    if (!conn.connected())
        conn = HttpConnection::connect("127.0.0.1", port, 30.0);
    const std::string body = "{\"benchmark\": \""
        + benchmarkName(w.model.benchmark) + "\", \"mode\": \""
        + execModeName(w.mode) + "\", \"seed\": " + std::to_string(rec.seed)
        + "}";
    rec.submit = since();
    HttpClientResponse resp;
    if (!conn.request("POST", "/v1/jobs", resp, body)
        || resp.status != 201) {
        rec.error = "POST failed with status " + std::to_string(resp.status);
        conn.close();
        return;
    }
    rec.postRtt = since() - rec.submit;
    const double id = jsonNumber(resp.body, "id");
    if (!(id >= 0)) {
        rec.error = "201 without a job id";
        return;
    }
    const u64 job = static_cast<u64>(id);
    const double openAt = since();
    HttpClientResponse head;
    if (!conn.startStream("/v1/jobs/" + std::to_string(job) + "/events",
                          head)
        || head.status != 200) {
        rec.error = "SSE stream refused";
        conn.close();
        return;
    }
    rec.streamOpen = since() - openAt;

    int doneEvents = 0;
    std::string doneData;
    std::string pending;
    std::string data;
    while (conn.readStreamData(data)) {
        const double at = since();
        pending += data;
        data.clear();
        std::size_t end;
        while ((end = pending.find("\n\n")) != std::string::npos) {
            const std::string event = pending.substr(0, end);
            pending.erase(0, end + 2);
            if (event.rfind("event: progress", 0) == 0) {
                if (rec.progressEvents++ == 0)
                    rec.firstProgress = at;
                rec.lastProgress = at;
            } else if (event.rfind("event: done", 0) == 0) {
                ++doneEvents;
                rec.done = at;
                doneData = event;
            }
        }
    }
    // The job's bytes: the ticket HttpFront obtained for it.
    const Ticket ticket = rig.tap->take(job);
    if (doneEvents != 1) {
        rec.error = std::to_string(doneEvents) + " done events";
        rec.wrong = true;
        return;
    }
    if (doneData.find("\"state\": \"done\"") == std::string::npos) {
        rec.error = "job did not finish: " + doneData;
        rec.wrong = true;
        return;
    }
    rec.serviceSeconds = jsonNumber(doneData, "seconds");
    rec.doneLag = rec.done - rec.lastProgress;
    if (!ticket.valid()) {
        rec.error = "no ticket for job";
        return;
    }
    try {
        RequestResult result = ticket.get();
        acceptOutput(w.model, rec, std::move(result.output), result.stats);
    } catch (const std::exception &e) {
        rec.error = std::string("request failed: ") + e.what();
    }
}

/**
 * The HTTP closed loop: `clients` threads, one keep-alive connection
 * each, cycling POST + SSE until `seconds` have passed (each client
 * sends at least once). Returns the records of every client.
 */
std::vector<RequestRecord>
httpLoop(const Workload &w, Rig &rig, SeedStream &seeds, int clients,
         double seconds)
{
    const auto t0 = Clock::now();
    std::atomic<std::size_t> nextIndex{0};
    std::vector<std::vector<RequestRecord>> perClient(clients);
    std::vector<std::exception_ptr> failures(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                HttpConnection conn;
                do {
                    RequestRecord rec;
                    rec.index = nextIndex.fetch_add(1);
                    rec.seed = seeds.next();
                    httpRequest(w, rig, conn, t0, rec);
                    perClient[c].push_back(std::move(rec));
                } while (secondsBetween(t0, Clock::now()) < seconds);
            } catch (...) {
                failures[c] = std::current_exception();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &f : failures)
        if (f)
            std::rethrow_exception(f);
    std::vector<RequestRecord> records;
    for (auto &client : perClient)
        for (RequestRecord &rec : client)
            records.push_back(std::move(rec));
    std::sort(records.begin(), records.end(),
              [](const RequestRecord &a, const RequestRecord &b) {
                  return a.submit < b.submit;
              });
    return records;
}

/**
 * One warm-up round: a single request through the whole stack. One,
 * not one per worker: two at once would race into one cohort or onto
 * two workers, and set-up time would depend on which won.
 */
void
warmUp(const Workload &w, Rig &rig, SeedStream &seeds)
{
    if (w.http) {
        for (const RequestRecord &rec : httpLoop(w, rig, seeds, 1, 0.0))
            if (!rec.valid)
                throw std::runtime_error("warm-up request failed: "
                                         + rec.error);
        return;
    }
    ServeRequest req;
    req.benchmark = w.model.benchmark;
    req.mode = w.mode;
    req.noiseSeed = seeds.next();
    if (!rig.engine.submit(req).get().ok())
        throw std::runtime_error("warm-up request failed");
}

} // namespace

std::vector<const RequestRecord *>
TimedRun::windowCompletions() const
{
    std::vector<const RequestRecord *> out;
    for (const RequestRecord &rec : records)
        if (rec.valid && rec.done <= windowSeconds)
            out.push_back(&rec);
    return out;
}

std::size_t
TimedRun::validCount() const
{
    return static_cast<std::size_t>(
        std::count_if(records.begin(), records.end(),
                      [](const RequestRecord &r) { return r.valid; }));
}

bool
TimedRun::correct() const
{
    return std::none_of(records.begin(), records.end(),
                        [](const RequestRecord &r) { return r.wrong; });
}

TimedRun
runTimed(const Workload &w, u64 seed, double seconds)
{
    SeedStream seeds(seed);
    TimedRun run;
    std::unique_ptr<Rig> rig;
    for (int s = 0; s < kSetups; ++s) {
        rig.reset();
        const auto start = Clock::now();
        rig = std::make_unique<Rig>(w);
        warmUp(w, *rig, seeds);
        run.setupSeconds.push_back(secondsBetween(start, Clock::now()));
    }

    if (w.http) {
        run.records = httpLoop(w, *rig, seeds, w.clients, seconds);
    } else {
        run.records = engineLoop(w, rig->engine, seeds, seconds);
    }
    run.windowSeconds = seconds;

    const DiffusionPipeline &pipe = rig->engine.pipeline(w.model.benchmark);
    for (RequestRecord &rec : run.records) {
        // An invalid sampled request is already a miss.
        if (!rec.valid || !sampled(rec.index))
            continue;
        auto exec = makeSoloExecutor(w.model, w.mode);
        const Matrix solo = pipe.run(*exec, rec.seed);
        ++run.verified;
        if (!sameBytes(solo, rec.output)
            || !sameCounts(exec->stats(), rec.stats)) {
            ++run.mismatched;
            rec.valid = false;
            rec.wrong = true;
            rec.error = "output differs from the solo re-run";
        }
    }
    run.peakRssMiB = peakRssMiB();
    return run;
}

namespace
{

template <typename Fn>
std::vector<double>
collect(const std::vector<const RequestRecord *> &recs, Fn &&fn)
{
    std::vector<double> out;
    out.reserve(recs.size());
    for (const RequestRecord *r : recs)
        out.push_back(fn(*r));
    return out;
}

} // namespace

void
reportEndToEnd(const Workload &w, const TimedRun &run, Report &report)
{
    const auto done = run.windowCompletions();
    const auto latency =
        collect(done, [](const RequestRecord &r) { return r.done - r.submit; });
    const auto firstIterMs = collect(done, [](const RequestRecord &r) {
        return (r.firstProgress - r.submit) * 1e3;
    });
    const double gaps = w.model.iterations - 1;
    const auto iterMs = collect(done, [gaps](const RequestRecord &r) {
        return (r.lastProgress - r.firstProgress) / gaps * 1e3;
    });
    report.set("setup_s", median(run.setupSeconds));
    // The window closes at its last completion: cohorts finish in
    // bursts of up to kCohortMaxRows, and a fixed deadline would
    // quantise the count by where it falls between two bursts.
    double lastDone = 0.0;
    for (const RequestRecord *r : done)
        lastDone = std::max(lastDone, r->done);
    report.set("throughput_rps",
               static_cast<double>(done.size()) / lastDone);
    report.set("latency_p50_s", percentile(latency, 0.5));
    report.set("latency_p90_s", percentile(latency, 0.9));
    report.set("first_iter_p50_ms", percentile(firstIterMs, 0.5));
    report.set("iter_p50_ms", percentile(iterMs, 0.5));
    report.set("iter_p90_ms", percentile(iterMs, 0.9));
    report.set("success_frac", static_cast<double>(run.validCount())
                                   / static_cast<double>(run.records.size()));
    report.set("peak_rss_mib", run.peakRssMiB);
}

void
reportServeLayers(const Workload &w, const TimedRun &run, Report &report)
{
    const auto done = run.windowCompletions();
    const auto ms = [&](auto fn) {
        return percentile(collect(done, fn), 0.5) * 1e3;
    };
    report.set("serve.service_p50_s",
               percentile(collect(done,
                                  [](const RequestRecord &r) {
                                      return r.serviceSeconds;
                                  }),
                          0.5));
    report.set("serve.wait_p50_ms", ms([](const RequestRecord &r) {
                   return r.done - r.submit - r.serviceSeconds;
               }));
    double rows = 0.0;
    for (const RequestRecord &r : run.records)
        rows += r.cohortRows;
    report.set("serve.cohort_rows_mean",
               rows / static_cast<double>(run.records.size()));
    double service = 0.0;
    for (const RequestRecord *r : done)
        service += r->serviceSeconds;
    report.set("serve.in_service_mean", service / run.windowSeconds);

    if (!w.http) {
        for (const char *name :
             {"net.post_rtt_p50_ms", "net.stream_open_p50_ms",
              "net.done_lag_p50_ms", "net.overhead_p50_ms"})
            report.set(name, 0.0);
        return;
    }
    report.set("net.post_rtt_p50_ms",
               ms([](const RequestRecord &r) { return r.postRtt; }));
    report.set("net.stream_open_p50_ms",
               ms([](const RequestRecord &r) { return r.streamOpen; }));
    report.set("net.done_lag_p50_ms",
               ms([](const RequestRecord &r) { return r.doneLag; }));
    report.set("net.overhead_p50_ms", ms([](const RequestRecord &r) {
                   return r.done - r.submit - r.serviceSeconds;
               }));
}

} // namespace perfbench
