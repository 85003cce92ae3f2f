/**
 * @file
 * The long-lived compile-and-simulate service. Three pieces:
 *
 * - `ServiceCore`: the daemon's brain, independent of any transport.
 *   Single-driver-thread request window with validation, admission
 *   control (bounded pending queue, explicit reject-when-full) and
 *   batched execution through `runSweep` (each parallel batch on its
 *   own pool of at most `threads` workers) over one long-lived,
 *   bounded `CompileCache`. Fully
 *   deterministic given its configuration and the request stream:
 *   statuses, batching boundaries and every deterministic result field
 *   replay byte-identically — which is what lets a recorded session be
 *   pinned against the uncached serial oracle (`oracleOptions`).
 * - `ServiceServer` / `ServiceClient`: the AF_UNIX transport speaking
 *   the framed protocol of `service/protocol.h`, with optional raw
 *   frame recording (`service/request_log.h`).
 * - `replayFrames`: drives a recorded frame stream through a
 *   `ServiceCore` offline — the `effact-replay` engine and the replay-
 *   determinism test harness.
 *
 * What a client frame means is decided once, in service.cc's
 * dispatcher: `Request` decodes and submits, `Flush` flushes,
 * `Shutdown` flushes and ends the session, and anything else is
 * refused. The server (which then records the frame and streams the
 * results) and `replayFrames` both call it, so a recorded session
 * cannot replay differently from how it was served.
 */
#ifndef EFFACT_SERVICE_SERVICE_H
#define EFFACT_SERVICE_SERVICE_H

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "compiler/compile_cache.h"
#include "runtime/sweep.h"
#include "service/protocol.h"
#include "service/request_log.h"

namespace effact {

/** `ServiceCore` configuration. Every field is part of the replay
 *  contract: two cores with equal options produce byte-identical
 *  result streams for the same request stream. */
struct ServiceOptions
{
    /** Most jobs a batch runs at once (1 = run batches serially on
     *  the driver thread; no pool is created). */
    size_t threads = defaultThreadCount();
    /** Admission bound on accepted-but-unexecuted requests: a request
     *  arriving with this many pending is refused with
     *  `RejectedQueueFull`. Reachable only below `batchSize`: at or
     *  above it (the defaults), a batch runs first. */
    size_t queueCapacity = 64;
    /** Auto-execute threshold: once this many requests are pending the
     *  core runs them as one sweep batch without waiting for a flush
     *  (capping queue latency). Finished results still wait in the
     *  window until the next flush. */
    size_t batchSize = 16;
    /** `CompileCache` byte budget (0 = unbounded). */
    size_t cacheBytes = 0;
    /** False = compile every request cold (the oracle configuration) */
    bool useCache = true;
    /** Service-wide verification override: -1 = per-request levels
     *  (see `ServiceRequest::verifyLevel`), >= 0 forces the level. */
    int verifyLevel = -1;
};

/**
 * The oracle configuration for `base`: identical admission behavior
 * (queue capacity, batch size, verify override) but serial, uncached
 * execution — every request compiles cold on one thread. The replay-
 * determinism contract: a core with *any* thread count and cache
 * budget produces the same canonical result bytes as its oracle.
 */
ServiceOptions oracleOptions(const ServiceOptions &base);

/**
 * Validates a request against the service's admission rules: a kind
 * of `workloadKinds()` with the scheme parameters and `param` inside
 * its row's bounds, hardware/compiler parameters inside sane bounds,
 * a parseable pipeline spec (unknown pass names are a client error,
 * reported — never a `fatal` in the daemon), known policy codes and a
 * verify level in -1..1. False + `error` on the first violation.
 */
bool validateRequest(const ServiceRequest &req, std::string *error);

/** The workload factory for a *validated* request: its kind's build
 *  function (a `SweepJob::build`: safe to invoke on any worker
 *  thread). */
std::function<Workload()> makeWorkloadBuild(const ServiceRequest &req);

/**
 * Transport-independent service engine. Not thread-safe: one driver
 * thread (the server's connection handler, a replayer, a test) calls
 * `submit`/`flush`; the parallelism is inside the batches.
 */
class ServiceCore
{
  public:
    explicit ServiceCore(ServiceOptions opts = {});

    const ServiceOptions &options() const { return opts_; }

    /**
     * Validates and admits one request; returns its server-assigned
     * sequence number. Every call produces exactly one result entry —
     * `Ok` work, `BadRequest`, or `RejectedQueueFull` — delivered by
     * the next `flush()` in submission order. May execute a batch
     * inline when `batchSize` pending requests have accumulated.
     */
    uint64_t submit(const ServiceRequest &req);

    /**
     * Executes every pending request and returns all results since the
     * previous flush, in submission order.
     */
    std::vector<ServiceResult> flush();

    /** Accepted requests not yet executed (the admission pressure). */
    size_t pendingCount() const { return pending_.size(); }

    /** Results accumulated for the next `flush()` (incl. rejects). */
    size_t windowCount() const { return results_.size(); }

    /**
     * `service.*` counters (accepted/rejected/bad_requests/flushes/
     * batches/queue_peak) merged with the cache's `cache.*` snapshot.
     */
    StatSet statsSnapshot() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** An accepted request awaiting execution. */
    struct Pending
    {
        size_t result; ///< its entry in `results_`
        ServiceRequest req;
        Clock::time_point submitted;
    };

    /** Runs every pending request as one `runSweep` batch. */
    void runBatch();

    ServiceOptions opts_;
    CompileCache cache_;
    /** Every result since the last flush, in submission order; a
     *  pending request's entry is final once its batch has run. */
    std::vector<ServiceResult> results_;
    std::vector<Pending> pending_;
    uint64_t next_seq_ = 0;
    uint64_t accepted_ = 0;
    uint64_t rejected_ = 0;
    uint64_t bad_requests_ = 0;
    uint64_t flushes_ = 0;
    uint64_t batches_ = 0;
    uint64_t queue_peak_ = 0;
};

/** Outcome of replaying a frame stream through a `ServiceCore`. */
struct ReplayOutcome
{
    std::vector<ServiceResult> results; ///< submission order
    size_t requests = 0;                ///< Request frames consumed
    bool sawShutdown = false;
};

/**
 * Drives recorded client frames (`Request`/`Flush`/`Shutdown`) through
 * `core`, collecting every flushed result. Strict about the log: an
 * undecodable request payload or a server-side frame type in the
 * stream is a corrupt log (false + `error`), not a skipped entry. A
 * log that ends without `Shutdown` gets a final implicit flush.
 */
bool replayFrames(const std::vector<Frame> &frames, ServiceCore &core,
                  ReplayOutcome *out, std::string *error);

// --- AF_UNIX transport -----------------------------------------------------

struct ServiceServerOptions
{
    std::string socketPath;
    /** When nonempty, every accepted client frame is appended here
     *  (the replayable session log), plus a `Flush` wherever a client
     *  left with unflushed results. */
    std::string recordPath;
    ServiceOptions service;
};

/**
 * Single-threaded AF_UNIX stream server: accepts one connection at a
 * time and speaks the framed protocol. Malformed frames are answered
 * with an `Error` frame and a connection close — never a crash. When a
 * connection ends, whatever its client submitted and never flushed is
 * flushed and dropped, so no client ever receives another's results.
 * A `Shutdown` frame (or `stop()` from another thread) ends `run()`.
 */
class ServiceServer
{
  public:
    explicit ServiceServer(ServiceServerOptions opts);
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /** Binds and listens on the socket path (and opens the recorder
     *  when configured); false + `error` on failure. */
    bool start(std::string *error);

    /** Accept-and-serve loop; returns once a client sent `Shutdown`
     *  or `stop()` was called. */
    void run();

    /** Asynchronously ends `run()` (safe from another thread). */
    void stop();

    ServiceCore &core() { return core_; }
    const std::string &socketPath() const { return opts_.socketPath; }

  private:
    /** Serves one connection, then flushes and drops the results its
     *  client left unflushed; returns false when the server should
     *  stop accepting (client sent `Shutdown`). */
    bool handleConnection(int fd);
    /** The frame loop of `handleConnection`. */
    bool serveFrames(int fd);

    ServiceServerOptions opts_;
    ServiceCore core_;
    RequestLogWriter recorder_;
    int listen_fd_ = -1;
    std::atomic<bool> stop_{false};
};

/** Blocking client for the framed AF_UNIX protocol. Tracks how many
 *  requests are outstanding so `flush()` knows how many result frames
 *  to collect (the server returns exactly one per submitted request) */
class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    bool connect(const std::string &socketPath, std::string *error);

    /** Sends one request frame (does not wait for its result). */
    bool sendRequest(const ServiceRequest &req, std::string *error);

    /** Sends `Flush` and collects one result per outstanding request */
    bool flush(std::vector<ServiceResult> *results, std::string *error);

    /** Sends `Shutdown`: like `flush`, then the server stops. */
    bool shutdownServer(std::vector<ServiceResult> *results,
                        std::string *error);

    void close();

  private:
    bool sendFrame(FrameType type, const std::vector<uint8_t> &payload,
                   std::string *error);
    /** Sends `type` (`Flush` or `Shutdown`) and collects one result
     *  per outstanding request. */
    bool finish(FrameType type, std::vector<ServiceResult> *results,
                std::string *error);

    int fd_ = -1;
    size_t outstanding_ = 0;
    std::vector<uint8_t> rxbuf_;
};

} // namespace effact

#endif // EFFACT_SERVICE_SERVICE_H
