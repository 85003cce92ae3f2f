/**
 * @file
 * The long-lived compile-and-simulate service. Three pieces:
 *
 * - `ServiceCore`: the daemon's brain, independent of any transport.
 *   Single-driver-thread request window with validation, admission
 *   control (bounded pending queue, explicit reject-when-full) and
 *   batched execution through the shared `SweepEngine` on one
 *   long-lived `ThreadPool` + bounded `CompileCache`. Fully
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
 */
#ifndef EFFACT_SERVICE_SERVICE_H
#define EFFACT_SERVICE_SERVICE_H

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compiler/compile_cache.h"
#include "runtime/sweep.h"
#include "service/protocol.h"
#include "service/request_log.h"

namespace effact {

/**
 * Pending-queue capacity default: the `EFFACT_QUEUE_DEPTH` environment
 * variable when set to a positive integer, otherwise 64. This is the
 * admission bound — the maximum accepted-but-not-yet-executed requests;
 * request 65 of a burst is refused with `RejectedQueueFull`.
 */
size_t defaultQueueCapacity();

/** `ServiceCore` configuration. Every field is part of the replay
 *  contract: two cores with equal options produce byte-identical
 *  result streams for the same request stream. */
struct ServiceOptions
{
    /** Sweep worker count (1 = run batches serially on the driver
     *  thread; no pool is created). */
    size_t threads = defaultThreadCount();
    /** Admission bound on accepted-but-unexecuted requests. */
    size_t queueCapacity = defaultQueueCapacity();
    /** Auto-execute threshold: once this many requests are pending the
     *  core runs them as one sweep batch without waiting for a flush
     *  (capping both queue latency and window memory). */
    size_t batchSize = 16;
    /** `CompileCache` byte budget (0 = unbounded; see
     *  `EFFACT_CACHE_BYTES` / `defaultCacheBytes`). */
    size_t cacheBytes = defaultCacheBytes();
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
 * Validates a request against the service's admission rules: known
 * workload kind, scheme/hardware/compiler parameters inside sane
 * bounds, a parseable pipeline spec (unknown pass names are a client
 * error, reported — never a `fatal` in the daemon) and known policy
 * codes. False + `error` on the first violation.
 */
bool validateRequest(const ServiceRequest &req, std::string *error);

/** The workload factory for a *validated* request (a `SweepJob::build`:
 *  safe to invoke on any worker thread). */
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
    size_t pendingCount() const;

    /** Results accumulated for the next `flush()` (incl. rejects). */
    size_t windowCount() const { return window_.size(); }

    /**
     * `service.*` counters (accepted/rejected/bad_requests/flushes/
     * batches/queue_peak) merged with the cache's `cache.*` snapshot.
     */
    StatSet statsSnapshot() const;

    CompileCache &cache() { return cache_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Entry
    {
        ServiceRequest req;
        ServiceResult res;
        bool runnable = false; ///< accepted, awaiting execution
        bool done = false;     ///< result fields are final
        Clock::time_point submitted;
    };

    void runBatch();

    ServiceOptions opts_;
    CompileCache cache_;
    /** Long-lived batch pool (absent when `threads <= 1`): one pool
     *  serves every batch, so worker threads are created once per
     *  daemon, not once per flush. */
    std::optional<ThreadPool> pool_;
    std::vector<Entry> window_;
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
     *  (the replayable session log). */
    std::string recordPath;
    ServiceOptions service;
};

/**
 * Single-threaded AF_UNIX stream server: accepts one connection at a
 * time and speaks the framed protocol. Malformed frames are answered
 * with an `Error` frame and a connection close — never a crash. A
 * `Shutdown` frame (or `stop()` from another thread) ends `run()`.
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
    /** Serves one connection; returns false when the server should
     *  stop accepting (client sent `Shutdown`). */
    bool handleConnection(int fd);

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
    bool isConnected() const { return fd_ >= 0; }

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
    bool readFrame(Frame *out, std::string *error);
    bool collectResults(size_t count, std::vector<ServiceResult> *results,
                        std::string *error);

    int fd_ = -1;
    size_t outstanding_ = 0;
    std::vector<uint8_t> rxbuf_;
};

} // namespace effact

#endif // EFFACT_SERVICE_SERVICE_H
