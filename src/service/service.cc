#include "service/service.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"
#include "compiler/pass_manager.h"
#include "ir/workloads.h"

namespace effact {

namespace {

using Ms = std::chrono::duration<double, std::milli>;

bool
inRange(uint64_t v, uint64_t lo, uint64_t hi)
{
    return v >= lo && v <= hi;
}

bool
finitePositive(double v, double hi)
{
    return std::isfinite(v) && v > 0 && v <= hi;
}

} // namespace

ServiceOptions
oracleOptions(const ServiceOptions &base)
{
    ServiceOptions oracle = base;
    oracle.threads = 1;
    oracle.cacheBytes = 0;
    oracle.useCache = false;
    return oracle;
}

bool
validateRequest(const ServiceRequest &req, std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    const WorkloadKind *kind = findWorkloadKind(req.workload);
    if (kind == nullptr)
        return fail("unknown workload kind '" + req.workload + "'");
    // Scheme parameters and the kind knob, against the floors and the
    // bound the kind's builder declares (ir/workloads.h).
    if (!inRange(req.fhe.logN, kind->minLogN, 17))
        return fail("fhe.logN out of range for kind '" + req.workload +
                    "'");
    if (!inRange(req.fhe.levels, kind->minLevels, 64))
        return fail("fhe.levels out of range for kind '" + req.workload +
                    "' (want " + std::to_string(kind->minLevels) + "..64)");
    if (!inRange(req.fhe.dnum, 1, req.fhe.levels))
        return fail("fhe.dnum out of range (want 1 <= dnum <= levels)");
    if (req.param > kind->maxParam)
        return fail("param out of range for kind '" + req.workload +
                    "' (want 0.." + std::to_string(kind->maxParam) + ")");
    // Hardware design point.
    if (!inRange(req.hw.lanes, 1, 1u << 16))
        return fail("hw.lanes out of range");
    if (!finitePositive(req.hw.freqGhz, 100.0))
        return fail("hw.freqGhz must be finite and in (0, 100]");
    if (!inRange(req.hw.sramBytes, 1u << 16, uint64_t(1) << 40))
        return fail("hw.sramBytes out of range (want 64KB..1TB)");
    if (!finitePositive(req.hw.hbmBytesPerSec, 1e15))
        return fail("hw.hbmBytesPerSec must be finite and positive");
    if (!inRange(req.hw.nttUnits, 1, 1024) ||
        !inRange(req.hw.mulUnits, 1, 1024) ||
        !inRange(req.hw.addUnits, 1, 1024) ||
        !inRange(req.hw.autoUnits, 1, 1024))
        return fail("hw function-unit counts out of range (want 1..1024)");
    if (!inRange(req.hw.issueWindow, 1, 1u << 16))
        return fail("hw.issueWindow out of range");
    // Compiler options.
    if (!inRange(req.copts.fifoDepth, 1, 1u << 20))
        return fail("copts.fifoDepth out of range");
    // An unknown pass name must surface as a BadRequest, not as
    // `PassManager::fromSpec`'s `fatal` in the middle of a batch.
    std::vector<std::string> names;
    std::string spec_error;
    if (!parsePipelineSpec(req.copts.pipeline, &names, &spec_error))
        return fail("bad pipeline spec: " + spec_error);
    // Policy codes arrive as raw wire bytes.
    if (uint8_t(req.copts.scheduler) > uint8_t(Scheduler::Latency))
        return fail("copts.scheduler code out of range");
    if (uint8_t(req.copts.regalloc) > uint8_t(RegAllocPolicy::Priority))
        return fail("copts.regalloc code out of range");
    // A level above 1 would verify exactly as 1 does.
    if (req.verifyLevel < -1 || req.verifyLevel > 1)
        return fail("verifyLevel out of range (want -1..1)");
    return true;
}

std::function<Workload()>
makeWorkloadBuild(const ServiceRequest &req)
{
    const WorkloadKind *kind = findWorkloadKind(req.workload);
    if (kind == nullptr)
        return nullptr; // unreachable for validated requests
    return [build = kind->build, fhe = req.fhe, param = req.param] {
        return build(fhe, param);
    };
}

ServiceCore::ServiceCore(ServiceOptions opts)
    : opts_(opts), cache_(opts.cacheBytes)
{
    if (opts_.threads == 0)
        opts_.threads = 1;
    if (opts_.queueCapacity == 0)
        opts_.queueCapacity = 1;
    if (opts_.batchSize == 0)
        opts_.batchSize = 1;
}

uint64_t
ServiceCore::submit(const ServiceRequest &req)
{
    const Clock::time_point submitted = Clock::now();
    ServiceResult res;
    res.seq = next_seq_++;
    res.tag = req.tag;
    res.name = req.name;

    std::string why;
    if (!validateRequest(req, &why)) {
        res.status = ServiceStatus::BadRequest;
        res.error = why;
        ++bad_requests_;
    } else if (pending_.size() >= opts_.queueCapacity) {
        // The backpressure contract: a full pending queue refuses the
        // request with an explicit status, and the client may retry
        // after a flush. Only a capacity below `batchSize` gets here:
        // otherwise the batch below runs before the queue can fill.
        res.status = ServiceStatus::RejectedQueueFull;
        res.error = "pending queue full (capacity " +
                    std::to_string(opts_.queueCapacity) + ")";
        ++rejected_;
    } else {
        res.queueDepth = pending_.size();
        ++accepted_;
        queue_peak_ = std::max<uint64_t>(queue_peak_, pending_.size() + 1);
        pending_.push_back({results_.size(), req, submitted});
    }
    const uint64_t seq = res.seq;
    results_.push_back(std::move(res));
    if (pending_.size() >= opts_.batchSize)
        runBatch();
    return seq;
}

void
ServiceCore::runBatch()
{
    if (pending_.empty())
        return;
    ++batches_;

    std::vector<SweepJob> jobs;
    jobs.reserve(pending_.size());
    for (const Pending &pending : pending_) {
        const ServiceRequest &req = pending.req;
        CompilerOptions copts = req.copts;
        if (opts_.verifyLevel >= 0)
            copts.verifyLevel = opts_.verifyLevel;
        else if (req.verifyLevel >= 0)
            copts.verifyLevel = int(req.verifyLevel);
        else
            copts.verifyLevel = defaultVerifyLevel();
        jobs.push_back({req.name, makeWorkloadBuild(req), req.hw, copts});
    }
    const Clock::time_point batch_start = Clock::now();
    const std::vector<PlatformResult> results =
        runSweep(jobs, opts_.threads, opts_.useCache ? &cache_ : nullptr);
    const Clock::time_point batch_end = Clock::now();

    for (size_t k = 0; k < pending_.size(); ++k) {
        const PlatformResult &p = results[k];
        ServiceResult &res = results_[pending_[k].result];
        res.status = ServiceStatus::Ok;
        res.cycles = p.sim.cycles;
        res.timeMs = p.sim.timeMs;
        res.dramBytes = p.sim.dramBytes;
        res.dramUtil = p.sim.dramUtil;
        res.nttUtil = p.sim.nttUtil;
        res.mulAddUtil = p.sim.mulAddUtil;
        res.autoUtil = p.sim.autoUtil;
        res.instructions = p.sim.instructions;
        res.machineFingerprint = p.machineFingerprint;
        res.benchTimeMs = p.benchTimeMs;
        res.amortizedUs = p.amortizedUs;
        res.dramGb = p.dramGb;
        for (const auto &[key, value] : p.compilerStats.all())
            res.stats.set("compile." + key, value);
        for (const auto &[key, value] : p.sim.stats.all())
            res.stats.set("sim." + key, value);
        for (const auto &[key, value] : p.jobStats.all())
            res.stats.set(key, value); // already `job.`-prefixed
        res.queueMs = Ms(batch_start - pending_[k].submitted).count();
        res.serviceMs = Ms(batch_end - pending_[k].submitted).count();
    }
    pending_.clear();
}

std::vector<ServiceResult>
ServiceCore::flush()
{
    runBatch();
    ++flushes_;
    return std::exchange(results_, {});
}

StatSet
ServiceCore::statsSnapshot() const
{
    StatSet s;
    s.set("service.accepted", double(accepted_));
    s.set("service.rejected", double(rejected_));
    s.set("service.bad_requests", double(bad_requests_));
    s.set("service.flushes", double(flushes_));
    s.set("service.batches", double(batches_));
    s.set("service.queue_peak", double(queue_peak_));
    s.merge(cache_.statsSnapshot());
    return s;
}

namespace {

/** What one client frame did to a core. */
struct AppliedFrame
{
    /** Nonempty when the frame was refused (the core is untouched):
     *  why, for an `Error` frame or a corrupt-log report. */
    std::string refusal;
    /** Results a `Flush` or `Shutdown` returned, in submission order */
    std::vector<ServiceResult> results;
    bool stop = false; ///< `Shutdown`: the session ends here
};

/**
 * What a client frame means, for the server and the replayer alike: a
 * `Request` is decoded and submitted, `Flush` flushes, `Shutdown`
 * flushes and ends the session, and any other frame type or an
 * undecodable request is refused.
 */
AppliedFrame
applyClientFrame(const Frame &frame, ServiceCore &core)
{
    AppliedFrame applied;
    switch (frame.type) {
    case FrameType::Request: {
        ServiceRequest req;
        std::string why;
        if (decodeRequest(frame.payload, &req, &why))
            core.submit(req);
        else
            applied.refusal = "bad request: " + why;
        break;
    }
    case FrameType::Shutdown:
        applied.stop = true;
        [[fallthrough]];
    case FrameType::Flush:
        applied.results = core.flush();
        break;
    default:
        applied.refusal = "unexpected client frame type " +
                          std::to_string(unsigned(frame.type));
        break;
    }
    return applied;
}

} // namespace

bool
replayFrames(const std::vector<Frame> &frames, ServiceCore &core,
             ReplayOutcome *out, std::string *error)
{
    ReplayOutcome outcome;
    auto take = [&outcome](std::vector<ServiceResult> results) {
        for (ServiceResult &res : results)
            outcome.results.push_back(std::move(res));
    };
    for (size_t i = 0; i < frames.size() && !outcome.sawShutdown; ++i) {
        AppliedFrame applied = applyClientFrame(frames[i], core);
        if (!applied.refusal.empty()) {
            if (error != nullptr)
                *error = "corrupt request log at frame " +
                         std::to_string(i) + ": " + applied.refusal;
            return false;
        }
        if (frames[i].type == FrameType::Request)
            ++outcome.requests;
        take(std::move(applied.results));
        outcome.sawShutdown = applied.stop;
    }
    if (!outcome.sawShutdown && core.windowCount() > 0)
        take(core.flush());
    if (out != nullptr)
        *out = std::move(outcome);
    return true;
}

// --- AF_UNIX transport -----------------------------------------------------

namespace {

/** Writes all of `data`, riding out EINTR and partial sends. */
bool
writeAll(int fd, const uint8_t *data, size_t size, std::string *error)
{
    size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error != nullptr)
                *error = std::string("send failed: ") +
                         std::strerror(errno);
            return false;
        }
        sent += size_t(n);
    }
    return true;
}

bool
sendFrameTo(int fd, FrameType type, const std::vector<uint8_t> &payload,
            std::string *error)
{
    const std::vector<uint8_t> bytes = encodeFrame(type, payload);
    return writeAll(fd, bytes.data(), bytes.size(), error);
}

bool
makeSocketAddress(const std::string &path, sockaddr_un *addr,
                  std::string *error)
{
    if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
        if (error != nullptr)
            *error = "socket path empty or too long (max " +
                     std::to_string(sizeof(addr->sun_path) - 1) +
                     " bytes): '" + path + "'";
        return false;
    }
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

ServiceServer::ServiceServer(ServiceServerOptions opts)
    : opts_(std::move(opts)), core_(opts_.service)
{
}

ServiceServer::~ServiceServer()
{
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(opts_.socketPath.c_str());
    }
}

bool
ServiceServer::start(std::string *error)
{
    sockaddr_un addr;
    if (!makeSocketAddress(opts_.socketPath, &addr, error))
        return false;
    if (!opts_.recordPath.empty() &&
        !recorder_.open(opts_.recordPath, error))
        return false;
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (error != nullptr)
            *error = std::string("socket failed: ") + std::strerror(errno);
        return false;
    }
    // A stale socket file from a dead daemon would fail the bind.
    ::unlink(opts_.socketPath.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
        if (error != nullptr)
            *error = std::string("bind/listen on '") + opts_.socketPath +
                     "' failed: " + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    return true;
}

void
ServiceServer::run()
{
    EFFACT_ASSERT(listen_fd_ >= 0, "ServiceServer::run before start()");
    while (!stop_.load()) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listening socket gone
        }
        const bool keep_serving = stop_.load() || handleConnection(fd);
        ::close(fd);
        if (!keep_serving)
            break;
    }
}

void
ServiceServer::stop()
{
    stop_.store(true);
    // Poke the accept loop awake with a throwaway connection.
    sockaddr_un addr;
    std::string ignored;
    if (!makeSocketAddress(opts_.socketPath, &addr, &ignored))
        return;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return;
    ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
    ::close(fd);
}

bool
ServiceServer::handleConnection(int fd)
{
    const bool keep_serving = serveFrames(fd);
    // The client is gone, so results it submitted and never flushed
    // have no reader: flush them out of the window (the next
    // connection's Flush must return only its own) and record that
    // flush, so the log replays the batches the daemon ran.
    if (core_.windowCount() > 0) {
        core_.flush();
        if (recorder_.isOpen())
            recorder_.append(FrameType::Flush, {});
    }
    return keep_serving;
}

bool
ServiceServer::serveFrames(int fd)
{
    std::vector<uint8_t> buf;
    for (;;) {
        Frame frame;
        bool eof = false;
        std::string io_error;
        const FrameDecodeStatus status =
            readFrameFrom(fd, buf, &frame, &eof, &io_error);
        if (status != FrameDecodeStatus::Ok) {
            if (eof && buf.empty())
                return true; // clean disconnect; keep serving
            // Malformed or truncated stream: structured error reply,
            // close this connection, daemon stays up.
            std::string reply = eof ? "connection closed mid-frame"
                                    : frameDecodeStatusName(status);
            if (!io_error.empty())
                reply += ": " + io_error;
            sendFrameTo(fd, FrameType::Error, encodeErrorPayload(reply),
                        nullptr);
            return true;
        }
        const AppliedFrame applied = applyClientFrame(frame, core_);
        if (!applied.refusal.empty()) {
            sendFrameTo(fd, FrameType::Error,
                        encodeErrorPayload(applied.refusal), nullptr);
            return true;
        }
        if (recorder_.isOpen())
            recorder_.append(frame.type, frame.payload);
        std::string send_error;
        for (const ServiceResult &res : applied.results)
            if (!sendFrameTo(fd, FrameType::Result, encodeResult(res),
                             &send_error)) {
                warn("service: dropping connection: %s",
                     send_error.c_str());
                return !applied.stop;
            }
        if (applied.stop)
            return false; // end the accept loop
    }
}

// --- Client ----------------------------------------------------------------

ServiceClient::~ServiceClient() { close(); }

bool
ServiceClient::connect(const std::string &socketPath, std::string *error)
{
    close();
    sockaddr_un addr;
    if (!makeSocketAddress(socketPath, &addr, error))
        return false;
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (error != nullptr)
            *error = std::string("socket failed: ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error != nullptr)
            *error = std::string("connect to '") + socketPath +
                     "' failed: " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    outstanding_ = 0;
    rxbuf_.clear();
}

bool
ServiceClient::sendFrame(FrameType type,
                         const std::vector<uint8_t> &payload,
                         std::string *error)
{
    if (fd_ < 0) {
        if (error != nullptr)
            *error = "not connected";
        return false;
    }
    return sendFrameTo(fd_, type, payload, error);
}

bool
ServiceClient::sendRequest(const ServiceRequest &req, std::string *error)
{
    if (!sendFrame(FrameType::Request, encodeRequest(req), error))
        return false;
    ++outstanding_;
    return true;
}

bool
ServiceClient::flush(std::vector<ServiceResult> *results, std::string *error)
{
    return finish(FrameType::Flush, results, error);
}

bool
ServiceClient::shutdownServer(std::vector<ServiceResult> *results,
                              std::string *error)
{
    return finish(FrameType::Shutdown, results, error);
}

bool
ServiceClient::finish(FrameType type, std::vector<ServiceResult> *results,
                      std::string *error)
{
    if (!sendFrame(type, {}, error))
        return false;
    const size_t expect = std::exchange(outstanding_, 0);
    for (size_t i = 0; i < expect; ++i) {
        Frame frame;
        bool eof = false;
        std::string io_error;
        const FrameDecodeStatus status =
            readFrameFrom(fd_, rxbuf_, &frame, &eof, &io_error);
        if (status != FrameDecodeStatus::Ok) {
            if (error == nullptr)
                return false;
            if (eof)
                *error = "server closed the connection";
            else if (!io_error.empty())
                *error = io_error;
            else
                *error = std::string("malformed server frame: ") +
                         frameDecodeStatusName(status);
            return false;
        }
        if (frame.type == FrameType::Error) {
            std::string message;
            decodeErrorPayload(frame.payload, &message);
            if (error != nullptr)
                *error = "server error: " + message;
            return false;
        }
        if (frame.type != FrameType::Result) {
            if (error != nullptr)
                *error = "unexpected frame type from server";
            return false;
        }
        ServiceResult res;
        std::string decode_error;
        if (!decodeResult(frame.payload, &res, &decode_error)) {
            if (error != nullptr)
                *error = "bad result payload: " + decode_error;
            return false;
        }
        if (results != nullptr)
            results->push_back(std::move(res));
    }
    return true;
}

} // namespace effact
