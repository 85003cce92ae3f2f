#include "service/service.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

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

size_t
ServiceCore::pendingCount() const
{
    size_t n = 0;
    for (const Entry &entry : window_)
        if (entry.runnable && !entry.done)
            ++n;
    return n;
}

uint64_t
ServiceCore::submit(const ServiceRequest &req)
{
    Entry entry;
    entry.req = req;
    entry.submitted = Clock::now();
    entry.res.seq = next_seq_++;
    entry.res.tag = req.tag;
    entry.res.name = req.name;

    std::string why;
    const size_t pending = pendingCount();
    if (!validateRequest(req, &why)) {
        entry.res.status = ServiceStatus::BadRequest;
        entry.res.error = why;
        entry.done = true;
        ++bad_requests_;
    } else if (pending >= opts_.queueCapacity) {
        // The documented backpressure contract: a full pending queue
        // refuses the request outright instead of growing without
        // bound; the client sees the explicit status code and may
        // retry after a flush.
        entry.res.status = ServiceStatus::RejectedQueueFull;
        entry.res.error = "pending queue full (capacity " +
                          std::to_string(opts_.queueCapacity) + ")";
        entry.done = true;
        ++rejected_;
    } else {
        entry.runnable = true;
        entry.res.queueDepth = pending;
        ++accepted_;
        queue_peak_ = std::max<uint64_t>(queue_peak_, pending + 1);
    }
    const uint64_t seq = entry.res.seq;
    window_.push_back(std::move(entry));
    if (pendingCount() >= opts_.batchSize)
        runBatch();
    return seq;
}

void
ServiceCore::runBatch()
{
    std::vector<size_t> batch;
    for (size_t i = 0; i < window_.size(); ++i)
        if (window_[i].runnable && !window_[i].done)
            batch.push_back(i);
    if (batch.empty())
        return;
    ++batches_;

    std::vector<SweepJob> jobs;
    jobs.reserve(batch.size());
    for (size_t idx : batch) {
        const ServiceRequest &req = window_[idx].req;
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

    for (size_t k = 0; k < batch.size(); ++k) {
        Entry &entry = window_[batch[k]];
        const PlatformResult &p = results[k];
        ServiceResult &res = entry.res;
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
        res.queueMs = Ms(batch_start - entry.submitted).count();
        res.serviceMs = Ms(batch_end - entry.submitted).count();
        entry.done = true;
    }
}

std::vector<ServiceResult>
ServiceCore::flush()
{
    runBatch();
    ++flushes_;
    std::vector<ServiceResult> out;
    out.reserve(window_.size());
    for (Entry &entry : window_)
        out.push_back(std::move(entry.res));
    window_.clear();
    return out;
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

bool
replayFrames(const std::vector<Frame> &frames, ServiceCore &core,
             ReplayOutcome *out, std::string *error)
{
    ReplayOutcome outcome;
    auto take = [&outcome](std::vector<ServiceResult> results) {
        for (ServiceResult &res : results)
            outcome.results.push_back(std::move(res));
    };
    for (size_t i = 0; i < frames.size(); ++i) {
        const Frame &frame = frames[i];
        switch (frame.type) {
        case FrameType::Request: {
            ServiceRequest req;
            std::string decode_error;
            if (!decodeRequest(frame.payload, &req, &decode_error)) {
                if (error != nullptr)
                    *error = "corrupt request at frame " +
                             std::to_string(i) + ": " + decode_error;
                return false;
            }
            core.submit(req);
            ++outcome.requests;
            break;
        }
        case FrameType::Flush:
            take(core.flush());
            break;
        case FrameType::Shutdown:
            take(core.flush());
            outcome.sawShutdown = true;
            break;
        default:
            if (error != nullptr)
                *error = "unexpected server-side frame type in request "
                         "log at frame " +
                         std::to_string(i);
            return false;
        }
        if (outcome.sawShutdown)
            break;
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

/**
 * Reads the next complete frame from `fd` into `out`, buffering
 * partial reads in `buf`. Returns Ok, Truncated for a clean EOF with
 * an empty buffer (the caller distinguishes via `eof`), or the decode
 * failure for a malformed stream.
 */
FrameDecodeStatus
readFrameFrom(int fd, std::vector<uint8_t> &buf, Frame *out, bool *eof,
              std::string *error)
{
    *eof = false;
    for (;;) {
        if (!buf.empty()) {
            size_t consumed = 0;
            const FrameDecodeStatus status =
                decodeFrame(buf.data(), buf.size(), out, &consumed);
            if (status == FrameDecodeStatus::Ok) {
                buf.erase(buf.begin(),
                          buf.begin() + std::ptrdiff_t(consumed));
                return status;
            }
            if (status != FrameDecodeStatus::Truncated)
                return status; // malformed beyond repair
        }
        uint8_t chunk[4096];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error != nullptr)
                *error = std::string("recv failed: ") +
                         std::strerror(errno);
            return FrameDecodeStatus::Truncated;
        }
        if (n == 0) {
            *eof = true;
            return FrameDecodeStatus::Truncated;
        }
        buf.insert(buf.end(), chunk, chunk + n);
    }
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
                        &io_error);
            return true;
        }
        switch (frame.type) {
        case FrameType::Request: {
            ServiceRequest req;
            std::string decode_error;
            if (!decodeRequest(frame.payload, &req, &decode_error)) {
                sendFrameTo(fd, FrameType::Error,
                            encodeErrorPayload("bad request payload: " +
                                               decode_error),
                            &decode_error);
                return true;
            }
            if (recorder_.isOpen())
                recorder_.append(FrameType::Request, frame.payload);
            core_.submit(req);
            break;
        }
        case FrameType::Flush:
        case FrameType::Shutdown: {
            if (recorder_.isOpen())
                recorder_.append(frame.type, frame.payload);
            const std::vector<ServiceResult> results = core_.flush();
            std::string send_error;
            for (const ServiceResult &res : results)
                if (!sendFrameTo(fd, FrameType::Result,
                                 encodeResult(res), &send_error)) {
                    warn("service: dropping connection: %s",
                         send_error.c_str());
                    return frame.type != FrameType::Shutdown;
                }
            if (frame.type == FrameType::Shutdown)
                return false; // end the accept loop
            break;
        }
        default:
            sendFrameTo(
                fd, FrameType::Error,
                encodeErrorPayload("unexpected client frame type"),
                nullptr);
            return true;
        }
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
ServiceClient::readFrame(Frame *out, std::string *error)
{
    bool eof = false;
    std::string io_error;
    const FrameDecodeStatus status =
        readFrameFrom(fd_, rxbuf_, out, &eof, &io_error);
    if (status == FrameDecodeStatus::Ok)
        return true;
    if (error != nullptr) {
        if (eof)
            *error = "server closed the connection";
        else if (!io_error.empty())
            *error = io_error;
        else
            *error = std::string("malformed server frame: ") +
                     frameDecodeStatusName(status);
    }
    return false;
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
ServiceClient::collectResults(size_t count,
                              std::vector<ServiceResult> *results,
                              std::string *error)
{
    for (size_t i = 0; i < count; ++i) {
        Frame frame;
        if (!readFrame(&frame, error))
            return false;
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

bool
ServiceClient::flush(std::vector<ServiceResult> *results, std::string *error)
{
    if (!sendFrame(FrameType::Flush, {}, error))
        return false;
    const size_t expect = outstanding_;
    outstanding_ = 0;
    return collectResults(expect, results, error);
}

bool
ServiceClient::shutdownServer(std::vector<ServiceResult> *results,
                              std::string *error)
{
    if (!sendFrame(FrameType::Shutdown, {}, error))
        return false;
    const size_t expect = outstanding_;
    outstanding_ = 0;
    return collectResults(expect, results, error);
}

} // namespace effact
