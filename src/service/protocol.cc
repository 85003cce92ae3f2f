#include "service/protocol.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include <unistd.h>

#include "common/hash.h"

namespace effact {

namespace {

/** A double's IEEE-754 bit pattern: doubles travel as these, so
 *  encode/decode is exact and byte comparison of encoded results is
 *  value comparison. */
uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

// --- The two ends of a field walk -----------------------------------------

/**
 * Appends fields in wire order: little-endian fixed-width integers,
 * doubles as bit patterns, strings length-prefixed. Each member takes
 * the field a walk hands it, so a walk run with a `Writer` encodes.
 */
class Writer
{
  public:
    explicit Writer(size_t reserve = 0) { bytes_.reserve(reserve); }

    template <class T> void u8(const T &v) { put(v, 1); }
    template <class T> void u16(const T &v) { put(v, 2); }
    template <class T> void u32(const T &v) { put(v, 4); }
    template <class T> void u64(const T &v) { put(v, 8); }
    void f64(double v) { put(bitsOf(v), 8); }

    void
    str(const std::string &s)
    {
        u32(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    void status(ServiceStatus s) { u32(s); }

    /** A count, then each (key, value) sorted by key (StatSet is an
     *  ordered map), so the encoding is canonical. */
    void
    stats(const StatSet &stats)
    {
        u32(stats.all().size());
        for (const auto &[key, value] : stats.all()) {
            str(key);
            f64(value);
        }
    }

    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    template <class T>
    void
    put(const T &field, int width)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                      "integer fields only: doubles go through f64");
        const uint64_t v = uint64_t(field);
        for (int byte = 0; byte < width; ++byte)
            bytes_.push_back(uint8_t(v >> (byte * 8)));
    }

    std::vector<uint8_t> bytes_;
};

/**
 * Reads fields in wire order under the `Writer`'s member names, so the
 * same walk run with a `Reader` decodes. Bounds-checked: the first
 * problem latches and later reads yield zeros, so a walk is crash-free
 * on any input and `finish` reports that problem once at the end.
 */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    template <class T> void u8(T &v) { get(v, 1); }
    template <class T> void u16(T &v) { get(v, 2); }
    template <class T> void u32(T &v) { get(v, 4); }
    template <class T> void u64(T &v) { get(v, 8); }

    void
    f64(double &v)
    {
        uint64_t bits = 0;
        u64(bits);
        std::memcpy(&v, &bits, sizeof(v));
    }

    void
    str(std::string &s)
    {
        uint32_t len = 0;
        u32(len);
        // A string longer than the payload bound is structurally
        // impossible; refuse before allocating.
        if (len > kMaxFramePayload || !need(len))
            return fail("too short");
        s.assign(reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
    }

    void
    status(ServiceStatus &s)
    {
        uint32_t code = 0;
        u32(code);
        if (code > uint32_t(ServiceStatus::InternalError))
            return fail("has an unknown status code");
        s = ServiceStatus(code);
    }

    void
    stats(StatSet &stats)
    {
        uint32_t count = 0;
        u32(count);
        // Each entry is at least 12 bytes; an impossible count is
        // refused up front instead of looping on a failed reader.
        if (count > kMaxFramePayload / 12)
            return fail("has an implausible stat count");
        for (uint32_t i = 0; i < count && problem_ == nullptr; ++i) {
            std::string key;
            double value = 0;
            str(key);
            f64(value);
            if (problem_ == nullptr)
                stats.set(key, value);
        }
    }

    /** True when the walk read exactly the payload; otherwise false and
     *  "<what> payload <problem>" in `error`. */
    bool
    finish(const char *what, std::string *error)
    {
        if (problem_ == nullptr && pos_ != size_)
            fail("has trailing bytes");
        if (problem_ != nullptr && error != nullptr)
            *error = std::string(what) + " payload " + problem_;
        return problem_ == nullptr;
    }

  private:
    void
    fail(const char *problem)
    {
        if (problem_ == nullptr)
            problem_ = problem;
    }

    bool
    need(size_t n)
    {
        if (problem_ == nullptr && size_ - pos_ >= n)
            return true;
        fail("too short");
        return false;
    }

    template <class T>
    void
    get(T &field, int width)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                      "integer fields only: doubles go through f64");
        uint64_t v = 0;
        if (need(size_t(width)))
            for (int byte = 0; byte < width; ++byte)
                v |= uint64_t(data_[pos_++]) << (byte * 8);
        field = T(v);
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    const char *problem_ = nullptr;
};

// --- Field walks: each wire layout, written once --------------------------

/** A walk's return type, enabled for `Msg` = `T` or `const T`: the
 *  `Writer` walks a const message, the `Reader` a mutable one. */
template <class Msg, class T>
using WalkOf = std::enable_if_t<std::is_same_v<std::remove_const_t<Msg>, T>>;

/** The fixed frame header (see protocol.h), `kFrameHeaderBytes` long. */
struct FrameHeader
{
    uint32_t magic = kFrameMagic;
    uint16_t version = kProtocolVersion;
    uint16_t type = 0;
    uint32_t length = 0;
    uint64_t checksum = 0;
};

template <class Io, class Msg>
WalkOf<Msg, FrameHeader>
walk(Io &io, Msg &header)
{
    io.u32(header.magic);
    io.u16(header.version);
    io.u16(header.type);
    io.u32(header.length);
    io.u64(header.checksum);
}

template <class Io, class Msg>
WalkOf<Msg, ServiceRequest>
walk(Io &io, Msg &req)
{
    io.u64(req.tag);
    io.str(req.name);
    io.str(req.workload);
    io.u64(req.fhe.logN);
    io.u64(req.fhe.levels);
    io.u64(req.fhe.dnum);
    io.u64(req.param);
    // Hardware design point, every field but the display label `name`.
    io.u64(req.hw.lanes);
    io.f64(req.hw.freqGhz);
    io.u64(req.hw.sramBytes);
    io.f64(req.hw.hbmBytesPerSec);
    io.u64(req.hw.nttUnits);
    io.u64(req.hw.mulUnits);
    io.u64(req.hw.addUnits);
    io.u64(req.hw.autoUnits);
    io.u8(req.hw.nttMacReuse);
    io.u64(req.hw.issueWindow);
    // Compiler preset, minus the hardware-derived fields Platform
    // overwrites (`sramBytes`, `issueWindow`); each policy is its enum
    // code, and any byte decodes (`validateRequest` rejects unknown
    // codes).
    io.str(req.copts.pipeline);
    io.u8(req.copts.streaming);
    io.u64(req.copts.fifoDepth);
    io.u8(req.copts.scheduler);
    io.u8(req.copts.regalloc);
    io.u64(req.verifyLevel);
}

template <class Io, class Msg>
WalkOf<Msg, ServiceResult>
walk(Io &io, Msg &res)
{
    io.u64(res.seq);
    io.u64(res.tag);
    io.str(res.name);
    io.status(res.status);
    io.str(res.error);
    io.f64(res.cycles);
    io.f64(res.timeMs);
    io.f64(res.dramBytes);
    io.f64(res.dramUtil);
    io.f64(res.nttUtil);
    io.f64(res.mulAddUtil);
    io.f64(res.autoUtil);
    io.u64(res.instructions);
    io.u64(res.machineFingerprint);
    io.f64(res.benchTimeMs);
    io.f64(res.amortizedUs);
    io.f64(res.dramGb);
    io.stats(res.stats);
    io.u64(res.queueDepth);
    io.f64(res.queueMs);
    io.f64(res.serviceMs);
}

/** The error payload: one string. */
template <class Io, class Msg>
WalkOf<Msg, std::string>
walk(Io &io, Msg &message)
{
    io.str(message);
}

template <class Msg>
std::vector<uint8_t>
encode(const Msg &msg)
{
    Writer w;
    walk(w, msg);
    return w.take();
}

/** Decodes all of `payload` as one `Msg`; `what` names it in `error`. */
template <class Msg>
bool
decode(const std::vector<uint8_t> &payload, const char *what, Msg *out,
       std::string *error)
{
    Reader r(payload.data(), payload.size());
    Msg msg{};
    walk(r, msg);
    if (!r.finish(what, error))
        return false;
    if (out != nullptr)
        *out = std::move(msg);
    return true;
}

uint64_t
fnv1a(uint64_t h, const uint8_t *data, size_t size)
{
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** The frame checksum: bytewise FNV-1a (wire format, so not the
 *  library's `WordHash`) over (version, type, payload), each in its
 *  wire byte order. Covering version and type means a flip between
 *  two *valid* values of either field still fails the checksum. */
uint64_t
frameChecksum(uint16_t version, uint16_t type, const uint8_t *payload,
              size_t size)
{
    const uint8_t head[4] = {uint8_t(version & 0xff), uint8_t(version >> 8),
                             uint8_t(type & 0xff), uint8_t(type >> 8)};
    return fnv1a(fnv1a(14695981039346656037ULL, head, sizeof(head)),
                 payload, size);
}

bool
validFrameType(uint16_t type)
{
    return type >= uint16_t(FrameType::Request) &&
           type <= uint16_t(FrameType::Shutdown);
}

} // namespace

const char *
frameDecodeStatusName(FrameDecodeStatus status)
{
    switch (status) {
    case FrameDecodeStatus::Ok: return "ok";
    case FrameDecodeStatus::Truncated: return "truncated";
    case FrameDecodeStatus::BadMagic: return "bad magic";
    case FrameDecodeStatus::BadVersion: return "bad version";
    case FrameDecodeStatus::BadType: return "bad frame type";
    case FrameDecodeStatus::Oversized: return "oversized payload";
    case FrameDecodeStatus::BadChecksum: return "bad checksum";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeFrame(FrameType type, const std::vector<uint8_t> &payload)
{
    FrameHeader header;
    header.type = uint16_t(type);
    header.length = uint32_t(payload.size());
    header.checksum = frameChecksum(header.version, header.type,
                                    payload.data(), payload.size());
    Writer w(kFrameHeaderBytes + payload.size());
    walk(w, header);
    std::vector<uint8_t> bytes = w.take();
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    return bytes;
}

FrameDecodeStatus
decodeFrame(const uint8_t *data, size_t size, Frame *out, size_t *consumed)
{
    if (size < kFrameHeaderBytes)
        return FrameDecodeStatus::Truncated;
    Reader r(data, kFrameHeaderBytes);
    FrameHeader header;
    walk(r, header);
    if (header.magic != kFrameMagic)
        return FrameDecodeStatus::BadMagic;
    if (header.version != kProtocolVersion)
        return FrameDecodeStatus::BadVersion;
    if (!validFrameType(header.type))
        return FrameDecodeStatus::BadType;
    if (header.length > kMaxFramePayload)
        return FrameDecodeStatus::Oversized;
    if (size - kFrameHeaderBytes < header.length)
        return FrameDecodeStatus::Truncated;
    const uint8_t *payload = data + kFrameHeaderBytes;
    if (header.checksum !=
        frameChecksum(header.version, header.type, payload, header.length))
        return FrameDecodeStatus::BadChecksum;
    if (out != nullptr) {
        out->version = header.version;
        out->type = FrameType(header.type);
        out->payload.assign(payload, payload + header.length);
    }
    if (consumed != nullptr)
        *consumed = kFrameHeaderBytes + header.length;
    return FrameDecodeStatus::Ok;
}

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
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error != nullptr)
                *error = std::string("read failed: ") + std::strerror(errno);
            return FrameDecodeStatus::Truncated;
        }
        if (n == 0) {
            *eof = true;
            return FrameDecodeStatus::Truncated;
        }
        buf.insert(buf.end(), chunk, chunk + n);
    }
}

const char *
serviceStatusName(ServiceStatus status)
{
    switch (status) {
    case ServiceStatus::Ok: return "ok";
    case ServiceStatus::RejectedQueueFull: return "rejected-queue-full";
    case ServiceStatus::BadRequest: return "bad-request";
    case ServiceStatus::InternalError: return "internal-error";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeRequest(const ServiceRequest &req)
{
    return encode(req);
}

bool
decodeRequest(const std::vector<uint8_t> &payload, ServiceRequest *out,
              std::string *error)
{
    return decode(payload, "request", out, error);
}

std::vector<uint8_t>
encodeResult(const ServiceResult &res)
{
    return encode(res);
}

bool
decodeResult(const std::vector<uint8_t> &payload, ServiceResult *out,
             std::string *error)
{
    return decode(payload, "result", out, error);
}

std::vector<uint8_t>
encodeErrorPayload(const std::string &message)
{
    return encode(message);
}

bool
decodeErrorPayload(const std::vector<uint8_t> &payload, std::string *message)
{
    return decode(payload, "error", message, nullptr);
}

ServiceResult
canonicalResult(const ServiceResult &res)
{
    ServiceResult canon = res;
    canon.queueDepth = 0;
    canon.queueMs = 0;
    canon.serviceMs = 0;
    StatSet filtered;
    for (const auto &[key, value] : res.stats.all()) {
        const bool wall_clock =
            key.size() >= 3 && key.compare(key.size() - 3, 3, ".ms") == 0;
        const bool cache_key = key.find("cache.") != std::string::npos;
        const bool service_key = key.rfind("service.", 0) == 0;
        if (!wall_clock && !cache_key && !service_key)
            filtered.set(key, value);
    }
    canon.stats = std::move(filtered);
    return canon;
}

std::vector<uint8_t>
canonicalResultBytes(const ServiceResult &res)
{
    return encodeResult(canonicalResult(res));
}

std::string
canonicalResultLine(const ServiceResult &res)
{
    const ServiceResult canon = canonicalResult(res);
    WordHash stats_hash;
    for (const auto &[key, value] : canon.stats.all()) {
        stats_hash.mixString(key);
        stats_hash.mix(bitsOf(value));
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "seq=%" PRIu64 " tag=%" PRIu64 " name=%s status=%s "
                  "cycles=%.17g timeMs=%.17g instr=%" PRIu64
                  " fp=%016" PRIx64 " bench=%.17g amortized=%.17g "
                  "dramGb=%.17g stats=%016" PRIx64 "%s%s",
                  canon.seq, canon.tag, canon.name.c_str(),
                  serviceStatusName(canon.status), canon.cycles,
                  canon.timeMs, canon.instructions,
                  canon.machineFingerprint, canon.benchTimeMs,
                  canon.amortizedUs, canon.dramGb, stats_hash.finish(),
                  canon.error.empty() ? "" : " error=",
                  canon.error.c_str());
    return std::string(buf);
}

} // namespace effact
