#include "service/protocol.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace effact {

namespace {

// --- Little-endian wire primitives -----------------------------------------

void
putU8(std::vector<uint8_t> &buf, uint8_t v)
{
    buf.push_back(v);
}

void
putU16(std::vector<uint8_t> &buf, uint16_t v)
{
    buf.push_back(uint8_t(v & 0xff));
    buf.push_back(uint8_t(v >> 8));
}

void
putU32(std::vector<uint8_t> &buf, uint32_t v)
{
    for (int byte = 0; byte < 4; ++byte)
        buf.push_back(uint8_t((v >> (byte * 8)) & 0xff));
}

void
putU64(std::vector<uint8_t> &buf, uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte)
        buf.push_back(uint8_t((v >> (byte * 8)) & 0xff));
}

/** Doubles travel as IEEE-754 bit patterns: encode/decode is exact, so
 *  byte comparison of encoded results is value comparison. */
void
putF64(std::vector<uint8_t> &buf, double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(buf, bits);
}

void
putString(std::vector<uint8_t> &buf, const std::string &s)
{
    putU32(buf, uint32_t(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
}

/** Bounds-checked sequential reader: any out-of-range read latches the
 *  fail flag and returns zeros, so decoders are crash-free on any
 *  input and check `ok()` once at the end. */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    bool ok() const { return ok_; }
    bool atEnd() const { return pos_ == size_; }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    uint16_t
    u16()
    {
        if (!need(2))
            return 0;
        uint16_t v = uint16_t(data_[pos_]) | uint16_t(data_[pos_ + 1]) << 8;
        pos_ += 2;
        return v;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int byte = 0; byte < 4; ++byte)
            v |= uint32_t(data_[pos_ + byte]) << (byte * 8);
        pos_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int byte = 0; byte < 8; ++byte)
            v |= uint64_t(data_[pos_ + byte]) << (byte * 8);
        pos_ += 8;
        return v;
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const uint32_t len = u32();
        // A string longer than the payload bound is structurally
        // impossible; refuse before allocating.
        if (len > kMaxFramePayload || !need(len)) {
            ok_ = false;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
        return s;
    }

  private:
    bool
    need(size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

uint64_t
fnv1a(uint64_t h, const uint8_t *data, size_t size)
{
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

/** The frame checksum: FNV-1a over (version, type, payload), each in
 *  its wire byte order. Covering version and type means a flip between
 *  two *valid* values of either field still fails the checksum. */
uint64_t
frameChecksum(uint16_t version, uint16_t type, const uint8_t *payload,
              size_t size)
{
    const uint8_t head[4] = {uint8_t(version & 0xff), uint8_t(version >> 8),
                             uint8_t(type & 0xff), uint8_t(type >> 8)};
    return fnv1a(fnv1a(kFnvOffset, head, sizeof(head)), payload, size);
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
    std::vector<uint8_t> buf;
    buf.reserve(kFrameHeaderBytes + payload.size());
    putU32(buf, kFrameMagic);
    putU16(buf, kProtocolVersion);
    putU16(buf, uint16_t(type));
    putU32(buf, uint32_t(payload.size()));
    putU64(buf, frameChecksum(kProtocolVersion, uint16_t(type),
                              payload.data(), payload.size()));
    buf.insert(buf.end(), payload.begin(), payload.end());
    return buf;
}

FrameDecodeStatus
decodeFrame(const uint8_t *data, size_t size, Frame *out, size_t *consumed)
{
    if (size < kFrameHeaderBytes)
        return FrameDecodeStatus::Truncated;
    Reader r(data, size);
    const uint32_t magic = r.u32();
    if (magic != kFrameMagic)
        return FrameDecodeStatus::BadMagic;
    const uint16_t version = r.u16();
    if (version != kProtocolVersion)
        return FrameDecodeStatus::BadVersion;
    const uint16_t type = r.u16();
    if (!validFrameType(type))
        return FrameDecodeStatus::BadType;
    const uint32_t length = r.u32();
    if (length > kMaxFramePayload)
        return FrameDecodeStatus::Oversized;
    if (size - kFrameHeaderBytes < length)
        return FrameDecodeStatus::Truncated;
    const uint64_t checksum = r.u64();
    const uint8_t *payload = data + kFrameHeaderBytes;
    if (checksum != frameChecksum(version, type, payload, length))
        return FrameDecodeStatus::BadChecksum;
    if (out != nullptr) {
        out->version = version;
        out->type = FrameType(type);
        out->payload.assign(payload, payload + length);
    }
    if (consumed != nullptr)
        *consumed = kFrameHeaderBytes + length;
    return FrameDecodeStatus::Ok;
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
    std::vector<uint8_t> buf;
    putU64(buf, req.tag);
    putString(buf, req.name);
    putString(buf, req.workload);
    putU64(buf, req.fhe.logN);
    putU64(buf, req.fhe.levels);
    putU64(buf, req.fhe.dnum);
    putU64(buf, req.fhe.lanes);
    putU64(buf, req.param);
    // Hardware design point, every field.
    putString(buf, req.hw.name);
    putU64(buf, req.hw.lanes);
    putF64(buf, req.hw.freqGhz);
    putU64(buf, req.hw.sramBytes);
    putF64(buf, req.hw.hbmBytesPerSec);
    putU64(buf, req.hw.nttUnits);
    putU64(buf, req.hw.mulUnits);
    putU64(buf, req.hw.addUnits);
    putU64(buf, req.hw.autoUnits);
    putU8(buf, req.hw.nttMacReuse ? 1 : 0);
    putU64(buf, req.hw.issueWindow);
    // Compiler preset, minus the hardware-derived fields Platform
    // overwrites (`sramBytes`, `issueWindow`); each policy is its enum
    // code.
    putString(buf, req.copts.pipeline);
    putU64(buf, req.copts.pipelineMaxIterations);
    putU8(buf, req.copts.streaming ? 1 : 0);
    putU64(buf, req.copts.fifoDepth);
    putU8(buf, uint8_t(req.copts.scheduler));
    putU8(buf, uint8_t(req.copts.regalloc));
    putU64(buf, uint64_t(req.verifyLevel));
    return buf;
}

bool
decodeRequest(const std::vector<uint8_t> &payload, ServiceRequest *out,
              std::string *error)
{
    Reader r(payload.data(), payload.size());
    ServiceRequest req;
    req.tag = r.u64();
    req.name = r.str();
    req.workload = r.str();
    req.fhe.logN = size_t(r.u64());
    req.fhe.levels = size_t(r.u64());
    req.fhe.dnum = size_t(r.u64());
    req.fhe.lanes = size_t(r.u64());
    req.param = r.u64();
    req.hw.name = r.str();
    req.hw.lanes = size_t(r.u64());
    req.hw.freqGhz = r.f64();
    req.hw.sramBytes = size_t(r.u64());
    req.hw.hbmBytesPerSec = r.f64();
    req.hw.nttUnits = size_t(r.u64());
    req.hw.mulUnits = size_t(r.u64());
    req.hw.addUnits = size_t(r.u64());
    req.hw.autoUnits = size_t(r.u64());
    req.hw.nttMacReuse = r.u8() != 0;
    req.hw.issueWindow = size_t(r.u64());
    req.copts.pipeline = r.str();
    req.copts.pipelineMaxIterations = size_t(r.u64());
    req.copts.streaming = r.u8() != 0;
    req.copts.fifoDepth = size_t(r.u64());
    // Any byte decodes; `validateRequest` rejects unknown codes.
    req.copts.scheduler = Scheduler(r.u8());
    req.copts.regalloc = RegAllocPolicy(r.u8());
    req.verifyLevel = int64_t(r.u64());
    if (!r.ok() || !r.atEnd()) {
        if (error != nullptr)
            *error = r.ok() ? "trailing bytes in request payload"
                            : "short request payload";
        return false;
    }
    *out = std::move(req);
    return true;
}

std::vector<uint8_t>
encodeResult(const ServiceResult &res)
{
    std::vector<uint8_t> buf;
    putU64(buf, res.seq);
    putU64(buf, res.tag);
    putString(buf, res.name);
    putU32(buf, uint32_t(res.status));
    putString(buf, res.error);
    putF64(buf, res.cycles);
    putF64(buf, res.timeMs);
    putF64(buf, res.dramBytes);
    putF64(buf, res.dramUtil);
    putF64(buf, res.nttUtil);
    putF64(buf, res.mulAddUtil);
    putF64(buf, res.autoUtil);
    putU64(buf, res.instructions);
    putU64(buf, res.machineFingerprint);
    putF64(buf, res.benchTimeMs);
    putF64(buf, res.amortizedUs);
    putF64(buf, res.dramGb);
    // Stats travel sorted by key (StatSet is an ordered map), so the
    // encoding is canonical.
    putU32(buf, uint32_t(res.stats.all().size()));
    for (const auto &[key, value] : res.stats.all()) {
        putString(buf, key);
        putF64(buf, value);
    }
    putU64(buf, res.queueDepth);
    putF64(buf, res.queueMs);
    putF64(buf, res.serviceMs);
    return buf;
}

bool
decodeResult(const std::vector<uint8_t> &payload, ServiceResult *out,
             std::string *error)
{
    Reader r(payload.data(), payload.size());
    ServiceResult res;
    res.seq = r.u64();
    res.tag = r.u64();
    res.name = r.str();
    const uint32_t status = r.u32();
    if (status > uint32_t(ServiceStatus::InternalError)) {
        if (error != nullptr)
            *error = "unknown status code in result payload";
        return false;
    }
    res.status = ServiceStatus(status);
    res.error = r.str();
    res.cycles = r.f64();
    res.timeMs = r.f64();
    res.dramBytes = r.f64();
    res.dramUtil = r.f64();
    res.nttUtil = r.f64();
    res.mulAddUtil = r.f64();
    res.autoUtil = r.f64();
    res.instructions = r.u64();
    res.machineFingerprint = r.u64();
    res.benchTimeMs = r.f64();
    res.amortizedUs = r.f64();
    res.dramGb = r.f64();
    const uint32_t n_stats = r.u32();
    // Each entry is at least 12 bytes; an impossible count is refused
    // up front instead of looping on a poisoned reader.
    if (n_stats > kMaxFramePayload / 12) {
        if (error != nullptr)
            *error = "implausible stat count in result payload";
        return false;
    }
    for (uint32_t i = 0; i < n_stats && r.ok(); ++i) {
        const std::string key = r.str();
        const double value = r.f64();
        if (r.ok())
            res.stats.set(key, value);
    }
    res.queueDepth = r.u64();
    res.queueMs = r.f64();
    res.serviceMs = r.f64();
    if (!r.ok() || !r.atEnd()) {
        if (error != nullptr)
            *error = r.ok() ? "trailing bytes in result payload"
                            : "short result payload";
        return false;
    }
    *out = std::move(res);
    return true;
}

std::vector<uint8_t>
encodeErrorPayload(const std::string &message)
{
    std::vector<uint8_t> buf;
    putString(buf, message);
    return buf;
}

bool
decodeErrorPayload(const std::vector<uint8_t> &payload, std::string *message)
{
    Reader r(payload.data(), payload.size());
    std::string s = r.str();
    if (!r.ok() || !r.atEnd())
        return false;
    if (message != nullptr)
        *message = std::move(s);
    return true;
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
    uint64_t stats_hash = kFnvOffset;
    for (const auto &[key, value] : canon.stats.all()) {
        stats_hash = fnv1a(stats_hash,
                           reinterpret_cast<const uint8_t *>(key.data()),
                           key.size());
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        uint8_t raw[8];
        for (int byte = 0; byte < 8; ++byte)
            raw[byte] = uint8_t((bits >> (byte * 8)) & 0xff);
        stats_hash = fnv1a(stats_hash, raw, sizeof(raw));
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
                  canon.amortizedUs, canon.dramGb, stats_hash,
                  canon.error.empty() ? "" : " error=",
                  canon.error.c_str());
    return std::string(buf);
}

} // namespace effact
