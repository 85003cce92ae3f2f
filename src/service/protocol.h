/**
 * @file
 * Wire format of the compile-and-simulate service: a length-prefixed,
 * versioned, checksummed binary framing plus the request/result
 * message payloads. The format is deliberately dumb — little-endian
 * fixed-width fields, length-prefixed strings, doubles as IEEE-754 bit
 * patterns — so that encoded bytes are a *canonical* function of the
 * message content. That is what makes the replay-determinism contract
 * checkable at the byte level: two service sessions (or a session and
 * the uncached serial oracle) agree iff their encoded result streams
 * are identical.
 *
 * Framing. Every message on the wire (and in a recorded request log)
 * is one frame:
 *
 *     u32 magic     'EFCT' (little-endian)
 *     u16 version   kProtocolVersion
 *     u16 type      FrameType
 *     u32 length    payload bytes that follow (<= kMaxFramePayload)
 *     u64 checksum  FNV-1a over (version, type, payload)
 *     u8  payload[length]
 *
 * The checksum covers the type and version fields, so *any* single-byte
 * corruption of a frame — header or payload — is detected: magic and
 * version bytes fail their direct checks, and everything else (type
 * flips between valid values, length edits, payload edits) lands on a
 * checksum mismatch. `decodeFrame` never reads past the supplied
 * buffer and reports structured `FrameDecodeStatus` errors instead of
 * crashing; malformed input from an untrusted client costs one error
 * frame, not the daemon.
 *
 * Each layout is written once. In protocol.cc one field walk per
 * message (frame header, request, result, error payload) lists its
 * fields in wire order; a `Writer` runs it to encode and a
 * bounds-checked `Reader` runs the same walk to decode, so no field is
 * named twice and the two directions cannot disagree. Frames come off
 * a socket or a recorded log through one reader, `readFrameFrom`.
 */
#ifndef EFFACT_SERVICE_PROTOCOL_H
#define EFFACT_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "compiler/pass.h"
#include "ir/kernels.h"
#include "sim/config.h"

namespace effact {

// --- Framing ---------------------------------------------------------------

/** 'E','F','C','T' read as a little-endian u32. */
constexpr uint32_t kFrameMagic = 0x54434645u;
/** v5: request payloads drop v4's `fhe.lanes` and `hw.name`, which
 *  changed no answer. As in v4, they select passes by the pipeline spec
 *  alone and carry each back-end policy (`CompilerOptions::scheduler` /
 *  `::regalloc`) as a one-byte enum code after `fifoDepth`. */
constexpr uint16_t kProtocolVersion = 5;
/** Hard payload bound: a request or result is a few KB; anything
 *  megabytes-large is garbage and refused before allocation. */
constexpr uint32_t kMaxFramePayload = 1u << 20;
/** Bytes before the payload: magic + version + type + length + checksum */
constexpr size_t kFrameHeaderBytes = 4 + 2 + 2 + 4 + 8;

enum class FrameType : uint16_t
{
    Request = 1,  ///< client -> server: one ServiceRequest
    Result = 2,   ///< server -> client: one ServiceResult
    Error = 3,    ///< server -> client: protocol-level error string
    Flush = 4,    ///< client -> server: run pending, return all results
    Shutdown = 5, ///< client -> server: final flush, then stop serving
};

/** One decoded frame. */
struct Frame
{
    uint16_t version = kProtocolVersion;
    FrameType type = FrameType::Error;
    std::vector<uint8_t> payload;
};

enum class FrameDecodeStatus
{
    Ok,
    Truncated,   ///< buffer shorter than header + declared payload
    BadMagic,
    BadVersion,
    BadType,
    Oversized,   ///< declared payload length exceeds kMaxFramePayload
    BadChecksum,
};

const char *frameDecodeStatusName(FrameDecodeStatus status);

/** Encodes `payload` as one frame of `type`. */
std::vector<uint8_t> encodeFrame(FrameType type,
                                 const std::vector<uint8_t> &payload);

/**
 * Decodes the frame at the front of `data`. On `Ok`, fills `out` and
 * sets `consumed` to the frame's total size (header + payload). Never
 * reads past `size`; never crashes on malformed input.
 */
FrameDecodeStatus decodeFrame(const uint8_t *data, size_t size, Frame *out,
                              size_t *consumed);

/**
 * The one frame reader, for the server, the client and
 * `loadRequestLog`: reads the next complete frame from `fd` (a socket
 * or a file) into `out`, keeping bytes read past it in `buf` for the
 * next call. Returns `Ok`; `Truncated` with `eof` set when the stream
 * ended (a clean end when `buf` is then empty), or with `error` set
 * when `read` failed; or the decode failure of a malformed stream.
 */
FrameDecodeStatus readFrameFrom(int fd, std::vector<uint8_t> &buf,
                                Frame *out, bool *eof, std::string *error);

// --- Messages --------------------------------------------------------------

/**
 * One compile-and-simulate request: which workload to build (by kind
 * name + scheme parameters), the hardware design point, and the
 * compiler options. `hw.sramBytes` / `hw.issueWindow` are authoritative
 * — `Platform` overwrites the corresponding `CompilerOptions` fields,
 * exactly as in batch mode. `hw.name` is a display label and is not on
 * the wire.
 */
struct ServiceRequest
{
    uint64_t tag = 0;      ///< client-chosen id, echoed in the result
    std::string name;      ///< display name, echoed in the result
    std::string workload;  ///< a `workloadKinds()` name (ir/workloads.h)
    FheParams fhe;         ///< scheme parameters for the builder
    uint64_t param = 0;    ///< kind-specific knob, at most the kind's
                           ///< `maxParam` (dblookup: records, 0 = 256)
    HardwareConfig hw;
    CompilerOptions copts;
    /** Wire verify level: -1 = resolve `defaultVerifyLevel()` (the
     *  `EFFACT_VERIFY` env) on the *server* at execution time; >= 0 =
     *  explicit. Carried separately from `copts.verifyLevel` so a
     *  recorded log replays identically under a different client env. */
    int64_t verifyLevel = -1;
};

/** Request outcome, the admission-control contract of the daemon. */
enum class ServiceStatus : uint32_t
{
    Ok = 0,
    /** Refused by backpressure: the pending queue already held
     *  `queueCapacity` accepted requests. The documented reject-when-
     *  full error code. */
    RejectedQueueFull = 1,
    BadRequest = 2,    ///< failed validation; `error` says why
    InternalError = 3, ///< server-side failure unrelated to the request
};

const char *serviceStatusName(ServiceStatus status);

/**
 * One request's outcome. For `Ok`, the deterministic result fields
 * (cycles, fingerprint, instructions, bench metrics, stats) are
 * byte-identical to a batch-mode `runSweep` of the same job —
 * modulo wall-clock (`*.ms`) and queue-observability fields, which
 * `canonicalResult` strips for comparisons.
 */
struct ServiceResult
{
    uint64_t seq = 0; ///< server-assigned submission order
    uint64_t tag = 0;
    std::string name;
    ServiceStatus status = ServiceStatus::Ok;
    std::string error;

    // Deterministic payload (valid when status == Ok).
    double cycles = 0;
    double timeMs = 0;
    double dramBytes = 0;
    double dramUtil = 0;
    double nttUtil = 0;
    double mulAddUtil = 0;
    double autoUtil = 0;
    uint64_t instructions = 0;
    uint64_t machineFingerprint = 0;
    double benchTimeMs = 0;
    double amortizedUs = 0;
    double dramGb = 0;
    /** Merged per-job stats: compiler stats under `compile.`, simulator
     *  stats under `sim.`, per-stage wall-clock under `job.`. */
    StatSet stats;

    // Queue observability (never part of the determinism contract).
    uint64_t queueDepth = 0; ///< pending entries at admission time
    double queueMs = 0;      ///< submit -> batch start
    double serviceMs = 0;    ///< submit -> result ready
};

std::vector<uint8_t> encodeRequest(const ServiceRequest &req);
bool decodeRequest(const std::vector<uint8_t> &payload, ServiceRequest *out,
                   std::string *error);

std::vector<uint8_t> encodeResult(const ServiceResult &res);
bool decodeResult(const std::vector<uint8_t> &payload, ServiceResult *out,
                  std::string *error);

/** Error-frame payload: just a length-prefixed string. */
std::vector<uint8_t> encodeErrorPayload(const std::string &message);
bool decodeErrorPayload(const std::vector<uint8_t> &payload,
                        std::string *message);

// --- Canonicalization ------------------------------------------------------

/**
 * The comparison form of a result: queue-observability fields zeroed
 * and nondeterministic stat keys dropped (any `*.ms` wall-clock key,
 * any `cache.*` hit/miss accounting, any `service.*` key). What
 * remains — status, cycles, fingerprints, instruction counts, bench
 * metrics, deterministic stats — must be byte-identical across thread
 * counts, cache configurations and record/replay runs.
 */
ServiceResult canonicalResult(const ServiceResult &res);

/** `encodeResult(canonicalResult(res))`: the bytes the determinism
 *  tests concatenate and pin. */
std::vector<uint8_t> canonicalResultBytes(const ServiceResult &res);

/**
 * One-line text form of a canonical result (exact: doubles printed
 * with %.17g round-trip precision, stats folded into a `WordHash`),
 * for CLI diffing between a live session, an offline replay and the
 * batch oracle.
 */
std::string canonicalResultLine(const ServiceResult &res);

} // namespace effact

#endif // EFFACT_SERVICE_PROTOCOL_H
