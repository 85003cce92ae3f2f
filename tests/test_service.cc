/**
 * @file
 * Suite for the compile-and-simulate service: wire-protocol round-trips
 * and malformed-frame rejection (including a seeded single-byte
 * corruption fuzz loop with a 100% detection requirement), service-core
 * validation / admission / batching semantics, the replay-determinism
 * contract — a recorded 50-request session with forced evictions and
 * rejections pins byte-identical against the uncached serial oracle —
 * and the AF_UNIX transport end to end, recording included.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "platform/platform.h"
#include "runtime/sweep.h"
#include "service/service.h"

namespace effact {
namespace {

/** A small, valid db-lookup request (fast enough to appear 50x in the
 *  replay session). */
ServiceRequest
smallRequest(const std::string &name, uint64_t records,
             const CompilerOptions &copts)
{
    ServiceRequest req;
    req.tag = 1000 + records;
    req.name = name;
    req.workload = "dblookup";
    req.fhe.logN = 12;
    req.fhe.levels = 6;
    req.fhe.dnum = 2;
    req.param = records;
    req.hw = HardwareConfig::asicEffact27();
    req.copts = copts;
    return req;
}

ServiceRequest
smallRequest(const std::string &name, uint64_t records)
{
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    return smallRequest(name, records, Platform::fullOptions(hw.sramBytes));
}

std::vector<uint8_t>
concatCanonical(const std::vector<ServiceResult> &results)
{
    std::vector<uint8_t> bytes;
    for (const ServiceResult &res : results) {
        const std::vector<uint8_t> one = canonicalResultBytes(res);
        bytes.insert(bytes.end(), one.begin(), one.end());
    }
    return bytes;
}

// --- Protocol: message round-trips ----------------------------------------

TEST(Protocol, RequestRoundTripPreservesEveryField)
{
    ServiceRequest req;
    req.tag = 0xdeadbeefcafe1234ULL;
    req.name = "round-trip";
    req.workload = "bootstrap";
    req.fhe.logN = 15;
    req.fhe.levels = 23;
    req.fhe.dnum = 3;
    req.fhe.lanes = 512;
    req.param = 77;
    req.hw = HardwareConfig::fpgaEffact();
    req.hw.lanes = 2048;
    req.hw.freqGhz = 1.75;
    req.hw.sramBytes = size_t(54) << 20;
    req.hw.hbmBytesPerSec = 9.8e11;
    req.hw.nttUnits = 3;
    req.hw.mulUnits = 5;
    req.hw.addUnits = 7;
    req.hw.autoUnits = 2;
    req.hw.nttMacReuse = !req.hw.nttMacReuse;
    req.hw.issueWindow = 192;
    req.copts.pipeline = "copyprop,constprop";
    req.copts.pipelineMaxIterations = 17;
    req.copts.scheduler = Scheduler::Latency;
    req.copts.streaming = false;
    req.copts.regalloc = RegAllocPolicy::Priority;
    req.copts.sramBytes = size_t(13) << 20;
    req.copts.fifoDepth = 33;
    req.copts.issueWindow = 128;
    req.verifyLevel = 2;

    ServiceRequest out;
    std::string error;
    ASSERT_TRUE(decodeRequest(encodeRequest(req), &out, &error)) << error;
    EXPECT_EQ(out.tag, req.tag);
    EXPECT_EQ(out.name, req.name);
    EXPECT_EQ(out.workload, req.workload);
    EXPECT_EQ(out.fhe.logN, req.fhe.logN);
    EXPECT_EQ(out.fhe.levels, req.fhe.levels);
    EXPECT_EQ(out.fhe.dnum, req.fhe.dnum);
    EXPECT_EQ(out.fhe.lanes, req.fhe.lanes);
    EXPECT_EQ(out.param, req.param);
    EXPECT_EQ(out.hw.name, req.hw.name);
    EXPECT_EQ(out.hw.lanes, req.hw.lanes);
    EXPECT_EQ(out.hw.freqGhz, req.hw.freqGhz);
    EXPECT_EQ(out.hw.sramBytes, req.hw.sramBytes);
    EXPECT_EQ(out.hw.hbmBytesPerSec, req.hw.hbmBytesPerSec);
    EXPECT_EQ(out.hw.nttUnits, req.hw.nttUnits);
    EXPECT_EQ(out.hw.mulUnits, req.hw.mulUnits);
    EXPECT_EQ(out.hw.addUnits, req.hw.addUnits);
    EXPECT_EQ(out.hw.autoUnits, req.hw.autoUnits);
    EXPECT_EQ(out.hw.nttMacReuse, req.hw.nttMacReuse);
    EXPECT_EQ(out.hw.issueWindow, req.hw.issueWindow);
    EXPECT_EQ(out.copts.pipeline, req.copts.pipeline);
    EXPECT_EQ(out.copts.pipelineMaxIterations,
              req.copts.pipelineMaxIterations);
    EXPECT_EQ(out.copts.scheduler, req.copts.scheduler);
    EXPECT_EQ(out.copts.streaming, req.copts.streaming);
    EXPECT_EQ(out.copts.fifoDepth, req.copts.fifoDepth);
    EXPECT_EQ(out.copts.regalloc, req.copts.regalloc);
    // The two hardware-derived knobs are deliberately NOT on the wire:
    // `hw.sramBytes` / `hw.issueWindow` are authoritative (`Platform`
    // overwrites them), so a request can't smuggle in a mismatch.
    EXPECT_EQ(out.copts.sramBytes, CompilerOptions{}.sramBytes);
    EXPECT_EQ(out.copts.issueWindow, CompilerOptions{}.issueWindow);
    EXPECT_EQ(out.verifyLevel, req.verifyLevel);
    // The byte encoding is canonical: re-encoding the decoded message
    // reproduces the exact input bytes.
    EXPECT_EQ(encodeRequest(out), encodeRequest(req));
}

TEST(Protocol, ResultRoundTripPreservesEveryField)
{
    ServiceResult res;
    res.seq = 41;
    res.tag = 0x123456789abcdef0ULL;
    res.name = "res-round-trip";
    res.status = ServiceStatus::RejectedQueueFull;
    res.error = "pending queue full (capacity 8)";
    res.cycles = 12345.6789;
    res.timeMs = 0.0123456789012345678;
    res.dramBytes = 9.87e9;
    res.dramUtil = 0.625;
    res.nttUtil = 0.1;
    res.mulAddUtil = 0.2;
    res.autoUtil = 0.3;
    res.instructions = 4242;
    res.machineFingerprint = 0xfeedfacefeedfaceULL;
    res.benchTimeMs = 3.25;
    res.amortizedUs = 0.5;
    res.dramGb = 1.5;
    res.stats.set("compile.insts", 4242);
    res.stats.set("sim.cycles", 12345.6789);
    res.queueDepth = 7;
    res.queueMs = 1.25;
    res.serviceMs = 2.5;

    ServiceResult out;
    std::string error;
    ASSERT_TRUE(decodeResult(encodeResult(res), &out, &error)) << error;
    EXPECT_EQ(out.seq, res.seq);
    EXPECT_EQ(out.tag, res.tag);
    EXPECT_EQ(out.name, res.name);
    EXPECT_EQ(out.status, res.status);
    EXPECT_EQ(out.error, res.error);
    EXPECT_EQ(out.cycles, res.cycles);
    EXPECT_EQ(out.timeMs, res.timeMs);
    EXPECT_EQ(out.dramBytes, res.dramBytes);
    EXPECT_EQ(out.dramUtil, res.dramUtil);
    EXPECT_EQ(out.nttUtil, res.nttUtil);
    EXPECT_EQ(out.mulAddUtil, res.mulAddUtil);
    EXPECT_EQ(out.autoUtil, res.autoUtil);
    EXPECT_EQ(out.instructions, res.instructions);
    EXPECT_EQ(out.machineFingerprint, res.machineFingerprint);
    EXPECT_EQ(out.benchTimeMs, res.benchTimeMs);
    EXPECT_EQ(out.amortizedUs, res.amortizedUs);
    EXPECT_EQ(out.dramGb, res.dramGb);
    EXPECT_EQ(out.stats.all(), res.stats.all());
    EXPECT_EQ(out.queueDepth, res.queueDepth);
    EXPECT_EQ(out.queueMs, res.queueMs);
    EXPECT_EQ(out.serviceMs, res.serviceMs);
    EXPECT_EQ(encodeResult(out), encodeResult(res));
}

TEST(Protocol, ErrorPayloadRoundTrip)
{
    const std::string message = "bad request: unknown workload 'x'";
    std::string out;
    ASSERT_TRUE(decodeErrorPayload(encodeErrorPayload(message), &out));
    EXPECT_EQ(out, message);
}

TEST(Protocol, TruncatedOrGarbageMessagePayloadsAreRejected)
{
    const std::vector<uint8_t> full = encodeRequest(smallRequest("t", 32));
    ServiceRequest req;
    std::string error;
    // Every proper prefix must be rejected (no partial decodes), and so
    // must trailing garbage (strict atEnd check).
    for (size_t len = 0; len < full.size(); ++len) {
        const std::vector<uint8_t> prefix(full.begin(), full.begin() + len);
        EXPECT_FALSE(decodeRequest(prefix, &req, &error)) << len;
    }
    std::vector<uint8_t> padded = full;
    padded.push_back(0);
    EXPECT_FALSE(decodeRequest(padded, &req, &error));

    ServiceResult res;
    const std::vector<uint8_t> rfull = encodeResult(ServiceResult{});
    for (size_t len = 0; len < rfull.size(); ++len) {
        const std::vector<uint8_t> prefix(rfull.begin(),
                                          rfull.begin() + len);
        EXPECT_FALSE(decodeResult(prefix, &res, &error)) << len;
    }
}

// --- Protocol: framing -----------------------------------------------------

TEST(Protocol, FrameRoundTripAndStreamDecode)
{
    const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    std::vector<uint8_t> bytes = encodeFrame(FrameType::Request, payload);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

    Frame frame;
    size_t consumed = 0;
    ASSERT_EQ(decodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
              FrameDecodeStatus::Ok);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(frame.version, kProtocolVersion);
    EXPECT_EQ(frame.type, FrameType::Request);
    EXPECT_EQ(frame.payload, payload);

    // Concatenated frames decode one at a time (streaming transport).
    const std::vector<uint8_t> second = encodeFrame(FrameType::Flush, {});
    bytes.insert(bytes.end(), second.begin(), second.end());
    ASSERT_EQ(decodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
              FrameDecodeStatus::Ok);
    EXPECT_EQ(frame.type, FrameType::Request);
    ASSERT_EQ(decodeFrame(bytes.data() + consumed, bytes.size() - consumed,
                          &frame, &consumed),
              FrameDecodeStatus::Ok);
    EXPECT_EQ(frame.type, FrameType::Flush);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Protocol, TruncatedFramesAreRejectedAtEveryPrefix)
{
    const std::vector<uint8_t> bytes =
        encodeFrame(FrameType::Request, {9, 8, 7});
    Frame frame;
    size_t consumed = 0;
    for (size_t len = 0; len < bytes.size(); ++len)
        EXPECT_EQ(decodeFrame(bytes.data(), len, &frame, &consumed),
                  FrameDecodeStatus::Truncated)
            << "prefix length " << len;
}

TEST(Protocol, StructuredRejectionPerHeaderField)
{
    const std::vector<uint8_t> good = encodeFrame(FrameType::Flush, {1, 2});
    Frame frame;
    size_t consumed = 0;

    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xff; // magic
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              FrameDecodeStatus::BadMagic);

    bad = good;
    bad[4] = 99; // version
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              FrameDecodeStatus::BadVersion);

    bad = good;
    bad[6] = 0; // type 0: outside the enum
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              FrameDecodeStatus::BadType);
    bad[6] = 200;
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              FrameDecodeStatus::BadType);

    bad = good;
    // Declared length just over the hard bound -> refused before any
    // allocation or checksum work.
    const uint32_t oversized = kMaxFramePayload + 1;
    std::memcpy(&bad[8], &oversized, sizeof(oversized));
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              FrameDecodeStatus::Oversized);

    bad = good;
    bad.back() ^= 0x01; // payload bit
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &frame, &consumed),
              FrameDecodeStatus::BadChecksum);
}

TEST(Protocol, SeededSingleByteCorruptionIsAlwaysDetected)
{
    // The checksum covers (version, type, payload) and magic/version
    // have direct checks, so *every* single-byte corruption of a frame
    // must be detected — the fuzz loop requires 100%, not "usually".
    const std::vector<uint8_t> frame_bytes =
        encodeFrame(FrameType::Request, encodeRequest(smallRequest("f", 48)));
    uint64_t rng = 0x5eed0001;
    auto next = [&rng] {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return rng >> 33;
    };
    Frame frame;
    size_t consumed = 0;
    int detected = 0;
    constexpr int kIterations = 600;
    for (int iter = 0; iter < kIterations; ++iter) {
        std::vector<uint8_t> bad = frame_bytes;
        const size_t pos = next() % bad.size();
        const uint8_t delta = uint8_t(1 + next() % 255);
        bad[pos] = uint8_t(bad[pos] ^ delta);
        const FrameDecodeStatus status =
            decodeFrame(bad.data(), bad.size(), &frame, &consumed);
        if (status != FrameDecodeStatus::Ok)
            ++detected;
        else
            ADD_FAILURE() << "corruption at byte " << pos << " (xor 0x"
                          << std::hex << int(delta)
                          << ") decoded as a valid frame";
    }
    EXPECT_EQ(detected, kIterations);
    // And the pristine bytes still decode: the detector is not just
    // rejecting everything.
    ASSERT_EQ(decodeFrame(frame_bytes.data(), frame_bytes.size(), &frame,
                          &consumed),
              FrameDecodeStatus::Ok);
}

TEST(Protocol, CanonicalResultStripsNondeterminism)
{
    ServiceResult a;
    a.seq = 3;
    a.tag = 9;
    a.name = "canon";
    a.cycles = 100.5;
    a.machineFingerprint = 0xabcdef;
    a.stats.set("compile.insts", 42);
    a.stats.set("compile.time.ms", 1.23);
    a.stats.set("compile.cache.hit", 1.0);
    a.stats.set("service.accepted", 10);
    a.queueDepth = 5;
    a.queueMs = 0.5;
    a.serviceMs = 1.5;

    // Same deterministic content, different timing/cache observations.
    ServiceResult b = a;
    b.stats.set("compile.time.ms", 99.0);
    b.stats.set("compile.cache.hit", 0.0);
    b.queueDepth = 0;
    b.queueMs = 0.0;
    b.serviceMs = 123.0;

    const ServiceResult canon = canonicalResult(a);
    EXPECT_EQ(canon.queueDepth, 0u);
    EXPECT_EQ(canon.queueMs, 0.0);
    EXPECT_EQ(canon.serviceMs, 0.0);
    EXPECT_EQ(canon.stats.all().count("compile.insts"), 1u);
    EXPECT_EQ(canon.stats.all().count("compile.time.ms"), 0u);
    EXPECT_EQ(canon.stats.all().count("compile.cache.hit"), 0u);
    EXPECT_EQ(canon.stats.all().count("service.accepted"), 0u);

    EXPECT_EQ(canonicalResultBytes(a), canonicalResultBytes(b));
    EXPECT_EQ(canonicalResultLine(a), canonicalResultLine(b));
    // A deterministic field difference does show up.
    b.cycles = 101.5;
    EXPECT_NE(canonicalResultBytes(a), canonicalResultBytes(b));
}

// --- ServiceCore: validation, admission, batching --------------------------

TEST(ServiceCore, BadRequestsAreReportedNotExecuted)
{
    ServiceOptions opts;
    opts.threads = 1;
    ServiceCore core(opts);

    ServiceRequest unknown = smallRequest("unknown-kind", 32);
    unknown.workload = "quantum";
    core.submit(unknown);

    ServiceRequest bad_pipeline = smallRequest("bad-pipeline", 32);
    bad_pipeline.copts.pipeline = "copyprop,bogus_pass";
    core.submit(bad_pipeline);

    ServiceRequest bad_logn = smallRequest("bad-logn", 32);
    bad_logn.fhe.logN = 40;
    core.submit(bad_logn);

    // Paper-scale builders refuse toy parameters instead of panicking
    // inside the workload builder.
    ServiceRequest tiny_bootstrap = smallRequest("tiny-bootstrap", 0);
    tiny_bootstrap.workload = "bootstrap";
    core.submit(tiny_bootstrap);

    // A policy travels as one raw wire byte: an unknown code is refused,
    // never run as some default policy.
    ServiceRequest bad_scheduler = smallRequest("bad-scheduler", 32);
    bad_scheduler.copts.scheduler = Scheduler(3);
    core.submit(bad_scheduler);
    ServiceRequest bad_regalloc = smallRequest("bad-regalloc", 32);
    bad_regalloc.copts.regalloc = RegAllocPolicy(2);
    core.submit(bad_regalloc);

    core.submit(smallRequest("fine", 32));

    const std::vector<ServiceResult> results = core.flush();
    ASSERT_EQ(results.size(), 7u);
    for (size_t i = 0; i + 1 < results.size(); ++i) {
        EXPECT_EQ(results[i].status, ServiceStatus::BadRequest) << i;
        EXPECT_FALSE(results[i].error.empty()) << i;
        EXPECT_EQ(results[i].cycles, 0.0) << i;
    }
    EXPECT_NE(results[4].error.find("scheduler"), std::string::npos);
    EXPECT_NE(results[5].error.find("regalloc"), std::string::npos);
    EXPECT_EQ(results[6].status, ServiceStatus::Ok);
    EXPECT_GT(results[6].cycles, 0.0);
    EXPECT_EQ(core.statsSnapshot().get("service.bad_requests"), 6.0);
}

TEST(ServiceCore, RejectsWhenPendingQueueIsFull)
{
    ServiceOptions opts;
    opts.threads = 1;
    opts.queueCapacity = 2;
    opts.batchSize = 100; // no auto-batch: pressure only drains on flush
    ServiceCore core(opts);

    for (int i = 0; i < 5; ++i)
        core.submit(smallRequest("burst" + std::to_string(i), 32));
    EXPECT_EQ(core.pendingCount(), 2u);

    const std::vector<ServiceResult> results = core.flush();
    ASSERT_EQ(results.size(), 5u);
    EXPECT_EQ(results[0].status, ServiceStatus::Ok);
    EXPECT_EQ(results[1].status, ServiceStatus::Ok);
    for (size_t i = 2; i < 5; ++i) {
        EXPECT_EQ(results[i].status, ServiceStatus::RejectedQueueFull) << i;
        EXPECT_NE(results[i].error.find("queue full"), std::string::npos)
            << "the documented error code must say why: "
            << results[i].error;
    }
    // Results arrive in submission order, rejects interleaved.
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].seq, i);

    const StatSet stats = core.statsSnapshot();
    EXPECT_EQ(stats.get("service.accepted"), 2.0);
    EXPECT_EQ(stats.get("service.rejected"), 3.0);

    // The flush drained the queue: admission slots are free again.
    core.submit(smallRequest("after", 32));
    const std::vector<ServiceResult> next = core.flush();
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0].status, ServiceStatus::Ok);
    EXPECT_EQ(next[0].seq, 5u);
}

TEST(ServiceCore, AutoBatchRunsAtBatchSizeWithoutFlush)
{
    ServiceOptions opts;
    opts.threads = 1;
    opts.batchSize = 2;
    opts.queueCapacity = 64;
    ServiceCore core(opts);

    core.submit(smallRequest("a", 32));
    EXPECT_EQ(core.pendingCount(), 1u);
    core.submit(smallRequest("b", 32));
    EXPECT_EQ(core.pendingCount(), 0u) << "batchSize reached -> executed";
    core.submit(smallRequest("c", 32));
    EXPECT_EQ(core.pendingCount(), 1u);

    const std::vector<ServiceResult> results = core.flush();
    ASSERT_EQ(results.size(), 3u);
    for (const ServiceResult &res : results)
        EXPECT_EQ(res.status, ServiceStatus::Ok);
    EXPECT_EQ(core.statsSnapshot().get("service.batches"), 2.0);
}

TEST(ServiceCore, ResultsMatchBatchModeSweepEngine)
{
    // The daemon's results must be the batch path's results: same
    // cycles, fingerprints and instruction counts as a SweepEngine run
    // of the equivalent jobs.
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    const std::vector<uint64_t> records = {32, 48, 64};

    SweepEngine engine({1});
    for (uint64_t n : records) {
        SweepJob job;
        job.name = "batch" + std::to_string(n);
        job.build = [n] {
            FheParams fhe;
            fhe.logN = 12;
            fhe.levels = 6;
            fhe.dnum = 2;
            return buildDbLookup(fhe, size_t(n));
        };
        job.hw = hw;
        job.copts = Platform::fullOptions(hw.sramBytes);
        engine.submit(std::move(job));
    }
    const std::vector<SweepResult> &batch = engine.runAll();

    ServiceOptions opts;
    opts.threads = 2;
    ServiceCore core(opts);
    for (uint64_t n : records)
        core.submit(smallRequest("svc" + std::to_string(n), n));
    const std::vector<ServiceResult> served = core.flush();

    ASSERT_EQ(served.size(), batch.size());
    for (size_t i = 0; i < served.size(); ++i) {
        ASSERT_EQ(served[i].status, ServiceStatus::Ok);
        EXPECT_DOUBLE_EQ(served[i].cycles, batch[i].platform.sim.cycles);
        EXPECT_EQ(served[i].machineFingerprint,
                  batch[i].platform.machineFingerprint);
        EXPECT_EQ(served[i].instructions,
                  uint64_t(batch[i].platform.sim.instructions));
        EXPECT_DOUBLE_EQ(served[i].benchTimeMs,
                         batch[i].platform.benchTimeMs);
    }
    // Repeats hit the shared cache (unbounded here), without changing
    // the results.
    core.submit(smallRequest("again", 32));
    const std::vector<ServiceResult> again = core.flush();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_DOUBLE_EQ(again[0].cycles, batch[0].platform.sim.cycles);
    EXPECT_GT(core.statsSnapshot().get("cache.hits"), 0.0);
}

// --- Replay determinism ----------------------------------------------------

/**
 * The recorded 50-request mixed session of the acceptance criterion:
 * five distinct (records, preset) design points cycled across bursts
 * (cache-hot repeats + cache-cold first sightings), burst size above
 * the queue capacity (forced rejections), and a cache budget below one
 * snapshot (forced evictions).
 */
std::vector<Frame>
recordedSession()
{
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    const struct
    {
        uint64_t records;
        CompilerOptions copts;
    } points[] = {
        {16, Platform::baselineOptions(hw.sramBytes)},
        {24, Platform::streamingOptions(hw.sramBytes)},
        {32, Platform::fullOptions(hw.sramBytes)},
        {40, Platform::madEnhancedOptions(hw.sramBytes)},
        {48, Platform::fullOptions(hw.sramBytes)},
    };
    std::vector<Frame> frames;
    size_t emitted = 0;
    for (int burst = 0; burst < 5; ++burst) {
        for (int i = 0; i < 10; ++i) {
            const auto &pt = points[(burst + i) % 5];
            ServiceRequest req = smallRequest(
                "s" + std::to_string(burst) + "-" + std::to_string(i),
                pt.records, pt.copts);
            req.tag = 5000 + emitted++;
            Frame frame;
            frame.type = FrameType::Request;
            frame.payload = encodeRequest(req);
            frames.push_back(std::move(frame));
        }
        Frame flush;
        flush.type = FrameType::Flush;
        frames.push_back(std::move(flush));
    }
    return frames;
}

/** Session config under test: parallel, bounded cache, tight queue. */
ServiceOptions
sessionOptions()
{
    ServiceOptions opts;
    opts.threads = 3;
    opts.queueCapacity = 7; // burst of 10 -> 3 rejections per burst
    opts.batchSize = 100;   // batching driven by the Flush frames
    opts.cacheBytes = 4096; // below one snapshot -> every publish evicts
    return opts;
}

TEST(Replay, FiftyRequestSessionMatchesUncachedSerialOracleByteForByte)
{
    const std::vector<Frame> frames = recordedSession();

    ServiceCore session(sessionOptions());
    ReplayOutcome live;
    std::string error;
    ASSERT_TRUE(replayFrames(frames, session, &live, &error)) << error;
    EXPECT_EQ(live.requests, 50u);
    ASSERT_EQ(live.results.size(), 50u);

    // The acceptance gates: the session genuinely exercised eviction
    // and rejection, not just the happy path.
    EXPECT_GE(session.cache().evictionCount(), 1u);
    EXPECT_EQ(session.statsSnapshot().get("service.rejected"), 15.0)
        << "7-deep queue x 10-request bursts -> 3 rejections per burst";
    EXPECT_EQ(session.statsSnapshot().get("service.accepted"), 35.0);

    // Oracle: same admission config, serial + uncached execution.
    ServiceCore oracle(oracleOptions(sessionOptions()));
    ReplayOutcome ref;
    ASSERT_TRUE(replayFrames(frames, oracle, &ref, &error)) << error;
    ASSERT_EQ(ref.results.size(), live.results.size());
    EXPECT_EQ(oracle.statsSnapshot().get("cache.lookups"), 0.0);

    for (size_t i = 0; i < live.results.size(); ++i) {
        EXPECT_EQ(live.results[i].status, ref.results[i].status) << i;
        EXPECT_EQ(canonicalResultBytes(live.results[i]),
                  canonicalResultBytes(ref.results[i]))
            << "result " << i << " (" << live.results[i].name
            << ") diverged from the oracle";
    }
    EXPECT_EQ(concatCanonical(live.results), concatCanonical(ref.results));
}

TEST(Replay, ReplayingTheSameLogTwiceIsByteIdentical)
{
    const std::vector<Frame> frames = recordedSession();
    std::string error;

    ServiceCore first(sessionOptions());
    ReplayOutcome a;
    ASSERT_TRUE(replayFrames(frames, first, &a, &error)) << error;

    ServiceCore second(sessionOptions());
    ReplayOutcome b;
    ASSERT_TRUE(replayFrames(frames, second, &b, &error)) << error;

    EXPECT_EQ(concatCanonical(a.results), concatCanonical(b.results));

    // An unbounded-cache config also agrees (cache-hot repeats change
    // the work done, never the results) and actually hits.
    ServiceOptions hot = sessionOptions();
    hot.cacheBytes = 0;
    ServiceCore cached(hot);
    ReplayOutcome c;
    ASSERT_TRUE(replayFrames(frames, cached, &c, &error)) << error;
    EXPECT_EQ(concatCanonical(c.results), concatCanonical(a.results));
    EXPECT_GT(cached.statsSnapshot().get("cache.hits"), 0.0);
    EXPECT_EQ(cached.cache().evictionCount(), 0u);
}

TEST(Replay, LogRoundTripsThroughTheWriterAndLoader)
{
    const std::vector<Frame> frames = recordedSession();
    const std::string path =
        "/tmp/effact-test-log-" + std::to_string(::getpid()) + ".bin";

    RequestLogWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    for (const Frame &frame : frames)
        ASSERT_TRUE(writer.append(frame.type, frame.payload));
    writer.close();

    std::vector<Frame> loaded;
    ASSERT_TRUE(loadRequestLog(path, &loaded, &error)) << error;
    ASSERT_EQ(loaded.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(loaded[i].type, frames[i].type) << i;
        EXPECT_EQ(loaded[i].payload, frames[i].payload) << i;
    }
    std::remove(path.c_str());
}

TEST(Replay, CorruptLogsAreReportedNotReplayed)
{
    std::vector<uint8_t> stream;
    const std::vector<uint8_t> frame =
        encodeFrame(FrameType::Request, encodeRequest(smallRequest("x", 32)));
    stream.insert(stream.end(), frame.begin(), frame.end());
    stream.insert(stream.end(), frame.begin(), frame.end() - 3); // torn tail

    std::vector<Frame> frames;
    std::string error;
    EXPECT_FALSE(decodeFrameStream(stream, &frames, &error));
    EXPECT_NE(error.find("offset"), std::string::npos)
        << "the error must locate the corruption: " << error;

    // A server-side frame type in a "request log" is corrupt by
    // definition — the replayer refuses rather than guessing.
    std::vector<Frame> bogus;
    Frame result_frame;
    result_frame.type = FrameType::Result;
    result_frame.payload = encodeResult(ServiceResult{});
    bogus.push_back(std::move(result_frame));
    ServiceCore core(ServiceOptions{});
    ReplayOutcome outcome;
    EXPECT_FALSE(replayFrames(bogus, core, &outcome, &error));
}

// --- AF_UNIX transport -----------------------------------------------------

std::string
testSocketPath(const char *suffix)
{
    return "/tmp/effact-test-" + std::to_string(::getpid()) + "-" + suffix +
           ".sock";
}

TEST(ServiceSocket, EndToEndMatchesOfflineReplayAndSurvivesGarbage)
{
    const std::string record_path =
        "/tmp/effact-test-" + std::to_string(::getpid()) + "-e2e.log";
    ServiceServerOptions server_opts;
    server_opts.socketPath = testSocketPath("e2e");
    server_opts.recordPath = record_path;
    server_opts.service.threads = 2;
    server_opts.service.queueCapacity = 8;

    ServiceServer server(std::move(server_opts));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread server_thread([&server] { server.run(); });

    const std::vector<uint64_t> records = {32, 48, 64};
    std::vector<ServiceResult> live;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(server.socketPath(), &error)) << error;
        for (uint64_t n : records)
            ASSERT_TRUE(client.sendRequest(
                smallRequest("live" + std::to_string(n), n), &error))
                << error;
        ASSERT_TRUE(client.flush(&live, &error)) << error;
    }
    ASSERT_EQ(live.size(), records.size());
    for (const ServiceResult &res : live)
        EXPECT_EQ(res.status, ServiceStatus::Ok);

    // Garbage on a fresh connection: the server answers with an Error
    // frame and closes that connection — and keeps serving.
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, server.socketPath().c_str(),
                     sizeof(addr.sun_path) - 1);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        const char garbage[] = "this is not a frame at all, sorry";
        ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);
        // The reply must be a valid Error frame.
        std::vector<uint8_t> reply(4096);
        size_t got = 0;
        while (got < reply.size()) {
            const ssize_t n =
                ::recv(fd, reply.data() + got, reply.size() - got, 0);
            if (n <= 0)
                break; // server closed after the error frame
            got += size_t(n);
        }
        ::close(fd);
        Frame frame;
        size_t consumed = 0;
        ASSERT_EQ(decodeFrame(reply.data(), got, &frame, &consumed),
                  FrameDecodeStatus::Ok);
        EXPECT_EQ(frame.type, FrameType::Error);
        std::string message;
        ASSERT_TRUE(decodeErrorPayload(frame.payload, &message));
        EXPECT_FALSE(message.empty());
    }

    // A post-garbage client still gets served, then stops the daemon.
    std::vector<ServiceResult> after;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(server.socketPath(), &error)) << error;
        ASSERT_TRUE(client.sendRequest(smallRequest("after", 32), &error))
            << error;
        ASSERT_TRUE(client.shutdownServer(&after, &error)) << error;
    }
    server_thread.join();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].status, ServiceStatus::Ok);

    // The recorded session replays offline to the same canonical bytes
    // the live clients saw (in the same order).
    std::vector<Frame> recorded;
    ASSERT_TRUE(loadRequestLog(record_path, &recorded, &error)) << error;
    ServiceOptions offline_opts;
    offline_opts.threads = 2;
    offline_opts.queueCapacity = 8;
    ServiceCore offline(offline_opts);
    ReplayOutcome outcome;
    ASSERT_TRUE(replayFrames(recorded, offline, &outcome, &error)) << error;
    std::vector<ServiceResult> all_live = live;
    all_live.insert(all_live.end(), after.begin(), after.end());
    ASSERT_EQ(outcome.results.size(), all_live.size());
    EXPECT_EQ(concatCanonical(outcome.results), concatCanonical(all_live));
    EXPECT_TRUE(outcome.sawShutdown);

    std::remove(record_path.c_str());
}

// --- Environment defaults --------------------------------------------------

TEST(ServiceDefaults, EnvironmentOverridesParse)
{
    ::setenv("EFFACT_QUEUE_DEPTH", "17", 1);
    EXPECT_EQ(defaultQueueCapacity(), 17u);
    ::setenv("EFFACT_QUEUE_DEPTH", "not-a-number", 1);
    EXPECT_EQ(defaultQueueCapacity(), 64u);
    ::unsetenv("EFFACT_QUEUE_DEPTH");
    EXPECT_EQ(defaultQueueCapacity(), 64u);

    ::setenv("EFFACT_CACHE_BYTES", "123456", 1);
    EXPECT_EQ(defaultCacheBytes(), 123456u);
    ::setenv("EFFACT_CACHE_BYTES", "0", 1); // valid: unbounded
    EXPECT_EQ(defaultCacheBytes(), 0u);
    ::unsetenv("EFFACT_CACHE_BYTES");
    EXPECT_EQ(defaultCacheBytes(), 0u);

    // Digits only: a sign, a space, a suffix or an overflow warns and
    // keeps the default, so `-1` can never wrap to 2^64 - 1.
    // EFFACT_THREADS is restored afterwards for the rest of the suite.
    const char *threads_env = std::getenv("EFFACT_THREADS");
    const std::string threads_before = threads_env ? threads_env : "";
    const bool had_threads = threads_env != nullptr;
    ::setenv("EFFACT_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3u);
    ::unsetenv("EFFACT_THREADS");
    const size_t thread_default = defaultThreadCount();
    for (const char *bad :
         {"-1", "+5", " 5", "5x", "", "99999999999999999999999"}) {
        ::setenv("EFFACT_QUEUE_DEPTH", bad, 1);
        EXPECT_EQ(defaultQueueCapacity(), 64u) << "'" << bad << "'";
        ::setenv("EFFACT_CACHE_BYTES", bad, 1);
        EXPECT_EQ(defaultCacheBytes(), 0u) << "'" << bad << "'";
        ::setenv("EFFACT_THREADS", bad, 1);
        EXPECT_EQ(defaultThreadCount(), thread_default)
            << "'" << bad << "'";
    }
    // The counts need at least one.
    ::setenv("EFFACT_QUEUE_DEPTH", "0", 1);
    EXPECT_EQ(defaultQueueCapacity(), 64u);
    ::unsetenv("EFFACT_QUEUE_DEPTH");
    ::unsetenv("EFFACT_CACHE_BYTES");
    if (had_threads)
        ::setenv("EFFACT_THREADS", threads_before.c_str(), 1);
    else
        ::unsetenv("EFFACT_THREADS");
}

TEST(ServiceDefaults, OracleOptionsKeepAdmissionConfig)
{
    ServiceOptions base;
    base.threads = 8;
    base.queueCapacity = 5;
    base.batchSize = 3;
    base.cacheBytes = 999;
    base.verifyLevel = 1;
    const ServiceOptions oracle = oracleOptions(base);
    EXPECT_EQ(oracle.threads, 1u);
    EXPECT_FALSE(oracle.useCache);
    EXPECT_EQ(oracle.cacheBytes, 0u);
    // Admission behavior must replay identically.
    EXPECT_EQ(oracle.queueCapacity, base.queueCapacity);
    EXPECT_EQ(oracle.batchSize, base.batchSize);
    EXPECT_EQ(oracle.verifyLevel, base.verifyLevel);
}

} // namespace
} // namespace effact
