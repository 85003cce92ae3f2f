/**
 * @file
 * Request-log recording and replay. A log is nothing but the raw
 * client->server frame stream (`Request`, `Flush`, `Shutdown` frames,
 * in arrival order, plus the `Flush` the server runs when a client
 * leaves with unflushed results) appended to a file — the same
 * checksummed framing as the wire, so a recorded session is
 * self-validating. It replays
 * through exactly the path the live server uses: `loadRequestLog`
 * reads it with the server's frame reader (`readFrameFrom`), and
 * `replayFrames` hands each frame to the server's client-frame
 * dispatcher. Because the service is deterministic given its
 * configuration and the request stream, replaying a log offline
 * (`effact-replay`) reproduces the live session's canonical result
 * bytes.
 */
#ifndef EFFACT_SERVICE_REQUEST_LOG_H
#define EFFACT_SERVICE_REQUEST_LOG_H

#include <cstdio>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace effact {

/** Appends raw frames to a log file as they arrive. */
class RequestLogWriter
{
  public:
    RequestLogWriter() = default;
    ~RequestLogWriter();

    RequestLogWriter(const RequestLogWriter &) = delete;
    RequestLogWriter &operator=(const RequestLogWriter &) = delete;

    /** Opens (truncates) `path`; false + `error` on failure. */
    bool open(const std::string &path, std::string *error);

    bool isOpen() const { return file_ != nullptr; }

    /** Appends `encodeFrame(type, payload)`. */
    bool append(FrameType type, const std::vector<uint8_t> &payload);

    void close();

  private:
    std::FILE *file_ = nullptr;
};

/**
 * Loads a recorded log back into frames through `readFrameFrom`, the
 * reader the live server uses. Strict: the file must be a clean
 * concatenation of valid frames; any decode failure (truncation,
 * corruption) reports the offending offset and status in `error`.
 */
bool loadRequestLog(const std::string &path, std::vector<Frame> *frames,
                    std::string *error);

} // namespace effact

#endif // EFFACT_SERVICE_REQUEST_LOG_H
