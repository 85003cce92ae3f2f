#include "service/request_log.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace effact {

RequestLogWriter::~RequestLogWriter() { close(); }

bool
RequestLogWriter::open(const std::string &path, std::string *error)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) {
        if (error != nullptr)
            *error = "cannot open '" + path + "': " + std::strerror(errno);
        return false;
    }
    return true;
}

bool
RequestLogWriter::append(FrameType type, const std::vector<uint8_t> &payload)
{
    if (file_ == nullptr)
        return false;
    const std::vector<uint8_t> bytes = encodeFrame(type, payload);
    const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file_);
    // Flush per frame: a recorded log should be replayable up to the
    // last completed request even if the daemon dies mid-session.
    std::fflush(file_);
    return written == bytes.size();
}

void
RequestLogWriter::close()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

bool
loadRequestLog(const std::string &path, std::vector<Frame> *frames,
               std::string *error)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (error != nullptr)
            *error = "cannot open '" + path + "': " + std::strerror(errno);
        return false;
    }
    std::vector<uint8_t> buf;
    size_t offset = 0;
    bool clean = false;
    for (;;) {
        Frame frame;
        bool eof = false;
        std::string io_error;
        const FrameDecodeStatus status =
            readFrameFrom(fd, buf, &frame, &eof, &io_error);
        if (status != FrameDecodeStatus::Ok) {
            clean = eof && buf.empty();
            if (!clean && error != nullptr)
                *error = "frame decode failed at offset " +
                         std::to_string(offset) + ": " +
                         (io_error.empty() ? frameDecodeStatusName(status)
                                           : io_error);
            break;
        }
        offset += kFrameHeaderBytes + frame.payload.size();
        frames->push_back(std::move(frame));
    }
    ::close(fd);
    return clean;
}

} // namespace effact
