/**
 * @file
 * The compile-and-simulate daemon: binds an AF_UNIX socket, accepts
 * framed requests (see `src/service/protocol.h`), batches them through
 * `runSweep` with a bounded LRU `CompileCache` and
 * bounded-queue admission control, and streams results back in
 * submission order. `--record FILE` captures the client frame stream
 * as a replayable session log (see `effact-replay`).
 *
 *     effact-serve --socket /tmp/effact.sock --threads 4 \
 *                  --cache-bytes 8000000 --record session.log
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.h"
#include "service/service.h"

namespace {

using effact::parseSize;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket PATH] [--threads N] [--queue-depth N]\n"
        "          [--batch N] [--cache-bytes N] [--verify 0|1]\n"
        "          [--record FILE]\n"
        "\n"
        "Defaults: socket $EFFACT_SOCKET (or /tmp/effact.sock), threads\n"
        "$EFFACT_THREADS, queue depth 64, cache budget 0 bytes\n"
        "(unbounded), verification per request.\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    effact::ServiceServerOptions opts;
    const char *env_socket = std::getenv("EFFACT_SOCKET");
    opts.socketPath =
        env_socket != nullptr ? env_socket : "/tmp/effact.sock";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        size_t n = 0;
        if (arg == "--socket") {
            opts.socketPath = value();
        } else if (arg == "--record") {
            opts.recordPath = value();
        } else if (arg == "--threads" && parseSize(value(), &n)) {
            opts.service.threads = n;
        } else if (arg == "--queue-depth" && parseSize(value(), &n)) {
            opts.service.queueCapacity = n;
        } else if (arg == "--batch" && parseSize(value(), &n)) {
            opts.service.batchSize = n;
        } else if (arg == "--cache-bytes" && parseSize(value(), &n)) {
            opts.service.cacheBytes = n;
        } else if (arg == "--verify" && parseSize(value(), &n) && n <= 1) {
            // The wire protocol's range: any other level is refused,
            // never truncated.
            opts.service.verifyLevel = int(n);
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    effact::ServiceServer server(std::move(opts));
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "effact-serve: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "effact-serve: listening on %s (threads=%zu, "
                 "queue=%zu, cache=%zu bytes)\n",
                 server.socketPath().c_str(),
                 server.core().options().threads,
                 server.core().options().queueCapacity,
                 server.core().options().cacheBytes);
    server.run();

    const effact::StatSet stats = server.core().statsSnapshot();
    std::fprintf(stderr,
                 "effact-serve: done (accepted=%.0f rejected=%.0f "
                 "bad=%.0f batches=%.0f evictions=%.0f)\n",
                 stats.get("service.accepted"),
                 stats.get("service.rejected"),
                 stats.get("service.bad_requests"),
                 stats.get("service.batches"),
                 stats.get("cache.evictions"));
    return 0;
}
