// scol-serve — the persistent coloring service. Speaks the NDJSON
// protocol of docs/SERVE.md: one request per line, one response per
// line, responses in arrival order; graphs are cached content-addressed
// and finished reports verbatim, so repeated requests are answered in
// microseconds with bytes identical to a one-shot `scol-cli --no-timing`
// run.
//
//   $ scol-serve                          # pipe mode: stdin → stdout
//   $ scol-serve --port 0 --jobs 4        # TCP on a kernel-picked port
//   $ printf '%s\n' '{"algo":"greedy","gen":"grid"}' | scol-serve
//
// Flags:
//   --port P           TCP mode on 127.0.0.1:P (0 = kernel-assigned; the
//                      chosen port is announced on stderr). Default is
//                      pipe mode (stdin/stdout).
//   --jobs N           worker threads per batch (default 1)
//   --max-batch N      max requests grouped into one batch (default 64)
//   --graph-cache N    resident graph cap, 0 = unbounded (default 64)
//   --report-cache N   resident report cap, 0 = unbounded (default 4096)
//   --version          print version and exit
//   --help             this text
//
// Exit code: 0 after a clean shutdown (EOF on the pipe or a "shutdown"
// request), 1 on a runtime failure (socket error, broken pipe), 2 on a
// usage error.
//
// A client disconnecting mid-response is NOT a runtime failure: SIGPIPE
// is ignored process-wide, so the write error surfaces as EPIPE and the
// server treats it as that connection closing (docs/SERVE.md "Disconnect
// and signal semantics").
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "parse_num.h"
#include "scol/serve/server.h"
#include "scol/version.h"

namespace {

using namespace scol;

const char* kUsage =
    "usage: scol-serve [--port P] [--jobs N] [--max-batch N]\n"
    "                  [--graph-cache N] [--report-cache N]\n"
    "                  [--version] [--help]\n"
    "exit codes: 0 clean shutdown (EOF or shutdown request),\n"
    "            1 runtime failure, 2 usage error\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "scol-serve: " << message << "\n" << kUsage;
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon must outlive its clients: without this, the first client
  // that disconnects while we are mid-write kills the whole process with
  // SIGPIPE. Ignored up front so both TCP connections and pipe-mode
  // stdout report EPIPE through the stream layer instead.
  std::signal(SIGPIPE, SIG_IGN);

  ServerOptions options;
  int port = -1;

  const auto need_value =
      scol_cli_parse::value_reader(argc, argv, usage_error);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::cout << "scol-serve " << kVersion << "\n";
      return 0;
    } else if (arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--port") {
      port = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--port"), "--port", 0, 65535, usage_error));
      ++i;
    } else if (arg == "--jobs") {
      options.jobs = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--jobs"), "--jobs", 1,
          std::numeric_limits<int>::max(), usage_error));
      ++i;
    } else if (arg == "--max-batch") {
      options.max_batch = static_cast<std::size_t>(
          scol_cli_parse::checked_int(
              need_value(i, "--max-batch"), "--max-batch", 1,
              std::numeric_limits<std::int64_t>::max(), usage_error));
      ++i;
    } else if (arg == "--graph-cache") {
      options.graph_cache_capacity = static_cast<std::size_t>(
          scol_cli_parse::checked_int(
              need_value(i, "--graph-cache"), "--graph-cache", 0,
              std::numeric_limits<std::int64_t>::max(), usage_error));
      ++i;
    } else if (arg == "--report-cache") {
      options.report_cache_capacity = static_cast<std::size_t>(
          scol_cli_parse::checked_int(
              need_value(i, "--report-cache"), "--report-cache", 0,
              std::numeric_limits<std::int64_t>::max(), usage_error));
      ++i;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }

  try {
    Server server(options);
    if (port >= 0) {
      return server.listen_and_serve(port, [](int p) {
        std::cerr << "scol-serve: listening on 127.0.0.1:" << p << "\n";
      });
    }
    // Pipe mode. Unsynced iostreams let in_avail() see what is already
    // buffered, which is what makes batching effective on a full pipe.
    std::ios::sync_with_stdio(false);
    server.serve_stream(std::cin, std::cout);
    if (!std::cout) {
      std::cerr << "scol-serve: write to stdout failed\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "scol-serve: " << e.what() << "\n";
    return 1;
  }
}
