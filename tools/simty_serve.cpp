// simty_serve: result-cached sweep daemon over a local socket.
//
// Serves run requests from simty_query, answering repeated identical
// requests from an in-memory result cache keyed by (config hash, seed) and
// warm-starting β-sweep points from a shared standby-prefix snapshot (see
// serve/serve_core.hpp for the cache design and EXPERIMENTS.md for the
// sweep recipe).
//
//   simty_serve --socket /tmp/simty.sock [--snapshots 8]
//
// Runs until a client sends --shutdown. Single-threaded by design: the
// simulation stack is single-threaded, and one daemon serving a sweep
// serially is exactly the workload the prefix cache accelerates.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "serve/serve_core.hpp"
#include "serve/server.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: simty_serve --socket <path> [--snapshots N] "
               "[--max-connections N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::size_t snapshots = 8;
  int max_connections = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--snapshots" && i + 1 < argc) {
      snapshots = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--max-connections" && i + 1 < argc) {
      max_connections = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  if (socket_path.empty() || snapshots == 0) return usage();

  try {
    simty::serve::ServeCore core(snapshots);
    simty::serve::Server server(socket_path, core);
    std::printf("simty_serve: listening on %s\n", socket_path.c_str());
    std::fflush(stdout);
    server.serve(max_connections);
    const simty::serve::ServeStats& s = core.stats();
    std::printf(
        "simty_serve: done. requests=%llu result_hits=%llu "
        "prefix_hits=%llu prefix_misses=%llu evicted=%llu\n",
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.result_hits),
        static_cast<unsigned long long>(s.prefix_hits),
        static_cast<unsigned long long>(s.prefix_misses),
        static_cast<unsigned long long>(s.snapshots_evicted));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simty_serve: %s\n", e.what());
    return 1;
  }
}
