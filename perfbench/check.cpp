// perfbench_check: input summary and assignment-file verifier.
//
//   $ perfbench_check <graph.adw> [<assignments> <k>]
//
// Reads the .adw edge list and prints, as one JSON line, |E|, |V| (vertices
// with at least one edge), the largest id and the maximum degree. Given an
// assignment file ("u v partition" lines, as partition_file writes them) it
// also checks that
//   - the file's (u, v) multiset equals the input's: every edge appears
//     exactly once, none is invented;
//   - every partition id is < k;
// and recomputes the replication factor (Eq. 1: replicas per vertex that
// has an edge), the load balance (largest partition ÷ |E|/k) and
// partition_file's imbalance ((max - min) / max). "ok" is false, with an
// "error" string, when a check fails. Exit code 0 unless the arguments or
// the input file are unusable.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/io/binary_stream.h"

namespace {

using namespace adwise;

std::uint64_t key(std::uint64_t u, std::uint64_t v) { return (u << 32) | v; }

// Returns "" when the file is a correct assignment of `edges`, else why not.
std::string check_assignments(const std::string& path, std::uint32_t k,
                              const std::vector<std::uint64_t>& sorted_edges,
                              std::uint64_t max_id,
                              std::vector<std::uint64_t>& masks,
                              std::vector<std::uint64_t>& sizes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "cannot open " + path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<std::uint64_t> seen;
  seen.reserve(sorted_edges.size());
  const char* p = text.data();
  const char* const end = p + text.size();
  std::uint64_t line = 0;
  while (p < end) {
    ++line;
    std::uint64_t f[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
      const char* start = p;
      while (p < end && *p >= '0' && *p <= '9') f[i] = f[i] * 10 + (*p++ - '0');
      const char want = i == 2 ? '\n' : ' ';
      if (p == start || p == end || *p != want || p - start > 10) {
        return "malformed line " + std::to_string(line);
      }
      ++p;
    }
    if (f[0] > max_id || f[1] > max_id) {
      return "unknown vertex on line " + std::to_string(line);
    }
    if (f[2] >= k) {
      return "partition id " + std::to_string(f[2]) + " >= k on line " +
             std::to_string(line);
    }
    seen.push_back(key(f[0], f[1]));
    masks[f[0]] |= std::uint64_t{1} << f[2];
    masks[f[1]] |= std::uint64_t{1} << f[2];
    ++sizes[f[2]];
  }
  std::sort(seen.begin(), seen.end());
  if (seen != sorted_edges) {
    return "assigned edges differ from the input (" +
           std::to_string(seen.size()) + " lines for " +
           std::to_string(sorted_edges.size()) + " edges)";
  }
  return "";
}

int run(int argc, char** argv) {
  if (argc != 2 && argc != 4) {
    std::fprintf(stderr, "usage: %s <graph.adw> [<assignments> <k>]\n",
                 argv[0]);
    return 2;
  }
  BinaryEdgeStream stream(argv[1], BinaryEdgeStream::Options{});
  const std::uint64_t max_id = stream.header().max_vertex_id;
  std::vector<std::uint64_t> edges;
  edges.reserve(stream.size_hint());
  std::vector<std::uint32_t> degree(max_id + 1, 0);
  for (Edge e; stream.next(e);) {
    edges.push_back(key(e.u, e.v));
    ++degree[e.u];
    ++degree[e.v];
  }
  std::sort(edges.begin(), edges.end());
  const auto vertices = static_cast<std::uint64_t>(
      std::count_if(degree.begin(), degree.end(),
                    [](std::uint32_t d) { return d > 0; }));
  const std::uint32_t max_degree =
      degree.empty() ? 0 : *std::max_element(degree.begin(), degree.end());
  std::printf("{\"edges\": %zu, \"vertices\": %llu, \"max_id\": %llu, "
              "\"max_degree\": %u",
              edges.size(), static_cast<unsigned long long>(vertices),
              static_cast<unsigned long long>(max_id), max_degree);

  if (argc == 4) {
    const long k = std::strtol(argv[3], nullptr, 10);
    if (k < 1 || k > 64) throw std::runtime_error("k must be in [1, 64]");
    std::vector<std::uint64_t> masks(max_id + 1, 0);
    std::vector<std::uint64_t> sizes(static_cast<std::size_t>(k), 0);
    const std::string error =
        check_assignments(argv[2], static_cast<std::uint32_t>(k), edges,
                          max_id, masks, sizes);
    std::uint64_t replicas = 0;
    std::uint64_t replicated = 0;
    for (const std::uint64_t m : masks) {
      replicas += static_cast<std::uint64_t>(std::popcount(m));
      replicated += m != 0 ? 1 : 0;
    }
    const auto [min_size, max_size] =
        std::minmax_element(sizes.begin(), sizes.end());
    const double max_p = static_cast<double>(*max_size);
    std::printf(", \"ok\": %s, \"error\": \"%s\", \"replication\": %.9f, "
                "\"load_balance\": %.9f, \"imbalance\": %.9f",
                error.empty() ? "true" : "false", error.c_str(),
                replicated == 0 ? 0.0
                                : static_cast<double>(replicas) /
                                      static_cast<double>(replicated),
                edges.empty() ? 0.0
                              : max_p * static_cast<double>(k) /
                                    static_cast<double>(edges.size()),
                max_p == 0.0
                    ? 0.0
                    : (max_p - static_cast<double>(*min_size)) / max_p);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
