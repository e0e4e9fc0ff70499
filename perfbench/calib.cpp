// perfbench_calib: a fixed amount of work that measures how fast this host
// runs single-threaded code like the partitioner's right now.
//
//   $ perfbench_calib [rounds]
//
// Shares no code with the repository, so a change to the program cannot move
// it. Each round mixes the kinds of work a partitioner run does: random
// reads and updates over a 1 MB table (replica and degree lookups; it fits
// in L2 on purpose, because a DRAM-bound table slows under neighbours'
// memory traffic far more than the partitioner does), a binary heap of
// 65,536 scored items (the ADWISE window), 32-way double-precision scoring
// with an argmax (HDRF/Eq. 7 placement), and "u v p" text formatting (the
// assignment sink). Prints one JSON line with
// the seconds the kernel took (steady clock, process start-up excluded) and
// a checksum that must not depend on the host.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <utility>
#include <vector>

namespace {

struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

constexpr std::size_t kTableWords = std::size_t{1} << 17;  // 1 MB
constexpr std::uint32_t kParts = 32;
constexpr std::size_t kHeapItems = 65536;

std::uint64_t table_phase(std::vector<std::uint64_t>& table, Rng& rng) {
  std::uint64_t sum = 0;
  const std::size_t mask = table.size() - 1;
  std::size_t idx = rng.next() & mask;
  for (int i = 0; i < 600000; ++i) {
    // Half the reads depend on the previous one, as a replica lookup that
    // decides the next candidate does.
    idx = (idx ^ (table[idx] & 0xffff) ^ rng.next()) & mask;
    table[idx] += i;
    sum += table[(idx * 0x9e3779b97f4a7c15ULL) & mask];
  }
  return sum;
}

std::uint64_t heap_phase(Rng& rng) {
  std::priority_queue<std::pair<double, std::uint32_t>> heap;
  for (std::uint32_t i = 0; i < kHeapItems; ++i) {
    heap.emplace(static_cast<double>(rng.next() >> 11), i);
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < 400000; ++i) {
    const auto top = heap.top();
    heap.pop();
    sum += top.second;
    heap.emplace(top.first * 0.5 + static_cast<double>(rng.next() >> 40),
                 top.second);
  }
  return sum;
}

std::uint64_t score_phase(const std::vector<std::uint64_t>& table, Rng& rng) {
  std::vector<double> load(kParts, 1.0);
  std::uint64_t sum = 0;
  const std::size_t mask = table.size() - 1;
  for (int e = 0; e < 200000; ++e) {
    const std::uint64_t ru = table[rng.next() & mask];
    const std::uint64_t rv = table[rng.next() & mask];
    const double max_load = *std::max_element(load.begin(), load.end());
    std::uint32_t best = 0;
    double best_score = -1.0;
    for (std::uint32_t p = 0; p < kParts; ++p) {
      const double rep = static_cast<double>(((ru >> p) & 1) + ((rv >> p) & 1));
      const double score = rep + (max_load - load[p]) / (max_load + 1.0);
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    load[best] += 1.0;
    sum += best;
  }
  return sum;
}

std::uint64_t format_phase(Rng& rng) {
  std::vector<char> buf(1 << 20);
  std::size_t used = 0;
  std::uint64_t sum = 0;
  for (int i = 0; i < 500000; ++i) {
    if (buf.size() - used < 64) {
      sum += static_cast<unsigned char>(buf[used / 2]) + used;
      used = 0;
    }
    const std::uint64_t r = rng.next();
    char* p = buf.data() + used;
    char* const end = buf.data() + buf.size();
    p = std::to_chars(p, end, r & 0xfffff).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, (r >> 20) & 0xfffff).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, (r >> 40) % kParts).ptr;
    *p++ = '\n';
    used = static_cast<std::size_t>(p - buf.data());
  }
  return sum + used;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 1;
  if (rounds < 1) {
    std::fprintf(stderr, "usage: perfbench_calib [rounds >= 1]\n");
    return 2;
  }
  std::vector<std::uint64_t> table(kTableWords);
  Rng init{0x243f6a8885a308d3ULL};
  for (auto& w : table) w = init.next();

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t checksum = 0;
  for (int r = 0; r < rounds; ++r) {
    Rng rng{0x13198a2e03707344ULL + static_cast<std::uint64_t>(r)};
    checksum += table_phase(table, rng);
    checksum ^= heap_phase(rng);
    checksum += score_phase(table, rng);
    checksum ^= format_phase(rng);
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  std::printf("{\"seconds\": %.9f, \"checksum\": %llu}\n", took.count(),
              static_cast<unsigned long long>(checksum));
  return 0;
}
