// Standalone driver for the fuzz harnesses on toolchains without libFuzzer
// (the container and CI build-test jobs use g++). Replays every file in the
// corpus directories passed on the command line, then runs a deterministic
// mutation sweep over each seed input:
//
//   * every prefix truncation (length 0 .. n-1),
//   * every single-bit flip,
//   * length inflation by 1, 8, and 4096 trailing bytes.
//
// A seed larger than kFullSweepBytes (a frame bigger than the server
// decoder's 64 KiB window) is truncated and bit-flipped only within its
// first and last kEdgeBytes, where its headers, blob geometry, trace id
// and trailing frames lie: a full sweep of such a seed is quadratic and
// ran past ten minutes under ASan.
//
// This is not coverage-guided fuzzing — the clang CI job does that — but it
// executes the exact malformed-input classes the deserializers must reject
// (truncated, bit-flipped, length-inflated) on every compiler, so the fuzz
// smoke test never silently disappears from a build.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

constexpr size_t kFullSweepBytes = 4096;
constexpr size_t kEdgeBytes = 256;

/// Whether the sweep truncates at, and flips the bits of, `position`.
bool Swept(size_t position, size_t size) {
  return size <= kFullSweepBytes || position < kEdgeBytes ||
         position >= size - kEdgeBytes;
}

void RunOne(const std::vector<uint8_t>& bytes) {
  LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
}

uint64_t SweepSeed(const std::vector<uint8_t>& seed) {
  uint64_t executions = 0;
  RunOne(seed);
  ++executions;
  for (size_t length = 0; length < seed.size(); ++length) {
    if (!Swept(length, seed.size())) continue;
    std::vector<uint8_t> truncated(seed.begin(),
                                   seed.begin() + static_cast<long>(length));
    RunOne(truncated);
    ++executions;
  }
  for (size_t bit = 0; bit < seed.size() * 8; ++bit) {
    if (!Swept(bit / 8, seed.size())) continue;
    std::vector<uint8_t> flipped = seed;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    RunOne(flipped);
    ++executions;
  }
  for (size_t extra : {size_t{1}, size_t{8}, size_t{4096}}) {
    std::vector<uint8_t> inflated = seed;
    inflated.resize(seed.size() + extra, 0xa5);
    RunOne(inflated);
    ++executions;
  }
  return executions;
}

std::vector<uint8_t> ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t files = 0;
  uint64_t executions = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(arg)) {
        if (!entry.is_regular_file()) continue;
        ++files;
        executions += SweepSeed(ReadFile(entry.path()));
      }
    } else if (std::filesystem::is_regular_file(arg)) {
      ++files;
      executions += SweepSeed(ReadFile(arg));
    } else {
      std::fprintf(stderr, "fuzz_driver: no such corpus: %s\n", argv[i]);
      return 2;
    }
  }
  if (files == 0) {
    std::fprintf(stderr, "fuzz_driver: empty corpus\n");
    return 2;
  }
  std::printf("fuzz_driver: %llu seed file(s), %llu executions, no crash\n",
              static_cast<unsigned long long>(files),
              static_cast<unsigned long long>(executions));
  return 0;
}
