// Golden checkpoint oracle over the seed-1 default CLI world
// (`--markets 28 --scale 55`, 13,470 carriers): the SHA-256 of every file a
// 14-day OperationReplay leaves in its state directory, with the CLI's
// defaults (robust pushes, KPI gate, journal checkpoints), for a serial
// full-relearn run, a serial incremental-relearn run and a 4-shard run.
// The checkpoint path may be re-implemented any way it likes; it may not
// change a byte on disk — file names, generations, seals and op records
// included. On a mismatch the failure message prints the new digest.
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "netsim/generator.h"
#include "smartlaunch/replay.h"

namespace auric::smartlaunch {
namespace {

/// FIPS 180-4 SHA-256 of `data`, as 64 lowercase hex digits.
std::string sha256_hex(const std::string& data) {
  static constexpr std::array<std::uint32_t, 64> kRound = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
      0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
      0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
      0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
      0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
      0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
      0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
      0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
      0xc67178f2};
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto rotr = [](std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };

  std::string msg = data;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  msg += static_cast<char>(0x80);
  while (msg.size() % 64 != 56) msg += '\0';
  for (int i = 7; i >= 0; --i) msg += static_cast<char>((bit_len >> (8 * i)) & 0xff);

  for (std::size_t block = 0; block < msg.size(); block += 64) {
    std::array<std::uint32_t, 64> w{};
    for (std::size_t t = 0; t < 16; ++t) {
      for (std::size_t b = 0; b < 4; ++b) {
        w[t] = (w[t] << 8) | static_cast<unsigned char>(msg[block + 4 * t + b]);
      }
    }
    for (std::size_t t = 16; t < 64; ++t) {
      const std::uint32_t s0 = rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const std::uint32_t s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    std::array<std::uint32_t, 8> v = h;
    for (std::size_t t = 0; t < 64; ++t) {
      const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + kRound[t] + w[t];
      const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      v = {t1 + s0 + maj, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
    }
    for (std::size_t i = 0; i < 8; ++i) h[i] += v[i];
  }
  std::string hex;
  for (const std::uint32_t word : h) {
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", word);
    hex += buf;
  }
  return hex;
}

TEST(Sha256, MatchesPublishedVectors) {
  EXPECT_EQ(sha256_hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

/// The world `auric replay` builds with no --data.
struct DefaultWorld {
  netsim::Topology topology;
  netsim::AttributeSchema schema;
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  std::unique_ptr<config::GroundTruthModel> ground_truth;
  config::ConfigAssignment assignment;

  DefaultWorld() {
    netsim::TopologyParams params;
    params.seed = 1;
    params.num_markets = 28;
    params.base_enodebs_per_market = 55;
    topology = netsim::generate_topology(params);
    schema = netsim::AttributeSchema::standard(topology);
    config::GroundTruthParams gt;
    gt.seed = params.seed + 6;
    ground_truth = std::make_unique<config::GroundTruthModel>(topology, schema, catalog, gt);
    assignment = ground_truth->assign();
  }
};

const DefaultWorld& world() {
  static const DefaultWorld w;
  return w;
}

/// File name -> SHA-256 of every file in the state directory after a
/// 14-day replay with `shards` and `mode`.
std::map<std::string, std::string> state_digests(int shards, core::RelearnMode mode) {
  const DefaultWorld& w = world();
  ReplayOptions options;
  options.days = 14;
  options.robust = true;  // the CLI's defaults
  options.rollback.enabled = true;
  options.shards = shards;
  options.relearn_mode = mode;
  options.checkpoint.fsync = false;  // durability only; the bytes are the same
  options.state_dir = (std::filesystem::temp_directory_path() /
                       ("auric_state_golden_" + std::to_string(shards) + "_" +
                        std::to_string(static_cast<int>(mode))))
                          .string();
  std::filesystem::remove_all(options.state_dir);
  OperationReplay replay(w.topology, w.schema, w.catalog, *w.ground_truth, w.assignment, options);
  (void)replay.run();

  std::map<std::string, std::string> digests;
  for (const auto& entry : std::filesystem::directory_iterator(options.state_dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    digests[entry.path().filename().string()] = sha256_hex(bytes);
  }
  std::filesystem::remove_all(options.state_dir);
  return digests;
}

TEST(StateGolden, SerialFullRelearn) {
  const std::map<std::string, std::string> expected = {
      {"applied.log4.csv",
       "651c4d5c0e4413d82efdc21084c15d2f2b99d79ba5807319005c19e565bdc215"},
      {"breaker.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"deferred.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"ems.log33.csv",
       "ac4c06d91d8d4407ea1fedf3f9a07d36420374a610b40200c1f84a27a72d5841"},
      {"journal.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"progress.csv",
       "28d3447745c0b388473952517af0aa5179484c80ef6889e8b63169cb4123735f"},
      {"quarantine.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"relearn.log2.csv",
       "3c97efcc2ec28f3bff1bc29aabac49c617af778db6356f4f4d83403977aa1c4f"},
  };
  EXPECT_EQ(state_digests(1, core::RelearnMode::kFull), expected);
}

TEST(StateGolden, SerialIncrementalRelearn) {
  const std::map<std::string, std::string> expected = {
      {"applied.log4.csv",
       "651c4d5c0e4413d82efdc21084c15d2f2b99d79ba5807319005c19e565bdc215"},
      {"breaker.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"deferred.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"ems.log33.csv",
       "ac4c06d91d8d4407ea1fedf3f9a07d36420374a610b40200c1f84a27a72d5841"},
      {"journal.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"progress.csv",
       "28d3447745c0b388473952517af0aa5179484c80ef6889e8b63169cb4123735f"},
      {"quarantine.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"relearn.log2.csv",
       "3c97efcc2ec28f3bff1bc29aabac49c617af778db6356f4f4d83403977aa1c4f"},
  };
  EXPECT_EQ(state_digests(1, core::RelearnMode::kIncremental), expected);
}

TEST(StateGolden, FourShards) {
  const std::map<std::string, std::string> expected = {
      {"applied.log2.csv",
       "f300dbb7d11c68596c5cbc7551671852d3fda44712718fae1c69c20f70505273"},
      {"breaker.0.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"breaker.1.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"breaker.2.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"breaker.3.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"deferred.0.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"deferred.1.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"deferred.2.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"deferred.3.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"ems.0.log2.csv",
       "14267201a3ff1bc7b3dfb6bb2758a17d03e1b5817be163553852a6c3ac95e669"},
      {"ems.1.log3.csv",
       "a208c34c5949064a09e22d4d00d34829ed854bd8ed0bb1b590d127f074dd1d11"},
      {"ems.2.log3.csv",
       "6462e6f05945ecb8f1f67d6f6894fa23c7a2422a057dc4ec2a6a9e19d280e25b"},
      {"ems.3.log3.csv",
       "efcc5767856addd57d9b1b319e8b0e1e046ae1028e7d2d032984b66a42a69f13"},
      {"journal.0.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"journal.1.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"journal.2.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"journal.3.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"progress.csv",
       "622de5104c70468bcc3012bce2ea767adb5b6e50cc3e8f9b653429a3b56ccc78"},
      {"quarantine.0.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"quarantine.1.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"quarantine.2.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"quarantine.3.log1.csv",
       "fa9547e3d7828cd629ef5b52481c339a6cd74c6c73a32a8d1f6ca4c81668cb35"},
      {"relearn.log2.csv",
       "3c97efcc2ec28f3bff1bc29aabac49c617af778db6356f4f4d83403977aa1c4f"},
  };
  EXPECT_EQ(state_digests(4, core::RelearnMode::kFull), expected);
}

}  // namespace
}  // namespace auric::smartlaunch
