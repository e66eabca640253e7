/// \file test_snapshot_files.cpp
/// \brief The two on-disk snapshot formats, checkpoints ("OMSCKPT1") and
///        partition artifacts ("OMSPART1"): their bytes are pinned by hash,
///        so a refactor of the writers cannot change the format silently,
///        a future checkpoint version is refused, and an overwrite that fails
///        midway must leave the previous file readable.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "oms/api/partition_artifact.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/util/crc32.hpp"
#include "oms/util/io_error.hpp"

namespace oms {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/oms_snapshot_files_" + name;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// FNV-1a over the raw bytes of \p path.
std::uint64_t file_fnv1a(const std::string& path) {
  const std::vector<char> bytes = read_bytes(path);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

/// A hand-built artifact: every serialized field fixed, no run involved.
PartitionArtifact fixed_artifact() {
  PartitionArtifact a;
  a.algo = "oms";
  a.k = 4;
  a.num_nodes = 6;
  a.num_edges = 7;
  a.self_loops_skipped = 2;
  a.seed = 5;
  a.elapsed_s = 0.25;
  a.assignment = {0, 1, 2, 3, 0, 1};
  a.hierarchy.emplace(std::vector<std::int64_t>{2, 2}, std::vector<std::int64_t>{1, 10});
  a.metrics.edge_cut = 5.0;
  a.metrics.imbalance = 0.5;
  a.metrics.mapping_j = 42.0;
  a.rebuild_tree();
  return a;
}

TEST(SnapshotFiles, CheckpointBytesArePinned) {
  CheckpointMeta meta;
  meta.algo = "fennel";
  meta.k = 8;
  meta.seed = 3;
  meta.num_nodes = 100;
  meta.nodes_streamed = 64;
  meta.input_offset = 1234;
  meta.input_line_no = 65;
  CheckpointWriter payload;
  payload.put_u64(64);
  payload.put_i64(-7);
  payload.put_f64(1.5);
  payload.put_string("state");
  const std::string path = temp_path("golden.ckpt");
  write_checkpoint_file(path, meta, payload.bytes());
  EXPECT_EQ(file_fnv1a(path), 0x13e8188a49b30aedULL);
  std::remove(path.c_str());
}

// A checkpoint of a future version, sealed with a valid CRC, is refused by
// its version field (a flipped version byte alone trips the CRC first).
TEST(SnapshotFiles, FutureCheckpointVersionIsRefused) {
  CheckpointMeta meta;
  meta.algo = "fennel";
  const std::string path = temp_path("version.ckpt");
  write_checkpoint_file(path, meta, {});
  std::vector<char> bytes = read_bytes(path);
  bytes[8] = 9; // the u32 version right after the u64 magic
  const std::size_t covered = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = crc32_final(crc32_update(crc32_init(), bytes.data(), covered));
  std::memcpy(bytes.data() + covered, &crc, sizeof crc);
  std::ofstream(path, std::ios::binary).write(bytes.data(),
                                              static_cast<std::streamsize>(bytes.size()));
  try {
    (void)read_checkpoint_file(path);
    ADD_FAILURE() << "a version-9 checkpoint was accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 9"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(SnapshotFiles, ArtifactBytesArePinned) {
  const std::string path = temp_path("golden.part");
  write_artifact(fixed_artifact(), path);
  EXPECT_EQ(file_fnv1a(path), 0xb5d989f927280b68ULL);
  std::remove(path.c_str());
}

// A SNAPSHOT onto the path of a good artifact that fails after it started
// writing (here: the file size limit of a child process) must leave the good
// artifact in place, and no temp file behind.
TEST(SnapshotFiles, FailedArtifactOverwriteKeepsThePreviousArtifact) {
  const std::string path = temp_path("overwrite.part");
  const PartitionArtifact good = fixed_artifact();
  write_artifact(good, path);

  PartitionArtifact big = fixed_artifact();
  big.assignment.assign(1 << 15, 3); // ~128 KiB, far past the limit below
  big.num_nodes = big.assignment.size();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const rlimit limit{4096, 4096};
    std::signal(SIGXFSZ, SIG_IGN);
    int code = 2;
    if (::setrlimit(RLIMIT_FSIZE, &limit) == 0) {
      try {
        write_artifact(big, path);
        code = 1;
      } catch (const IoError&) {
        code = 0;
      }
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "the capped write must raise IoError";

  PartitionArtifact restored;
  ASSERT_NO_THROW(restored = read_artifact(path));
  EXPECT_EQ(restored.assignment, good.assignment);
  EXPECT_EQ(restored.num_nodes, good.num_nodes);
  EXPECT_FALSE(file_exists(path + ".tmp"));

  // An overwrite that succeeds replaces the artifact and leaves no temp file.
  write_artifact(big, path);
  EXPECT_EQ(read_artifact(path).assignment, big.assignment);
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

} // namespace
} // namespace oms
