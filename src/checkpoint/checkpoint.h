// Durable checkpoint container.
//
// A snapshot file is a fixed header followed by an opaque serialized
// payload (serializer.h):
//
//   bytes 0..7    magic "GHCKPT01"
//   u32           snapshot version (kSnapshotVersion; layout contract)
//   u64           epoch index the snapshot was taken at
//   u64           config hash (scenario fingerprint; resume refuses a
//                 snapshot taken under a different scenario)
//   u64           payload size in bytes
//   u64           FNV-1a checksum of the payload
//   payload
//
// Files are written as `ckpt-<epoch>.bin` via temp-file + rename, so a
// crash during a checkpoint leaves the previous complete snapshot and at
// worst a stale `.tmp` — never a torn `ckpt-*.bin`.  `load_latest` scans
// newest-first and skips anything that fails validation, so resume always
// lands on the newest snapshot that was durably completed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/serializer.h"

namespace greenhetero::checkpoint {

/// Bump on any serialized-layout change; old snapshots are refused.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// A validated snapshot read back from disk.
struct Snapshot {
  std::uint64_t epoch_index = 0;
  std::uint64_t config_hash = 0;
  std::string payload;
  std::filesystem::path path;
};

/// Writes `dir/ckpt-<epoch>.bin` atomically, creating `dir` if needed.
/// When `keep_last` > 0, older snapshots beyond the newest `keep_last`
/// are pruned after the rename (never before — the new snapshot must be
/// durable first).
void write_snapshot(const std::filesystem::path& dir,
                    std::uint64_t epoch_index, std::uint64_t config_hash,
                    std::string_view payload, int keep_last = 2);

/// All `ckpt-*.bin` files in `dir`, sorted by ascending epoch index.
[[nodiscard]] std::vector<std::filesystem::path> list_snapshots(
    const std::filesystem::path& dir);

/// Reads and fully validates one snapshot file; throws CheckpointError on
/// a bad magic, unsupported version, size mismatch, or checksum failure.
[[nodiscard]] Snapshot load_snapshot(const std::filesystem::path& path);

/// The newest snapshot in `dir` that validates; corrupt or torn files are
/// skipped.  Returns nullopt when the directory holds no valid snapshot.
[[nodiscard]] std::optional<Snapshot> load_latest(
    const std::filesystem::path& dir);

}  // namespace greenhetero::checkpoint
