/**
 * @file
 * Versioned, checksummed snapshot files with atomic replacement.
 *
 * A snapshot is an opaque payload (the owner encodes full scheduler or
 * simulator state through recover::Encoder) wrapped in a fixed header:
 *
 *     [u32 magic "EFSN"] [u32 version] [u64 payload_len]
 *     [u64 fnv1a(payload)] [payload bytes]
 *
 * Writes go to `<path>.tmp`, are flushed and fsync'd, then renamed over
 * the destination, so a crash mid-write can never destroy the previous
 * snapshot: readers see either the old complete file or the new one.
 * Reads verify magic, version, length, and checksum before returning a
 * byte of payload, and report failures as typed recover::Status values
 * instead of aborting — a corrupt snapshot is an input error, not a
 * programming error.
 */
#ifndef EF_RECOVER_SNAPSHOT_H_
#define EF_RECOVER_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "recover/codec.h"

namespace ef::recover {

/** "EFSN" little-endian: ElasticFlow SNapshot. */
constexpr std::uint32_t kSnapshotMagic = 0x4e534645u;
/** 2: payloads follow each type's fields() order (recover/fields.h).
 *  3: split() tables (the placement's GPU and server columns) carry
 *  their length. */
constexpr std::uint32_t kSnapshotVersion = 3;

/**
 * Atomically replace `path` with a snapshot wrapping `payload`.
 * fsyncs the temp file (and the containing directory) before the
 * rename so the bytes are durable at return.
 */
Status write_snapshot_file(const std::string &path,
                           const std::string &payload);

/**
 * Load and verify the snapshot at `path` into `*payload`.
 * On any failure `*payload` is left empty and the returned status
 * carries the failing byte offset where applicable.
 */
Status read_snapshot_file(const std::string &path, std::string *payload);

}  // namespace ef::recover

#endif  // EF_RECOVER_SNAPSHOT_H_
