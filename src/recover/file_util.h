/**
 * @file
 * Small POSIX file helpers shared by the snapshot and journal code.
 *
 * All raw file I/O in the library tree is confined to src/recover/ (and
 * the trace/CSV loaders) — enforced by the ef-lint `file-io` rule — so
 * these helpers are deliberately the only place that talks to the OS.
 */
#ifndef EF_RECOVER_FILE_UTIL_H_
#define EF_RECOVER_FILE_UTIL_H_

#include <cstdint>
#include <string>

#include "recover/codec.h"

namespace ef::recover {

/** Create `dir` (and parents) if missing. */
Status ensure_dir(const std::string &dir);

/** Read the whole file into `*out` (binary, no size limit checks),
 *  leaving room for @p spare more bytes. */
Status read_whole_file(const std::string &path, std::string *out,
                       std::size_t spare = 0);

/** fsync the directory containing `path` so renames/creates persist. */
Status fsync_parent_dir(const std::string &path);

/** Cut the file at `path` down to its first `bytes` bytes. */
Status truncate_file(const std::string &path, std::uint64_t bytes);

/** True when a file exists at `path`. */
bool file_exists(const std::string &path);

}  // namespace ef::recover

#endif  // EF_RECOVER_FILE_UTIL_H_
