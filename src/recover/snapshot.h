/**
 * @file
 * The snapshot file: a checksummed chain of one base and the history
 * segments appended after it (DESIGN.md §12).
 *
 *     [u32 magic "EFSN"] [u32 version]
 *     repeated: [u64 len] [u64 checksum(section)] [section]
 *     section = [u64 generation] [u64 index] [body]
 *
 * Section 0 is the base, a full encode of the owner's state; section
 * i > 0 is the i-th history segment, which holds only what became
 * final since section i - 1. A base replaces the whole file atomically
 * (write `<path>.tmp`, fsync, rename, fsync the directory) under a new
 * generation, so a crash mid-write leaves the previous chain intact.
 * A segment is appended in place and fsync'd; it counts only once a
 * journal head names it, so a torn or uncommitted segment at the end
 * is ignored. Reads verify magic, version, every frame's length and
 * checksum, and each section's generation and index, and report
 * failures as typed recover::Status values instead of aborting.
 */
#ifndef EF_RECOVER_SNAPSHOT_H_
#define EF_RECOVER_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "recover/codec.h"

namespace ef::recover {

/** "EFSN" little-endian: ElasticFlow SNapshot. */
constexpr std::uint32_t kSnapshotMagic = 0x4e534645u;
/** 2: payloads follow each type's fields() order (recover/fields.h).
 *  3: split() tables (the placement's GPU and server columns) carry
 *  their length.
 *  4: a chain of a base and history segments, each framed with its own
 *  word-at-a-time checksum.
 *  5: the service's active jobs travel as id-ordered rows with their GPU
 *  counts in an aligned column, instead of as id-keyed maps.
 *  6: the simulator carries no service queue or governor, its run
 *  totals no service counters, and its event kinds no service round.
 *  7: the chained state hashes it carries come from the word hasher,
 *  not FNV-1a.
 *  8: the simulator's job rows carry no spec, curve, noise factor or
 *  attained-service copy (the trace and config rebuild them), and its
 *  fingerprint covers every spec field, the topology and the noise.
 *  9: no defrag state, defrag presence byte in the fingerprint or
 *  defrag totals in the simulator's run totals. */
constexpr std::uint32_t kSnapshotVersion = 9;

/** The end of a chain: what a journal head pairs with. */
struct ChainTip
{
    /** Generation of the base; every base write takes the next one. */
    std::uint64_t generation = 0;
    /** History segments after the base. */
    std::uint64_t segments = 0;
    /** File bytes through the last counted section. */
    std::uint64_t bytes = 0;
    /** Checksum of the last counted section. */
    std::uint64_t checksum = 0;

    bool operator==(const ChainTip &) const = default;
};

/** A verified chain: views into the bytes it was parsed from. */
struct Chain
{
    ChainTip tip;
    std::string_view base;
    std::vector<std::string_view> segments;
};

/**
 * Atomically replace `path` with a chain holding only a base of
 * generation @p generation. fsyncs the file and its directory before
 * returning; @p tip receives the new chain's end.
 */
Status write_base_file(const std::string &path, std::uint64_t generation,
                       const std::string &body, ChainTip *tip);

/**
 * Append the next history segment after @p tip (bytes past
 * tip->bytes are dropped first) and fsync; advances @p tip.
 */
Status append_segment_file(const std::string &path, const std::string &body,
                           ChainTip *tip);

/**
 * Parse the chain in @p bytes (a snapshot file's contents; @p name
 * names it in messages) that a journal head naming @p want pairs with: the
 * base, then want->segments segments, the last ending at want->bytes
 * with checksum want->checksum; anything after that is ignored. Only
 * the base is read when @p want is null or names an older generation
 * than the base (the base then subsumes the head); a head naming a
 * newer generation is kBadRecord. out->tip describes what was read.
 * With @p verify false the section checksums are not recomputed (for
 * bytes verified before). On failure @p out is left empty.
 */
Status parse_chain(std::string_view bytes, const std::string &name,
                   const ChainTip *want, bool verify, Chain *out);

}  // namespace ef::recover

#endif  // EF_RECOVER_SNAPSHOT_H_
