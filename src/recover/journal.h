/**
 * @file
 * Write-ahead journal: checksummed record framing over an append-only
 * file, with explicit fsync'd commit points.
 *
 * File layout:
 *
 *     [u32 magic "EFJL"] [u32 version]
 *     repeated: [u32 payload_len] [u64 checksum(payload)] [payload]
 *
 * where payload[0] is a RecordKind byte and the rest is a
 * recover::Encoder body owned by the record's producer. The first
 * record is a kHead written together with the file header, which is
 * replaced as a whole (temp file, fsync, rename) at every checkpoint;
 * later records are appended in place. Records become
 * durable only at commit() (fflush + fsync); a crash between appends
 * leaves a torn tail that the reader detects by checksum/length and
 * discards, returning every record up to the last valid boundary plus
 * a typed tail status. Structural corruption at the head of the file
 * (bad magic, unsupported version) is a hard typed error instead —
 * there is no valid prefix to recover.
 */
#ifndef EF_RECOVER_JOURNAL_H_
#define EF_RECOVER_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "recover/codec.h"

namespace ef::recover {

/** "EFJL" little-endian: ElasticFlow JournaL. */
constexpr std::uint32_t kJournalMagic = 0x4c4a4645u;
/** 2: record bodies use the recover/fields.h value encoding.
 *  3: word-at-a-time checksums; the first record is a kHead.
 *  4: the plan-commit, fault and defrag kinds are gone (nothing read
 *     them back); the simulator writes only round commits.
 *  5: the state hashes that round commits carry (simulator and
 *     service) are chained with the word hasher, not FNV-1a. */
constexpr std::uint32_t kJournalVersion = 5;

/**
 * Record kinds shared by the simulator and the serve-mode front end.
 * The simulator writes kHead and kRoundCommit only; the service also
 * writes kSubmission, kVerdict and kAdvance. Values are part of the
 * on-disk format: never reuse a removed one (4, 5, 7).
 */
enum class RecordKind : std::uint8_t {
    /**
     * Round boundary: the state hash chained at this round plus the
     * scheduler-crash cursor. Every commit() in steady state happens
     * right after appending one of these.
     */
    kRoundCommit = 1,
    /** A job submission accepted into the control plane. */
    kSubmission = 2,
    /** An admission/shed verdict that was issued to the caller. */
    kVerdict = 3,
    /** An explicit external clock advance (serve mode only). */
    kAdvance = 6,
    /**
     * First record of every journal: the snapshot chain it pairs with
     * (generation, segment count, bytes, last checksum), then the live
     * state of the checkpoint (DESIGN.md §12).
     */
    kHead = 8,
};

/** Stable lowercase name ("round-commit", ...) for diagnostics. */
const char *record_kind_name(RecordKind kind);

/** One decoded journal record: kind byte plus opaque body. */
struct JournalRecord
{
    RecordKind kind = RecordKind::kRoundCommit;
    std::string body;
};

/** Result of scanning a journal file. */
struct JournalContents
{
    /** Every structurally valid record, in append order. */
    std::vector<JournalRecord> records;
    /**
     * kOk when the file ended exactly on a record boundary; otherwise
     * a typed description of the torn/corrupt tail that was discarded
     * (record index and byte offset filled in). Either way `records`
     * holds everything before the anomaly.
     */
    Status tail;
    /** Byte offset one past the last valid record. */
    std::uint64_t valid_bytes = 0;
};

/**
 * Scan the journal at `path`. Returns non-ok only for unrecoverable
 * problems (unreadable file, bad magic, unsupported version); torn or
 * corrupt tails are reported through JournalContents::tail with the
 * valid prefix intact.
 */
Status read_journal(const std::string &path, JournalContents *out);

/** Append-side handle. Not thread-safe; one writer per journal. */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Reopen `path` for appending after a recovery load:
     * `existing_bytes` (read_journal's valid_bytes) says where
     * appending resumes, so a torn tail is chopped off before new
     * records land.
     */
    Status reopen(const std::string &path, std::uint64_t existing_bytes);

    /**
     * Atomically replace `path` with a fresh journal whose first
     * record is the kHead @p head: written to `<path>.tmp`, fsync'd,
     * renamed over `path`, directory fsync'd. The rename is a
     * checkpoint's commit point; appends continue in the new file.
     */
    Status restart(const std::string &path, const std::string &head);

    /** Buffer one record (kind + body). Durable only after commit(). */
    Status append(RecordKind kind, const std::string &body);

    /** Commit point: flush + fsync everything appended so far. */
    Status commit();

    bool is_open() const { return file_ != nullptr; }

    void close();

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
};

}  // namespace ef::recover

#endif  // EF_RECOVER_JOURNAL_H_
