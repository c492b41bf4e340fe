/**
 * @file
 * DurableLog: a journal directory holding a snapshot chain plus one
 * write-ahead journal whose head carries the live state.
 *
 * Protocol (see DESIGN.md §12):
 *   - A fresh run calls open() (which drops any old journal) and then
 *     writes a checkpoint of its initial state, which is a base, so
 *     recovery always has something to load.
 *   - Steady state appends delta records and ends every round with a
 *     round-commit record followed by commit() — the fsync'd commit
 *     point. Every snapshot_every rounds the owner writes a
 *     checkpoint: one history segment appended to the chain, then a
 *     fresh journal whose head record carries the live state. The
 *     journal's rename is the checkpoint's commit point.
 *   - Recovery calls load() (read-only: a crash during recovery leaves
 *     the directory untouched and recovery simply restarts), replays
 *     the journal records, and only then calls open_existing() and
 *     writes a new base to re-anchor the log at the recovered state.
 */
#ifndef EF_RECOVER_LOG_H_
#define EF_RECOVER_LOG_H_

#include <cstdint>
#include <string>

#include "recover/codec.h"
#include "recover/fields.h"
#include "recover/journal.h"
#include "recover/snapshot.h"

namespace ef::recover {

class DurableLog
{
  public:
    /** snapshot/journal file names inside a journal directory. */
    static std::string snapshot_path(const std::string &dir);
    static std::string journal_path(const std::string &dir);

    /** True when `dir` holds a snapshot to recover from. */
    static bool recoverable(const std::string &dir);

    /**
     * Read-only recovery load. @p checkpoint receives the verified
     * checkpoint that restore_checkpoint() reads: the base, the
     * segments the journal head names and the head's live state.
     * @p contents receives the journal records after the head (torn
     * tails reported via contents->tail). Without a journal, or with
     * one whose head names an older base, the base alone is the
     * checkpoint and the journal counts as empty. Non-ok on an
     * unreadable or corrupt chain or journal head.
     */
    static Status load(const std::string &dir, std::string *checkpoint,
                       JournalContents *contents);

    /**
     * Start writing under `dir` afresh: creates the directory if
     * needed and drops any old journal. The first checkpoint is a
     * base, and must come before any append().
     */
    Status open(const std::string &dir);

    /**
     * Reopen after a recovery load that restored the chain ending at
     * @p tip. The journal's first `journal_bytes` (the reader's
     * JournalContents::valid_bytes; 0 when it counted as empty) stay in
     * place and appending resumes after them; segments past the tip are
     * chopped off. Until the next checkpoint, which is a base, the
     * chain plus the full journal stays recoverable, so a crash before
     * it loses nothing.
     */
    Status open_existing(const std::string &dir, const ChainTip &tip,
                         std::uint64_t journal_bytes);

    /** Commit a base: the chain is replaced by @p base under the next
     *  generation, then the journal restarts with an empty head. */
    Status write_base(const std::string &base);

    /** Commit a cadence checkpoint: append @p segment to the chain,
     *  then restart the journal with @p head. */
    Status write_segment(const std::string &segment, const std::string &head);

    /** Append one delta record (durable at the next commit()). */
    Status append(RecordKind kind, const std::string &body);

    /** fsync'd commit point. */
    Status commit();

    bool is_open() const { return journal_.is_open(); }
    const std::string &dir() const { return dir_; }
    /** This log committed a base, so segments may follow it. */
    bool has_base() const { return has_base_; }
    /** The chain writer's append() cursors (see Emitter). */
    Tails *tails() { return &tails_; }

  private:
    /** Replace the journal with one whose head names tip_. */
    Status restart_journal(const std::string &head);

    std::string dir_;
    JournalWriter journal_;
    ChainTip tip_;
    Tails tails_;
    bool has_base_ = false;
};

/** Views of a checkpoint from DurableLog::load(): its chain and the
 *  head's live state (kBadRecord when malformed). */
Status unpack_checkpoint(const std::string &checkpoint, Chain *chain,
                         std::string_view *head);

/**
 * Commit a checkpoint of @p obj to @p log: a base — @p fingerprint,
 * then every field — when @p base is set or the log has none yet;
 * otherwise a history segment plus a journal head. @p bytes receives
 * the encoded size.
 */
template <class T>
Status
write_checkpoint(DurableLog &log, std::uint64_t fingerprint, T &obj,
                 bool base, std::uint64_t *bytes)
{
    if (base || !log.has_base()) {
        log.tails()->clear();
        const std::string payload =
            encode_section(Section::kBase, log.tails(), fingerprint, obj);
        *bytes = payload.size();
        return log.write_base(payload);
    }
    const std::string segment =
        encode_section(Section::kSegment, log.tails(), obj);
    const std::string head = encode_section(Section::kHead, nullptr, obj);
    *bytes = segment.size() + head.size();
    return log.write_segment(segment, head);
}

/**
 * Restore @p obj from a DurableLog::load() checkpoint: the base, its
 * segments in order, then the head. A base taken under another
 * configuration fingerprint is a typed kStateMismatch. @p tip receives
 * the end of the chain (for DurableLog::open_existing). On failure
 * @p obj is partially overwritten and must not be used.
 */
template <class T>
Status
restore_checkpoint(const std::string &checkpoint, std::uint64_t fingerprint,
                   T &obj, ChainTip *tip)
{
    Chain chain;
    std::string_view head;
    Status st = unpack_checkpoint(checkpoint, &chain, &head);
    if (!st.ok())
        return st;
    std::uint64_t stored = 0;
    if (!Decoder(chain.base).u64(&stored)) {
        return Status::error(ErrorCode::kBadRecord,
                             "snapshot payload is malformed");
    }
    if (stored != fingerprint) {
        return Status::error(ErrorCode::kStateMismatch,
                             "snapshot was taken with a different trace, "
                             "scheduler, or configuration");
    }
    st = decode(chain.base, stored, obj);
    for (std::size_t i = 0; st.ok() && i < chain.segments.size(); ++i)
        st = decode_section(chain.segments[i], Section::kSegment, obj);
    if (st.ok() && !head.empty())
        st = decode_section(head, Section::kHead, obj);
    if (st.ok())
        *tip = chain.tip;
    return st;
}

}  // namespace ef::recover

#endif  // EF_RECOVER_LOG_H_
