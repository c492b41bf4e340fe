#include "recover/log.h"

#include <cstdio>

#include "recover/file_util.h"

namespace ef::recover {

namespace {

/** Bytes of the chain tip at the front of a head record. */
constexpr std::size_t kTipBytes = 32;

}  // namespace

std::string
DurableLog::snapshot_path(const std::string &dir)
{
    return dir + "/snapshot.bin";
}

std::string
DurableLog::journal_path(const std::string &dir)
{
    return dir + "/journal.bin";
}

bool
DurableLog::recoverable(const std::string &dir)
{
    return file_exists(snapshot_path(dir));
}

Status
DurableLog::load(const std::string &dir, std::string *checkpoint,
                 JournalContents *contents)
{
    checkpoint->clear();
    *contents = JournalContents{};
    ChainTip want;
    std::string head;
    const bool has_journal = file_exists(journal_path(dir));
    if (has_journal) {
        Status st = read_journal(journal_path(dir), contents);
        if (!st.ok())
            return st;
        // The head is written with the file header in one atomic
        // replace: a journal without an intact one is damaged, and a
        // damaged head is the reason the reader stopped.
        if (contents->records.empty() && !contents->tail.ok()) {
            st = contents->tail;
            *contents = JournalContents{};
            return st;
        }
        if (!contents->records.empty() &&
            contents->records.front().kind == RecordKind::kHead) {
            head = std::move(contents->records.front().body);
            contents->records.erase(contents->records.begin());
        }
        Decoder dec(head);
        if (!dec.u64(&want.generation) || !dec.u64(&want.segments) ||
            !dec.u64(&want.bytes) || !dec.u64(&want.checksum)) {
            *contents = JournalContents{};
            return Status::error(ErrorCode::kBadRecord,
                                 "journal '" + journal_path(dir) +
                                     "' has no head record",
                                 0, 8);
        }
    }
    // The checkpoint is the chain's bytes as read, then the head's
    // live state and a trailer: its length and the chain's tip.
    Chain chain;
    Status st = read_whole_file(snapshot_path(dir), checkpoint,
                                head.size() + 64);
    if (st.ok()) {
        st = parse_chain(*checkpoint, snapshot_path(dir),
                         has_journal ? &want : nullptr, /*verify=*/true,
                         &chain);
    }
    if (!st.ok()) {
        checkpoint->clear();
        *contents = JournalContents{};
        return st;
    }
    checkpoint->resize(chain.tip.bytes);
    if (!has_journal || chain.tip.generation != want.generation) {
        // A base newer than the journal's head subsumes the journal.
        *contents = JournalContents{};
        head.clear();
    }
    Encoder trailer;
    trailer.u64(head.size() > kTipBytes ? head.size() - kTipBytes : 0);
    trailer.u64(chain.tip.generation);
    trailer.u64(chain.tip.segments);
    trailer.u64(chain.tip.bytes);
    trailer.u64(chain.tip.checksum);
    if (head.size() > kTipBytes)
        checkpoint->append(head, kTipBytes);
    checkpoint->append(trailer.data());
    return Status{};
}

Status
unpack_checkpoint(const std::string &checkpoint, Chain *chain,
                  std::string_view *head)
{
    *chain = Chain{};
    const auto malformed = [] {
        return Status::error(ErrorCode::kBadRecord,
                             "checkpoint is malformed");
    };
    constexpr std::size_t kTrailer = 8 + kTipBytes;
    if (checkpoint.size() < kTrailer)
        return malformed();
    Decoder dec(std::string_view(checkpoint).substr(checkpoint.size() -
                                                    kTrailer));
    std::uint64_t live = 0;
    ChainTip tip;
    dec.u64(&live);
    dec.u64(&tip.generation);
    dec.u64(&tip.segments);
    dec.u64(&tip.bytes);
    dec.u64(&tip.checksum);
    if (live > checkpoint.size() - kTrailer ||
        tip.bytes != checkpoint.size() - kTrailer - live)
        return malformed();
    *head = std::string_view(checkpoint).substr(tip.bytes, live);
    Status st = parse_chain(std::string_view(checkpoint).substr(0, tip.bytes),
                            "checkpoint", &tip, /*verify=*/false, chain);
    return st.ok() && chain->tip == tip ? st : malformed();
}

Status
DurableLog::open(const std::string &dir)
{
    Status st = ensure_dir(dir);
    if (!st.ok())
        return st;
    dir_ = dir;
    journal_.close();
    tip_ = ChainTip{};
    tails_.clear();
    has_base_ = false;
    // An old journal must not pair with the coming base.
    if (file_exists(journal_path(dir)) &&
        std::remove(journal_path(dir).c_str()) != 0) {
        return Status::error(ErrorCode::kIoError,
                             "cannot remove '" + journal_path(dir) + "'");
    }
    return fsync_parent_dir(journal_path(dir));
}

Status
DurableLog::open_existing(const std::string &dir, const ChainTip &tip,
                          std::uint64_t journal_bytes)
{
    Status st = ensure_dir(dir);
    if (!st.ok())
        return st;
    dir_ = dir;
    tip_ = tip;
    tails_.clear();
    has_base_ = false;
    st = truncate_file(snapshot_path(dir), tip.bytes);
    if (!st.ok())
        return st;
    if (journal_bytes == 0)
        return restart_journal("");
    return journal_.reopen(journal_path(dir), journal_bytes);
}

Status
DurableLog::write_base(const std::string &base)
{
    has_base_ = false;
    Status st = write_base_file(snapshot_path(dir_), tip_.generation + 1,
                                base, &tip_);
    if (st.ok())
        st = restart_journal("");
    has_base_ = st.ok();
    return st;
}

Status
DurableLog::write_segment(const std::string &segment, const std::string &head)
{
    // A failure leaves the log needing a base.
    has_base_ = false;
    Status st = append_segment_file(snapshot_path(dir_), segment, &tip_);
    if (st.ok())
        st = restart_journal(head);
    has_base_ = st.ok();
    return st;
}

Status
DurableLog::restart_journal(const std::string &head)
{
    Encoder record;
    record.u64(tip_.generation);
    record.u64(tip_.segments);
    record.u64(tip_.bytes);
    record.u64(tip_.checksum);
    std::string body = record.take();
    body.append(head);
    return journal_.restart(journal_path(dir_), body);
}

Status
DurableLog::append(RecordKind kind, const std::string &body)
{
    return journal_.append(kind, body);
}

Status
DurableLog::commit()
{
    return journal_.commit();
}

}  // namespace ef::recover
