#include "recover/journal.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "recover/file_util.h"

namespace ef::recover {

namespace {

/** Sanity cap on a single record: corrupt lengths fail fast. */
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

/** Frame + payload of one record. */
std::string
record_bytes(RecordKind kind, const std::string &body)
{
    std::string payload;
    payload.reserve(body.size() + 1);
    payload.push_back(static_cast<char>(kind));
    payload.append(body);
    Encoder frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u64(checksum(payload));
    std::string bytes = frame.take();
    bytes.append(payload);
    return bytes;
}

}  // namespace

const char *
record_kind_name(RecordKind kind)
{
    switch (kind) {
    case RecordKind::kRoundCommit:
        return "round-commit";
    case RecordKind::kSubmission:
        return "submission";
    case RecordKind::kVerdict:
        return "verdict";
    case RecordKind::kAdvance:
        return "advance";
    case RecordKind::kHead:
        return "head";
    }
    return "unknown";
}

Status
read_journal(const std::string &path, JournalContents *out)
{
    out->records.clear();
    out->tail = Status{};
    out->valid_bytes = 0;

    std::string bytes;
    Status st = read_whole_file(path, &bytes);
    if (!st.ok())
        return st;

    Decoder dec(bytes);
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    if (!dec.u32(&magic) || !dec.u32(&version))
        return Status::error(ErrorCode::kTruncated,
                             "journal '" + path +
                                 "' is shorter than its header",
                             -1, static_cast<std::int64_t>(bytes.size()));
    if (magic != kJournalMagic)
        return Status::error(ErrorCode::kBadMagic,
                             "'" + path + "' is not a journal file", -1,
                             0);
    if (version != kJournalVersion)
        return Status::error(ErrorCode::kBadVersion,
                             "journal '" + path + "' has version " +
                                 std::to_string(version) + ", expected " +
                                 std::to_string(kJournalVersion),
                             -1, 4);
    out->valid_bytes = 8;

    std::int64_t index = 0;
    while (!dec.empty()) {
        std::uint64_t offset = bytes.size() - dec.remaining();
        std::uint32_t len = 0;
        std::uint64_t checksum = 0;
        if (!dec.u32(&len) || !dec.u64(&checksum) ||
            dec.remaining() < len) {
            out->tail = Status::error(
                ErrorCode::kTruncated,
                "journal '" + path + "' ends mid-record; " +
                    std::to_string(out->records.size()) +
                    " committed record(s) retained",
                index, static_cast<std::int64_t>(offset));
            return Status{};
        }
        if (len == 0 || len > kMaxRecordBytes) {
            out->tail = Status::error(
                ErrorCode::kBadRecord,
                "journal '" + path + "' record has impossible length " +
                    std::to_string(len),
                index, static_cast<std::int64_t>(offset));
            return Status{};
        }
        const char *payload = bytes.data() + dec.position();
        if (recover::checksum(payload, len) != checksum) {
            out->tail = Status::error(
                ErrorCode::kChecksumMismatch,
                "journal '" + path + "' record checksum mismatch; " +
                    std::to_string(out->records.size()) +
                    " committed record(s) retained",
                index, static_cast<std::int64_t>(offset));
            return Status{};
        }
        dec.skip(len);
        JournalRecord rec;
        std::uint8_t kind_byte = static_cast<std::uint8_t>(payload[0]);
        rec.kind = static_cast<RecordKind>(kind_byte);
        if (record_kind_name(rec.kind) == std::string("unknown")) {
            out->tail = Status::error(
                ErrorCode::kBadRecord,
                "journal '" + path + "' record has unknown kind " +
                    std::to_string(static_cast<int>(kind_byte)),
                index, static_cast<std::int64_t>(offset));
            return Status{};
        }
        rec.body.assign(payload + 1, len - 1);
        out->records.push_back(std::move(rec));
        out->valid_bytes = bytes.size() - dec.remaining();
        ++index;
    }
    return Status{};
}

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::close()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

Status
JournalWriter::reopen(const std::string &path, std::uint64_t existing_bytes)
{
    close();
    path_ = path;
    file_ = std::fopen(path.c_str(), "r+b");
    if (file_ == nullptr)
        return Status::error(ErrorCode::kIoError,
                             "cannot open journal '" + path +
                                 "': " + std::strerror(errno));
    // Chop any torn tail off before appending: new records must start
    // at the last valid boundary the reader established.
    if (::ftruncate(fileno(file_),
                    static_cast<off_t>(existing_bytes)) != 0 ||
        std::fseek(file_, 0, SEEK_END) != 0) {
        Status st = Status::error(ErrorCode::kIoError,
                                  "cannot truncate journal '" + path +
                                      "': " + std::strerror(errno));
        close();
        return st;
    }
    return Status{};
}

Status
JournalWriter::restart(const std::string &path, const std::string &head)
{
    close();
    path_ = path;
    const std::string tmp = path + ".tmp";
    file_ = std::fopen(tmp.c_str(), "wb");
    if (file_ == nullptr)
        return Status::error(ErrorCode::kIoError,
                             "cannot create journal '" + tmp +
                                 "': " + std::strerror(errno));
    Encoder header;
    header.u32(kJournalMagic);
    header.u32(kJournalVersion);
    std::string bytes = header.take();
    bytes.append(record_bytes(RecordKind::kHead, head));
    if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
        close();
        return Status::error(ErrorCode::kIoError,
                             "short write to journal '" + tmp +
                                 "': " + std::strerror(errno));
    }
    Status st = commit();
    if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
        st = Status::error(ErrorCode::kIoError,
                           "cannot rename '" + tmp + "' to '" + path +
                               "': " + std::strerror(errno));
    }
    if (st.ok())
        st = fsync_parent_dir(path);
    if (!st.ok())
        close();
    return st;
}

Status
JournalWriter::append(RecordKind kind, const std::string &body)
{
    if (file_ == nullptr)
        return Status::error(ErrorCode::kIoError,
                             "journal '" + path_ + "' is not open");
    const std::string bytes = record_bytes(kind, body);
    if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size())
        return Status::error(ErrorCode::kIoError,
                             "short write to journal '" + path_ +
                                 "': " + std::strerror(errno));
    return Status{};
}

Status
JournalWriter::commit()
{
    if (file_ == nullptr)
        return Status::error(ErrorCode::kIoError,
                             "journal '" + path_ + "' is not open");
    if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0)
        return Status::error(ErrorCode::kIoError,
                             "cannot sync journal '" + path_ +
                                 "': " + std::strerror(errno));
    return Status{};
}

}  // namespace ef::recover
