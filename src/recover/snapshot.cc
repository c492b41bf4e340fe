#include "recover/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "recover/file_util.h"

namespace ef::recover {

namespace {

/** Append the frame of one section to @p out; returns its checksum. */
std::uint64_t
append_frame(std::string *out, std::uint64_t generation, std::uint64_t index,
             const std::string &body)
{
    Encoder head;
    head.u64(16 + body.size());
    head.u64(0);  // the checksum, patched in below
    head.u64(generation);
    head.u64(index);
    const std::size_t at = out->size();
    out->reserve(at + head.size() + body.size());
    out->append(head.data());
    out->append(body);
    const std::uint64_t sum = checksum(out->data() + at + 16, 16 + body.size());
    Encoder patch;
    patch.u64(sum);
    out->replace(at + 8, 8, patch.data());
    return sum;
}

Status
io_error(const std::string &what, const std::string &path)
{
    return Status::error(ErrorCode::kIoError,
                         what + " '" + path + "': " + std::strerror(errno));
}

/** Write @p bytes to @p f, flush and fsync; closes @p f. */
Status
write_all(std::FILE *f, const std::string &bytes, const std::string &path)
{
    bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                 bytes.size();
    wrote = wrote && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    if (std::fclose(f) != 0)
        wrote = false;
    return wrote ? Status{} : io_error("short write to", path);
}

}  // namespace

Status
write_base_file(const std::string &path, std::uint64_t generation,
                const std::string &body, ChainTip *tip)
{
    Encoder header;
    header.u32(kSnapshotMagic);
    header.u32(kSnapshotVersion);
    std::string bytes = header.take();
    const std::uint64_t sum = append_frame(&bytes, generation, 0, body);

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return io_error("cannot open for writing", tmp);
    Status st = write_all(f, bytes, tmp);
    if (!st.ok()) {
        std::remove(tmp.c_str());
        return st;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        st = io_error("cannot rename '" + tmp + "' to", path);
        std::remove(tmp.c_str());
        return st;
    }
    // Make the rename itself durable: fsync the containing directory.
    st = fsync_parent_dir(path);
    if (st.ok())
        *tip = ChainTip{generation, 0, bytes.size(), sum};
    return st;
}

Status
append_segment_file(const std::string &path, const std::string &body,
                    ChainTip *tip)
{
    std::string bytes;
    const std::uint64_t sum =
        append_frame(&bytes, tip->generation, tip->segments + 1, body);
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr)
        return io_error("cannot open for appending", path);
    // Drop a segment a crash left uncommitted before appending.
    if (::ftruncate(fileno(f), static_cast<off_t>(tip->bytes)) != 0 ||
        std::fseek(f, 0, SEEK_END) != 0) {
        Status st = io_error("cannot truncate", path);
        std::fclose(f);
        return st;
    }
    Status st = write_all(f, bytes, path);
    if (st.ok()) {
        ++tip->segments;
        tip->bytes += bytes.size();
        tip->checksum = sum;
    }
    return st;
}

Status
parse_chain(std::string_view bytes, const std::string &name,
            const ChainTip *want, bool verify, Chain *out)
{
    *out = Chain{};
    const auto fail = [&](ErrorCode code, const std::string &what,
                          std::size_t offset) {
        *out = Chain{};
        return Status::error(code, "snapshot '" + name + "' " + what, -1,
                             static_cast<std::int64_t>(offset));
    };
    Decoder dec(bytes);
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    if (!dec.u32(&magic) || !dec.u32(&version))
        return fail(ErrorCode::kTruncated, "is shorter than its header",
                    bytes.size());
    if (magic != kSnapshotMagic)
        return Status::error(ErrorCode::kBadMagic,
                             "'" + name + "' is not a snapshot file", -1,
                             0);
    if (version != kSnapshotVersion)
        return Status::error(ErrorCode::kBadVersion,
                             "snapshot '" + name + "' has version " +
                                 std::to_string(version) + ", expected " +
                                 std::to_string(kSnapshotVersion),
                             -1, 4);

    // Sections in order: each verified before a byte of it is used.
    bool paired = false;
    std::uint64_t count = 1;
    for (std::uint64_t index = 0; index < count; ++index) {
        const std::size_t at = dec.position();
        const std::string where = "section " + std::to_string(index);
        std::uint64_t len = 0;
        std::uint64_t sum = 0;
        if (!dec.u64(&len) || !dec.u64(&sum) || len > dec.remaining())
            return fail(ErrorCode::kTruncated, "ends inside " + where, at);
        const std::uint8_t *section = dec.bytes(len);
        if (verify && checksum(section, len) != sum)
            return fail(ErrorCode::kChecksumMismatch,
                        where + " checksum mismatch", at);
        if (len < 16)
            return fail(ErrorCode::kBadRecord,
                        where + " is shorter than its header", at);
        const std::uint64_t generation = load_le(section, 8);
        const std::uint64_t stored_index = load_le(section + 8, 8);
        if (index == 0) {
            if (want != nullptr && generation < want->generation)
                return fail(ErrorCode::kBadRecord,
                            "is older than the journal head's base", at);
            out->tip.generation = generation;
            // A head of an older base is subsumed by this one.
            paired = want != nullptr && generation == want->generation;
            if (paired)
                count += want->segments;
        }
        if (generation != out->tip.generation || stored_index != index)
            return fail(ErrorCode::kBadRecord,
                        where + " is out of order (generation " +
                            std::to_string(generation) + ", index " +
                            std::to_string(stored_index) + ")",
                        at);
        const std::string_view body(
            reinterpret_cast<const char *>(section) + 16, len - 16);
        if (index == 0)
            out->base = body;
        else
            out->segments.push_back(body);
        out->tip.segments = index;
        out->tip.bytes = dec.position();
        out->tip.checksum = sum;
    }
    if (paired && out->tip != *want)
        return fail(ErrorCode::kBadRecord,
                    "does not end where the journal head says",
                    out->tip.bytes);
    return Status{};
}

}  // namespace ef::recover
