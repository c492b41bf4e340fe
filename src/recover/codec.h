/**
 * @file
 * Byte codec and typed error surface for the durability subsystem.
 *
 * Snapshots and journal records are encoded with a tiny explicit
 * little-endian codec (no struct dumps, no padding, no endianness
 * surprises) so the on-disk format is portable and versionable. The
 * decoder is written to be safe against arbitrary bytes: every read is
 * bounds-checked, counts are sanity-capped against the remaining input,
 * and failure is reported through a sticky flag plus a typed Status —
 * corrupt input can never index out of bounds or abort the process.
 */
#ifndef EF_RECOVER_CODEC_H_
#define EF_RECOVER_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace ef::recover {

/** Failure classes surfaced by snapshot/journal load paths. */
enum class ErrorCode {
    kOk = 0,
    /** open/read/write/rename/fsync failed at the OS level. */
    kIoError,
    /** File does not start with the expected magic number. */
    kBadMagic,
    /** Magic matched but the format version is unsupported. */
    kBadVersion,
    /** Stored checksum does not match the payload bytes. */
    kChecksumMismatch,
    /** File ends mid-record or mid-field (torn write). */
    kTruncated,
    /** Record framing or payload structure is malformed. */
    kBadRecord,
    /** Decoded state is incompatible with the running configuration. */
    kStateMismatch,
};

/** Stable lowercase name for an ErrorCode ("checksum-mismatch", ...). */
const char *error_code_name(ErrorCode code);

/**
 * Checksum of every durable byte (snapshot sections and journal
 * records). It reads the input as little-endian 8-byte words, so the
 * value does not depend on the host's byte order, into four lanes
 * (word i to lane i mod 4) that run independently, then folds the
 * lanes. The length seeds every lane, and the last 0-7 bytes enter as
 * one zero-padded word. Each step — a word into its lane, a lane into
 * the fold — is a bijection of the running state, so any change
 * confined to one word is always detected.
 */
std::uint64_t checksum(const void *data, std::size_t len);

inline std::uint64_t
checksum(const std::string &bytes)
{
    return checksum(bytes.data(), bytes.size());
}

/**
 * Typed result of a durability operation. `record` and `offset` locate
 * the failure inside a journal (0-based record index, byte offset) when
 * known; -1 otherwise. Never carries partial state: callers must treat
 * any !ok() status as "the operation did not happen".
 */
struct Status
{
    ErrorCode code = ErrorCode::kOk;
    std::string message;
    std::int64_t record = -1;
    std::int64_t offset = -1;

    bool ok() const { return code == ErrorCode::kOk; }

    static Status
    error(ErrorCode code, std::string message, std::int64_t record = -1,
          std::int64_t offset = -1)
    {
        return Status{code, std::move(message), record, offset};
    }

    /** One-line human-readable rendering with record/offset context. */
    std::string to_string() const;
};

/** Append-only little-endian encoder over an owned byte buffer. */
class Encoder
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
        buf_.append(bytes, sizeof(bytes));
    }

    /** Encode a double by bit pattern (bit-exact round trip). */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    const std::string &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }
    /** Move the bytes out, leaving the encoder empty. */
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Bounds-checked reader over a borrowed byte buffer. All reads return
 * false (and leave the output untouched) once the input underruns or a
 * structural check fails; the failure is sticky, so a decode routine
 * can issue all its reads and test ok() once at the end.
 */
class Decoder
{
  public:
    /** Reads @p bytes, which must outlive the decoder. */
    explicit Decoder(std::string_view bytes)
        : data_(reinterpret_cast<const std::uint8_t *>(bytes.data())),
          size_(bytes.size())
    {
    }

    bool ok() const { return ok_; }
    std::size_t remaining() const { return size_ - pos_; }
    bool empty() const { return pos_ == size_; }
    /** Bytes consumed so far. */
    std::size_t position() const { return pos_; }

    /** Step over @p n bytes. */
    bool skip(std::size_t n) { return take(n); }

    /** The next @p n bytes, stepped over; null on underrun. */
    const std::uint8_t *
    bytes(std::size_t n)
    {
        return take(n) ? data_ + pos_ - n : nullptr;
    }

    bool
    u8(std::uint8_t *v)
    {
        if (!take(1))
            return false;
        *v = data_[pos_ - 1];
        return true;
    }

    bool
    u32(std::uint32_t *v)
    {
        if (!take(4))
            return false;
        *v = static_cast<std::uint32_t>(load_le(data_ + pos_ - 4, 4));
        return true;
    }

    bool
    u64(std::uint64_t *v)
    {
        if (!take(8))
            return false;
        *v = load_le(data_ + pos_ - 8, 8);
        return true;
    }

    bool
    f64(double *v)
    {
        std::uint64_t bits = 0;
        if (!u64(&bits))
            return false;
        std::memcpy(v, &bits, sizeof(bits));
        return true;
    }

    bool
    boolean(bool *v)
    {
        std::uint8_t raw = 0;
        if (!u8(&raw))
            return false;
        if (raw > 1) {
            ok_ = false;
            return false;
        }
        *v = raw != 0;
        return true;
    }

    bool
    str(std::string *s)
    {
        std::uint64_t len = 0;
        if (!u64(&len))
            return false;
        if (len > remaining()) {
            ok_ = false;
            return false;
        }
        s->assign(reinterpret_cast<const char *>(data_ + pos_),
                  static_cast<std::size_t>(len));
        pos_ += static_cast<std::size_t>(len);
        return true;
    }

    /**
     * Read an element count that is about to drive a loop of reads of
     * at least one byte each. Rejects counts that could not possibly
     * fit in the remaining input, so a corrupted length can never
     * cause an attacker-controlled allocation or spin.
     */
    bool
    count(std::uint64_t *n)
    {
        if (!u64(n))
            return false;
        if (*n > remaining()) {
            ok_ = false;
            return false;
        }
        return true;
    }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || remaining() < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

}  // namespace ef::recover

#endif  // EF_RECOVER_CODEC_H_
