#include "recover/codec.h"

#include <sstream>

namespace ef::recover {

const char *
error_code_name(ErrorCode code)
{
    switch (code) {
    case ErrorCode::kOk:
        return "ok";
    case ErrorCode::kIoError:
        return "io-error";
    case ErrorCode::kBadMagic:
        return "bad-magic";
    case ErrorCode::kBadVersion:
        return "bad-version";
    case ErrorCode::kChecksumMismatch:
        return "checksum-mismatch";
    case ErrorCode::kTruncated:
        return "truncated";
    case ErrorCode::kBadRecord:
        return "bad-record";
    case ErrorCode::kStateMismatch:
        return "state-mismatch";
    }
    return "unknown";
}

std::uint64_t
checksum(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::uint64_t seed =
        0x6a09e667f3bcc908ULL ^ (len * 0x9e3779b97f4a7c15ULL);
    std::uint64_t lane[4] = {seed, seed + 1, seed + 2, seed + 3};
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        for (int k = 0; k < 4; ++k)
            lane[k] = mix_word(lane[k], load_le(p + i + 8 * k, 8));
    }
    int k = 0;
    for (; i + 8 <= len; i += 8, ++k)
        lane[k] = mix_word(lane[k], load_le(p + i, 8));
    if (i < len)
        lane[k] = mix_word(lane[k], load_le(p + i, len - i));
    std::uint64_t h = lane[0];
    for (k = 1; k < 4; ++k)
        h = mix_word(h, lane[k]);
    return fmix64(h);
}

std::string
Status::to_string() const
{
    std::ostringstream out;
    out << error_code_name(code) << ": " << message;
    if (record >= 0)
        out << " (record " << record;
    if (offset >= 0)
        out << (record >= 0 ? ", " : " (") << "byte " << offset;
    if (record >= 0 || offset >= 0)
        out << ")";
    return out.str();
}

}  // namespace ef::recover
