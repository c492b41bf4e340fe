/**
 * @file
 * 64-bit hashing: the word hasher behind every state digest, the mixing
 * step and finaliser it shares with recover::checksum, and FNV-1a for
 * the cold configuration and trace fingerprints.
 *
 * The runtime determinism auditor folds all determinism-relevant
 * scheduler + simulator state (job queue, allocations, event clock, RNG
 * cursors) into one digest at every replan; two runs of the same trace
 * and config must produce identical digests or a hidden nondeterminism
 * source crept in. The digest is taken at every replan, so its cost is
 * the cost per field: WordHash mixes each field as one 64-bit word with
 * one multiply, where FNV-1a mixes its eight bytes with eight dependent
 * multiplies. Fields enter by value (integers) or by bit pattern
 * (doubles), never by memory layout, so digests do not depend on the
 * host's endianness.
 *
 * Exactness: for a fixed word, mix_word() is a bijection of the state
 * (xor, multiply by an odd constant, rotate), and for a fixed state it
 * is a bijection of the word. Two streams of the same length that
 * differ in one field reach different states at that field, keep them
 * to the end, and — the finaliser being a bijection too — always digest
 * differently, as with FNV-1a. Collision resistance beyond that is not
 * a goal: a divergence flips essentially every later sample.
 */
#ifndef EF_COMMON_HASH_H_
#define EF_COMMON_HASH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace ef {

/** Little-endian value of the @p n <= 8 bytes at @p p, zero-padded. */
inline std::uint64_t
load_le(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&w, p, n);
    } else {
        for (std::size_t b = 0; b < n; ++b)
            w |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    }
    return w;
}

/** The one mixing step of WordHash and recover::checksum: word @p w
 *  into state @p h. */
constexpr std::uint64_t
mix_word(std::uint64_t h, std::uint64_t w)
{
    return std::rotl((h ^ w) * 0x9e3779b97f4a7c15ULL, 29);
}

/** Murmur3's 64-bit finaliser: every input bit reaches every output
 *  bit. */
constexpr std::uint64_t
fmix64(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/**
 * Incremental word hasher: one mix_word() per field, finalised by
 * fmix64(), so wrapping sums of digests add well-mixed terms. The
 * state digests (Simulator::state_hash(), serve::Service's round fold,
 * recover::digest()) all use it.
 */
class WordHash
{
  public:
    static constexpr std::uint64_t kSeed = 0x6a09e667f3bcc908ULL;

    /** Digest of everything mixed in so far. */
    std::uint64_t digest() const { return fmix64(state_); }

    void byte(std::uint8_t b) { u64(b); }

    void u64(std::uint64_t v) { state_ = mix_word(state_, v); }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** Mix a double by bit pattern: -0.0 and +0.0 differ, as does an
     *  ULP of drift. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /** Mix a length-prefixed string, eight bytes per word (the last
     *  one zero-padded). */
    void
    str(const std::string &s)
    {
        u64(s.size());
        const auto *p = reinterpret_cast<const std::uint8_t *>(s.data());
        for (std::size_t i = 0; i < s.size(); i += 8)
            u64(load_le(p + i, std::min<std::size_t>(8, s.size() - i)));
    }

  private:
    std::uint64_t state_ = kSeed;
};

/**
 * Incremental FNV-1a 64-bit hasher with canonical (LSB-first) input.
 * Byte at a time, so it is kept off hot paths: it fingerprints a run's
 * configuration and trace once, where its stable, well-known vectors
 * matter more than speed.
 */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    /** Digest of everything mixed in so far. */
    std::uint64_t digest() const { return state_; }

    void
    byte(std::uint8_t b)
    {
        state_ = (state_ ^ b) * kPrime;
    }

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i)
            byte(p[i]);
    }

    /** Mix a 64-bit value, LSB first (endianness-independent). */
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** Mix a double by bit pattern: -0.0 and +0.0 differ. */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Mix a length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

  private:
    std::uint64_t state_ = kOffsetBasis;
};

}  // namespace ef

#endif  // EF_COMMON_HASH_H_
