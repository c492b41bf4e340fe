/**
 * @file
 * One field list per persistent type; the state hash, the snapshot
 * encoder and the snapshot decoder are all derived from it
 * (DESIGN.md §12).
 *
 * A persistent type lists its state once, in a member template
 *
 *     template <class V> void fields(V &v);
 *
 * with every persistent field under one of two tags:
 *
 *     v(a, b, ...);        hashed and journaled
 *     v.journal(c, ...);   journaled only (snapshot/journal bytes)
 *
 * A field left out is transient: neither hashed nor journaled. Three
 * visitors walk that list in order: Hasher folds the hashed fields
 * into a WordHash digest, Writer appends every field to a
 * recover::Encoder, and Reader decodes them back in place from a
 * recover::Decoder. Hash order, byte layout and decode order are one
 * order, and no field can be hashed but not journaled (or journaled
 * but not restored) by accident.
 *
 * Further forms:
 *
 *     v.each(c, ...)        containers hashed without their length
 *                           (the wire still carries it);
 *     v.digest(x)           x enters the hash as its own WordHash
 *                           digest. A pointer x is optional: the hash
 *                           skips it when null, the wire carries a
 *                           presence byte, and a presence that differs
 *                           from the running object decodes as a typed
 *                           kStateMismatch;
 *     v.after_decode(fn)    decode side only: fn() validates (and may
 *                           rebuild derived members from) what was
 *                           just read; false rejects the payload
 *                           (kBadRecord);
 *     v.opaque(save, load)  journal-only blob owned by a polymorphic
 *                           object: save(&blob) / load(blob), where
 *                           load's false is a kStateMismatch;
 *     v.split(c, live, s)   a table c whose elements are sealed (their
 *                           hashed fields never change again) or live
 *                           (live(e) true). It hashes as the wrapping
 *                           sum of the sealed elements' digests, each
 *                           taken with its index, then the live
 *                           elements in index order; the wire carries
 *                           c as a container. s is the table's
 *                           SplitCache: the hasher reads the sum and the
 *                           live indices from it instead of walking c,
 *                           so a hash costs O(live elements). The owner
 *                           keeps s current at every transition;
 *                           decoding c rebuilds s.live from live(e) and
 *                           drops the sum. Sealed rows whose fields
 *                           never change again are frozen
 *                           (SplitCache::freeze): history segments
 *                           carry them once.
 *     v.split(c, live, s, key)
 *                           the same, but each sealed element's digest
 *                           is taken with key(i) (a job id, say)
 *                           instead of its index i, so rows may move —
 *                           compaction, inserts in key order — without
 *                           re-keying the sum. The owner seals and
 *                           drops rows by key (SplitCache::seal/drop)
 *                           and tracks no rows for the chain: the table
 *                           travels whole in bases and heads, and not
 *                           at all in segments.
 *
 *     v.append(c, ...)      journal-only containers that only grow at
 *                           the back, apart from their last element,
 *                           which may still be overwritten (StepSeries).
 *
 * A checkpoint is written in three sections (DESIGN.md §12), each by
 * one Writer mode and read back by the matching Reader mode:
 *
 *     Section::kBase     every field: the full encode;
 *     Section::kSegment  what became final since the previous segment:
 *                        the split() rows frozen since, and the new
 *                        tail of each append() container, starting at
 *                        its last element already written;
 *     Section::kHead     everything else: every other field, plus the
 *                        split() rows that are live or changed since
 *                        the base.
 *
 * Restoring a base, its segments in order and then the latest head
 * gives the state a full encode would. The sections follow the path of
 * member structs from the root; inside a pointer, a container or a
 * split() row every value is written in full. after_decode hooks run
 * in the base and head sections only, where everything listed before
 * them is final.
 *
 * A Handle (an immutable shared value such as a ScalingCurve) maps as
 * its wire() value, and decodes by handing the value read to its
 * adopt_wire(), which validates it wherever it is read.
 *
 * Values map the same way to hash and wire: bool as one byte (one
 * word in the hash, which mixes whole 64-bit words), integers and
 * enums as 64 bits (enums range-checked on decode against
 * `enum_last(E)`, found by argument-dependent lookup), double by bit
 * pattern, std::string length-prefixed, std::mt19937_64 by its textual
 * state (journal only). Containers — std::vector, std::deque, std::set,
 * std::map — carry their length, which decoding bounds by the payload
 * left (a vector is sized up front only once its length fits), and set
 * and map keys must strictly increase.
 *
 * The visitors are plain templates: no virtual dispatch, no
 * std::function, no copies, so the hash inlines into the loop a
 * hand-written one would be. recomputed_digest() is the same hash with
 * every SplitCache ignored — each split table walked in full — and is
 * the oracle the caches are tested against.
 */
#ifndef EF_RECOVER_FIELDS_H_
#define EF_RECOVER_FIELDS_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "recover/codec.h"

namespace ef::recover {
/** The kinds of value a field can be. */
namespace kind {

template <class T>
using Bare = std::remove_cv_t<std::remove_reference_t<T>>;

template <class T>
concept Pointer =
    std::is_pointer_v<T> || requires(T &p) { p.get(), p.reset(); };

/** vector, deque, set or map. */
template <class T>
concept Container = !std::is_same_v<T, std::string> &&
                    requires(T &c) { c.size(), c.begin(), c.clear(); };

template <class T>
concept Map = Container<T> && requires { typename T::mapped_type; };

template <class T>
concept Set = Container<T> && !Map<T> && requires { typename T::key_type; };

/** bool, or an element of a std::vector<bool>. */
template <class T>
concept Bool =
    std::is_same_v<T, bool> || std::is_same_v<T, std::vector<bool>::reference>;

/** Integers and enums travel as 64 bits. */
template <class T>
concept Word = std::is_integral_v<T> || std::is_enum_v<T>;

/**
 * An immutable value behind a handle (a shared representation): it
 * travels as its wire() value, and decoding hands the value read to
 * adopt_wire(), whose false rejects the payload (kBadRecord).
 */
template <class T>
concept Handle = requires(const T &c, T &m, typename T::Wire w) {
    { c.wire() } -> std::same_as<const typename T::Wire &>;
    { m.adopt_wire(std::move(w)) } -> std::same_as<bool>;
};

/** A struct with its own fields() list. */
template <class T>
concept Record = std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                 !Handle<T> &&
                 // ef-lint: allow(nondet: names ef::Rng's engine type)
                 !std::is_same_v<T, std::mt19937_64> && !Pointer<T> &&
                 !Container<T> && !Bool<T>;

}  // namespace kind

template <class T>
std::uint64_t element_digest(std::uint64_t key, const T &e);

/** The key of a split() table's rows when none is given: the index. */
struct ByIndex
{
    std::uint64_t operator()(std::size_t i) const { return i; }
};

/** Which part of a checkpoint a Writer or Reader handles. */
enum class Section {
    kBase,     ///< every field
    kSegment,  ///< split() rows frozen and append() tails grown since
    kHead,     ///< the rest: other fields, live and changed split() rows
};

/**
 * Length of each append() container at the previous base or segment,
 * in visit order: the chain writer's cursors (DurableLog keeps them;
 * never journaled).
 */
using Tails = std::vector<std::uint64_t>;

/**
 * Emitter<WordHash> (Hasher) folds the hashed fields into a WordHash
 * digest, one word per value; Emitter<Encoder> (Writer) appends the
 * fields of one checkpoint Section to an Encoder. Both walk the list
 * in order and map values the same way; they differ only where the
 * tags do — the hasher skips journal-only fields and presence bytes,
 * hashes each() containers without their length, and folds digest()
 * fields as a sub-digest.
 */
template <class Sink>
class Emitter
{
    static constexpr bool kHash = std::is_same_v<Sink, WordHash>;

  public:
    /** @p recompute: walk split() tables in full, ignoring their
     *  caches (hashing only). */
    explicit Emitter(Sink &sink, bool recompute = false)
        : sink_(sink), recompute_(recompute)
    {}

    /**
     * A Writer of @p section. With @p tails it writes for a chain and
     * moves the chain's marks past what it wrote: a base restarts the
     * tails and every SplitCache, a segment advances the tails and
     * empties the frozen lists.
     */
    Emitter(Sink &sink, Section section, Tails *tails)
        requires(!kHash)
        : sink_(sink), recompute_(false), section_(section), tails_(tails)
    {}

    template <class... T>
    void operator()(T &&...x) { (part(x), ...); }
    template <class F>
    void after_decode(F &&) {}

    template <class... T>
    void
    journal(T &&...x)
    {
        if constexpr (!kHash)
            (part(x), ...);
    }

    template <class... T>
    void
    each(T &&...x)
    {
        if constexpr (kHash)
            (items(x), ...);
        else
            (part(x), ...);
    }

    template <class T>
    void
    digest(T &x)
    {
        if constexpr (!kHash) {
            part(x);
        } else if constexpr (kind::Pointer<T>) {
            if (x != nullptr)
                digest(*x);
        } else {
            WordHash sub;
            Emitter(sub, recompute_).put(x);
            sink_.u64(sub.digest());
        }
    }

    template <class... T>
    void
    append(T &&...x)
    {
        if constexpr (!kHash)
            (tail(x), ...);
    }

    template <class C, class P, class S, class K = ByIndex>
    void
    split(C &c, P &&live, S &cache, K key = {})
    {
        if constexpr (kHash) {
            if (recompute_) {
                sink_.u64(sealed_sum(c, live, key));
                for (std::size_t i = 0; i < c.size(); ++i) {
                    if (live(c[i]))
                        put(c[i]);
                }
                return;
            }
            if (!cache.valid) {
                cache.sealed = sealed_sum(c, live, key);
                cache.valid = true;
            }
            sink_.u64(cache.sealed);
            for (std::uint32_t i : cache.live)
                put(c[i]);
        } else if constexpr (!std::is_same_v<K, ByIndex>) {
            part(c);
        } else if (section_ == Section::kBase) {
            put(c);
            if (tails_ != nullptr)
                cache.restart();
        } else if (section_ == Section::kSegment) {
            rows(c, cache.frozen);
            if (tails_ != nullptr)
                cache.frozen.clear();
        } else {
            rows(c, cache.head_rows());
        }
    }

    template <class S, class L>
    void
    opaque(S &&save, L &&)
    {
        if constexpr (!kHash) {
            if (section_ == Section::kSegment)
                return;
            std::string blob;
            save(&blob);
            sink_.str(blob);
        }
    }

    template <class T>
    void
    put(const T &x)
    {
        using U = kind::Bare<T>;
        if constexpr (kind::Bool<U>) {
            byte(x ? 1 : 0);
        } else if constexpr (kind::Word<U>) {
            sink_.u64(static_cast<std::uint64_t>(x));
        } else if constexpr (std::is_floating_point_v<U>) {
            sink_.f64(x);
        } else if constexpr (std::is_same_v<U, std::string>) {
            sink_.str(x);
            // ef-lint: allow(nondet: journals ef::Rng's engine; no draws)
        } else if constexpr (std::is_same_v<U, std::mt19937_64>) {
            std::ostringstream out;
            out << x;
            sink_.str(out.str());
        } else if constexpr (kind::Pointer<U>) {
            if constexpr (!kHash)
                byte(x != nullptr ? 1 : 0);
            if (x != nullptr)
                put(*x);
        } else if constexpr (kind::Container<U>) {
            sink_.u64(x.size());
            items(x);
        } else if constexpr (kind::Handle<U>) {
            put(x.wire());
        } else {
            const_cast<U &>(x).fields(*this);
        }
    }

  private:
    /** One listed field, as the section wants it: member structs are
     *  walked in the same section, other values written in full by the
     *  head and skipped by a segment. */
    template <class T>
    void
    part(const T &x)
    {
        using U = kind::Bare<T>;
        if (kHash || section_ == Section::kBase)
            put(x);
        else if constexpr (kind::Record<U>)
            const_cast<U &>(x).fields(*this);
        else if (section_ == Section::kHead)
            full(x);
    }

    /** @p x written whole, as a base would. */
    template <class T>
    void
    full(const T &x)
    {
        const Section section = section_;
        Tails *tails = tails_;
        section_ = Section::kBase;
        tails_ = nullptr;
        put(x);
        section_ = section;
        tails_ = tails;
    }

    /** Rows @p at of table @p c, each with its index. */
    template <class C>
    void
    rows(const C &c, const std::vector<std::uint32_t> &at)
    {
        sink_.u64(at.size());
        for (std::uint32_t i : at) {
            sink_.u64(i);
            full(c[i]);
        }
    }

    /** An append() container: whole in a base; in a segment, from the
     *  last element already written (it may have been overwritten
     *  since) to the end; nothing in a head. */
    template <class C>
    void
    tail(const C &c)
    {
        if (section_ == Section::kBase) {
            put(c);
            if (tails_ != nullptr)
                tails_->push_back(c.size());
        } else if (section_ == Section::kSegment) {
            EF_CHECK_MSG(tails_ != nullptr && next_tail_ < tails_->size(),
                         "a segment needs the tails of its base");
            std::uint64_t &mark = (*tails_)[next_tail_++];
            EF_CHECK_MSG(c.size() >= mark, "an append() container shrank");
            const std::uint64_t start = mark > 0 ? mark - 1 : 0;
            sink_.u64(start);
            sink_.u64(c.size() - start);
            for (std::size_t i = start; i < c.size(); ++i)
                full(c[i]);
            mark = c.size();
        }
    }

    template <class C, class P, class K>
    static std::uint64_t
    sealed_sum(C &c, P &live, K &key)
    {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < c.size(); ++i) {
            if (!live(c[i]))
                sum += element_digest(key(i), c[i]);
        }
        return sum;
    }

    template <class T>
    void
    items(const T &x)
    {
        for (const auto &e : x) {
            if constexpr (kind::Map<T>) {
                put(e.first);
                put(e.second);
            } else {
                put(e);
            }
        }
    }

    void
    byte(std::uint8_t b)
    {
        if constexpr (kHash)
            sink_.byte(b);
        else
            sink_.u8(b);
    }

    Sink &sink_;
    bool recompute_;
    Section section_ = Section::kBase;
    Tails *tails_ = nullptr;
    /** Index into *tails_ of the next append() container. */
    std::size_t next_tail_ = 0;
};

using Hasher = Emitter<WordHash>;
using Writer = Emitter<Encoder>;

/** Digest of element @p e of a split() table under @p key (its index,
 *  or key(index) of a keyed table): what the sealed sum adds for it. */
template <class T>
std::uint64_t
element_digest(std::uint64_t key, const T &e)
{
    WordHash h;
    Hasher v(h);
    v.put(key);
    v.put(e);
    return h.digest();
}

/**
 * Transient cache behind v.split(): which elements of a table are
 * live, and the wrapping sum of the sealed ones' digests. Its owner
 * keeps it current at every transition: unseal() an element before a
 * sealed element's hashed fields change, seal() it once they are
 * settled — or freeze() it when no field of it will ever change again
 * — and set_live() it on entering or leaving the live set. The sum is
 * filled lazily by the first hash, so building the owner hashes
 * nothing; until then seal() and unseal() leave it alone.
 *
 * It also tells a checkpoint chain which rows to write: the rows
 * frozen since the last history segment go into the next one, and a
 * journal head carries the live rows plus the rows changed since the
 * last base (unsealed or taken out of the live set, and not frozen
 * since). Never journaled.
 *
 * A keyed table (split() with a key) passes key(i) wherever the calls
 * below take an index, and takes a sealed row out with drop() instead
 * of unseal(): it has no live rows and tracks none for the chain.
 */
struct SplitCache
{
    /** Indices of the live elements, ascending. */
    std::vector<std::uint32_t> live;
    /** Wrapping sum of the sealed elements' element_digest()s. */
    std::uint64_t sealed = 0;
    bool valid = false;
    /** Rows frozen since the last segment, in freeze order. */
    std::vector<std::uint32_t> frozen;
    /** Rows changed since the last base and not frozen since. */
    std::vector<std::uint32_t> changed;
    std::vector<bool> is_changed;

    template <class T>
    void
    seal(std::uint64_t key, const T &e)
    {
        if (valid)
            sealed += element_digest(key, e);
    }

    /** Take a sealed row out of the sum. */
    template <class T>
    void
    drop(std::uint64_t key, const T &e)
    {
        if (valid)
            sealed -= element_digest(key, e);
    }

    template <class T>
    void
    unseal(std::size_t i, const T &e)
    {
        drop(i, e);
        touch(i);
    }

    /** seal() for good: row @p i is final. */
    template <class T>
    void
    freeze(std::size_t i, const T &e)
    {
        seal(i, e);
        if (i < is_changed.size() && is_changed[i]) {
            is_changed[i] = false;
            changed.erase(std::find(changed.begin(), changed.end(), i));
        }
        frozen.push_back(static_cast<std::uint32_t>(i));
    }

    void
    set_live(std::size_t i, bool on)
    {
        const auto idx = static_cast<std::uint32_t>(i);
        auto at = std::lower_bound(live.begin(), live.end(), idx);
        if (on && (at == live.end() || *at != idx)) {
            live.insert(at, idx);
        } else if (!on && at != live.end() && *at == idx) {
            live.erase(at);
            touch(i);
        }
    }

    /** The rows a journal head carries, ascending. */
    std::vector<std::uint32_t>
    head_rows() const
    {
        std::vector<std::uint32_t> rows(changed);
        std::sort(rows.begin(), rows.end());
        std::vector<std::uint32_t> out;
        out.reserve(rows.size() + live.size());
        std::set_union(live.begin(), live.end(), rows.begin(), rows.end(),
                       std::back_inserter(out));
        return out;
    }

    /** A base was written: nothing has changed since. */
    void
    restart()
    {
        frozen.clear();
        for (std::uint32_t i : changed)
            is_changed[i] = false;
        changed.clear();
    }

  private:
    void
    touch(std::size_t i)
    {
        if (i >= is_changed.size())
            is_changed.resize(i + 1);
        if (!is_changed[i]) {
            is_changed[i] = true;
            changed.push_back(static_cast<std::uint32_t>(i));
        }
    }
};

/** Fewest bytes one T can take on the wire: the encoding of a
 *  default-constructed T (empty containers, empty strings). */
template <class T>
std::size_t
min_wire_bytes()
{
    static const std::size_t bytes = [] {
        Encoder enc;
        Writer(enc).put(T{});
        return enc.size() > 0 ? enc.size() : 1;
    }();
    return bytes;
}

/**
 * Decodes the fields of one checkpoint Section in place, in list
 * order. The first failure is sticky: later reads are no-ops and
 * status() reports it, so a fields() list never tests for errors
 * itself.
 */
class Reader
{
  public:
    explicit Reader(Decoder &dec, Section section = Section::kBase)
        : dec_(dec), section_(section)
    {}

    // Both tags (and each/digest) are journaled: each is one field.
    template <class... T>
    void operator()(T &&...x) { (part(x), ...); }
    template <class... T>
    void journal(T &&...x) { (part(x), ...); }
    template <class... T>
    void each(T &&...x) { (part(x), ...); }
    template <class T>
    void digest(T &x) { part(x); }
    template <class... T>
    void append(T &&...x) { (tail(x), ...); }

    bool ok() const { return status_.ok() && dec_.ok(); }

    /** First failure, typed; kBadRecord for malformed bytes. */
    Status
    status() const
    {
        return status_.ok() && !dec_.ok() ? failure(ErrorCode::kBadRecord)
                                          : status_;
    }

    /** Reject the payload (unless an earlier failure was recorded). */
    void
    fail(ErrorCode code = ErrorCode::kBadRecord)
    {
        if (status_.ok())
            status_ = failure(code);
    }

    template <class F>
    void
    after_decode(F &&valid)
    {
        if (section_ != Section::kSegment && ok() && !valid())
            fail();
    }

    template <class C, class P, class S, class K = ByIndex>
    void
    split(C &c, P &&live, S &cache, K = {})
    {
        if constexpr (!std::is_same_v<K, ByIndex>) {
            part(c);
        } else if (section_ == Section::kBase) {
            field(c);
        } else if (ok()) {
            // Rows by index, each decoded whole over the one there.
            std::uint64_t n = 0;
            if (!dec_.count(&n))
                return;
            for (std::uint64_t k = 0; k < n && ok(); ++k) {
                std::uint64_t i = 0;
                if (!dec_.u64(&i))
                    return;
                if (i >= c.size())
                    return fail();
                full(c[i]);
            }
        }
        if (!ok())
            return;
        cache = S{};
        for (std::size_t i = 0; i < c.size(); ++i) {
            if (live(c[i]))
                cache.live.push_back(static_cast<std::uint32_t>(i));
        }
    }

    template <class S, class L>
    void
    opaque(S &&, L &&load)
    {
        if (section_ == Section::kSegment)
            return;
        std::string blob;
        if (dec_.str(&blob) && ok() && !load(blob))
            fail(ErrorCode::kStateMismatch);
    }

    template <class T>
    void
    field(T &&x)
    {
        using U = kind::Bare<T>;
        if (!ok()) {
            return;
        } else if constexpr (kind::Bool<U>) {
            bool b = false;
            if (dec_.boolean(&b))
                x = b;
        } else if constexpr (kind::Word<U>) {
            std::uint64_t raw = 0;
            if (!dec_.u64(&raw))
                return;
            if constexpr (std::is_enum_v<U>) {
                if (raw > static_cast<std::uint64_t>(enum_last(U{})))
                    return fail();
            }
            x = static_cast<U>(raw);
        } else if constexpr (std::is_floating_point_v<U>) {
            dec_.f64(&x);
        } else if constexpr (std::is_same_v<U, std::string>) {
            dec_.str(&x);
            // ef-lint: allow(nondet: restores ef::Rng's engine; no draws)
        } else if constexpr (std::is_same_v<U, std::mt19937_64>) {
            std::string text;
            if (!dec_.str(&text))
                return;
            std::istringstream in(text);
            if (!(in >> x))
                fail();
        } else if constexpr (kind::Pointer<U>) {
            bool present = false;
            if (!dec_.boolean(&present))
                return;
            if (present != (x != nullptr))
                fail(ErrorCode::kStateMismatch);
            else if (x != nullptr)
                field(*x);
        } else if constexpr (kind::Container<U>) {
            std::uint64_t n = 0;
            if (!dec_.count(&n))
                return;
            x.clear();
            elements(x, n);
        } else if constexpr (kind::Handle<U>) {
            // Validated wherever it is read, in any section.
            typename U::Wire wire;
            field(wire);
            if (ok() && !x.adopt_wire(std::move(wire)))
                fail();
        } else {
            x.fields(*this);
        }
    }

  private:
    /** One listed field, as its section holds it (see Emitter::part). */
    template <class T>
    void
    part(T &&x)
    {
        using U = kind::Bare<T>;
        if (section_ == Section::kBase)
            field(x);
        else if constexpr (kind::Record<U>)
            x.fields(*this);
        else if (section_ == Section::kHead)
            full(x);
    }

    /** @p x decoded whole, as from a base. */
    template <class T>
    void
    full(T &&x)
    {
        const Section section = section_;
        section_ = Section::kBase;
        field(std::forward<T>(x));
        section_ = section;
    }

    /** An append() container: whole from a base; from a segment, its
     *  tail replaces everything from the tail's start on. */
    template <class C>
    void
    tail(C &c)
    {
        if (section_ == Section::kBase) {
            field(c);
        } else if (section_ == Section::kSegment && ok()) {
            std::uint64_t start = 0;
            std::uint64_t n = 0;
            if (!dec_.u64(&start) || !dec_.count(&n))
                return;
            if (start > c.size())
                return fail();
            c.erase(c.begin() + static_cast<std::ptrdiff_t>(start),
                    c.end());
            section_ = Section::kBase;
            elements(c, n);
            section_ = Section::kSegment;
        }
    }

    /** Append @p n elements read from the wire to @p x. */
    template <class U>
    void
    elements(U &x, std::uint64_t n)
    {
        if constexpr (requires { x.reserve(n); }) {
            // A count that fits the payload can size the vector up
            // front — geometrically, as segment tails append to it.
            if (n > dec_.remaining() /
                        min_wire_bytes<typename U::value_type>())
                return fail();
            if (x.size() + n > x.capacity())
                x.reserve(std::max<std::size_t>(x.size() + n,
                                                2 * x.capacity()));
        }
        const std::size_t before = x.size();
        using E = typename U::value_type;
        if constexpr (requires { x.data(); } &&
                      ((kind::Word<E> && !kind::Bool<E> &&
                        !std::is_enum_v<E>) ||
                       std::is_floating_point_v<E>)) {
            // A run of 64-bit values: one bounds check for all of them.
            const std::uint8_t *p = dec_.bytes(8 * n);
            if (p == nullptr)
                return;
            x.resize(before + n);
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t raw = load_le(p + 8 * i, 8);
                if constexpr (std::is_floating_point_v<E>)
                    std::memcpy(&x[before + i], &raw, sizeof(raw));
                else
                    x[before + i] = static_cast<E>(raw);
            }
            return;
        }
        for (std::uint64_t i = 0; i < n && ok(); ++i) {
            if constexpr (kind::Map<U> || kind::Set<U>) {
                typename U::key_type key{};
                field(key);
                auto at = x.end();
                if constexpr (kind::Map<U>) {
                    typename U::mapped_type value{};
                    field(value);
                    if (ok())
                        at = x.emplace_hint(x.end(), key, std::move(value));
                } else if (ok()) {
                    at = x.emplace_hint(x.end(), key);
                }
                // Keys strictly increase: each entry is new and last.
                if (ok() &&
                    (x.size() != before + i + 1 || std::next(at) != x.end()))
                    fail();
            } else {
                field(x.emplace_back());
            }
        }
    }

  private:
    static Status
    failure(ErrorCode code)
    {
        return Status::error(code, code == ErrorCode::kStateMismatch
                                       ? "snapshot state does not match "
                                         "the running configuration"
                                       : "snapshot payload is malformed");
    }

    Decoder &dec_;
    Section section_;
    Status status_;
};

/** WordHash digest of @p obj's hashed fields. */
template <class T>
std::uint64_t
digest(const T &obj)
{
    WordHash h;
    Hasher(h).put(obj);
    return h.digest();
}

/** digest() with every split() table walked in full instead of read
 *  from its SplitCache: the oracle the caches must agree with. */
template <class T>
std::uint64_t
recomputed_digest(const T &obj)
{
    WordHash h;
    Hasher(h, /*recompute=*/true).put(obj);
    return h.digest();
}

/**
 * Bytes of section @p section of @p fields, in order. With @p tails
 * the chain's marks advance past what was written (see Emitter).
 */
template <class... T>
std::string
encode_section(Section section, Tails *tails, const T &...fields)
{
    Encoder enc;
    Writer(enc, section, tails).journal(fields...);
    return enc.take();
}

/** Bytes of @p fields, in order (a base or a journal record body). */
template <class... T>
std::string
encode(const T &...fields)
{
    return encode_section(Section::kBase, nullptr, fields...);
}

/**
 * Decode section @p section of @p fields in place from @p bytes, which
 * must hold exactly it (inverse of encode_section()). On failure the
 * fields are partially overwritten and must not be used.
 */
template <class... T>
Status
decode_section(std::string_view bytes, Section section, T &...fields)
{
    Decoder dec(bytes);
    Reader v(dec, section);
    v.journal(fields...);
    if (v.ok() && !dec.empty())
        v.fail();
    return v.status();
}

/** decode_section() of a base: the inverse of encode(). */
template <class... T>
Status
decode(std::string_view bytes, T &...fields)
{
    return decode_section(bytes, Section::kBase, fields...);
}

}  // namespace ef::recover

#endif  // EF_RECOVER_FIELDS_H_
