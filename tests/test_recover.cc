/**
 * @file
 * Crash-recovery primitives (DESIGN.md §12): binary codec round-trips,
 * the pinned checksum, snapshot-chain atomicity and verification,
 * journal framing, and the
 * corruption fuzz — truncated tails, bit-flipped records, bad magic,
 * and bad versions must all surface as typed Status values with the
 * valid prefix intact, never as aborts or UB.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "recover/codec.h"
#include "recover/fields.h"
#include "recover/file_util.h"
#include "recover/journal.h"
#include "recover/log.h"
#include "recover/snapshot.h"
#include "serve/service.h"

namespace ef {
namespace {

using recover::Decoder;
using recover::Encoder;
using recover::ErrorCode;
using recover::JournalContents;
using recover::RecordKind;
using recover::Status;

std::string
temp_path(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

std::string
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
write_file(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

TEST(Codec, ScalarRoundTrip)
{
    Encoder enc;
    enc.u8(0xab);
    enc.u32(0xdeadbeef);
    enc.u64(UINT64_C(0x0123456789abcdef));
    enc.f64(-0.0);
    enc.u8(1);
    enc.str("hello");

    Decoder dec(enc.data());
    std::uint8_t u8v = 0;
    std::uint32_t u32v = 0;
    std::uint64_t u64v = 0;
    double f64v = 1.0;
    bool bv = false;
    std::string sv;
    EXPECT_TRUE(dec.u8(&u8v));
    EXPECT_TRUE(dec.u32(&u32v));
    EXPECT_TRUE(dec.u64(&u64v));
    EXPECT_TRUE(dec.f64(&f64v));
    EXPECT_TRUE(dec.boolean(&bv));
    EXPECT_TRUE(dec.str(&sv));
    EXPECT_TRUE(dec.empty());
    EXPECT_EQ(u8v, 0xab);
    EXPECT_EQ(u32v, 0xdeadbeefu);
    EXPECT_EQ(u64v, UINT64_C(0x0123456789abcdef));
    EXPECT_TRUE(std::signbit(f64v));
    EXPECT_TRUE(bv);
    EXPECT_EQ(sv, "hello");
}

TEST(Codec, DecoderIsStickyAndBounded)
{
    Encoder enc;
    enc.u64(7);
    Decoder dec(enc.data());
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    EXPECT_TRUE(dec.u64(&a));
    EXPECT_FALSE(dec.u64(&b));  // past the end
    EXPECT_FALSE(dec.ok());
    EXPECT_FALSE(dec.u64(&b));  // stays failed
}

TEST(Codec, CountRejectsImpossibleSizes)
{
    Encoder enc;
    enc.u64(UINT64_C(1) << 40);  // claims a trillion elements
    Decoder dec(enc.data());
    std::uint64_t n = 0;
    EXPECT_FALSE(dec.count(&n));
    EXPECT_FALSE(dec.ok());
}

TEST(Codec, BooleanRejectsNonCanonicalBytes)
{
    Encoder enc;
    enc.u8(2);
    Decoder dec(enc.data());
    bool v = false;
    EXPECT_FALSE(dec.boolean(&v));
}

TEST(Codec, JobSpecAndCurveRoundTrip)
{
    serve::Submission sub;
    JobSpec &spec = sub.spec;
    spec.id = 17;
    spec.name = "bert-ft";
    spec.user = "alice";
    spec.model = DnnModel::kBert;
    spec.global_batch = 128;
    spec.iterations = 5000;
    spec.submit_time = 123.5;
    spec.deadline = 9000.0;
    spec.kind = JobKind::kSlo;
    spec.requested_gpus = 8;
    sub.curve = ScalingCurve::from_pow2_table({1.0, 1.9, 3.5, 6.0});

    serve::Submission back;
    ASSERT_TRUE(recover::decode(recover::encode(sub), back).ok());
    EXPECT_EQ(back.spec.id, spec.id);
    EXPECT_EQ(back.spec.name, spec.name);
    EXPECT_EQ(back.spec.user, spec.user);
    EXPECT_EQ(back.spec.model, spec.model);
    EXPECT_EQ(back.spec.deadline, spec.deadline);
    EXPECT_EQ(back.spec.kind, spec.kind);
    EXPECT_EQ(back.curve.table(), sub.curve.table());
    EXPECT_EQ(back.curve.min_workers(), sub.curve.min_workers());
    EXPECT_EQ(back.curve.max_useful(), sub.curve.max_useful());
}

TEST(Codec, CurveDecodeRejectsGarbage)
{
    // A count that claims elements but delivers NaN.
    Encoder enc;
    enc.u64(2);
    enc.f64(1.0);
    enc.f64(std::numeric_limits<double>::quiet_NaN());
    ScalingCurve curve;
    EXPECT_EQ(recover::decode(enc.data(), curve).code,
              ErrorCode::kBadRecord);
}

TEST(Codec, EnumOutOfRangeIsBadRecord)
{
    FaultEvent event;
    std::string bytes = recover::encode(event);
    bytes[8] = 99;  // the type's low byte, after the f64 time
    EXPECT_EQ(recover::decode(bytes, event).code, ErrorCode::kBadRecord);
}

/** parse_chain() of the file at @p path; @p bytes keeps what @p out
 *  views. */
Status
read_chain(const std::string &path, const recover::ChainTip *want,
           std::string *bytes, recover::Chain *out)
{
    *out = recover::Chain{};
    const Status st = recover::read_whole_file(path, bytes);
    return st.ok() ? recover::parse_chain(*bytes, path, want, true, out)
                   : st;
}

TEST(Snapshot, RoundTripAndTypedCorruption)
{
    const std::string path = temp_path("ef_snap_test.bin");
    const std::string payload(10000, '\x5a');
    recover::ChainTip tip;
    ASSERT_TRUE(recover::write_base_file(path, 3, payload, &tip).ok());
    EXPECT_EQ(tip.generation, 3u);
    EXPECT_EQ(tip.segments, 0u);

    std::string bytes_read;
    recover::Chain back;
    ASSERT_TRUE(read_chain(path, nullptr, &bytes_read, &back).ok());
    EXPECT_EQ(back.base, payload);
    EXPECT_EQ(back.tip, tip);

    // Bit flip in the payload -> checksum mismatch, byte offset set.
    std::string bytes = read_file(path);
    bytes[5000] = static_cast<char>(bytes[5000] ^ 0x01);
    write_file(path, bytes);
    Status st = read_chain(path, nullptr, &bytes_read, &back);
    EXPECT_EQ(st.code, ErrorCode::kChecksumMismatch);
    EXPECT_GE(st.offset, 0);
    EXPECT_TRUE(back.base.empty());

    // Wrong magic.
    bytes = read_file(path);
    bytes[0] = 'X';
    write_file(path, bytes);
    st = read_chain(path, nullptr, &bytes_read, &back);
    EXPECT_EQ(st.code, ErrorCode::kBadMagic);

    // Unsupported version.
    ASSERT_TRUE(recover::write_base_file(path, 3, payload, &tip).ok());
    bytes = read_file(path);
    bytes[4] = 99;
    write_file(path, bytes);
    st = read_chain(path, nullptr, &bytes_read, &back);
    EXPECT_EQ(st.code, ErrorCode::kBadVersion);

    // Truncated mid-payload.
    ASSERT_TRUE(recover::write_base_file(path, 3, payload, &tip).ok());
    bytes = read_file(path);
    write_file(path, bytes.substr(0, bytes.size() - 100));
    st = read_chain(path, nullptr, &bytes_read, &back);
    EXPECT_EQ(st.code, ErrorCode::kTruncated);

    // Missing file.
    std::remove(path.c_str());
    st = read_chain(path, nullptr, &bytes_read, &back);
    EXPECT_EQ(st.code, ErrorCode::kIoError);
}

TEST(Snapshot, ChainReadsWhatTheTipNames)
{
    const std::string path = temp_path("ef_chain_test.bin");
    recover::ChainTip tip;
    ASSERT_TRUE(recover::write_base_file(path, 2, "base", &tip).ok());
    const recover::ChainTip at_base = tip;
    ASSERT_TRUE(recover::append_segment_file(path, "one", &tip).ok());
    const recover::ChainTip at_one = tip;
    ASSERT_TRUE(recover::append_segment_file(path, "two", &tip).ok());
    EXPECT_EQ(tip.segments, 2u);

    std::string bytes_read;
    recover::Chain back;
    ASSERT_TRUE(read_chain(path, &tip, &bytes_read, &back).ok());
    EXPECT_EQ(back.base, "base");
    EXPECT_EQ(back.segments, (std::vector<std::string_view>{"one", "two"}));
    // An older tip ignores the segments after it.
    ASSERT_TRUE(read_chain(path, &at_one, &bytes_read, &back).ok());
    EXPECT_EQ(back.segments, (std::vector<std::string_view>{"one"}));
    ASSERT_TRUE(read_chain(path, &at_base, &bytes_read, &back).ok());
    EXPECT_TRUE(back.segments.empty());

    // Appending after an older tip drops what followed it.
    recover::ChainTip redo = at_one;
    ASSERT_TRUE(recover::append_segment_file(path, "2b", &redo).ok());
    ASSERT_TRUE(read_chain(path, &redo, &bytes_read, &back).ok());
    EXPECT_EQ(back.segments, (std::vector<std::string_view>{"one", "2b"}));

    // A tip of an older generation is subsumed by the base; a newer
    // one, or one naming more or other segments, is a typed error.
    recover::ChainTip old = redo;
    old.generation = 1;
    ASSERT_TRUE(read_chain(path, &old, &bytes_read, &back).ok());
    EXPECT_TRUE(back.segments.empty());
    EXPECT_EQ(back.tip, at_base);
    recover::ChainTip bad = redo;
    bad.generation = 3;
    EXPECT_EQ(read_chain(path, &bad, &bytes_read, &back).code,
              ErrorCode::kBadRecord);
    bad = redo;
    bad.segments = 3;
    EXPECT_EQ(read_chain(path, &bad, &bytes_read, &back).code,
              ErrorCode::kTruncated);
    bad = redo;
    bad.checksum ^= 1;
    EXPECT_EQ(read_chain(path, &bad, &bytes_read, &back).code,
              ErrorCode::kBadRecord);
}

/** Checksums of 0, 1, ..., 64 bytes of 0x00 0x07 0x0e ... (i * 7):
 *  every tail length, pinned so the value cannot drift with the
 *  host's byte order or a refactor. */
TEST(Checksum, PinnedVectorsEveryTailLength)
{
    const std::uint64_t want[65] = {
        0xf4f3bfd3c0d0c655ULL, 0x43419c230da96a17ULL, 0xa86f7392352ad025ULL,
        0x65ecae40de6c8a58ULL, 0x535af2cfb4e62256ULL, 0xa28ca7a183710bd0ULL,
        0xf082bdfcaa6918bdULL, 0x869f6395b495cbd1ULL, 0xea6594ebe9231b54ULL,
        0xe194873209ad9c5fULL, 0xea3eebaf19c13cf6ULL, 0x52d78dc716a7a2f5ULL,
        0xb3da9e575c529f18ULL, 0x43b3fced313a3d65ULL, 0x18d80efbef6a70c7ULL,
        0x8b57f964e6d7ba3eULL, 0xf93f8ec3eae12d6aULL, 0xcbda63996d29326fULL,
        0x1939f4ad9b84fceaULL, 0x819b8adf8894f0e1ULL, 0x02ee33a33d926a01ULL,
        0x5f5c8911b0196999ULL, 0xd6f4a9b34ce86c87ULL, 0x6052574807c0081aULL,
        0x69fe4e7e536b6d80ULL, 0x225240131e81e5b5ULL, 0x91b78a5d3f93afd9ULL,
        0x8abffd26ff548256ULL, 0xe798de4f19d134f5ULL, 0x0e0926c9f4b997ebULL,
        0x1ec381bceecd78c9ULL, 0x0c907c948fb035a1ULL, 0x969f014b51a6b63eULL,
        0xed58c0071c229fa8ULL, 0x7b6121e46ab29266ULL, 0x5439b2de02987dbaULL,
        0x88ea8901625b8b14ULL, 0xe5612ed13f5abc67ULL, 0xea7c8ac657c5c001ULL,
        0xd7c95dfb4882e81fULL, 0x88b3b4c1ba9f65bfULL, 0x1bb6b65b7b1031aaULL,
        0x75bb6635dc87788aULL, 0x9e7eb15c01a472a9ULL, 0x93b9cddd4df2c432ULL,
        0xd7d61d0a7809cccbULL, 0xca6fd8b59368dd42ULL, 0x98ec6fabcd265e01ULL,
        0xbec19d649bd658d2ULL, 0x3b6b7df5c97339b9ULL, 0xe26927a630c8cb39ULL,
        0x4cb7a5c14ed7834dULL, 0x341f588a78f0656aULL, 0xdeb791b830b4bbe9ULL,
        0xd423e78951211bf7ULL, 0x3afcb6cc6a8db1a4ULL, 0xa9ea96acb60df6f7ULL,
        0x7d9f9681519a9080ULL, 0xf19e492c5f767888ULL, 0x5c0dfbc08ab106c7ULL,
        0x4ffe49d202346c09ULL, 0xbb656c9e6a89709eULL, 0x2f4a8932a83da34fULL,
        0x81183bd9cebb5ec5ULL, 0x47c7c783aaf11c85ULL,
    };
    std::string bytes;
    for (int n = 0; n <= 64; ++n) {
        EXPECT_EQ(recover::checksum(bytes), want[n]) << n << " bytes";
        bytes.push_back(static_cast<char>(n * 7));
    }
}

TEST(Checksum, DetectsEveryOneBitChange)
{
    std::string bytes(100, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 13 + 1);
    const std::uint64_t base = recover::checksum(bytes);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = bytes;
            flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
            EXPECT_NE(recover::checksum(flipped), base) << i << "/" << bit;
        }
    }
    // Zero padding of the tail word does not hide a length change.
    EXPECT_NE(recover::checksum(std::string("ab")),
              recover::checksum(std::string("ab\0", 3)));
}

/** A journal of a head record and @p n round-commit records. */
std::string
journal_with_records(const std::string &path, int n)
{
    recover::JournalWriter writer;
    EXPECT_TRUE(writer.restart(path, "head").ok());
    for (int i = 0; i < n; ++i) {
        Encoder body;
        body.u64(static_cast<std::uint64_t>(i));
        body.str("record payload " + std::to_string(i));
        EXPECT_TRUE(
            writer.append(RecordKind::kRoundCommit, body.data()).ok());
    }
    EXPECT_TRUE(writer.commit().ok());
    writer.close();
    return read_file(path);
}

TEST(Journal, RoundTrip)
{
    const std::string path = temp_path("ef_journal_test.bin");
    journal_with_records(path, 5);
    JournalContents contents;
    ASSERT_TRUE(recover::read_journal(path, &contents).ok());
    EXPECT_TRUE(contents.tail.ok());
    ASSERT_EQ(contents.records.size(), 6u);
    EXPECT_EQ(contents.records[0].kind, RecordKind::kHead);
    EXPECT_EQ(contents.records[0].body, "head");
    for (int i = 0; i < 5; ++i) {
        Decoder dec(
            contents.records[static_cast<std::size_t>(i) + 1].body);
        std::uint64_t seq = 99;
        std::string text;
        EXPECT_TRUE(dec.u64(&seq));
        EXPECT_TRUE(dec.str(&text));
        EXPECT_EQ(seq, static_cast<std::uint64_t>(i));
    }
}

TEST(Journal, TornTailKeepsValidPrefix)
{
    const std::string path = temp_path("ef_journal_torn.bin");
    const std::string bytes = journal_with_records(path, 5);
    // Cut into the middle of the last record: every prefix length
    // from "lost some payload" down to "lost the length header"
    // must keep exactly the head and the first four records.
    for (std::size_t cut = 1; cut <= 12; ++cut) {
        write_file(path, bytes.substr(0, bytes.size() - cut));
        JournalContents contents;
        ASSERT_TRUE(recover::read_journal(path, &contents).ok());
        EXPECT_FALSE(contents.tail.ok()) << "cut " << cut;
        EXPECT_EQ(contents.tail.code, ErrorCode::kTruncated);
        ASSERT_EQ(contents.records.size(), 5u) << "cut " << cut;
    }
}

TEST(Journal, BitFlippedRecordStopsAtLastValidCommit)
{
    const std::string path = temp_path("ef_journal_flip.bin");
    std::string bytes = journal_with_records(path, 5);
    // Flip one payload byte in the final record.
    bytes[bytes.size() - 3] =
        static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
    write_file(path, bytes);
    JournalContents contents;
    ASSERT_TRUE(recover::read_journal(path, &contents).ok());
    EXPECT_EQ(contents.tail.code, ErrorCode::kChecksumMismatch);
    EXPECT_EQ(contents.records.size(), 5u);
    EXPECT_GE(contents.tail.record, 0);
}

TEST(Journal, BadMagicAndVersionAreTyped)
{
    const std::string path = temp_path("ef_journal_magic.bin");
    std::string bytes = journal_with_records(path, 2);
    std::string broken = bytes;
    broken[0] = 'Z';
    write_file(path, broken);
    JournalContents contents;
    EXPECT_EQ(recover::read_journal(path, &contents).code,
              ErrorCode::kBadMagic);

    broken = bytes;
    broken[4] = 77;
    write_file(path, broken);
    EXPECT_EQ(recover::read_journal(path, &contents).code,
              ErrorCode::kBadVersion);
}

TEST(Journal, VersionOneFilesAreTyped)
{
    // Version 1 predates the fields() byte layout: both file kinds
    // written with it must be refused, not misread. So must a version 4
    // snapshot, whose service state predates the aligned GPU column, a
    // version 5 one, whose simulator state still holds the
    // streaming-admission queue, and a version 6 one (or a version 4
    // journal), whose chained state hashes were taken with FNV-1a.
    const std::string snap = temp_path("ef_snap_v1.bin");
    recover::ChainTip tip;
    std::string bytes;
    for (std::uint8_t version : {1, 4, 5, 6}) {
        SCOPED_TRACE(static_cast<int>(version));
        ASSERT_TRUE(
            recover::write_base_file(snap, 1, "payload", &tip).ok());
        bytes = read_file(snap);
        bytes[4] = static_cast<char>(version);
        write_file(snap, bytes);
        std::string bytes_read;
        recover::Chain back;
        EXPECT_EQ(read_chain(snap, nullptr, &bytes_read, &back).code,
                  ErrorCode::kBadVersion);
    }

    const std::string journal = temp_path("ef_journal_v1.bin");
    for (std::uint8_t version : {1, 4}) {
        SCOPED_TRACE(static_cast<int>(version));
        bytes = journal_with_records(journal, 1);
        bytes[4] = static_cast<char>(version);
        write_file(journal, bytes);
        JournalContents contents;
        EXPECT_EQ(recover::read_journal(journal, &contents).code,
                  ErrorCode::kBadVersion);
    }
}

TEST(Journal, FuzzRandomCutsNeverCrash)
{
    const std::string path = temp_path("ef_journal_fuzz.bin");
    const std::string bytes = journal_with_records(path, 8);
    // Deterministic sweep: truncate at every byte boundary, and flip
    // one byte at a stride. Every outcome must be a typed status with
    // a record prefix, never an abort.
    for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
        write_file(path, bytes.substr(0, cut));
        JournalContents contents;
        Status st = recover::read_journal(path, &contents);
        if (st.ok()) {
            EXPECT_LE(contents.records.size(), 9u);
        }
    }
    for (std::size_t i = 0; i < bytes.size(); i += 7) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
        write_file(path, mutated);
        JournalContents contents;
        Status st = recover::read_journal(path, &contents);
        if (st.ok()) {
            EXPECT_LE(contents.records.size(), 9u);
            if (!contents.tail.ok()) {
                EXPECT_NE(contents.tail.code, ErrorCode::kOk);
            }
        }
    }
}

TEST(DurableLog, CheckpointsRestartTheJournal)
{
    const std::string dir = temp_path("ef_durable_log_dir");
    recover::DurableLog log;
    ASSERT_TRUE(log.open(dir).ok());
    EXPECT_FALSE(log.has_base());
    ASSERT_TRUE(log.write_base("state v1").ok());
    EXPECT_TRUE(log.has_base());
    Encoder body;
    body.u64(1);
    ASSERT_TRUE(log.append(RecordKind::kRoundCommit, body.data()).ok());
    ASSERT_TRUE(log.commit().ok());

    std::string checkpoint;
    JournalContents contents;
    ASSERT_TRUE(recover::DurableLog::load(dir, &checkpoint, &contents).ok());
    recover::Chain chain;
    std::string_view head;
    ASSERT_TRUE(recover::unpack_checkpoint(checkpoint, &chain, &head).ok());
    EXPECT_EQ(chain.base, "state v1");
    EXPECT_TRUE(head.empty());
    ASSERT_EQ(contents.records.size(), 1u);  // the head is not a record
    EXPECT_EQ(contents.records[0].kind, RecordKind::kRoundCommit);

    // A segment commits with its head; the journal restarts empty.
    ASSERT_TRUE(log.write_segment("seg 1", "live 1").ok());
    ASSERT_TRUE(recover::DurableLog::load(dir, &checkpoint, &contents).ok());
    ASSERT_TRUE(recover::unpack_checkpoint(checkpoint, &chain, &head).ok());
    EXPECT_EQ(chain.segments, std::vector<std::string_view>{"seg 1"});
    EXPECT_EQ(head, "live 1");
    EXPECT_TRUE(contents.records.empty());

    // A new base starts the next generation over.
    ASSERT_TRUE(log.write_base("state v2").ok());
    ASSERT_TRUE(recover::DurableLog::load(dir, &checkpoint, &contents).ok());
    ASSERT_TRUE(recover::unpack_checkpoint(checkpoint, &chain, &head).ok());
    EXPECT_EQ(chain.base, "state v2");
    EXPECT_EQ(chain.tip.generation, 2u);
    EXPECT_TRUE(chain.segments.empty());
    EXPECT_TRUE(head.empty());
    // Exactly the two files remain.
    EXPECT_FALSE(
        std::ifstream(recover::DurableLog::journal_path(dir) + ".tmp").good());
    EXPECT_FALSE(
        std::ifstream(recover::DurableLog::snapshot_path(dir) + ".tmp")
            .good());
}

TEST(DurableLog, LoadWithoutSnapshotIsTyped)
{
    const std::string dir = temp_path("ef_durable_missing_dir");
    std::string snapshot;
    JournalContents contents;
    Status st = recover::DurableLog::load(dir, &snapshot, &contents);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code, ErrorCode::kIoError);
}

TEST(Status, ToStringCarriesRecordAndOffset)
{
    Status st = Status::error(ErrorCode::kChecksumMismatch,
                              "journal record payload mismatch", 7, 123);
    const std::string text = st.to_string();
    EXPECT_NE(text.find("checksum-mismatch"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);
    EXPECT_NE(text.find("123"), std::string::npos);
}

}  // namespace
}  // namespace ef
