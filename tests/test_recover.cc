/**
 * @file
 * Crash-recovery primitives (DESIGN.md §12): binary codec round-trips,
 * snapshot-file atomicity and verification, journal framing, and the
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
#include <vector>

#include "fault/fault.h"
#include "recover/codec.h"
#include "recover/fields.h"
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

TEST(Snapshot, RoundTripAndTypedCorruption)
{
    const std::string path = temp_path("ef_snap_test.bin");
    const std::string payload(10000, '\x5a');
    ASSERT_TRUE(recover::write_snapshot_file(path, payload).ok());

    std::string back;
    ASSERT_TRUE(recover::read_snapshot_file(path, &back).ok());
    EXPECT_EQ(back, payload);

    // Bit flip in the payload -> checksum mismatch, byte offset set.
    std::string bytes = read_file(path);
    bytes[5000] = static_cast<char>(bytes[5000] ^ 0x01);
    write_file(path, bytes);
    Status st = recover::read_snapshot_file(path, &back);
    EXPECT_EQ(st.code, ErrorCode::kChecksumMismatch);
    EXPECT_GE(st.offset, 0);

    // Wrong magic.
    bytes = read_file(path);
    bytes[0] = 'X';
    write_file(path, bytes);
    st = recover::read_snapshot_file(path, &back);
    EXPECT_EQ(st.code, ErrorCode::kBadMagic);

    // Unsupported version.
    ASSERT_TRUE(recover::write_snapshot_file(path, payload).ok());
    bytes = read_file(path);
    bytes[4] = 99;
    write_file(path, bytes);
    st = recover::read_snapshot_file(path, &back);
    EXPECT_EQ(st.code, ErrorCode::kBadVersion);

    // Truncated mid-payload.
    ASSERT_TRUE(recover::write_snapshot_file(path, payload).ok());
    bytes = read_file(path);
    write_file(path, bytes.substr(0, bytes.size() - 100));
    st = recover::read_snapshot_file(path, &back);
    EXPECT_EQ(st.code, ErrorCode::kTruncated);

    // Missing file.
    std::remove(path.c_str());
    st = recover::read_snapshot_file(path, &back);
    EXPECT_EQ(st.code, ErrorCode::kIoError);
}

std::string
journal_with_records(const std::string &path, int n)
{
    recover::JournalWriter writer;
    EXPECT_TRUE(writer.open(path, /*truncate=*/true).ok());
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
    ASSERT_EQ(contents.records.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        Decoder dec(contents.records[static_cast<std::size_t>(i)].body);
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
    // must keep exactly the first four records.
    for (std::size_t cut = 1; cut <= 12; ++cut) {
        write_file(path, bytes.substr(0, bytes.size() - cut));
        JournalContents contents;
        ASSERT_TRUE(recover::read_journal(path, &contents).ok());
        EXPECT_FALSE(contents.tail.ok()) << "cut " << cut;
        EXPECT_EQ(contents.tail.code, ErrorCode::kTruncated);
        ASSERT_EQ(contents.records.size(), 4u) << "cut " << cut;
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
    EXPECT_EQ(contents.records.size(), 4u);
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
    // written with it must be refused, not misread.
    const std::string snap = temp_path("ef_snap_v1.bin");
    ASSERT_TRUE(recover::write_snapshot_file(snap, "payload").ok());
    std::string bytes = read_file(snap);
    bytes[4] = 1;
    write_file(snap, bytes);
    std::string back;
    EXPECT_EQ(recover::read_snapshot_file(snap, &back).code,
              ErrorCode::kBadVersion);

    const std::string journal = temp_path("ef_journal_v1.bin");
    bytes = journal_with_records(journal, 1);
    bytes[4] = 1;
    write_file(journal, bytes);
    JournalContents contents;
    EXPECT_EQ(recover::read_journal(journal, &contents).code,
              ErrorCode::kBadVersion);
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
            EXPECT_LE(contents.records.size(), 8u);
        }
    }
    for (std::size_t i = 0; i < bytes.size(); i += 7) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
        write_file(path, mutated);
        JournalContents contents;
        Status st = recover::read_journal(path, &contents);
        if (st.ok()) {
            EXPECT_LE(contents.records.size(), 8u);
            if (!contents.tail.ok()) {
                EXPECT_NE(contents.tail.code, ErrorCode::kOk);
            }
        }
    }
}

TEST(DurableLog, SnapshotTruncatesJournal)
{
    const std::string dir = temp_path("ef_durable_log_dir");
    recover::DurableLog log;
    ASSERT_TRUE(log.open(dir).ok());
    ASSERT_TRUE(log.write_snapshot("state v1").ok());
    Encoder body;
    body.u64(1);
    ASSERT_TRUE(log.append(RecordKind::kRoundCommit, body.data()).ok());
    ASSERT_TRUE(log.commit().ok());
    EXPECT_EQ(log.journal_records(), 1u);

    ASSERT_TRUE(log.write_snapshot("state v2").ok());
    EXPECT_EQ(log.journal_records(), 0u);

    std::string snapshot;
    JournalContents contents;
    ASSERT_TRUE(
        recover::DurableLog::load(dir, &snapshot, &contents).ok());
    EXPECT_EQ(snapshot, "state v2");
    EXPECT_TRUE(contents.records.empty());
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
