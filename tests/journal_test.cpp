// Write-ahead journal (service/journal.hpp) + durable-file primitives
// (support/io.hpp): CRC frame round trips, record codec totality,
// append/recover pairing, segment rotation, compaction, quarantine files in
// both formats, the "journal.append" fault site, and -- the durability
// claim under attack -- torn, truncated, bit-flipped and random-garbage
// tails that recovery must salvage up to the last valid frame without ever
// crashing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "service/journal.hpp"
#include "support/fault_injection.hpp"
#include "support/io.hpp"
#include "scratch_dir.hpp"

namespace partita {
namespace {

namespace io = support::io;
using service::Journal;
using service::JournalRecord;
using service::JournalRecovery;
using service::JournalTerminal;

/// Fresh per-test directory under the gtest temp root, removed with the test.
ScratchDir fresh_dir(const std::string& tag) { return {"partita_journal", tag}; }

/// The (sorted) segment file paths of a journal directory.
std::vector<std::string> segment_paths(const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& name : io::list_dir(dir)) {
    if (name.rfind("wal_", 0) == 0) out.push_back(dir + "/" + name);
  }
  return out;
}

// --- support/io frames ------------------------------------------------------

TEST(IoFrames, RoundTripAndTornPrefix) {
  std::string stream;
  io::encode_frame("alpha", &stream);
  io::encode_frame("", &stream);
  io::encode_frame(std::string(1000, 'z'), &stream);

  std::size_t dropped = 0;
  const std::vector<std::string> payloads = io::decode_frames(stream, &dropped);
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], std::string(1000, 'z'));
  EXPECT_EQ(dropped, 0u);

  // Every proper prefix of a frame is kNeedMore, never kCorrupt or a crash.
  std::string one;
  io::encode_frame("payload", &one);
  for (std::size_t cut = 0; cut < one.size(); ++cut) {
    std::string payload;
    std::size_t consumed = 0;
    EXPECT_EQ(io::decode_frame(one.substr(0, cut), 0, &payload, &consumed),
              io::FrameStatus::kNeedMore)
        << "prefix length " << cut;
  }
}

TEST(IoFrames, EveryFlippedBitIsCorruptOrStillAFrame) {
  std::string one;
  io::encode_frame("signature-material", &one);
  for (std::size_t i = 0; i < one.size(); ++i) {
    std::string mutated = one;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    std::string payload;
    std::size_t consumed = 0;
    const io::FrameStatus st = io::decode_frame(mutated, 0, &payload, &consumed);
    // A flip in the length field may turn the stream into a longer frame's
    // prefix (kNeedMore); anything else must be flagged, and a flip in the
    // payload must never decode back to the original bytes unnoticed.
    if (st == io::FrameStatus::kOk) {
      ADD_FAILURE() << "flip at byte " << i << " decoded as a valid frame";
    }
  }
}

// --- record codec -----------------------------------------------------------

TEST(JournalCodec, AdmitTerminalQuarantineRoundTrip) {
  const std::string payload = "{\"v\":\"wire\",\"verb\":\"submit\" \n\t\\\"}";
  const std::string admit = Journal::encode_admit(7, 3, payload);
  Journal::Record rec;
  std::string error;
  ASSERT_TRUE(Journal::decode_record(admit, &rec, &error)) << error;
  EXPECT_EQ(rec.type, Journal::RecordType::kAdmit);
  EXPECT_EQ(rec.seq, 7u);
  EXPECT_EQ(rec.items, 3u);
  EXPECT_EQ(rec.payload, payload);  // byte-faithful through json::quote

  JournalTerminal t{9, 2, "completed", "label-x", "sig:abc"};
  ASSERT_TRUE(Journal::decode_record(Journal::encode_terminal(t), &rec, &error))
      << error;
  EXPECT_EQ(rec.type, Journal::RecordType::kTerminal);
  EXPECT_EQ(rec.terminal.seq, 9u);
  EXPECT_EQ(rec.terminal.item, 2u);
  EXPECT_EQ(rec.terminal.state, "completed");
  EXPECT_EQ(rec.terminal.label, "label-x");
  EXPECT_EQ(rec.terminal.signature, "sig:abc");

  const std::string fixture = "{\"v\":\"partita-oracle-fixture-v1\"}";
  ASSERT_TRUE(Journal::decode_record(Journal::encode_quarantine(4, fixture),
                                     &rec, &error))
      << error;
  EXPECT_EQ(rec.type, Journal::RecordType::kQuarantine);
  EXPECT_EQ(rec.seq, 4u);
  EXPECT_EQ(rec.payload, fixture);
}

TEST(JournalCodec, DecodeIsTotalOnMalformedInput) {
  Journal::Record rec;
  std::string error;
  for (const char* bad :
       {"", "not json", "[]", "{}", "{\"v\":\"other\",\"type\":\"admit\"}",
        "{\"v\":\"partita-journal-v1\"}",
        "{\"v\":\"partita-journal-v1\",\"type\":\"mystery\",\"seq\":1}",
        "{\"v\":\"partita-journal-v1\",\"type\":\"admit\"}"}) {
    EXPECT_FALSE(Journal::decode_record(bad, &rec, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// --- append / recover -------------------------------------------------------

TEST(Journal, AppendRecoverPairsAdmitsWithTerminals) {
  const ScratchDir scratch = fresh_dir("pairs");
  const std::string& dir = scratch.path();
  Journal j;
  Journal::Config cfg;
  cfg.dir = dir;
  ASSERT_TRUE(j.open(cfg));

  const std::uint64_t a = j.append_admit("req-a");
  const std::uint64_t b = j.append_admit("req-b", 3);
  const std::uint64_t c = j.append_admit("req-c");
  ASSERT_EQ(a, 1u);
  ASSERT_EQ(b, 2u);
  ASSERT_EQ(c, 3u);
  EXPECT_TRUE(j.append_terminal({a, 0, "completed", "la", "sig-a"}));
  // Batch b: two of three items decided -- the admit must stay undecided.
  EXPECT_TRUE(j.append_terminal({b, 0, "completed", "lb", "sig-b0"}));
  EXPECT_TRUE(j.append_terminal({b, 2, "cancelled", "lb", ""}));
  j.close();

  const JournalRecovery rec = Journal::recover(dir);
  ASSERT_EQ(rec.undecided.size(), 2u);
  EXPECT_EQ(rec.undecided[0].seq, b);
  EXPECT_EQ(rec.undecided[0].items, 3u);
  EXPECT_EQ(rec.undecided[0].payload, "req-b");
  EXPECT_EQ(rec.undecided[1].seq, c);
  EXPECT_EQ(rec.undecided[1].payload, "req-c");
  EXPECT_EQ(rec.terminals.size(), 3u);
  EXPECT_EQ(rec.next_seq, 4u);
  EXPECT_EQ(rec.records_dropped, 0u);
  EXPECT_EQ(rec.bytes_dropped, 0u);
}

TEST(Journal, RotationSpreadsHistoryAcrossSegments) {
  const ScratchDir scratch = fresh_dir("rotate");
  const std::string& dir = scratch.path();
  Journal j;
  Journal::Config cfg;
  cfg.dir = dir;
  cfg.rotate_bytes = 64;  // force a rotation nearly every admit
  cfg.sync = false;       // keep the test fast; durability is not under test
  ASSERT_TRUE(j.open(cfg));
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(j.append_admit("payload-" + std::to_string(i)),
              static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_GE(j.stats().rotations, 1u);
  j.close();

  EXPECT_GT(segment_paths(dir).size(), 1u);
  const JournalRecovery rec = Journal::recover(dir);
  ASSERT_EQ(rec.undecided.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rec.undecided[i].seq, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(rec.undecided[i].payload, "payload-" + std::to_string(i));
  }
  EXPECT_EQ(rec.next_seq, 11u);
}

TEST(Journal, CompactionDropsDecidedAndPreservesSeqs) {
  const ScratchDir scratch = fresh_dir("compact");
  const std::string& dir = scratch.path();
  Journal j;
  Journal::Config cfg;
  cfg.dir = dir;
  cfg.rotate_bytes = 64;
  cfg.sync = false;
  ASSERT_TRUE(j.open(cfg));
  for (int i = 0; i < 6; ++i) j.append_admit("p" + std::to_string(i));
  for (std::uint64_t seq : {1u, 2u, 4u})
    j.append_terminal({seq, 0, "completed", "l", "s"});
  const std::size_t before = segment_paths(dir).size();
  ASSERT_TRUE(j.compact());
  EXPECT_LT(segment_paths(dir).size(), before);

  // Seqs survive compaction verbatim, and the journal keeps appending with
  // no seq reuse.
  EXPECT_EQ(j.append_admit("p-post"), 7u);
  j.close();

  const JournalRecovery rec = Journal::recover(dir);
  ASSERT_EQ(rec.undecided.size(), 4u);
  EXPECT_EQ(rec.undecided[0].seq, 3u);
  EXPECT_EQ(rec.undecided[0].payload, "p2");
  EXPECT_EQ(rec.undecided[1].seq, 5u);
  EXPECT_EQ(rec.undecided[2].seq, 6u);
  EXPECT_EQ(rec.undecided[3].seq, 7u);
  EXPECT_EQ(rec.undecided[3].payload, "p-post");
}

TEST(Journal, AppendFaultSiteRejectsWithoutCrashing) {
  const ScratchDir scratch = fresh_dir("fault");
  const std::string& dir = scratch.path();
  Journal j;
  Journal::Config cfg;
  cfg.dir = dir;
  ASSERT_TRUE(j.open(cfg));
  ASSERT_EQ(j.append_admit("before"), 1u);
  {
    support::ScopedFault fault("journal.append");
    EXPECT_EQ(j.append_admit("doomed"), 0u);
    EXPECT_EQ(j.stats().append_failures, 1u);
  }
  // Past the fault the journal keeps working and never reuses a seq.
  EXPECT_EQ(j.append_admit("after"), 2u);
  j.close();
  const JournalRecovery rec = Journal::recover(dir);
  ASSERT_EQ(rec.undecided.size(), 2u);
  EXPECT_EQ(rec.undecided[0].payload, "before");
  EXPECT_EQ(rec.undecided[1].payload, "after");
}

// --- quarantine files -------------------------------------------------------

TEST(Journal, QuarantineFileRoundTripsBothFormats) {
  const ScratchDir scratch = fresh_dir("quarantine");
  const std::string& dir = scratch.path();
  const std::string fixture = "{\"v\":\"partita-oracle-fixture-v1\",\"n\":3}";

  const std::string framed = dir + "/framed.journal";
  ASSERT_TRUE(Journal::write_quarantine_file(framed, 42, fixture));
  std::string got, error;
  ASSERT_TRUE(Journal::read_quarantine_file(framed, &got, &error)) << error;
  EXPECT_EQ(got, fixture);

  // partita_fuzz's repro dumps and the committed fixtures are bare JSON;
  // the reader must pass them through.
  const std::string bare = dir + "/bare.json";
  {
    std::ofstream f(bare);
    f << fixture;
  }
  ASSERT_TRUE(Journal::read_quarantine_file(bare, &got, &error)) << error;
  EXPECT_EQ(got, fixture);

  EXPECT_FALSE(Journal::read_quarantine_file(dir + "/absent", &got, &error));
}

// --- corrupt tails: salvage up to the last valid frame, never crash ---------

TEST(JournalCorruptTail, TruncationKeepsEveryWholeFrame) {
  const ScratchDir scratch = fresh_dir("truncate");
  const std::string& dir = scratch.path();
  {
    Journal j;
    Journal::Config cfg;
    cfg.dir = dir;
    ASSERT_TRUE(j.open(cfg));
    for (int i = 0; i < 3; ++i) j.append_admit("keep-" + std::to_string(i));
  }
  const std::vector<std::string> segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  std::string bytes;
  ASSERT_TRUE(io::read_file(segs[0], &bytes));

  // Chop the tail at every possible point: recovery must keep exactly the
  // frames that survived whole, and account for the dropped suffix. The
  // three frames are identically sized (equal payload lengths).
  ASSERT_EQ(bytes.size() % 3, 0u);
  const std::size_t frame = bytes.size() / 3;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::ofstream f(segs[0], std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(cut));
    f.close();
    const JournalRecovery rec = Journal::recover(dir);
    ASSERT_EQ(rec.undecided.size(), cut / frame) << "cut at " << cut;
    EXPECT_EQ(rec.bytes_dropped, cut - (cut / frame) * frame) << "cut at " << cut;
    for (std::size_t i = 0; i < rec.undecided.size(); ++i) {
      EXPECT_EQ(rec.undecided[i].payload, "keep-" + std::to_string(i));
    }
  }
}

TEST(JournalCorruptTail, BitFlipStopsAtLastValidFrame) {
  const ScratchDir scratch = fresh_dir("bitflip");
  const std::string& dir = scratch.path();
  {
    Journal j;
    Journal::Config cfg;
    cfg.dir = dir;
    ASSERT_TRUE(j.open(cfg));
    j.append_admit("first");
    j.append_admit("second");
    j.append_admit("third");
  }
  const std::vector<std::string> segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  std::string clean;
  ASSERT_TRUE(io::read_file(segs[0], &clean));

  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = clean;
    const std::size_t at = rng() % bytes.size();
    bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rng() % 8)));
    std::ofstream f(segs[0], std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.close();
    const JournalRecovery rec = Journal::recover(dir);  // must never crash
    // Whatever was salvaged must be an exact prefix of the real history.
    static const char* kExpected[] = {"first", "second", "third"};
    ASSERT_LE(rec.undecided.size(), 3u);
    for (std::size_t i = 0; i < rec.undecided.size(); ++i) {
      EXPECT_EQ(rec.undecided[i].payload, kExpected[i]) << "trial " << trial;
      EXPECT_EQ(rec.undecided[i].seq, i + 1) << "trial " << trial;
    }
  }
}

TEST(JournalCorruptTail, RandomGarbageNeverCrashesRecovery) {
  const ScratchDir scratch = fresh_dir("garbage");
  const std::string& dir = scratch.path();
  std::mt19937_64 rng(987654321);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t len = rng() % 512;
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng());
    // Occasionally lead with the frame magic so the fuzz also walks the
    // header-parses-but-payload-lies paths.
    if (trial % 3 == 0 && bytes.size() >= 4) {
      bytes[0] = '1';
      bytes[1] = 'L';
      bytes[2] = 'J';
      bytes[3] = 'P';
    }
    std::ofstream f(dir + "/wal_000000000001.log",
                    std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.close();
    // Surviving the scan is the assertion; whatever parsed must be
    // internally consistent.
    const JournalRecovery rec = Journal::recover(dir);
    EXPECT_GE(rec.next_seq, 1u);
    EXPECT_LE(rec.undecided.size(), rec.records_salvaged);
  }
}

TEST(JournalCorruptTail, ValidFrameWithMalformedJsonIsDroppedNotFatal) {
  const ScratchDir scratch = fresh_dir("badjson");
  const std::string& dir = scratch.path();
  std::string stream;
  io::encode_frame(Journal::encode_admit(1, 1, "good"), &stream);
  io::encode_frame("this is not a journal record", &stream);
  io::encode_frame(Journal::encode_admit(2, 1, "also-good"), &stream);
  {
    std::ofstream f(dir + "/wal_000000000001.log", std::ios::binary);
    f.write(stream.data(), static_cast<std::streamsize>(stream.size()));
  }
  const JournalRecovery rec = Journal::recover(dir);
  // The CRC frame was intact, so decoding continues past the bad record.
  ASSERT_EQ(rec.undecided.size(), 2u);
  EXPECT_EQ(rec.undecided[0].payload, "good");
  EXPECT_EQ(rec.undecided[1].payload, "also-good");
  EXPECT_EQ(rec.records_dropped, 1u);
  EXPECT_EQ(rec.bytes_dropped, 0u);
}

TEST(JournalCorruptTail, ReopenAfterTornTailContinuesCleanly) {
  const ScratchDir scratch = fresh_dir("reopen");
  const std::string& dir = scratch.path();
  {
    Journal j;
    Journal::Config cfg;
    cfg.dir = dir;
    ASSERT_TRUE(j.open(cfg));
    j.append_admit("survivor");
    j.append_admit("torn-away");
  }
  // Tear the tail mid-frame (simulated power loss during the second append).
  const std::vector<std::string> segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  std::string bytes;
  ASSERT_TRUE(io::read_file(segs[0], &bytes));
  {
    std::ofstream f(segs[0], std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 7));
  }

  // A reopened journal compacts the salvage and keeps serving appends with
  // fresh seqs; the torn admit is gone (it was never acknowledged).
  const JournalRecovery rec = Journal::recover(dir);
  ASSERT_EQ(rec.undecided.size(), 1u);
  EXPECT_EQ(rec.undecided[0].payload, "survivor");
  Journal j;
  Journal::Config cfg;
  cfg.dir = dir;
  ASSERT_TRUE(j.open(cfg, rec));
  EXPECT_EQ(j.append_admit("fresh"), 2u);
  j.close();
  const JournalRecovery again = Journal::recover(dir);
  ASSERT_EQ(again.undecided.size(), 2u);
  EXPECT_EQ(again.undecided[0].payload, "survivor");
  EXPECT_EQ(again.undecided[1].payload, "fresh");
}

}  // namespace
}  // namespace partita
