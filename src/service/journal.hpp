// Write-ahead journal for the solve service (partita-journal-v1).
//
// Durability contract: every admitted SolveRequest is appended to the
// journal -- one CRC-framed record (support/io), fsync'd -- BEFORE its
// submit ticket is acknowledged to the caller. A request the client saw
// admitted therefore survives process death: on boot, recover() replays the
// segments, pairs admit records with the terminal records written when each
// item finished, and surfaces everything still undecided so the service can
// re-admit it under its original envelope. Requests execute at-least-once
// across a crash; acknowledgment is exactly-once (a crash before the append
// means the client never got a ticket).
//
// Record schema (one JSON document per frame, field "v" =
// "partita-journal-v1"):
//
//   admit     {"type":"admit","seq":N,"items":n,"req":"<payload>"}
//   terminal  {"type":"terminal","seq":N,"item":i,"state":"completed",
//              "label":"...","signature":"..."}
//   quarantine{"type":"quarantine","seq":N,"fixture":"<fixture json>"}
//
// The request payload is OPAQUE to the journal (the wire layer encodes and
// decodes it); the journal only guarantees byte-faithful round-trips. The
// quarantine type is the PR 4 fixture writer re-based onto this encoding:
// a quarantined instance is one framed record embedding the
// partita-oracle-fixture-v1 document, so the same file is replayable by
// `partita_fuzz --replay` and legible to journal tooling.
//
// Torn tails. Appends can die mid-write (power loss, SIGKILL): recovery
// decodes each segment up to the first frame that fails its CRC, counts the
// salvaged records and the dropped suffix bytes, and never crashes on any
// byte sequence -- corrupt_tail_test fuzzes this.
//
// Compaction. open() rewrites history: undecided admits are re-framed into
// one fresh segment (original seqs preserved), decided records are dropped,
// and appends continue in a new segment. compact() does the same for a
// quiesced journal (the service calls it on graceful drain).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/io.hpp"

namespace partita::service {

/// One undecided admit surfaced by recovery: the admission seq plus the
/// opaque request payload exactly as it was journaled.
struct JournalRecord {
  std::uint64_t seq = 0;
  std::size_t items = 1;
  std::string payload;
};

/// One terminal record: which item of which admit finished, how, and the
/// solution_signature it answered with (empty for non-completed states).
struct JournalTerminal {
  std::uint64_t seq = 0;
  std::size_t item = 0;
  std::string state;
  std::string label;
  std::string signature;
};

/// What recover() salvaged from a journal directory.
struct JournalRecovery {
  /// Admits with at least one item lacking a terminal record, seq order.
  std::vector<JournalRecord> undecided;
  /// Every terminal record seen (CI compares signatures across a crash).
  std::vector<JournalTerminal> terminals;
  /// First seq a reopened journal may assign.
  std::uint64_t next_seq = 1;
  std::size_t segments = 0;          // segment files scanned
  std::size_t records_salvaged = 0;  // frames that decoded and parsed
  std::size_t records_dropped = 0;   // frames whose JSON was malformed
  std::size_t bytes_dropped = 0;     // torn/corrupt suffix bytes skipped
};

struct JournalStats {
  std::uint64_t admits = 0;
  std::uint64_t terminals = 0;
  std::uint64_t rotations = 0;
  std::uint64_t append_failures = 0;
};

class Journal {
 public:
  struct Config {
    std::string dir;
    /// A segment past this size rotates at the next admit.
    std::size_t rotate_bytes = 4u << 20;
    /// fsync every append (the durability contract; tests may relax it).
    bool sync = true;
  };

  /// Record type tag inside one decoded journal document.
  enum class RecordType : std::uint8_t { kAdmit, kTerminal, kQuarantine };

  /// One decoded record; the fields populated depend on `type`.
  struct Record {
    RecordType type = RecordType::kAdmit;
    std::uint64_t seq = 0;
    std::size_t items = 1;   // admit
    std::string payload;     // admit request / quarantine fixture document
    JournalTerminal terminal;  // terminal
  };

  Journal() = default;
  ~Journal() { close(); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Scans `dir` (creating it if absent) without mutating anything: pairs
  /// admits with terminals, stops each segment at its first torn frame.
  /// Total -- any byte content yields a result, never a crash.
  static JournalRecovery recover(const std::string& dir);

  /// Compacts `recovered` history (undecided admits survive, seqs
  /// preserved; decided records are dropped) and opens a fresh segment for
  /// appending. `recovered` must come from recover() on the same dir.
  bool open(const Config& config, const JournalRecovery& recovered);
  /// Convenience for a caller that does not replay: recover() + open().
  bool open(const Config& config);

  bool is_open() const { return file_.is_open(); }
  void close();

  /// Appends one admit record and (per Config::sync) fsyncs; the record is
  /// durable when this returns. Returns the assigned seq, 0 on failure --
  /// fault site "journal.append". Not thread-safe; the service serializes
  /// appends under its own mutex.
  std::uint64_t append_admit(const std::string& payload, std::size_t items = 1);

  /// Appends the terminal record for (seq, item) -- fault site
  /// "journal.trim". A lost terminal record is benign: the admit merely
  /// replays on the next recovery.
  bool append_terminal(const JournalTerminal& terminal);

  /// Rewrites the directory down to undecided admits only. Requires a
  /// quiesced journal (no concurrent appends); the service calls this after
  /// a graceful drain, when everything is decided and the directory
  /// collapses to one empty segment.
  bool compact();

  const JournalStats& stats() const { return stats_; }
  std::uint64_t next_seq() const { return next_seq_; }
  const std::string& dir() const { return cfg_.dir; }

  // --- record codec (also used by the quarantine writer / replayer) -------
  static std::string encode_admit(std::uint64_t seq, std::size_t items,
                                  const std::string& payload);
  static std::string encode_terminal(const JournalTerminal& terminal);
  static std::string encode_quarantine(std::uint64_t seq,
                                       const std::string& fixture_json);
  /// Parses one record document. Total: malformed input yields false plus a
  /// one-line reason, never a crash.
  static bool decode_record(const std::string& text, Record* out,
                            std::string* error);

  /// Writes `path` as one CRC-framed quarantine record embedding
  /// `fixture_json` (atomic replace). The partita_fuzz replayer accepts
  /// both this format and bare fixture JSON, which is what partita_fuzz
  /// itself writes for its repros.
  static bool write_quarantine_file(const std::string& path, std::uint64_t seq,
                                    const std::string& fixture_json);
  /// Extracts the fixture document from a file in either format (framed
  /// quarantine record, or bare JSON as partita_fuzz's repro dumps and
  /// tests/fixtures use).
  static bool read_quarantine_file(const std::string& path, std::string* fixture_json,
                                   std::string* error);

 private:
  static std::string segment_name(std::uint64_t first_seq);
  bool start_segment(std::uint64_t first_seq);
  bool append_framed(const std::string& record);
  bool reset_segments(const JournalRecovery& recovered);

  Config cfg_;
  support::io::AppendFile file_;
  std::size_t current_bytes_ = 0;
  std::uint64_t next_seq_ = 1;
  JournalStats stats_;
};

}  // namespace partita::service
