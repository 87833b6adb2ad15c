// Durable-file primitives shared by the write-ahead journal and the cache
// snapshot: CRC-framed records and crash-safe file replacement.
//
// Frame layout (little-endian, 12-byte header + payload):
//
//   u32 magic      0x504A4C31 ("PJL1")
//   u32 length     payload byte count
//   u32 crc32      CRC-32 (IEEE, reflected) of the payload bytes
//   u8  payload[length]
//
// decode_frame is a total function: any prefix of a valid stream decodes to
// kNeedMore, anything else (bad magic, implausible length, CRC mismatch) to
// kCorrupt with zero bytes consumed, so a reader can salvage every frame up
// to the first torn or bit-flipped one and stop cleanly -- the exact
// behaviour journal recovery needs on a tail that died mid-append.
//
// write_file_atomic is the classic tmp + fsync + rename + fsync(dir)
// sequence: after it returns true the new content is durable and a crash at
// any point leaves either the old file or the new one, never a mix.
// AppendFile is an O_APPEND writer whose append() optionally fsyncs before
// returning -- the journal's append-before-acknowledge primitive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace partita::support::io {

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) -- the zlib
/// polynomial, table-driven, no external dependency.
std::uint32_t crc32(const void* data, std::size_t size);

constexpr std::uint32_t kFrameMagic = 0x504A4C31u;  // "PJL1"
constexpr std::size_t kFrameHeaderBytes = 12;
/// Upper bound on a single frame payload; a decoded length beyond this is
/// treated as corruption rather than an allocation request.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Appends one framed record to `out`.
void encode_frame(const std::string& payload, std::string* out);

enum class FrameStatus {
  kOk,        // one frame decoded; *consumed advanced past it
  kNeedMore,  // `data` is a (possibly empty) prefix of a valid frame
  kCorrupt,   // bad magic, implausible length, or CRC mismatch
};

/// Decodes one frame from data[offset..). On kOk sets *payload and
/// *consumed (bytes of this frame, header included). Total: never throws.
FrameStatus decode_frame(const std::string& data, std::size_t offset,
                         std::string* payload, std::size_t* consumed);

/// Splits a byte stream into frames, stopping at the first torn/corrupt
/// one. Returns decoded payloads; *dropped_bytes gets the length of the
/// undecodable suffix (0 when the stream was fully consumed).
std::vector<std::string> decode_frames(const std::string& data,
                                       std::size_t* dropped_bytes);

/// Reads a whole file. Returns false (and leaves *out unspecified) when the
/// file cannot be opened or read.
bool read_file(const std::string& path, std::string* out);

/// Writes `data` to `path` via tmp + fsync + rename(2) + fsync of the
/// containing directory. Atomic with respect to crashes: readers see the
/// old content or the new, never a torn mix.
bool write_file_atomic(const std::string& path, const std::string& data,
                       bool sync = true);

/// Regular-file names (not paths) inside `dir`, sorted. Empty on error.
std::vector<std::string> list_dir(const std::string& dir);

/// mkdir -p. True when the directory exists afterwards.
bool make_dirs(const std::string& dir);

bool remove_file(const std::string& path);

/// Append-mode writer with optional per-append fsync -- the journal's
/// durability primitive. One writer per file; not thread-safe.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens (creating if absent) for appending. Closes any previous file.
  bool open(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Appends `data`; when `sync`, fsyncs before returning so the bytes are
  /// durable once this call succeeds.
  bool append(const std::string& data, bool sync);
  /// Explicit fsync (used to batch several unsynced appends).
  bool sync();
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace partita::support::io
