// Wire framing for partita-wire-v1.
//
// A frame on the socket is:
//
//   [4-byte big-endian length N] [1-byte version] [N-1 bytes JSON payload]
//
// The length counts everything after the prefix (version byte + payload),
// so N >= 1 for any well-formed frame. The version byte is 0x01; a decoder
// that sees anything else stops immediately -- a misframed or hostile peer
// must not be able to desynchronize the stream and have garbage parsed as
// payloads. A length above the configured ceiling likewise kills the
// connection before any allocation of attacker-chosen size.
//
// FrameDecoder is an incremental push parser: feed() whatever bytes arrived,
// then drain complete frames with next(). It never throws and never reads
// the socket itself, so it is trivially fuzzable (see wire_protocol_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace partita::net {

/// Protocol version byte carried by every frame.
inline constexpr std::uint8_t kWireVersion = 0x01;

/// Default ceiling on one frame's length field (version byte + payload).
/// Requests and responses are small; 1 MiB leaves two orders of magnitude
/// of headroom while bounding what a hostile length prefix can demand.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 20;

/// Encodes one payload into a complete frame (prefix + version + payload).
std::string encode_frame(const std::string& payload);

class FrameDecoder {
 public:
  enum class Error : std::uint8_t {
    kNone,        // stream healthy
    kBadVersion,  // version byte != kWireVersion
    kOversized,   // length field exceeds the ceiling
    kEmpty,       // length field 0 (no room for the version byte)
  };

  explicit FrameDecoder(std::size_t max_frame = kDefaultMaxFrameBytes)
      : max_frame_(max_frame) {}

  /// Appends raw bytes from the transport. Safe to call after an error
  /// (bytes are dropped; the error is sticky).
  void feed(const char* data, std::size_t n);

  /// Extracts the next complete frame's payload. Returns false when no
  /// complete frame is buffered (either more bytes are needed or the stream
  /// is poisoned -- check error()).
  bool next(std::string* payload);

  /// First framing error seen; sticky. A non-kNone stream must be closed.
  Error error() const { return error_; }
  const char* error_message() const;

  /// Bytes buffered but not yet returned (diagnostics).
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  std::size_t max_frame_;
  Error error_ = Error::kNone;
};

const char* to_string(FrameDecoder::Error e);

}  // namespace partita::net
