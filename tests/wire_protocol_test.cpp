// Wire-level tests for partita-wire-v1: framing (net/frame.hpp) and the
// JSON codec (net/protocol.hpp). Everything here is pure in-memory byte
// pushing -- no sockets -- which is exactly what makes the malformed-frame
// fuzzing cheap: the decoder must never crash, never allocate an
// attacker-chosen amount, and must poison the stream on the first framing
// error instead of resynchronizing on garbage.
#include "net/frame.hpp"
#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace partita::net {
namespace {

// --- framing: round trip ----------------------------------------------------

TEST(Frame, EncodeLayout) {
  const std::string f = encode_frame("ab");
  ASSERT_EQ(f.size(), 4u + 1u + 2u);
  // Big-endian length counts version byte + payload = 3.
  EXPECT_EQ(static_cast<unsigned char>(f[0]), 0);
  EXPECT_EQ(static_cast<unsigned char>(f[1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(f[2]), 0);
  EXPECT_EQ(static_cast<unsigned char>(f[3]), 3);
  EXPECT_EQ(static_cast<unsigned char>(f[4]), kWireVersion);
  EXPECT_EQ(f.substr(5), "ab");
}

TEST(Frame, RoundTripSingle) {
  const std::string frame = encode_frame(R"({"v":"partita-wire-v1"})");
  FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_TRUE(dec.next(&payload));
  EXPECT_EQ(payload, R"({"v":"partita-wire-v1"})");
  EXPECT_FALSE(dec.next(&payload));
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kNone);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, RoundTripEmptyPayload) {
  // A zero-byte payload is legal (length field 1: just the version byte).
  const std::string frame = encode_frame("");
  FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  std::string payload = "sentinel";
  ASSERT_TRUE(dec.next(&payload));
  EXPECT_EQ(payload, "");
}

TEST(Frame, BackToBackFramesInOneFeed) {
  const std::string bytes = encode_frame("one") + encode_frame("two") + encode_frame("three");
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  std::string p;
  ASSERT_TRUE(dec.next(&p));
  EXPECT_EQ(p, "one");
  ASSERT_TRUE(dec.next(&p));
  EXPECT_EQ(p, "two");
  ASSERT_TRUE(dec.next(&p));
  EXPECT_EQ(p, "three");
  EXPECT_FALSE(dec.next(&p));
}

TEST(Frame, ByteAtATimeFeeding) {
  const std::string frame = encode_frame("incremental payload");
  FrameDecoder dec;
  std::string p;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.feed(&frame[i], 1);
    EXPECT_FALSE(dec.next(&p)) << "frame complete too early at byte " << i;
    EXPECT_EQ(dec.error(), FrameDecoder::Error::kNone);
  }
  dec.feed(&frame[frame.size() - 1], 1);
  ASSERT_TRUE(dec.next(&p));
  EXPECT_EQ(p, "incremental payload");
}

// --- framing: malformed streams ---------------------------------------------

TEST(Frame, TruncatedLengthPrefixIsJustIncomplete) {
  // Two bytes of a four-byte prefix: not an error, merely not yet a frame.
  const char bytes[2] = {0, 0};
  FrameDecoder dec;
  dec.feed(bytes, 2);
  std::string p;
  EXPECT_FALSE(dec.next(&p));
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kNone);
  EXPECT_EQ(dec.buffered(), 2u);
}

TEST(Frame, TruncatedBodyIsJustIncomplete) {
  const std::string frame = encode_frame("payload");
  FrameDecoder dec;
  dec.feed(frame.data(), frame.size() - 3);
  std::string p;
  EXPECT_FALSE(dec.next(&p));
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kNone);
}

TEST(Frame, BadVersionByteIsStickyPoison) {
  std::string frame = encode_frame("payload");
  frame[4] = 0x7f;  // not kWireVersion
  FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  std::string p;
  EXPECT_FALSE(dec.next(&p));
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kBadVersion);
  // The stream stays poisoned: a well-formed follow-up frame is never parsed.
  const std::string good = encode_frame("good");
  dec.feed(good.data(), good.size());
  EXPECT_FALSE(dec.next(&p));
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kBadVersion);
  EXPECT_NE(std::string(dec.error_message()).find("version"), std::string::npos);
}

TEST(Frame, OversizedLengthRejectedFromHeaderAlone) {
  // The decoder must refuse before the body arrives -- a hostile length
  // prefix never causes a matching allocation.
  FrameDecoder dec(/*max_frame=*/64);
  const unsigned char header[4] = {0x7f, 0xff, 0xff, 0xff};
  dec.feed(reinterpret_cast<const char*>(header), 4);
  std::string p;
  EXPECT_FALSE(dec.next(&p));
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kOversized);
}

TEST(Frame, DefaultCeilingIsOneMiB) {
  FrameDecoder dec;
  // length = 1 MiB + 1: one past the ceiling.
  const unsigned char header[4] = {0x00, 0x10, 0x00, 0x01};
  dec.feed(reinterpret_cast<const char*>(header), 4);
  std::string p;
  EXPECT_FALSE(dec.next(&p));
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kOversized);
}

TEST(Frame, ZeroLengthFrameIsAnError) {
  // length 0 leaves no room for the version byte.
  const char header[4] = {0, 0, 0, 0};
  FrameDecoder dec;
  dec.feed(header, 4);
  std::string p;
  EXPECT_FALSE(dec.next(&p));
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kEmpty);
}

TEST(Frame, FeedAfterErrorDropsBytes) {
  std::string frame = encode_frame("x");
  frame[4] = 0x02;
  FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  std::string p;
  EXPECT_FALSE(dec.next(&p));
  const std::size_t buffered = dec.buffered();
  dec.feed("more bytes", 10);
  EXPECT_EQ(dec.buffered(), buffered);  // dropped, not accumulated
}

// Random-bytes fuzz: whatever arrives, the decoder must not crash and must
// either produce version-checked frames or park on a sticky error.
TEST(FrameFuzz, RandomBytesNeverCrash) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder dec(/*max_frame=*/4096);
    std::uniform_int_distribution<int> len_dist(1, 64);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    for (int chunk = 0; chunk < 20; ++chunk) {
      std::string bytes(static_cast<std::size_t>(len_dist(rng)), '\0');
      for (char& c : bytes) c = static_cast<char>(byte_dist(rng));
      dec.feed(bytes.data(), bytes.size());
      std::string p;
      while (dec.next(&p)) {
        EXPECT_LT(p.size(), 4096u);
      }
      if (dec.error() != FrameDecoder::Error::kNone) break;
    }
  }
}

// Adversarial split fuzz: well-formed frames chopped at random boundaries
// must always reassemble bit-exactly.
TEST(FrameFuzz, RandomSplitsReassembleExactly) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> size_dist(0, 300);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::string> payloads;
    std::string stream;
    const int frames = 1 + round % 5;
    for (int i = 0; i < frames; ++i) {
      std::string payload(static_cast<std::size_t>(size_dist(rng)), '\0');
      for (char& c : payload) c = static_cast<char>(byte_dist(rng));
      payloads.push_back(payload);
      stream += encode_frame(payload);
    }
    FrameDecoder dec;
    std::vector<std::string> got;
    std::size_t off = 0;
    std::uniform_int_distribution<std::size_t> chunk_dist(1, 17);
    while (off < stream.size()) {
      const std::size_t n = std::min(chunk_dist(rng), stream.size() - off);
      dec.feed(stream.data() + off, n);
      off += n;
      std::string p;
      while (dec.next(&p)) got.push_back(p);
    }
    EXPECT_EQ(dec.error(), FrameDecoder::Error::kNone);
    EXPECT_EQ(got, payloads);
  }
}

// --- codec: requests ---------------------------------------------------------

TEST(Codec, SubmitRequestRoundTrip) {
  WireRequest req;
  req.id = 42;
  req.verb = "submit";
  req.workload = "gsm_encoder";
  req.label = "my label \"quoted\"";
  req.tenant = "tenant-a";
  req.priority = service::kPriorityInteractive;
  req.deadline_seconds = 1.5;
  req.required_gain = 12345;
  req.time_limit_seconds = 1.0 / 3.0;  // exercises %.17g round-tripping
  req.memory_limit_mb = 256;

  std::string err;
  const auto back = decode_request(encode_request(req), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->id, 42u);
  EXPECT_EQ(back->verb, "submit");
  EXPECT_EQ(back->workload, "gsm_encoder");
  EXPECT_FALSE(back->spec.has_value());
  EXPECT_EQ(back->label, req.label);
  EXPECT_EQ(back->tenant, "tenant-a");
  EXPECT_EQ(back->priority, service::kPriorityInteractive);
  EXPECT_EQ(back->deadline_seconds, 1.5);
  EXPECT_EQ(back->required_gain, 12345);
  EXPECT_TRUE(back->gains.empty());
  EXPECT_EQ(back->time_limit_seconds, 1.0 / 3.0);  // exact, not approximate
  EXPECT_EQ(back->memory_limit_mb, 256u);
}

TEST(Codec, SpecAndBatchRequestRoundTrip) {
  WireRequest req;
  req.verb = "submit";
  req.spec = SpecRef{987654321, 14, 5, 7, 4, 2};
  req.gains = {100, -1, 2500, 0};
  req.priority = service::kPriorityBatch;

  std::string err;
  const auto back = decode_request(encode_request(req), &err);
  ASSERT_TRUE(back.has_value()) << err;
  ASSERT_TRUE(back->spec.has_value());
  EXPECT_EQ(back->spec->seed, 987654321u);
  EXPECT_EQ(back->spec->scalls, 14);
  EXPECT_EQ(back->spec->kernels, 5);
  EXPECT_EQ(back->spec->ips, 7);
  EXPECT_EQ(back->spec->branch_groups, 4);
  EXPECT_EQ(back->spec->hierarchy_depth, 2);
  EXPECT_EQ(back->gains, (std::vector<std::int64_t>{100, -1, 2500, 0}));
  EXPECT_EQ(back->priority, service::kPriorityBatch);
}

TEST(Codec, TicketVerbsRoundTrip) {
  for (const char* verb : {"cancel", "status", "wait"}) {
    WireRequest req;
    req.id = 7;
    req.verb = verb;
    req.ticket = 991;
    std::string err;
    const auto back = decode_request(encode_request(req), &err);
    ASSERT_TRUE(back.has_value()) << verb << ": " << err;
    EXPECT_EQ(back->verb, verb);
    EXPECT_EQ(back->ticket, 991u);
  }
}

TEST(Codec, PriorityAcceptsNameOrNumeral) {
  std::string err;
  const auto by_name = decode_request(
      R"({"v":"partita-wire-v1","verb":"submit","workload":"fig9","priority":"batch"})", &err);
  ASSERT_TRUE(by_name.has_value()) << err;
  EXPECT_EQ(by_name->priority, service::kPriorityBatch);
  const auto by_number = decode_request(
      R"({"v":"partita-wire-v1","verb":"submit","workload":"fig9","priority":0})", &err);
  ASSERT_TRUE(by_number.has_value()) << err;
  EXPECT_EQ(by_number->priority, service::kPriorityInteractive);
}

TEST(Codec, DecodeRequestRejections) {
  std::string err;
  EXPECT_FALSE(decode_request("not json at all", &err).has_value());
  EXPECT_NE(err.find("malformed JSON"), std::string::npos);
  EXPECT_FALSE(decode_request("[1,2,3]", &err).has_value());
  EXPECT_FALSE(decode_request(R"({"verb":"ping"})", &err).has_value());
  EXPECT_NE(err.find("schema"), std::string::npos);
  EXPECT_FALSE(decode_request(R"({"v":"partita-wire-v2","verb":"ping"})", &err).has_value());
  EXPECT_FALSE(decode_request(R"({"v":"partita-wire-v1","id":3})", &err).has_value());
  EXPECT_NE(err.find("verb"), std::string::npos);
  EXPECT_FALSE(decode_request(
      R"({"v":"partita-wire-v1","verb":"submit","priority":"urgent"})", &err).has_value());
  EXPECT_NE(err.find("priority"), std::string::npos);
}

// --- codec: responses --------------------------------------------------------

TEST(Codec, ResponseWithResultRoundTrip) {
  WireResponse resp;
  resp.id = 9;
  resp.verb = "wait";
  resp.ok = true;
  WireResult r;
  r.ticket = 17;
  r.label = "gsm_encoder";
  r.state = "completed";
  r.attempts = 2;
  r.cache = "neighbor";
  WireSelection s;
  s.feasible = true;
  s.chosen = {0, 3, 5};
  s.ips_used = {1, 4};
  s.ip_area = 12345.6789012345678;  // needs all 17 significant digits
  s.interface_area = 1.0 / 7.0;
  s.ip_power = 0.1 + 0.2;  // the canonical not-0.3 double
  s.interface_power = 2.25;
  s.min_path_gain = 987654321;
  s.s_instructions = 4;
  s.selected_scalls = 6;
  s.rung = "full";
  s.optimality_gap = 1e-9;
  r.selection = s;
  resp.result = r;

  std::string err;
  const auto back = decode_response(encode_response(resp), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->id, 9u);
  EXPECT_TRUE(back->ok);
  ASSERT_TRUE(back->result.has_value());
  EXPECT_EQ(back->result->ticket, 17u);
  EXPECT_EQ(back->result->state, "completed");
  EXPECT_EQ(back->result->attempts, 2);
  EXPECT_EQ(back->result->cache, "neighbor");
  ASSERT_TRUE(back->result->selection.has_value());
  const WireSelection& b = *back->result->selection;
  // key() compares every solution-defining field; doubles must be
  // bit-identical after the trip, not merely close.
  EXPECT_EQ(b.key(), s.key());
  EXPECT_EQ(b.ip_area, s.ip_area);
  EXPECT_EQ(b.interface_area, s.interface_area);
  EXPECT_EQ(b.ip_power, s.ip_power);
  EXPECT_EQ(b.optimality_gap, s.optimality_gap);
  EXPECT_EQ(b.chosen, s.chosen);
  EXPECT_EQ(b.ips_used, s.ips_used);
}

TEST(Codec, ErrorResponseRoundTrip) {
  WireResponse resp;
  resp.id = 3;
  resp.verb = "submit";
  resp.ok = false;
  resp.error = {"protocol", "unknown workload 'nope'"};
  std::string err;
  const auto back = decode_response(encode_response(resp), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error.kind, "protocol");
  EXPECT_EQ(back->error.message, "unknown workload 'nope'");
}

TEST(Codec, RejectedSubmitResponseRoundTrip) {
  WireResponse resp;
  resp.verb = "submit";
  resp.ok = true;
  resp.tickets = {5, 6, 7};
  resp.state = "rejected";
  resp.retry_after_seconds = 0.075;
  resp.reject_reason = "admission queue full";
  std::string err;
  const auto back = decode_response(encode_response(resp), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->tickets, (std::vector<std::uint64_t>{5, 6, 7}));
  EXPECT_EQ(back->state, "rejected");
  EXPECT_EQ(back->retry_after_seconds, 0.075);
  EXPECT_EQ(back->reject_reason, "admission queue full");
}

TEST(Codec, StatsResponseRoundTrip) {
  WireResponse resp;
  resp.verb = "stats";
  resp.ok = true;
  resp.stats = {{"submitted", 12}, {"completed", 11}, {"sched_backfills", 3}};
  resp.policy = "priority";
  std::string err;
  const auto back = decode_response(encode_response(resp), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->stats.at("submitted"), 12.0);
  EXPECT_EQ(back->stats.at("sched_backfills"), 3.0);
  EXPECT_EQ(back->policy, "priority");
}

TEST(Codec, CacheMarkerDefaultsEmptyAndOmitted) {
  // A cacheless server sends no "cache" field at all; the decoder must leave
  // the marker empty rather than inventing one.
  WireResponse resp;
  resp.verb = "wait";
  resp.ok = true;
  WireResult r;
  r.ticket = 4;
  r.state = "completed";
  resp.result = r;
  const std::string payload = encode_response(resp);
  EXPECT_EQ(payload.find("\"cache\""), std::string::npos);
  std::string err;
  const auto back = decode_response(payload, &err);
  ASSERT_TRUE(back.has_value()) << err;
  ASSERT_TRUE(back->result.has_value());
  EXPECT_EQ(back->result->cache, "");
}

TEST(Codec, CacheStatsPayloadRoundTripsExactDoubles) {
  // The stats verb carries the solution-cache counters as doubles; they must
  // survive the trip bit-identically even at the integer-precision edge
  // (2^53 - 1) and for awkward fractions.
  WireResponse resp;
  resp.verb = "stats";
  resp.ok = true;
  resp.stats = {{"cache_lookups", 9007199254740991.0},
                {"cache_hits", 1.0 / 3.0},
                {"cache_misses", 12345678901234.0},
                {"cache_neighbor_seeds", 7.0},
                {"cache_insertions", 42.0},
                {"cache_evictions", 0.0},
                {"cache_stale", 3.0},
                {"cache_seed_fallbacks", 1.0}};
  std::string err;
  const auto back = decode_response(encode_response(resp), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->stats.at("cache_lookups"), 9007199254740991.0);
  EXPECT_EQ(back->stats.at("cache_hits"), 1.0 / 3.0);
  EXPECT_EQ(back->stats.at("cache_misses"), 12345678901234.0);
  EXPECT_EQ(back->stats.at("cache_neighbor_seeds"), 7.0);
  EXPECT_EQ(back->stats.at("cache_insertions"), 42.0);
  EXPECT_EQ(back->stats.at("cache_evictions"), 0.0);
  EXPECT_EQ(back->stats.at("cache_stale"), 3.0);
  EXPECT_EQ(back->stats.at("cache_seed_fallbacks"), 1.0);
}

TEST(Codec, SelectionKeyDistinguishesSolutions) {
  WireSelection a;
  a.feasible = true;
  a.chosen = {1, 2};
  a.min_path_gain = 100;
  WireSelection b = a;
  EXPECT_EQ(a.key(), b.key());
  b.chosen = {1, 3};
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.ip_area = a.ip_area + 1e-13;
  EXPECT_NE(a.key(), b.key());
}

// Codec fuzz: decode must never crash on mutated valid payloads.
TEST(CodecFuzz, MutatedPayloadsNeverCrash) {
  WireRequest req;
  req.verb = "submit";
  req.workload = "fig9";
  req.gains = {1, 2, 3};
  const std::string base = encode_request(req);
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::size_t> pos_dist(0, base.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    mutated[pos_dist(rng)] = static_cast<char>(byte_dist(rng));
    std::string err;
    (void)decode_request(mutated, &err);  // any outcome but a crash is fine
    (void)decode_response(mutated, &err);
  }
}

}  // namespace
}  // namespace partita::net
