// Tests for closfair::wire — length-prefixed framing (round-trip, partial
// reads, oversized-frame rejection), the request/response line protocol, the
// per-connection Pipeline (in-order responses from out-of-order completions,
// dedup, admission control), batch mode (wire::answer_batch) and the TCP
// server end to end over a real loopback socket (both byte-identical to an
// independent per-line reference for 1/2/8 workers, overload shedding,
// graceful drain — docs/SERVICE.md "Wire protocol"),
// and the admin plane / request tracing: metricsz/statusz/tracez verbs,
// failure-path counters, and the stage-sum = wall-time invariant of every
// flight-recorder entry (docs/OBSERVABILITY.md).
#include "wire/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "obs/rt.hpp"
#include "svc/service.hpp"
#include "wire/client.hpp"
#include "wire/connection.hpp"
#include "wire/framing.hpp"
#include "wire/protocol.hpp"

namespace closfair {
namespace {

// ------------------------------------------------------------------- framing

TEST(WireFraming, RoundTripPreservesPayloadsInOrder) {
  const std::vector<std::string> payloads = {"hello", "", R"({"id":1})",
                                             std::string(1000, 'x')};
  std::string stream;
  for (const std::string& p : payloads) wire::append_frame(stream, p);
  EXPECT_EQ(stream.size(),
            4 * wire::kFrameHeaderBytes + 5 + 0 + 8 + 1000);

  wire::FrameDecoder decoder;
  decoder.feed(stream);
  for (const std::string& p : payloads) {
    const auto got = decoder.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, p);
  }
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireFraming, OneByteAtATimeReassembles) {
  // The decoder must tolerate arbitrarily unlucky read() boundaries: feed a
  // three-frame stream one byte at a time and harvest after every byte.
  const std::vector<std::string> payloads = {"a", "bb", std::string(300, 'z')};
  std::string stream;
  for (const std::string& p : payloads) wire::append_frame(stream, p);

  wire::FrameDecoder decoder;
  std::vector<std::string> got;
  for (const char byte : stream) {
    decoder.feed(&byte, 1);
    while (auto frame = decoder.next()) got.push_back(std::move(*frame));
  }
  EXPECT_EQ(got, payloads);
}

TEST(WireFraming, EncodeFrameMatchesAppendFrame) {
  std::string appended;
  wire::append_frame(appended, "payload");
  EXPECT_EQ(wire::encode_frame("payload"), appended);
  // Header is big-endian.
  EXPECT_EQ(appended[0], '\0');
  EXPECT_EQ(appended[3], '\x07');
}

TEST(WireFraming, OversizedFrameRejectedBeforePayloadArrives) {
  wire::FrameDecoder decoder(/*max_frame_bytes=*/16);
  // Header announcing 17 bytes: rejected at feed() time, before any of the
  // 17 payload bytes exist — the guard is what bounds a hostile peer.
  const char header[4] = {0, 0, 0, 17};
  EXPECT_THROW(decoder.feed(header, 4), wire::WireError);
  EXPECT_EQ(decoder.buffered(), 0u);  // nothing retained
  // The stream is unusable afterwards: every call reports the poisoning.
  EXPECT_THROW(decoder.feed("x", 1), wire::WireError);
  EXPECT_THROW(decoder.next(), wire::WireError);
}

TEST(WireFraming, HeaderSplitAcrossTwoFeedsReassembles) {
  // The 4-byte header itself can straddle a read() boundary: nothing may
  // surface (and nothing may be misparsed) until all four length bytes exist.
  const std::string stream = wire::encode_frame("payload");
  wire::FrameDecoder decoder;
  decoder.feed(stream.data(), 2);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 2u);
  decoder.feed(stream.data() + 2, stream.size() - 2);
  const auto got = decoder.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload");
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(WireFraming, FrameExactlyAtMaxFrameBytesIsAccepted) {
  // The limit is inclusive: exactly max_frame_bytes passes, one more poisons.
  const std::string at_limit(16, 'a');
  wire::FrameDecoder decoder(/*max_frame_bytes=*/16);
  decoder.feed(wire::encode_frame(at_limit));
  EXPECT_EQ(decoder.next(), at_limit);

  wire::FrameDecoder strict(/*max_frame_bytes=*/16);
  EXPECT_THROW(strict.feed(wire::encode_frame(std::string(17, 'a'))),
               wire::WireError);
}

TEST(WireFraming, ZeroLengthPayloadIsAFrameNotSilence) {
  // An empty payload is a legal frame: next() must distinguish "a complete
  // empty frame" (engaged optional) from "nothing buffered yet" (nullopt).
  wire::FrameDecoder decoder;
  decoder.feed(wire::encode_frame(""));
  const auto got = decoder.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(WireFraming, BackToBackFramesInOneFeedAllSurface) {
  std::string stream;
  wire::append_frame(stream, "one");
  wire::append_frame(stream, "");
  wire::append_frame(stream, "three");
  wire::FrameDecoder decoder;
  decoder.feed(stream);
  EXPECT_EQ(decoder.next(), "one");
  EXPECT_EQ(decoder.next(), "");
  EXPECT_EQ(decoder.next(), "three");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireFraming, EncodeSideRefusesOversizedPayloadBeforeTouchingOut) {
  // The encode-side guard (the framing.cpp:8 bugfix): a payload over the
  // limit throws before any header byte lands, so frames already appended
  // stay complete and sendable.
  std::string out;
  wire::append_frame(out, "ok");
  const std::string snapshot = out;
  EXPECT_THROW(wire::append_frame(out, std::string(9, 'x'), /*max=*/8),
               wire::WireError);
  EXPECT_EQ(out, snapshot);
  EXPECT_THROW(wire::encode_frame(std::string(9, 'x'), /*max=*/8),
               wire::WireError);
  // At the limit still encodes.
  wire::append_frame(out, std::string(8, 'x'), /*max=*/8);
  wire::FrameDecoder decoder;
  decoder.feed(out);
  EXPECT_EQ(decoder.next(), "ok");
  EXPECT_EQ(decoder.next(), std::string(8, 'x'));
}

TEST(WireFraming, FrameBeforeOversizedOneIsNotLost) {
  // A valid frame followed by an oversized header: the valid payload must
  // come out before the rejection fires (the check runs when the bad frame
  // becomes current, not retroactively).
  wire::FrameDecoder decoder(/*max_frame_bytes=*/16);
  std::string stream = wire::encode_frame("ok");
  const char bad[4] = {0x7f, 0, 0, 0};
  stream.append(bad, 4);
  decoder.feed(stream.data(), stream.size());
  const auto first = decoder.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "ok");
  EXPECT_THROW(decoder.next(), wire::WireError);
}

// ------------------------------------------------------------------ protocol

std::string tiny_spec_json(std::uint64_t seed) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  spec.workload.generator = "uniform";
  spec.workload.count = 6;
  spec.workload.seed = seed;
  spec.routing.policy = "greedy";
  return spec.to_json().dump();
}

TEST(WireProtocol, ParsesBareSpecsAndEnvelopes) {
  const wire::Request bare = wire::parse_request(tiny_spec_json(1));
  EXPECT_TRUE(bare.ok());
  EXPECT_TRUE(bare.id.is_null());

  const wire::Request enveloped =
      wire::parse_request(R"({"id":42,"spec":)" + tiny_spec_json(1) + "}");
  EXPECT_TRUE(enveloped.ok());
  EXPECT_EQ(enveloped.id.as_int(), 42);
  EXPECT_EQ(enveloped.spec->canonical(), bare.spec->canonical());
}

TEST(WireProtocol, BadLinesKeepTheEnvelopeId) {
  const wire::Request garbage = wire::parse_request("{nope");
  EXPECT_FALSE(garbage.ok());
  EXPECT_FALSE(garbage.error.empty());

  // The envelope parsed but the spec inside is invalid: the id must survive
  // so the client can still match the error to its request.
  const wire::Request bad_spec =
      wire::parse_request(R"({"id":"req-7","spec":{"bogus":1}})");
  EXPECT_FALSE(bad_spec.ok());
  EXPECT_EQ(bad_spec.id.as_string(), "req-7");
}

TEST(WireProtocol, ParsesDeltaRequestsBareAndEnveloped) {
  // A bare delta: "base" can never be a ScenarioSpec key, so the two bare
  // forms cannot collide.
  const wire::Request bare = wire::parse_request(R"({"base":"00000000deadbeef"})");
  EXPECT_TRUE(bare.ok());
  EXPECT_TRUE(bare.is_delta());
  EXPECT_FALSE(bare.spec.has_value());
  EXPECT_EQ(bare.delta->base, 0xdeadbeefULL);
  EXPECT_TRUE(bare.delta->patch.empty());

  const wire::Request enveloped = wire::parse_request(
      R"({"id":7,"delta":{"base":"00000000deadbeef","patch":{"fail_middles":[2]}}})");
  EXPECT_TRUE(enveloped.is_delta());
  EXPECT_EQ(enveloped.id.as_int(), 7);
  EXPECT_EQ(enveloped.delta->patch.fail_middles, std::vector<int>{2});

  // A bad delta inside an envelope keeps the id, exactly like a bad spec.
  const wire::Request bad = wire::parse_request(R"({"id":9,"delta":{"base":"xyz"}})");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.is_delta());
  EXPECT_EQ(bad.id.as_int(), 9);
  EXPECT_FALSE(bad.error.empty());
}

TEST(WireProtocol, RenderedResponsesMatchDocumentedShapes) {
  svc::ScenarioResult result;
  result.num_flows = 1;
  result.macro_rates = {Rational{1, 2}};
  result.macro_throughput = Rational{1, 2};

  const std::string anonymous = wire::render_result(Json::null(), 0xabcULL,
                                                    /*cached=*/false, result);
  EXPECT_EQ(anonymous.find("\"id\""), std::string::npos);
  EXPECT_NE(anonymous.find("\"hash\":\"0000000000000abc\""), std::string::npos);
  EXPECT_NE(anonymous.find("\"cached\":false"), std::string::npos);

  const std::string with_id =
      wire::render_result(Json::number(std::int64_t{3}), 0xabcULL, true, result);
  EXPECT_EQ(with_id.find("{\"id\":3,"), 0u);  // id present and first
  EXPECT_NE(with_id.find("\"cached\":true"), std::string::npos);

  const std::string overload =
      wire::render_overload(Json::null(), "queue over watermark");
  EXPECT_NE(overload.find("\"overload\":true"), std::string::npos);
  EXPECT_NE(overload.find("\"error\":"), std::string::npos);

  const std::string parse_error =
      wire::render_parse_error(Json::string("x"), "bad line");
  EXPECT_EQ(parse_error, R"({"id":"x","error":"bad line"})");
}

/// Reference oracle for the splice: the response as a Json tree, with the
/// result tree set as a member, dumped in one pass.
std::string tree_rendered(const Json& id, std::uint64_t hash, bool cached,
                          const svc::ScenarioResult& result) {
  Json response = Json::object();
  if (!id.is_null()) response.set("id", id);
  response.set("hash", Json::string(wire::hash_hex(hash)));
  response.set("cached", Json::boolean(cached));
  response.set("result", result.to_json());
  return response.dump();
}

TEST(WireProtocol, SplicedResultMatchesTheJsonTreeForEveryShape) {
  std::vector<svc::ScenarioResult> results;
  svc::ScenarioResult unrouted;
  unrouted.num_flows = 2;
  unrouted.macro_rates = {Rational{1, 3}, Rational{-7, 2}};
  unrouted.macro_throughput = Rational{-19, 6};
  results.push_back(unrouted);

  svc::ScenarioResult routed = unrouted;
  routed.routed = true;
  routed.rates = {Rational{1, 3}, Rational{std::numeric_limits<std::int64_t>::min()}};
  routed.throughput = Rational{std::numeric_limits<std::int64_t>::max()};
  routed.throughput_ratio = Rational{1, std::numeric_limits<std::int64_t>::max()};
  routed.min_rate_ratio = Rational{0};
  routed.middles = {1, 2};
  routed.surviving_middles = 2;
  routed.rerouted = 1;
  routed.search = svc::SearchStats{12, 34};
  results.push_back(routed);

  svc::ScenarioResult routed_without_middles = routed;
  routed_without_middles.middles.clear();
  routed_without_middles.search.reset();
  results.push_back(routed_without_middles);

  svc::ScenarioResult replicated = unrouted;
  replicated.surviving_middles = 0;
  replicated.replication = svc::ReplicationStats{true, 9, {2, 1}};
  results.push_back(replicated);
  replicated.replication = svc::ReplicationStats{false, 4, {}};
  results.push_back(replicated);

  const std::vector<Json> ids = {
      Json::null(),
      Json::number(std::int64_t{-42}),
      Json::number(2.5),
      Json::number(1e-7),
      Json::boolean(true),
      Json::boolean(false),
      Json::string("quote\" back\\ newline\n tab\t ctl\x01 utf8 \xc3\xa9"),
  };
  for (const svc::ScenarioResult& result : results) {
    const std::string bytes = result.to_json().dump();
    for (const Json& id : ids) {
      for (const bool cached : {false, true}) {
        const std::string expected = tree_rendered(id, 0x0123456789abcdefULL, cached, result);
        EXPECT_EQ(wire::render_result(id, 0x0123456789abcdefULL, cached, bytes), expected)
            << expected;
        EXPECT_EQ(wire::render_result(id, 0x0123456789abcdefULL, cached, result), expected);
      }
    }
  }
}

// ------------------------------------------------------------------ pipeline

/// A rendered result, as Pipeline::complete() and the cache take it.
std::string fake_result_bytes(std::size_t num_flows) {
  svc::ScenarioResult r;
  r.num_flows = num_flows;
  r.macro_rates.assign(num_flows, Rational{1, 2});
  r.macro_throughput = Rational{static_cast<std::int64_t>(num_flows), 2};
  return r.to_json().dump();
}

wire::Pipeline::Admission admit_line(wire::Pipeline& pipeline, std::uint64_t seed) {
  return pipeline.admit(R"({"id":)" + std::to_string(seed) + R"(,"spec":)" +
                        tiny_spec_json(seed) + "}");
}

TEST(WirePipeline, OutOfOrderCompletionsComeBackInSequenceOrder) {
  svc::ResultCache cache(64);
  wire::Pipeline pipeline(cache);
  const auto a0 = admit_line(pipeline, 1);
  const auto a1 = admit_line(pipeline, 2);
  const auto a2 = admit_line(pipeline, 3);
  ASSERT_TRUE(a0.evaluate && a1.evaluate && a2.evaluate);

  pipeline.complete(a2.seq, fake_result_bytes(3), "");
  EXPECT_TRUE(pipeline.take_ready().empty());  // head of line still evaluating
  pipeline.complete(a0.seq, fake_result_bytes(1), "");
  const auto first = pipeline.take_ready();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].find("{\"id\":1,"), 0u);
  pipeline.complete(a1.seq, fake_result_bytes(2), "");
  const auto rest = pipeline.take_ready();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].find("{\"id\":2,"), 0u);
  EXPECT_EQ(rest[1].find("{\"id\":3,"), 0u);
  EXPECT_TRUE(pipeline.idle());
  EXPECT_EQ(pipeline.inflight(), 0u);
}

TEST(WirePipeline, DuplicateOfInFlightWaitsAndRendersCached) {
  svc::ResultCache cache(64);
  wire::Pipeline pipeline(cache);
  const auto first = admit_line(pipeline, 1);
  ASSERT_TRUE(first.evaluate);
  const auto dup = admit_line(pipeline, 1);
  EXPECT_FALSE(dup.evaluate);  // dedup: never re-evaluates
  EXPECT_TRUE(pipeline.take_ready().empty());

  pipeline.complete(first.seq, fake_result_bytes(1), "");
  const auto out = pipeline.take_ready();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("\"cached\":false"), std::string::npos);
  EXPECT_NE(out[1].find("\"cached\":true"), std::string::npos);
  // Both carry the same content hash.
  const std::string hash = wire::hash_hex(svc::fnv1a64(
      svc::ScenarioSpec::from_json(Json::parse(tiny_spec_json(1))).canonical()));
  EXPECT_NE(out[0].find(hash), std::string::npos);
  EXPECT_NE(out[1].find(hash), std::string::npos);
}

TEST(WirePipeline, DuplicateAfterErrorGetsTheSameError) {
  svc::ResultCache cache(64);
  wire::Pipeline pipeline(cache);
  const auto first = admit_line(pipeline, 1);
  pipeline.complete(first.seq, {}, "middle stage exploded");
  // First occurrence completed (with an error) but not yet taken: a
  // duplicate must answer immediately with the same error, never hang.
  const auto dup = admit_line(pipeline, 1);
  EXPECT_FALSE(dup.evaluate);
  const auto out = pipeline.take_ready();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("middle stage exploded"), std::string::npos);
  EXPECT_NE(out[1].find("middle stage exploded"), std::string::npos);
  // Errors are not cached: a fresh admission evaluates again.
  EXPECT_TRUE(admit_line(pipeline, 1).evaluate);
}

TEST(WirePipeline, CacheHitsSkipEvaluation) {
  svc::ResultCache cache(64);
  const std::string canonical =
      svc::ScenarioSpec::from_json(Json::parse(tiny_spec_json(5))).canonical();
  cache.insert(canonical, fake_result_bytes(7));
  wire::Pipeline pipeline(cache);
  EXPECT_FALSE(admit_line(pipeline, 5).evaluate);
  const auto out = pipeline.take_ready();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("\"cached\":true"), std::string::npos);
}

TEST(WirePipeline, BudgetAndShedProduceOverloadResponses) {
  svc::ResultCache cache(64);
  wire::Pipeline pipeline(cache, wire::PipelineLimits{1});
  const auto first = admit_line(pipeline, 1);
  ASSERT_TRUE(first.evaluate);
  // Budget of 1 exhausted: a distinct second spec sheds.
  EXPECT_FALSE(admit_line(pipeline, 2).evaluate);
  // Global watermark shed, even with budget available after completion.
  pipeline.complete(first.seq, fake_result_bytes(1), "");
  const auto shed =
      pipeline.admit(R"({"id":9,"spec":)" + tiny_spec_json(3) + "}", /*shed=*/true);
  EXPECT_FALSE(shed.evaluate);
  EXPECT_EQ(pipeline.overloads(), 2u);

  const auto out = pipeline.take_ready();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NE(out[0].find("\"cached\":false"), std::string::npos);
  EXPECT_NE(out[1].find("\"overload\":true"), std::string::npos);
  EXPECT_NE(out[1].find("budget"), std::string::npos);
  EXPECT_NE(out[2].find("\"overload\":true"), std::string::npos);
  EXPECT_NE(out[2].find("watermark"), std::string::npos);
}

TEST(WirePipeline, ParseErrorsAnswerImmediately) {
  svc::ResultCache cache(64);
  wire::Pipeline pipeline(cache);
  EXPECT_FALSE(pipeline.admit("{nope").evaluate);
  const auto out = pipeline.take_ready();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("\"error\":"), std::string::npos);
  EXPECT_EQ(out[0].find("\"hash\""), std::string::npos);
  EXPECT_TRUE(pipeline.idle());
}

TEST(WirePipeline, EvaluateReleasesTheDeltaBasePin) {
  // A pinned base is exempt from eviction, so on a one-entry cache the base
  // survives the next commit only while some admission still pins it. After
  // a delta's evaluate — whether it splices the base bytes, evaluates cold,
  // or throws — and take_ready, the next commit must evict the base.
  const svc::ScenarioSpec base =
      svc::ScenarioSpec::from_json(Json::parse(tiny_spec_json(1)));
  const std::string prefix = R"({"base":")" + svc::hash_hex(base.content_hash()) +
                             R"(","patch":)";
  // tiny_spec_json has 2 middles, so failing middle 3 throws at evaluation.
  for (const std::string patch :
       {R"({"objective":"maxmin_lp"})", R"({"fail_middles":[1]})", R"({"fail_middles":[3]})"}) {
    svc::ResultCache cache(1);
    cache.insert(base.canonical(), fake_result_bytes(6));
    wire::Pipeline pipeline(cache);
    wire::Pipeline::Admission delta = pipeline.admit(prefix + patch + "}");
    ASSERT_TRUE(delta.evaluate) << patch;
    ASSERT_TRUE(delta.base.has_value()) << patch;
    pipeline.evaluate(std::move(delta));
    const std::vector<std::string> answered = pipeline.take_ready();
    ASSERT_EQ(answered.size(), 1u) << patch;
    const bool threw = answered[0].find("\"result\":") == std::string::npos;
    EXPECT_EQ(threw, patch == R"({"fail_middles":[3]})") << answered[0];

    wire::Pipeline::Admission other = admit_line(pipeline, 2);
    ASSERT_TRUE(other.evaluate) << patch;
    pipeline.evaluate(std::move(other));
    ASSERT_EQ(pipeline.take_ready().size(), 1u) << patch;
    EXPECT_FALSE(cache.pin_base(base.content_hash()).has_value()) << patch;
    EXPECT_EQ(cache.size(), 1u) << patch;
  }
}

// ------------------------------------------------------- server over loopback

/// The byte-identity fixture: mixed request lines (bare specs, envelopes,
/// duplicates, a parse error, an evaluation error, and deltas: one on an
/// earlier line's base, its duplicate, an unknown base, and a patch that
/// does not apply).
std::vector<std::string> mixed_request_lines() {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    lines.push_back(R"({"id":)" + std::to_string(seed) + R"(,"spec":)" +
                    tiny_spec_json(seed) + "}");
  }
  lines.push_back(tiny_spec_json(2));  // bare duplicate of an earlier spec
  lines.push_back("{definitely not json");
  // Evaluation error: static routing with a wrong-length start assignment.
  svc::ScenarioSpec bad;
  bad.topology.params = ClosNetwork::Params{2, 4, 2, Rational{1}};
  bad.workload.generator = "permutation";
  bad.routing.policy = "static";
  bad.routing.start = {1};
  lines.push_back(R"({"id":"boom","spec":)" + bad.to_json().dump() + "}");
  lines.push_back(lines[0]);  // envelope duplicate, same id
  const std::string base = svc::hash_hex(
      svc::ScenarioSpec::from_json(Json::parse(tiny_spec_json(3))).content_hash());
  const std::string delta =
      R"(,"delta":{"base":")" + base + R"(","patch":{"fail_middles":[1]}}})";
  lines.push_back(R"({"id":"d1")" + delta);
  lines.push_back(R"({"id":"d2")" + delta);  // duplicate delta
  lines.push_back(R"({"id":"d3","delta":{"base":"00000000000000aa"}})");
  // Flow edits need an inline-instance base: the patch does not apply.
  lines.push_back(R"({"id":"d4","delta":{"base":")" + base +
                  R"(","patch":{"remove_flows":[0]}}})");
  return lines;
}

/// Independent oracle: every line on its own through parse_request, delta
/// resolution against the specs seen earlier in the stream, and a cold
/// evaluate_scenario, with "cached" meaning the canonical spec appeared
/// earlier in the stream. Holds while the cache never evicts.
std::vector<std::string> reference_responses(const std::vector<std::string>& lines) {
  std::map<std::uint64_t, svc::ScenarioSpec> seen;
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    wire::Request request = wire::parse_request(line);
    if (request.is_delta()) {
      const auto base = seen.find(request.delta->base);
      if (base == seen.end()) {
        request.error = "unknown base " + svc::hash_hex(request.delta->base) +
                        ": not in the result cache";
      } else {
        try {
          request.spec = request.delta->patch.apply(base->second);
        } catch (const std::exception& e) {
          request.error = e.what();
        }
      }
    }
    if (!request.spec.has_value()) {
      out.push_back(wire::render_parse_error(request.id, request.error));
      continue;
    }
    const std::uint64_t hash = request.spec->content_hash();
    const bool cached = !seen.emplace(hash, *request.spec).second;
    try {
      out.push_back(wire::render_result(request.id, hash, cached,
                                        svc::evaluate_scenario(*request.spec)));
    } catch (const std::exception& e) {
      out.push_back(wire::render_eval_error(request.id, hash, e.what()));
    }
  }
  return out;
}

TEST(WireBatch, MatchesTheIndependentReferenceForEveryWorkerCount) {
  const std::vector<std::string> lines = mixed_request_lines();
  const std::vector<std::string> expected = reference_responses(lines);
  for (const unsigned workers : {1u, 2u, 8u}) {
    svc::ResultCache cache(64);
    EXPECT_EQ(wire::answer_batch(cache, workers, lines), expected) << "workers=" << workers;
  }
}

TEST(WireBatch, DeltaOnAnEarlierLineResolvesEvenAtCacheOne) {
  // A one-entry cache cannot keep the base committed while later lines
  // commit, but batch mode resolves every delta before any commit: the
  // base is found pending on the pipeline, by its recorded hash.
  const std::string base = tiny_spec_json(1);
  const std::string base_hash = svc::hash_hex(
      svc::ScenarioSpec::from_json(Json::parse(base)).content_hash());
  const std::vector<std::string> lines = {
      base, tiny_spec_json(2),
      R"({"base":")" + base_hash + R"(","patch":{"objective":"maxmin_lp"}})"};
  for (const unsigned workers : {1u, 2u}) {
    svc::ResultCache cache(1);
    const std::vector<std::string> responses = wire::answer_batch(cache, workers, lines);
    EXPECT_EQ(responses, reference_responses(lines)) << "workers=" << workers;
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_NE(responses[2].find("\"result\":"), std::string::npos) << responses[2];
  }
}

TEST(WireServer, SocketResponsesAreByteIdenticalToBatchForEveryWorkerCount) {
  const std::vector<std::string> lines = mixed_request_lines();
  const std::vector<std::string> expected = reference_responses(lines);
  for (const unsigned workers : {1u, 2u, 8u}) {
    svc::ResultCache cache(64);
    wire::ServerOptions options;
    options.workers = workers;
    wire::Server server(cache, options);
    server.start();

    wire::Client client;
    client.connect("127.0.0.1", server.port());
    for (const std::string& line : lines) client.send(line);  // fully pipelined
    client.finish_sending();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const auto response = client.recv();
      ASSERT_TRUE(response.has_value()) << "workers=" << workers << " line " << i;
      EXPECT_EQ(*response, expected[i]) << "workers=" << workers << " line " << i;
    }
    EXPECT_FALSE(client.recv().has_value());  // server closes after our half-close
    server.drain();
  }
}

TEST(WireServer, SequentialCallsSeeTheSharedCache) {
  svc::ResultCache cache(64);
  wire::ServerOptions options;
  options.workers = 2;
  wire::Server server(cache, options);
  server.start();

  wire::Client first;
  first.connect("127.0.0.1", server.port());
  EXPECT_NE(first.call(tiny_spec_json(1)).find("\"cached\":false"),
            std::string::npos);
  first.close();

  // A new connection hits the cache the first one warmed.
  wire::Client second;
  second.connect("127.0.0.1", server.port());
  EXPECT_NE(second.call(tiny_spec_json(1)).find("\"cached\":true"),
            std::string::npos);
  second.close();
  server.drain();
}

TEST(WireServer, BatchAndSocketShareOneCache) {
  // One cache behind batch mode and then a server: the socket answers every
  // line the batch evaluated from the cache, with the batch's hash and
  // result bytes.
  const std::string base_hash = svc::hash_hex(
      svc::ScenarioSpec::from_json(Json::parse(tiny_spec_json(1))).content_hash());
  const std::vector<std::string> lines = {
      tiny_spec_json(1), R"({"id":"b","spec":)" + tiny_spec_json(2) + "}",
      R"({"base":")" + base_hash + R"(","patch":{"objective":"maxmin_lp"}})"};
  svc::ResultCache cache(64);
  const std::vector<std::string> batch = wire::answer_batch(cache, 2, lines);
  ASSERT_EQ(batch.size(), lines.size());

  wire::ServerOptions options;
  options.workers = 2;
  wire::Server server(cache, options);
  server.start();
  wire::Client client;
  client.connect("127.0.0.1", server.port());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string expected = batch[i];
    const std::size_t flag = expected.find(R"("cached":false)");
    ASSERT_NE(flag, std::string::npos) << expected;
    expected.replace(flag, 14, R"("cached":true)");
    EXPECT_EQ(client.call(lines[i]), expected) << "line " << i;
  }
  client.close();
  server.drain();
}

TEST(WireServer, DeltaRequestsMatchColdEvaluationOverLoopback) {
  // The wire half of the tentpole gate: delta responses over a real socket
  // must be the exact bytes a cold evaluation of the patched spec renders —
  // including when the delta is pipelined so hard its base is still in
  // flight at admit time (the pending-set resolution path).
  const svc::ScenarioSpec base =
      svc::ScenarioSpec::from_json(Json::parse(tiny_spec_json(1)));
  const std::string base_hash = wire::hash_hex(svc::fnv1a64(base.canonical()));
  const svc::SpecPatch patch =
      svc::SpecPatch::from_json(Json::parse(R"({"objective":"maxmin_lp"})"));
  const svc::ScenarioSpec patched = patch.apply(base);
  const std::uint64_t patched_hash = svc::fnv1a64(patched.canonical());
  const svc::ScenarioResult cold = svc::evaluate_scenario(patched);
  const std::string expected_base = wire::render_result(
      Json::number(std::int64_t{1}), svc::fnv1a64(base.canonical()),
      /*cached=*/false, svc::evaluate_scenario(base));
  const std::string expected_delta = wire::render_result(
      Json::number(std::int64_t{2}), patched_hash, /*cached=*/false, cold);
  const std::string expected_dup = wire::render_result(
      Json::number(std::int64_t{4}), patched_hash, /*cached=*/true, cold);
  const std::string delta_line_tail =
      R"(,"delta":{"base":")" + base_hash + R"(","patch":{"objective":"maxmin_lp"}}})";

  for (const unsigned workers : {1u, 2u, 8u}) {
    svc::ResultCache cache(64);
    wire::ServerOptions options;
    options.workers = workers;
    wire::Server server(cache, options);
    server.start();

    wire::Client client;
    client.connect("127.0.0.1", server.port());
    // One pipelined burst: base, delta-on-that-base, unknown base, dup delta.
    client.send(R"({"id":1,"spec":)" + tiny_spec_json(1) + "}");
    client.send(R"({"id":2)" + delta_line_tail);
    client.send(R"({"id":3,"delta":{"base":"00000000000000aa"}})");
    client.send(R"({"id":4)" + delta_line_tail);
    client.finish_sending();

    const auto r1 = client.recv();
    const auto r2 = client.recv();
    const auto r3 = client.recv();
    const auto r4 = client.recv();
    ASSERT_TRUE(r1 && r2 && r3 && r4) << "workers=" << workers;
    EXPECT_EQ(*r1, expected_base) << "workers=" << workers;
    EXPECT_EQ(*r2, expected_delta) << "workers=" << workers;
    // Unknown base answers like a parse error: no hash ever existed.
    EXPECT_EQ(*r3,
              R"({"id":3,"error":"unknown base 00000000000000aa: not in the result cache"})");
    EXPECT_EQ(*r4, expected_dup) << "workers=" << workers;
    EXPECT_FALSE(client.recv().has_value());
    server.drain();
  }
}

TEST(WireServer, ObjectiveSwitchDeltaSplicesThePinnedBaseBytes) {
  // A delta that only switches the objective, on a base already committed,
  // is answered with the base entry's bytes (svc.delta_result_reuses, no
  // evaluation), in batch mode and over a socket alike, and those bytes are
  // the cold answer for the patched spec spelled directly.
  const svc::ScenarioSpec base =
      svc::ScenarioSpec::from_json(Json::parse(tiny_spec_json(1)));
  const std::string delta = R"({"id":"d","delta":{"base":")" +
                            wire::hash_hex(svc::fnv1a64(base.canonical())) +
                            R"(","patch":{"objective":"maxmin_lp"}}})";
  svc::ScenarioSpec patched = base;
  patched.objective = "maxmin_lp";
  const std::uint64_t patched_hash = svc::fnv1a64(patched.canonical());
  svc::ResultCache direct(16);
  const std::string cold = wire::answer_batch(
      direct, 1, {R"({"id":"d","spec":)" + patched.to_json().dump() + "}"}).at(0);
  ASSERT_EQ(cold, wire::render_result(Json::string("d"), patched_hash, /*cached=*/false,
                                      svc::evaluate_scenario(patched)));

  obs::Counter& reuses = obs::Registry::instance().counter("svc.delta_result_reuses");
  obs::Counter& evaluations = obs::Registry::instance().counter("svc.evaluations");
  const auto expect_reused = [&](std::uint64_t reuses_before, std::uint64_t evals_before) {
    if (!obs::kEnabled) return;
    EXPECT_EQ(reuses.total(), reuses_before + 1);
    EXPECT_EQ(evaluations.total(), evals_before);
  };

  {
    svc::ResultCache cache(16);
    (void)wire::answer_batch(cache, 2, {tiny_spec_json(1)});
    const std::uint64_t r0 = reuses.total();
    const std::uint64_t e0 = evaluations.total();
    EXPECT_EQ(wire::answer_batch(cache, 2, {delta}).at(0), cold);
    expect_reused(r0, e0);
  }
  {
    svc::ResultCache cache(16);
    wire::ServerOptions options;
    options.workers = 2;
    wire::Server server(cache, options);
    server.start();
    wire::Client client;
    client.connect("127.0.0.1", server.port());
    (void)client.call(tiny_spec_json(1));  // committed before the delta arrives
    const std::uint64_t r0 = reuses.total();
    const std::uint64_t e0 = evaluations.total();
    EXPECT_EQ(client.call(delta), cold);
    expect_reused(r0, e0);
    client.close();
    server.drain();
  }
  {
    // The answer is the pinned entry's bytes, verbatim: a base entry holding
    // marker bytes answers its objective switch with those bytes.
    svc::ResultCache cache(16);
    cache.insert(base.canonical(), fake_result_bytes(5));
    EXPECT_EQ(wire::answer_batch(cache, 1, {delta}).at(0),
              wire::render_result(Json::string("d"), patched_hash, /*cached=*/false,
                                  fake_result_bytes(5)));
  }
}

TEST(WireClient, SendRefusesPayloadOverItsFrameLimitWithoutTearing) {
  svc::ResultCache cache(64);
  wire::Server server(cache, wire::ServerOptions{});
  server.start();

  wire::Client client(/*max_frame_bytes=*/4096);
  client.connect("127.0.0.1", server.port());
  // The refusal happens before any byte reaches the socket...
  EXPECT_THROW(client.send(std::string(5000, 'x')), wire::WireError);
  // ...so the connection is still perfectly usable afterwards.
  EXPECT_NE(client.call(tiny_spec_json(1)).find("\"result\":"),
            std::string::npos);
  client.close();
  server.drain();
}

TEST(WireServer, OversizedResponseFlushesEarlierFramesThenCloses) {
  // A response the peer could never decode must not be truncated onto the
  // wire: the writer flushes the complete frames built so far, then gives
  // up on the connection.
  svc::ResultCache cache(64);
  const svc::ScenarioSpec base =
      svc::ScenarioSpec::from_json(Json::parse(tiny_spec_json(1)));
  // Warm the cache so a short delta line hits.
  (void)wire::answer_batch(cache, 1, {tiny_spec_json(1)});
  const std::string base_hash = wire::hash_hex(svc::fnv1a64(base.canonical()));

  wire::ServerOptions options;
  options.max_frame_bytes = 96;  // requests below fit; a result response does not
  wire::Server server(cache, options);
  server.start();

  wire::Client client;
  client.connect("127.0.0.1", server.port());
  // Short error response (< 96 bytes): survives.
  client.send(R"({"id":1,"delta":{"base":"00000000000000aa"}})");
  // Cache-hit result response (> 96 bytes): unencodable at this limit.
  client.send(R"({"id":2,"delta":{"base":")" + base_hash + R"("}})");
  client.finish_sending();

  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->find("unknown base"), std::string::npos);
  EXPECT_FALSE(client.recv().has_value());  // closed instead of torn bytes
  server.drain();
}

TEST(WireServer, OverloadWatermarkShedsInsteadOfBuffering) {
  svc::ResultCache cache(256);
  wire::ServerOptions options;
  options.workers = 1;
  options.queue_high_watermark = 1;  // shed as soon as one evaluation waits
  wire::Server server(cache, options);
  server.start();

  const std::size_t kBlast = 40;
  wire::Client client;
  client.connect("127.0.0.1", server.port());
  for (std::uint64_t i = 0; i < kBlast; ++i) {
    client.send(R"({"id":)" + std::to_string(i) + R"(,"spec":)" +
                tiny_spec_json(100 + i) + "}");
  }
  client.finish_sending();

  std::size_t completed = 0, overloads = 0, ok = 0;
  while (auto response = client.recv()) {
    // In-order even under shedding: response i echoes id i.
    EXPECT_NE(response->find("{\"id\":" + std::to_string(completed) + ","),
              std::string::npos)
        << *response;
    if (response->find("\"overload\":true") != std::string::npos) {
      ++overloads;
    } else if (response->find("\"result\":") != std::string::npos) {
      ++ok;
    }
    ++completed;
  }
  EXPECT_EQ(completed, kBlast);          // every request answered...
  EXPECT_GT(overloads, 0u);              // ...some with an explicit shed...
  EXPECT_GT(ok, 0u);                     // ...and the admitted ones evaluated.
  EXPECT_EQ(server.queue_depth(), 0u);
  server.drain();
}

TEST(WireServer, OversizedFrameGetsOneErrorThenClose) {
  svc::ResultCache cache(64);
  wire::ServerOptions options;
  options.max_frame_bytes = 64;
  wire::Server server(cache, options);
  server.start();

  wire::Client client;
  client.connect("127.0.0.1", server.port());
  client.send(std::string(65, 'x'));  // framed payload over the server's cap
  const auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"error\":"), std::string::npos);
  EXPECT_NE(response->find("exceeds"), std::string::npos);
  EXPECT_FALSE(client.recv().has_value());  // connection is closed after it
  server.drain();
}

TEST(WireServer, DrainFlushesEverythingAlreadyAdmitted) {
  svc::ResultCache cache(64);
  wire::ServerOptions options;
  options.workers = 2;
  wire::Server server(cache, options);
  server.start();

  wire::Client client;
  client.connect("127.0.0.1", server.port());
  const std::size_t kRequests = 6;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    client.send(R"({"id":)" + std::to_string(i) + R"(,"spec":)" +
                tiny_spec_json(200 + i) + "}");
  }
  // Let the reader admit (most of) the burst, then drain concurrently with
  // the in-flight evaluations.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.drain();
  EXPECT_TRUE(server.draining());

  // Every admitted request got a response, in order, before the close.
  std::size_t received = 0;
  while (auto response = client.recv()) {
    EXPECT_NE(response->find("{\"id\":" + std::to_string(received) + ","),
              std::string::npos)
        << *response;
    ++received;
  }
  EXPECT_LE(received, kRequests);
  EXPECT_EQ(server.queue_depth(), 0u);
}

// ------------------------------------------------ admin plane + request traces

TEST(WireProtocol, AdminVerbDetectionIsExact) {
  EXPECT_TRUE(wire::is_admin_verb("metricsz"));
  EXPECT_TRUE(wire::is_admin_verb("statusz"));
  EXPECT_TRUE(wire::is_admin_verb("tracez"));
  // Anything else — including near-misses — is a data-plane payload. Verbs
  // are not valid JSON, so no legal request can collide with them.
  EXPECT_FALSE(wire::is_admin_verb("METRICSZ"));
  EXPECT_FALSE(wire::is_admin_verb("metricsz "));
  EXPECT_FALSE(wire::is_admin_verb(""));
  EXPECT_FALSE(wire::is_admin_verb(R"({"id":1})"));
}

TEST(WirePipeline, AdminResponsesInterleaveInArrivalOrder) {
  svc::ResultCache cache(64);
  wire::Pipeline pipeline(cache);
  const auto first = admit_line(pipeline, 1);
  ASSERT_TRUE(first.evaluate);
  pipeline.admit_ready("ADMIN-PAYLOAD");  // takes the seq between the two
  const auto second = admit_line(pipeline, 2);
  ASSERT_TRUE(second.evaluate);

  // Even with the later evaluation finishing first, the admin payload holds
  // its arrival-order position behind the head-of-line request.
  pipeline.complete(second.seq, fake_result_bytes(2), "");
  EXPECT_TRUE(pipeline.take_ready().empty());
  pipeline.complete(first.seq, fake_result_bytes(1), "");
  const auto out = pipeline.take_ready();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].find("{\"id\":1,"), 0u);
  EXPECT_EQ(out[1], "ADMIN-PAYLOAD");
  EXPECT_EQ(out[2].find("{\"id\":2,"), 0u);
  EXPECT_TRUE(pipeline.idle());
}

#if CLOSFAIR_OBS_ENABLED

std::uint64_t counter_total(const std::string& name) {
  return obs::Registry::instance().counter(name).total();
}

TEST(WireCounters, OversizedFramePoisoningBumpsCounter) {
  // Decoder-level: the counter fires when the hostile header is rejected.
  const std::uint64_t before = counter_total("wire.oversized_frames");
  wire::FrameDecoder decoder(/*max_frame_bytes=*/16);
  const char header[4] = {0, 0, 0, 17};
  EXPECT_THROW(decoder.feed(header, 4), wire::WireError);
  EXPECT_EQ(counter_total("wire.oversized_frames"), before + 1);
  // The poisoned decoder re-throws without re-counting the same frame.
  EXPECT_THROW(decoder.next(), wire::WireError);
  EXPECT_EQ(counter_total("wire.oversized_frames"), before + 1);

  // Server-level: the same counter fires on a live oversized frame.
  svc::ResultCache cache(64);
  wire::ServerOptions options;
  options.max_frame_bytes = 64;
  wire::Server server(cache, options);
  server.start();
  wire::Client client;
  client.connect("127.0.0.1", server.port());
  client.send(std::string(65, 'x'));
  ASSERT_TRUE(client.recv().has_value());   // the final error response
  EXPECT_FALSE(client.recv().has_value());  // then close
  server.drain();
  EXPECT_EQ(counter_total("wire.oversized_frames"), before + 2);
}

TEST(WireCounters, BudgetAndWatermarkShedsBumpCounter) {
  const std::uint64_t before = counter_total("wire.overload_sheds");
  svc::ResultCache cache(64);
  wire::Pipeline pipeline(cache, wire::PipelineLimits{1});
  const auto first = admit_line(pipeline, 1);
  ASSERT_TRUE(first.evaluate);
  EXPECT_FALSE(admit_line(pipeline, 2).evaluate);  // budget exhausted
  EXPECT_EQ(counter_total("wire.overload_sheds"), before + 1);
  pipeline.complete(first.seq, fake_result_bytes(1), "");
  const auto shed =
      pipeline.admit(R"({"id":9,"spec":)" + tiny_spec_json(3) + "}", /*shed=*/true);
  EXPECT_FALSE(shed.evaluate);  // watermark shed with budget available
  EXPECT_EQ(counter_total("wire.overload_sheds"), before + 2);
  (void)pipeline.take_ready();
}

TEST(WireCounters, OversizedSendBumpsCounter) {
  const std::uint64_t before = counter_total("wire.oversized_sends");
  std::string out;
  EXPECT_THROW(wire::append_frame(out, std::string(9, 'x'), /*max=*/8),
               wire::WireError);
  EXPECT_EQ(counter_total("wire.oversized_sends"), before + 1);
  // The Client send path routes through the same guard.
  wire::Client client(/*max_frame_bytes=*/64);
  svc::ResultCache cache(64);
  wire::Server server(cache, wire::ServerOptions{});
  server.start();
  client.connect("127.0.0.1", server.port());
  EXPECT_THROW(client.send(std::string(65, 'x')), wire::WireError);
  EXPECT_EQ(counter_total("wire.oversized_sends"), before + 2);
  client.close();
  server.drain();
}

TEST(WireCounters, DeltaTrafficCountsHitsOnDedupAndCache) {
  const std::uint64_t hits_before = counter_total("svc.delta_hits");
  svc::ResultCache cache(64);
  wire::Pipeline pipeline(cache);
  const std::string base_line = tiny_spec_json(1);
  const std::string base_hash = wire::hash_hex(svc::fnv1a64(
      svc::ScenarioSpec::from_json(Json::parse(base_line)).canonical()));
  const auto first = admit_line(pipeline, 1);
  ASSERT_TRUE(first.evaluate);
  // An empty-patch delta re-addresses the base, which is still in flight on
  // this pipeline: resolved from the pending set, then deduped — a hit.
  const auto dup = pipeline.admit(R"({"id":2,"delta":{"base":")" + base_hash + R"("}})");
  EXPECT_FALSE(dup.evaluate);
  EXPECT_EQ(counter_total("svc.delta_hits"), hits_before + 1);
  pipeline.complete(first.seq, fake_result_bytes(1), "");
  (void)pipeline.take_ready();
  // Base now committed to the shared cache: the same delta is a cache hit.
  const auto again = pipeline.admit(R"({"id":3,"delta":{"base":")" + base_hash + R"("}})");
  EXPECT_FALSE(again.evaluate);
  EXPECT_EQ(counter_total("svc.delta_hits"), hits_before + 2);
  (void)pipeline.take_ready();
}

TEST(WireAdmin, VerbsInterleaveWithDataAndOnlyCountAsAdmin) {
  const std::uint64_t admin_before = counter_total("wire.admin_requests");
  const std::uint64_t requests_before = counter_total("wire.requests");
  const std::uint64_t responses_before = counter_total("wire.responses");

  svc::ResultCache cache(64);
  wire::ServerOptions options;
  options.workers = 2;
  wire::Server server(cache, options);
  server.start();
  wire::Client client;
  client.connect("127.0.0.1", server.port());

  // Pipelined data / admin / data: responses come back in arrival order.
  client.send(R"({"id":0,"spec":)" + tiny_spec_json(400) + "}");
  client.send("statusz");
  client.send(R"({"id":1,"spec":)" + tiny_spec_json(401) + "}");
  client.finish_sending();
  const auto r0 = client.recv();
  const auto r1 = client.recv();
  const auto r2 = client.recv();
  ASSERT_TRUE(r0 && r1 && r2);
  EXPECT_EQ(r0->find("{\"id\":0,"), 0u);
  EXPECT_EQ(r1->find("{\"admin\":\"statusz\""), 0u);
  EXPECT_EQ(r2->find("{\"id\":1,"), 0u);
  EXPECT_FALSE(client.recv().has_value());

  const Json status = Json::parse(*r1);
  EXPECT_EQ(status.find("workers")->as_int(), 2);
  EXPECT_FALSE(status.find("draining")->as_bool());
  EXPECT_GT(status.find("uptime_ns")->as_int(), 0);
  EXPECT_EQ(status.find("conns_accepted")->as_int(), 1);
  server.drain();

  // Admin traffic is invisible to the data-plane counters: scraping any
  // number of times cannot move the bench.sh-gated totals.
  EXPECT_EQ(counter_total("wire.admin_requests"), admin_before + 1);
  EXPECT_EQ(counter_total("wire.requests"), requests_before + 2);
  EXPECT_EQ(counter_total("wire.responses"), responses_before + 2);
}

TEST(WireAdmin, MetricszAndTracezAreWellFormed) {
  obs::rt::FlightRecorder::instance().reset();
  svc::ResultCache cache(64);
  wire::ServerOptions options;
  options.workers = 2;
  wire::Server server(cache, options);
  server.start();
  wire::Client client;
  client.connect("127.0.0.1", server.port());
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_NE(client.call(tiny_spec_json(500 + i)).find("\"result\":"),
              std::string::npos);
  }

  const Json metricsz = Json::parse(client.call("metricsz"));
  EXPECT_EQ(metricsz.find("admin")->as_string(), "metricsz");
  const Json* counters = metricsz.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("wire.requests"), nullptr);
  EXPECT_GE(counters->find("wire.requests")->as_int(), 3);
  const Json* hists = metricsz.find("metrics")->find("histograms");
  ASSERT_NE(hists, nullptr);

  const Json tracez = Json::parse(client.call("tracez"));
  EXPECT_EQ(tracez.find("admin")->as_string(), "tracez");
  EXPECT_GT(tracez.find("slow_threshold_ns")->as_int(), 0);
  ASSERT_NE(tracez.find("recent"), nullptr);
  ASSERT_NE(tracez.find("shame"), nullptr);
  client.close();
  server.drain();
}

TEST(WireTrace, FlightRecorderStageSumsEqualWallTime) {
  obs::rt::FlightRecorder::instance().reset();
  const std::vector<std::string> lines = mixed_request_lines();
  svc::ResultCache cache(64);
  wire::ServerOptions options;
  options.workers = 2;
  wire::Server server(cache, options);
  server.start();

  wire::Client client;
  client.connect("127.0.0.1", server.port());
  for (const std::string& line : lines) client.send(line);
  client.send("tracez");  // an admin request rides along in the same stream
  client.finish_sending();
  std::size_t responses = 0;
  while (client.recv()) ++responses;
  EXPECT_EQ(responses, lines.size() + 1);
  server.drain();  // joins the writer: every trace is committed by now

  const auto recent = obs::rt::FlightRecorder::instance().recent();
  ASSERT_EQ(recent.size(), lines.size() + 1);
  std::map<obs::rt::Outcome, std::size_t> outcomes;
  for (const obs::rt::RequestTrace& trace : recent) {
    std::uint64_t sum = 0;
    for (const std::uint64_t ns : trace.stage_ns) sum += ns;
    // The acceptance invariant, with tolerance 0: successive marks charge
    // every nanosecond between arrival and the write mark to exactly one
    // stage, so the breakdown accounts for the full wall time.
    EXPECT_EQ(sum, trace.wall_ns()) << "seq " << trace.seq;
    EXPECT_GT(trace.wall_ns(), 0u) << "seq " << trace.seq;
    EXPECT_EQ(trace.conn_id, 1u);
    ++outcomes[trace.outcome];
  }
  // The mixed stream's outcome mix survives into the recorder.
  EXPECT_EQ(outcomes[obs::rt::Outcome::kAdmin], 1u);
  // The bad line plus the unknown-base and bad-patch deltas.
  EXPECT_EQ(outcomes[obs::rt::Outcome::kParseError], 3u);
  EXPECT_EQ(outcomes[obs::rt::Outcome::kEvalError], 1u);
  EXPECT_GE(outcomes[obs::rt::Outcome::kEvaluated], 4u);
  obs::rt::FlightRecorder::instance().reset();
}

#endif  // CLOSFAIR_OBS_ENABLED

TEST(WireServer, ManyConnectionsShareOneServer) {
  svc::ResultCache cache(256);
  wire::ServerOptions options;
  options.workers = 4;
  wire::Server server(cache, options);
  server.start();

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        wire::Client client;
        client.connect("127.0.0.1", server.port());
        for (std::uint64_t i = 0; i < 5; ++i) {
          const std::string response = client.call(tiny_spec_json(300 + i));
          if (response.find("\"result\":") == std::string::npos) {
            failures[c] = "bad response: " + response;
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "") << "client " << c;
  EXPECT_EQ(server.connections_accepted(), static_cast<std::uint64_t>(kClients));
  server.drain();
}

}  // namespace
}  // namespace closfair
