// closfair::wire — the request/response line protocol, factored out of the
// batch binary so the one-shot JSONL mode and the persistent TCP server
// produce byte-identical responses from one implementation.
//
// A request line is a bare ScenarioSpec object, a bare delta request
// {"base":"<hash>","patch":{...}}, or an envelope {"id": <any scalar>,
// "spec": {...}} / {"id": ..., "delta": {...}} whose id is echoed back.
// Responses (docs/SERVICE.md):
//
//   {"id":..., "hash":"<fnv1a64 hex>", "cached":<bool>, "result":{...}}
//   {"id":..., "hash":"<fnv1a64 hex>", "error":"..."}   (evaluation failed)
//   {"id":..., "error":"..."}                           (unparseable request)
//   {"id":..., "overload":true, "error":"..."}          (load shed; wire only)
//
// The "id" key is present exactly when the request carried an envelope id,
// and always first, so clients can match responses without knowing which
// shape they will get.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "svc/spec.hpp"
#include "util/json.hpp"

namespace closfair::wire {

/// A parsed request line: exactly one of `spec` (a direct scenario) or
/// `delta` (a patch against a cached base) when the line parsed; otherwise
/// both are empty and `error` carries the parse/validation message. The
/// envelope id (null when absent) survives either way — a bad spec or delta
/// inside an envelope still echoes its id.
struct Request {
  Json id;
  std::optional<svc::ScenarioSpec> spec;
  std::optional<svc::DeltaRequest> delta;
  std::string error;

  [[nodiscard]] bool ok() const { return spec.has_value() || delta.has_value(); }
  [[nodiscard]] bool is_delta() const { return delta.has_value(); }
};

/// Parse one request line. Never throws: malformed JSON and invalid specs
/// come back as `error`.
[[nodiscard]] Request parse_request(std::string_view line);

/// 16-digit lowercase hex of a content hash (the response "hash" value).
using svc::hash_hex;

/// Successful evaluation (or cache/duplicate hit): the envelope spliced
/// around `result`, the rendered result bytes (ScenarioResult::to_json()
/// .dump(), the form the result cache stores). The bytes equal dumping a
/// Json envelope whose "result" member is the parsed result.
[[nodiscard]] std::string render_result(const Json& id, std::uint64_t hash,
                                        bool cached, std::string_view result);

/// render_result() of `result.to_json().dump()`.
[[nodiscard]] std::string render_result(const Json& id, std::uint64_t hash,
                                        bool cached,
                                        const svc::ScenarioResult& result);

/// Evaluation failed after the spec parsed (hash is known).
[[nodiscard]] std::string render_eval_error(const Json& id, std::uint64_t hash,
                                            const std::string& error);

/// The request line itself did not parse (no hash).
[[nodiscard]] std::string render_parse_error(const Json& id,
                                             const std::string& error);

/// Admission control shed the request (wire server only): explicit
/// "overload" marker so load generators can separate sheds from failures.
[[nodiscard]] std::string render_overload(const Json& id,
                                          const std::string& detail);

/// True when a frame payload is one of the admin-plane verbs — exactly
/// "metricsz", "statusz", or "tracez" (docs/OBSERVABILITY.md). Verbs are
/// not valid JSON, so they can never collide with a request line; the
/// server answers them in stream order without touching the data plane.
[[nodiscard]] bool is_admin_verb(std::string_view payload);

}  // namespace closfair::wire
