#include "wire/protocol.hpp"

namespace closfair::wire {

Request parse_request(std::string_view line) {
  Request request;
  try {
    const Json parsed = Json::parse(line);
    const Json* spec_json = &parsed;
    const Json* delta_json = nullptr;
    if (parsed.is_object()) {
      if (const Json* inner = parsed.find("spec"); inner != nullptr) {
        spec_json = inner;
        // The id is latched before the body parses, so an invalid spec or
        // delta in an envelope still echoes the id in its error response.
        if (const Json* id = parsed.find("id"); id != nullptr) request.id = *id;
      } else if (const Json* inner_delta = parsed.find("delta"); inner_delta != nullptr) {
        delta_json = inner_delta;
        if (const Json* id = parsed.find("id"); id != nullptr) request.id = *id;
      } else if (parsed.find("base") != nullptr) {
        // A bare delta: "base" can never be a ScenarioSpec key.
        delta_json = &parsed;
      }
    }
    if (delta_json != nullptr) {
      request.delta = svc::DeltaRequest::from_json(*delta_json);
    } else {
      request.spec = svc::ScenarioSpec::from_json(*spec_json);
    }
  } catch (const std::exception& e) {
    request.spec.reset();
    request.delta.reset();
    request.error = e.what();
  }
  return request;
}

namespace {

Json response_base(const Json& id) {
  Json response = Json::object();
  if (!id.is_null()) response.set("id", id);
  return response;
}

}  // namespace

std::string render_result(const Json& id, std::uint64_t hash, bool cached,
                          std::string_view result) {
  // The compact dump of {"id"?,"hash","cached","result"}, written directly
  // so the result bytes are copied once instead of re-rendered.
  std::string out;
  out.reserve(result.size() + 96);
  out += '{';
  if (!id.is_null()) {
    out += R"("id":)";
    out += id.dump();
    out += ',';
  }
  out += R"("hash":")";
  out += hash_hex(hash);
  out += cached ? R"(","cached":true,"result":)" : R"(","cached":false,"result":)";
  out += result;
  out += '}';
  return out;
}

std::string render_result(const Json& id, std::uint64_t hash, bool cached,
                          const svc::ScenarioResult& result) {
  return render_result(id, hash, cached, result.to_json().dump());
}

std::string render_eval_error(const Json& id, std::uint64_t hash,
                              const std::string& error) {
  Json response = response_base(id);
  response.set("hash", Json::string(hash_hex(hash)));
  response.set("error", Json::string(error));
  return response.dump();
}

std::string render_parse_error(const Json& id, const std::string& error) {
  Json response = response_base(id);
  response.set("error", Json::string(error));
  return response.dump();
}

std::string render_overload(const Json& id, const std::string& detail) {
  Json response = response_base(id);
  response.set("overload", Json::boolean(true));
  response.set("error", Json::string(detail));
  return response.dump();
}

bool is_admin_verb(std::string_view payload) {
  return payload == "metricsz" || payload == "statusz" || payload == "tracez";
}

}  // namespace closfair::wire
