// stgcc -- stgd request/response vocabulary (docs/SERVICE.md).
//
// One frame carries one JSON object.  Requests name an operation and an
// id; the id is opaque to the server and echoed verbatim on every frame of
// the response, so clients may pipeline requests on one connection.
//
// Requests:
//   {"op":"ping","id":N}
//   {"op":"stats","id":N}
//   {"op":"shutdown","id":N}                        -- graceful drain
//   {"op":"check","id":N,"model":"<.g text>",
//    "file":"label","options":{...},"deadline_ms":D}
//   {"op":"batch","id":N,"models":[{"index":i,"file":"label",
//    "model":"<.g text>"},...],"options":{...},"deadline_ms":D}
//
// Responses (one frame, except batch which streams):
//   {"id":N,"ok":true,...}                           -- op-specific payload
//   {"id":N,"ok":false,"error":{"code":"...","message":"..."}}
//   batch: zero or more {"id":N,"ok":true,"event":"row","index":i,...}
//          frames in completion order, then one
//          {"id":N,"ok":true,"event":"done","summary":{...}}.
//
// Error codes: bad_request, model_error, deadline_exceeded, shutting_down,
// internal.  The check options mirror the stgcheck flags that change
// verdicts; `options_signature` renders the result-cache key fragment so
// the daemon, stgcheck and the tests agree on one spelling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/json.hpp"

namespace stgcc::svc {

inline constexpr std::int64_t kProtocolVersion = 2;

/// Checker options carried by check/batch requests -- exactly the flag set
/// that discriminates cached verdicts (docs/CACHING.md).
struct CheckOptions {
    bool normalcy = true;
    /// Reduction-pipeline spec (docs/REDUCTIONS.md): "none", "all", or a
    /// comma-separated pass list.
    std::string reduce = "none";
    bool deadlock = false;
    bool persistency = false;
    bool use_cache = true;  ///< result caches for this request

    [[nodiscard]] obs::Json to_json() const;
    [[nodiscard]] static CheckOptions from_json(const obs::Json* j);

    /// Options fragment of the result-cache key
    /// ("v2;normalcy=1;reduce=none;...").  This is THE one signature
    /// spelling: stgcheck's offline path, stgbatch and the daemon all embed
    /// exactly this string in their cache keys, so a verdict cached by one
    /// is warm for the others (svc_test pins the agreement).  The reduce
    /// spec is canonicalized (pass-list order and aliases normalized) when
    /// it parses; an unparsable spec is embedded verbatim -- such requests
    /// fail before any cache store, so no entry is ever keyed by it.
    [[nodiscard]] std::string signature() const;
};

/// {"id":…,"ok":true} skeleton echoing the request id (0 when absent).
[[nodiscard]] obs::Json make_ok(std::int64_t id);

/// {"id":…,"ok":false,"error":{"code":…,"message":…}}.
[[nodiscard]] obs::Json make_error(std::int64_t id, const std::string& code,
                                   const std::string& message);

/// Request id ("id" member, 0 when absent or non-numeric).
[[nodiscard]] std::int64_t request_id(const obs::Json& request);

/// True when the response object reports success.
[[nodiscard]] bool response_ok(const obs::Json& response);

/// error.message of a failed response ("" when well-formed/absent).
[[nodiscard]] std::string response_error(const obs::Json& response);

/// error.code of a failed response ("" when absent).
[[nodiscard]] std::string response_error_code(const obs::Json& response);

}  // namespace stgcc::svc
