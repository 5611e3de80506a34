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
//   {"id":N,"ok":true,...}                           -- op-specific payload;
//                          check: the core::RenderedVerdict members
//                          (core/verdict.hpp) plus cached, seconds, trace
//   {"id":N,"ok":false,"error":{"code":"...","message":"..."}}
//   batch: zero or more {"id":N,"ok":true,"event":"row","index":i,...}
//          frames in completion order, then one
//          {"id":N,"ok":true,"event":"done","summary":{...}}.
//
// Error codes: bad_request, model_error, deadline_exceeded, shutting_down,
// internal.  The check options mirror the stgcheck flags that change
// verdicts; the daemon keys its result caches by
// core::options_signature(verify_options()), the one spelling stgcheck and
// stgbatch use too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/verifier.hpp"
#include "obs/json.hpp"

namespace stgcc::svc {

inline constexpr std::int64_t kProtocolVersion = 3;

/// Checker options carried by check/batch requests -- exactly the flag set
/// that discriminates cached verdicts (docs/CACHING.md).  A "reduce" member
/// (protocol 2) is ignored: dummies are contracted whenever a model has
/// them.
struct CheckOptions {
    bool normalcy = true;
    bool deadlock = false;
    bool persistency = false;
    bool use_cache = true;  ///< result caches for this request

    [[nodiscard]] obs::Json to_json() const;
    [[nodiscard]] static CheckOptions from_json(const obs::Json* j);

    /// The checker configuration these options select (jobs, unfolding and
    /// search settings stay at their defaults).
    [[nodiscard]] core::VerifyOptions verify_options() const;
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
