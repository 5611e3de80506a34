#include "svc/protocol.hpp"

namespace stgcc::svc {

obs::Json CheckOptions::to_json() const {
    return obs::Json::object()
        .set("normalcy", normalcy)
        .set("deadlock", deadlock)
        .set("persistency", persistency)
        .set("use_cache", use_cache);
}

CheckOptions CheckOptions::from_json(const obs::Json* j) {
    CheckOptions opts;
    if (!j || j->kind() != obs::Json::Kind::Object) return opts;
    const auto flag = [&](const char* name, bool fallback) {
        const obs::Json* v = j->find(name);
        return v ? v->as_bool() : fallback;
    };
    opts.normalcy = flag("normalcy", opts.normalcy);
    opts.deadlock = flag("deadlock", opts.deadlock);
    opts.persistency = flag("persistency", opts.persistency);
    opts.use_cache = flag("use_cache", opts.use_cache);
    return opts;
}

core::VerifyOptions CheckOptions::verify_options() const {
    core::VerifyOptions v;
    v.check_normalcy = normalcy;
    v.check_deadlock = deadlock;
    v.check_persistency = persistency;
    return v;
}

obs::Json make_ok(std::int64_t id) {
    return obs::Json::object().set("id", id).set("ok", true);
}

obs::Json make_error(std::int64_t id, const std::string& code,
                     const std::string& message) {
    return obs::Json::object()
        .set("id", id)
        .set("ok", false)
        .set("error",
             obs::Json::object().set("code", code).set("message", message));
}

std::int64_t request_id(const obs::Json& request) {
    const obs::Json* id = request.find("id");
    return id ? id->as_int() : 0;
}

bool response_ok(const obs::Json& response) {
    const obs::Json* ok = response.find("ok");
    return ok && ok->as_bool();
}

std::string response_error(const obs::Json& response) {
    const obs::Json* err = response.find("error");
    if (!err) return {};
    const obs::Json* msg = err->find("message");
    return msg ? msg->as_string() : std::string();
}

std::string response_error_code(const obs::Json& response) {
    const obs::Json* err = response.find("error");
    if (!err) return {};
    const obs::Json* code = err->find("code");
    return code ? code->as_string() : std::string();
}

}  // namespace stgcc::svc
