#include "service/protocol.hpp"

#include <charconv>
#include <utility>

#include "core/contracts.hpp"

namespace hap::service {

namespace {

using experiment::Json;

std::uint32_t decode_u32le(const char* p) {
    const auto b = [&](int i) {
        return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

void encode_u32le(std::uint32_t v, std::string& out) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

double number_field(const Json& j, const char* key, double fallback) {
    const Json* v = j.find(key);
    if (v == nullptr) return fallback;
    if (!v->is_number()) throw ProtocolError(std::string("field '") + key + "' must be a number");
    return v->as_number();
}

std::size_t count_field(const Json& j, const char* key, std::size_t fallback) {
    const Json* v = j.find(key);
    if (v == nullptr) return fallback;
    if (v->type() != Json::Type::Int || v->as_int() < 0)
        throw ProtocolError(std::string("field '") + key + "' must be a nonnegative integer");
    return static_cast<std::size_t>(v->as_int());
}

}  // namespace

std::string encode_frame(std::string_view body) {
    if (body.empty()) throw ProtocolError("cannot encode an empty frame");
    if (body.size() > kMaxFrameBody)
        throw ProtocolError("frame body of " + std::to_string(body.size()) +
                            " bytes exceeds the " + std::to_string(kMaxFrameBody) +
                            "-byte cap");
    std::string out;
    out.reserve(kFrameHeaderBytes + body.size());
    encode_u32le(static_cast<std::uint32_t>(body.size()), out);
    out.append(body);
    return out;
}

void FrameReader::feed(std::string_view bytes) {
    if (failed()) return;  // sticky: nothing past a bad prefix is trustworthy
    buffer_.append(bytes);
}

std::optional<std::string> FrameReader::next() {
    if (failed() || buffer_.size() < kFrameHeaderBytes) return std::nullopt;
    const std::uint32_t len = decode_u32le(buffer_.data());
    if (len == 0) {
        error_ = "zero-length frame";
        buffer_.clear();
        return std::nullopt;
    }
    if (len > kMaxFrameBody) {
        error_ = "frame length " + std::to_string(len) + " exceeds the " +
                 std::to_string(kMaxFrameBody) + "-byte cap";
        buffer_.clear();
        return std::nullopt;
    }
    if (buffer_.size() < kFrameHeaderBytes + len) return std::nullopt;
    std::string body = buffer_.substr(kFrameHeaderBytes, len);
    buffer_.erase(0, kFrameHeaderBytes + len);
    return body;
}

core::HapParams ModelSpec::params() const {
    core::HapParams p =
        core::HapParams::homogeneous(lambda, mu, lambda1, mu1, l, lambda2, m, service);
    p.max_users = max_users;
    p.max_apps = max_apps;
    p.validate();
    return p;
}

core::AdmissionQuery Request::admission_query() const {
    core::AdmissionQuery q;
    q.max_users = model.max_users;
    q.max_apps = model.max_apps;
    q.service_rate = model.service;
    q.delay_budget = delay_budget;
    return q;
}

Request parse_request(std::string_view body) {
    Json j;
    try {
        j = Json::parse(body);
    } catch (const std::exception& e) {
        throw ProtocolError(std::string("malformed request JSON: ") + e.what());
    }
    if (!j.is_object()) throw ProtocolError("request must be a JSON object");

    Request r;
    const Json* op = j.find("op");
    if (op == nullptr || !op->is_string())
        throw ProtocolError("request needs a string 'op' field");
    const std::string& name = op->as_string();
    if (name == "ping") {
        r.op = Op::Ping;
    } else if (name == "solve") {
        r.op = Op::Solve;
    } else if (name == "admission") {
        r.op = Op::Admission;
    } else if (name == "metrics") {
        r.op = Op::Metrics;
    } else if (name == "shutdown") {
        r.op = Op::Shutdown;
    } else {
        throw ProtocolError("unknown op '" + name + "'");
    }
    if (const Json* id = j.find("id")) {
        if (!id->is_string()) throw ProtocolError("'id' must be a string");
        r.id = id->as_string();
    }
    if (const Json* dl = j.find("deadline_ms")) {
        if (dl->type() != Json::Type::Int || dl->as_int() < 0)
            throw ProtocolError("'deadline_ms' must be a nonnegative integer");
        r.deadline_ms = static_cast<std::uint64_t>(dl->as_int());
    }
    if (r.op == Op::Solve || r.op == Op::Admission) {
        const Json* model = j.find("model");
        const Json& m = model != nullptr ? *model : j;  // flat requests allowed
        if (!m.is_object()) throw ProtocolError("'model' must be an object");
        r.model.lambda = number_field(m, "lambda", r.model.lambda);
        r.model.mu = number_field(m, "mu", r.model.mu);
        r.model.lambda1 = number_field(m, "lambda1", r.model.lambda1);
        r.model.mu1 = number_field(m, "mu1", r.model.mu1);
        r.model.l = count_field(m, "l", r.model.l);
        r.model.lambda2 = number_field(m, "lambda2", r.model.lambda2);
        r.model.m = count_field(m, "m", r.model.m);
        r.model.service = number_field(m, "service", r.model.service);
        r.model.max_users = count_field(m, "max_users", r.model.max_users);
        r.model.max_apps = count_field(m, "max_apps", r.model.max_apps);
        r.delay_budget = number_field(j, "budget", 0.0);
        try {
            (void)r.model.params();          // rate/shape validation
            r.admission_query().validate();  // finite capacity/threshold
        } catch (const std::exception& e) {
            throw ProtocolError(std::string("invalid model: ") + e.what());
        }
    }
    return r;
}

namespace {

Json model_json(const ModelSpec& model) {
    Json m = Json::object();
    m.set("lambda", Json::number(model.lambda));
    m.set("mu", Json::number(model.mu));
    m.set("lambda1", Json::number(model.lambda1));
    m.set("mu1", Json::number(model.mu1));
    m.set("l", Json::integer(static_cast<std::uint64_t>(model.l)));
    m.set("lambda2", Json::number(model.lambda2));
    m.set("m", Json::integer(static_cast<std::uint64_t>(model.m)));
    m.set("service", Json::number(model.service));
    m.set("max_users", Json::integer(static_cast<std::uint64_t>(model.max_users)));
    m.set("max_apps", Json::integer(static_cast<std::uint64_t>(model.max_apps)));
    return m;
}

Json request_shell(const char* op, const std::string& id) {
    Json j = Json::object();
    j.set("op", Json::string(op));
    if (!id.empty()) j.set("id", Json::string(id));
    return j;
}

}  // namespace

std::string build_solve_request(const ModelSpec& model, const std::string& id,
                                std::uint64_t deadline_ms) {
    Json j = request_shell("solve", id);
    if (deadline_ms > 0) j.set("deadline_ms", Json::integer(deadline_ms));
    j.set("model", model_json(model));
    return j.dump(0);
}

std::string build_admission_request(const ModelSpec& model, double delay_budget,
                                    const std::string& id,
                                    std::uint64_t deadline_ms) {
    HAP_CHECK_FINITE(delay_budget);
    Json j = request_shell("admission", id);
    if (deadline_ms > 0) j.set("deadline_ms", Json::integer(deadline_ms));
    j.set("model", model_json(model));
    j.set("budget", Json::number(delay_budget));
    return j.dump(0);
}

std::string build_simple_request(Op op, const std::string& id) {
    const char* name = "ping";
    switch (op) {
        case Op::Ping: name = "ping"; break;
        case Op::Metrics: name = "metrics"; break;
        case Op::Shutdown: name = "shutdown"; break;
        case Op::Solve:
        case Op::Admission:
            throw ProtocolError("solve/admission requests need a model; use the "
                                "dedicated builders");
    }
    return request_shell(name, id).dump(0);
}

std::string error_response(const std::string& id, std::string_view code,
                           std::string_view message) {
    Json j = Json::object();
    j.set("ok", Json::boolean(false));
    if (!id.empty()) j.set("id", Json::string(id));
    j.set("code", Json::string(std::string(code)));
    j.set("error", Json::string(std::string(message)));
    return j.dump(0);
}

std::string overloaded_response(const std::string& id, std::uint64_t retry_after_ms,
                                std::string_view message) {
    Json j = Json::object();
    j.set("ok", Json::boolean(false));
    if (!id.empty()) j.set("id", Json::string(id));
    j.set("code", Json::string("overloaded"));
    j.set("error", Json::string(std::string(message)));
    j.set("retry_after_ms", Json::integer(retry_after_ms));
    return j.dump(0);
}

std::string deadline_exceeded_response(const std::string& id) {
    return error_response(id, "deadline_exceeded",
                          "deadline expired while the request was queued");
}

std::string ok_response(const std::string& id, const experiment::Json& payload) {
    // The envelope's bytes spliced before the payload's own: no second tree,
    // however large the payload (a metrics scrape carries the whole registry).
    std::string out = "{\"ok\":true";
    if (!id.empty()) {
        out += ",\"id\":";
        experiment::append_json_string(out, id);
    }
    const std::string members = payload.dump(0);  // "{}" or "{...}"
    if (members.size() > 2) out += ',';
    out.append(members, 1, std::string::npos);
    return out;
}

std::string answer_response(const std::string& id, const Answer& answer) {
    std::string out;
    out.reserve(96 + id.size() + answer.result.size());
    out += "{\"ok\":true";
    if (!id.empty()) {
        out += ",\"id\":";
        experiment::append_json_string(out, id);
    }
    out += ",\"source\":";
    experiment::append_json_string(out, answer.source);
    out += ",\"quality\":";
    experiment::append_json_string(out, answer.quality);
    if (answer.batch > 1) {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), answer.batch);
        out += ",\"batch\":";
        out.append(buf, res.ptr);
    }
    if (answer.distance.has_value()) {
        out += ",\"distance\":";
        experiment::append_json_number(out, *answer.distance);
    }
    out += ",\"result\":";
    out += answer.result;
    out += '}';
    return out;
}

}  // namespace hap::service
