#include "obs/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "vm/runtime/vm_error.h"

namespace jrs::obs {

void
writeTextFile(const std::string &path, const std::string &body,
              const std::string &what)
{
    const auto fail = [&](int err) {
        throw VmError("cannot write " + what + ": " + path + ": "
                      + std::strerror(err));
    };
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fail(errno);
    const bool wrote =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    const int writeErr = errno;
    if (std::fclose(f) != 0)
        fail(wrote ? errno : writeErr);
    if (!wrote)
        fail(writeErr);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // snprintf honors LC_NUMERIC; a ',' decimal separator would be
    // invalid JSON, so normalize it (see header).
    for (char *p = buf; *p != '\0'; ++p) {
        if (*p == ',')
            *p = '.';
    }
    return buf;
}

JsonParser::JsonParser(const std::string &text, std::string what)
    : s_(text), what_(std::move(what))
{
}

JsonParser::Value
JsonParser::parse()
{
    const Value v = value();
    ws();
    if (pos_ != s_.size())
        fail("trailing content");
    return v;
}

void
JsonParser::fail(const std::string &why) const
{
    throw VmError(what_ + " parse error at byte " +
                  std::to_string(pos_) + ": " + why);
}

void
JsonParser::ws()
{
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
}

char
JsonParser::peek()
{
    ws();
    if (pos_ >= s_.size())
        fail("unexpected end");
    return s_[pos_];
}

void
JsonParser::expect(char c)
{
    if (peek() != c)
        fail(std::string("expected '") + c + "'");
    ++pos_;
}

bool
JsonParser::consume(char c)
{
    if (pos_ < s_.size() && peek() == c) {
        ++pos_;
        return true;
    }
    return false;
}

std::string
JsonParser::string()
{
    expect('"');
    std::string out;
    while (true) {
        if (pos_ >= s_.size())
            fail("unterminated string");
        const char c = s_[pos_++];
        if (c == '"')
            return out;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (pos_ >= s_.size())
            fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size())
                fail("bad \\u escape");
            const unsigned code = static_cast<unsigned>(
                std::stoul(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            // ASCII subset only — all the jrs writers emit.
            out += static_cast<char>(code & 0x7f);
            break;
          }
          default:
            fail("bad escape");
        }
    }
}

JsonParser::Value
JsonParser::value()
{
    const char c = peek();
    Value v;
    if (c == '{') {
        ++pos_;
        v.kind = Value::Object;
        if (!consume('}')) {
            while (true) {
                std::string name = string();
                expect(':');
                v.fields.emplace_back(std::move(name), value());
                if (consume(','))
                    continue;
                expect('}');
                break;
            }
        }
    } else if (c == '[') {
        ++pos_;
        v.kind = Value::Array;
        if (!consume(']')) {
            while (true) {
                v.items.push_back(value());
                if (consume(','))
                    continue;
                expect(']');
                break;
            }
        }
    } else if (c == '"') {
        v.kind = Value::String;
        v.str = string();
    } else if (c == 't') {
        literal("true");
        v.kind = Value::Bool;
        v.b = true;
    } else if (c == 'f') {
        literal("false");
        v.kind = Value::Bool;
    } else if (c == 'n') {
        literal("null");
    } else {
        v.kind = Value::Number;
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        try {
            v.num = std::stod(s_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail("bad number");
        }
    }
    return v;
}

void
JsonParser::literal(const char *lit)
{
    for (const char *p = lit; *p != '\0'; ++p) {
        if (pos_ >= s_.size() || s_[pos_] != *p)
            fail(std::string("expected ") + lit);
        ++pos_;
    }
}

} // namespace jrs::obs
