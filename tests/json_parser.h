/**
 * @file
 * A minimal recursive-descent JSON reader for round-trip tests.
 *
 * It covers what the obs writers emit (obs/json.h): strings, finite
 * numbers, objects, arrays, true/false/null, \u escapes in the ASCII
 * range only. It exists so the tests need no external JSON
 * dependency; nothing outside tests/ reads JSON.
 */
#ifndef JRS_TESTS_JSON_PARSER_H
#define JRS_TESTS_JSON_PARSER_H

#include <cctype>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "vm/runtime/vm_error.h"

namespace jrs::test {

/** See file comment. Throws VmError on malformed input. */
class JsonParser {
  public:
    struct Value {
        enum Kind { Null, Bool, Number, String, Array, Object } kind =
            Null;
        bool b = false;
        double num = 0;
        std::string str;
        std::vector<Value> items;
        std::vector<std::pair<std::string, Value>> fields;

        /** Object field @p name, or null when absent. */
        const Value *field(const std::string &name) const {
            for (const auto &f : fields) {
                if (f.first == name)
                    return &f.second;
            }
            return nullptr;
        }
    };

    /**
     * @p text must outlive the parser. @p what names the schema in
     * error messages ("jrs-sample-v1 parse error at byte N: ...").
     */
    explicit JsonParser(const std::string &text,
                        std::string what = "json")
        : s_(text), what_(std::move(what)) {}

    /** Parse the whole document; rejects trailing content. */
    Value parse() {
        const Value v = value();
        ws();
        if (pos_ != s_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &why) const {
        throw VmError(what_ + " parse error at byte "
                      + std::to_string(pos_) + ": " + why);
    }

    void ws() {
        while (pos_ < s_.size()
               && std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char peek() {
        ws();
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }

    void expect(char c) {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume(char c) {
        if (pos_ < s_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::string string() {
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
                out += static_cast<char>(code & 0x7f);
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    Value value() {
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
            while (pos_ < s_.size()
                   && (std::isdigit(static_cast<unsigned char>(s_[pos_]))
                       || s_[pos_] == '-' || s_[pos_] == '+'
                       || s_[pos_] == '.' || s_[pos_] == 'e'
                       || s_[pos_] == 'E'))
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

    void literal(const char *lit) {
        for (const char *p = lit; *p != '\0'; ++p) {
            if (pos_ >= s_.size() || s_[pos_] != *p)
                fail(std::string("expected ") + lit);
            ++pos_;
        }
    }

    const std::string &s_;
    std::string what_;
    std::size_t pos_ = 0;
};

} // namespace jrs::test

#endif // JRS_TESTS_JSON_PARSER_H
