#include "obs/json.h"

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

} // namespace jrs::obs
