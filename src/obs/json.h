/**
 * @file
 * Shared JSON plumbing for every jrs-*-v1 writer (and the one reader).
 *
 * All observability schemas (jrs-metrics-v1, jrs-perf-report-v1,
 * jrs-cct-v1, jrs-sample-v1, the Chrome trace-event
 * output and the sweep-result documents) hand-render their JSON; this
 * header is the single definition of the two primitives they share:
 *
 *  - jsonEscape(): string escaping (quotes, backslash, control
 *    characters as \uXXXX).
 *  - jsonNumber(): shortest round-trippable double. JSON has no
 *    NaN/Inf so non-finite values render as null, and the output is
 *    locale-independent: a C locale whose decimal separator is ','
 *    (snprintf honors LC_NUMERIC) would otherwise emit invalid JSON,
 *    so any ',' the formatter produced is normalized back to '.'.
 *
 * writeTextFile() is the tree's one text-file writer: every JSON
 * document and folded-stack file goes through it, so a write that
 * fails (a missing directory, a full disk) throws instead of leaving
 * a short or empty file behind a zero exit status.
 *
 * JsonParser is the tree's one JSON reader: a minimal recursive-descent
 * parser covering what the writers above emit — strings, finite
 * numbers, objects, arrays, true/false/null, no \u surrogate pairs. It
 * exists so the round-trip tests need no external JSON dependency; it
 * is strict enough to reject files this tree did not write.
 */
#ifndef JRS_OBS_JSON_H
#define JRS_OBS_JSON_H

#include <string>
#include <utility>
#include <vector>

namespace jrs::obs {

/** See file comment. */
std::string jsonEscape(const std::string &s);

/** See file comment. */
std::string jsonNumber(double v);

/**
 * Write @p body to @p path, replacing it. Throws VmError
 * "cannot write <what>: <path>: <reason>" when the open, the write or
 * the close fails.
 */
void writeTextFile(const std::string &path, const std::string &body,
                   const std::string &what);

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
                        std::string what = "json");

    /** Parse the whole document; rejects trailing content. */
    Value parse();

  private:
    [[noreturn]] void fail(const std::string &why) const;
    void ws();
    char peek();
    void expect(char c);
    bool consume(char c);
    std::string string();
    Value value();
    void literal(const char *lit);

    const std::string &s_;
    std::string what_;
    std::size_t pos_ = 0;
};

} // namespace jrs::obs

#endif // JRS_OBS_JSON_H
