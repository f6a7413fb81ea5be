/**
 * @file
 * Shared JSON plumbing for every jrs-*-v1 writer.
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
 */
#ifndef JRS_OBS_JSON_H
#define JRS_OBS_JSON_H

#include <string>

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

} // namespace jrs::obs

#endif // JRS_OBS_JSON_H
