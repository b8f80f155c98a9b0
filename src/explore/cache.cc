#include "cache.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace rtu {

namespace {

/** Latencies are integral cycle counts; print them as such so the
 *  stream is byte-stable (matching writeResultsJsonl's convention).
 *  Non-finite samples (which should never occur, but must not corrupt
 *  the cache file if they do) serialize as JSON null. */
std::string
formatSample(double v)
{
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
        return csprintf("%lld", static_cast<long long>(v));
    }
    return jsonNumber(v);
}

/** Find the value text following @p field ("\"name\":"), or npos. */
size_t
fieldPos(const std::string &line, const char *field)
{
    const size_t at = line.find(field);
    return at == std::string::npos ? std::string::npos
                                   : at + std::strlen(field);
}

bool
parseU64Field(const std::string &line, const char *field,
              std::uint64_t *out)
{
    const size_t at = fieldPos(line, field);
    if (at == std::string::npos)
        return false;
    char *end = nullptr;
    *out = std::strtoull(line.c_str() + at, &end, 10);
    return end != line.c_str() + at;
}

bool
parseBoolField(const std::string &line, const char *field, bool *out)
{
    const size_t at = fieldPos(line, field);
    if (at == std::string::npos)
        return false;
    *out = line.compare(at, 4, "true") == 0;
    return *out || line.compare(at, 5, "false") == 0;
}

/** Parse the escaped string value following @p field; false when the
 *  field is missing or the closing quote never comes (truncation). */
bool
parseStringField(const std::string &line, const char *field,
                 std::string *out)
{
    const size_t at = fieldPos(line, field);
    if (at == std::string::npos)
        return false;
    std::string raw;
    for (size_t i = at; i < line.size(); ++i) {
        if (line[i] == '\\' && i + 1 < line.size()) {
            raw.push_back(line[i]);
            raw.push_back(line[++i]);
        } else if (line[i] == '"') {
            *out = jsonUnescape(raw);
            return true;
        } else {
            raw.push_back(line[i]);
        }
    }
    return false;
}

bool
parseSamplesField(const std::string &line, const char *field,
                  std::vector<double> *out)
{
    const size_t at = fieldPos(line, field);
    if (at == std::string::npos)
        return false;
    out->clear();
    const char *p = line.c_str() + at;
    if (*p == ']')
        return true;  // empty array (a run with no switches)
    for (;;) {
        if (std::strncmp(p, "null", 4) == 0) {
            // jsonNumber writes non-finite samples as null; read them
            // back as NaN so the entry round-trips instead of being
            // discarded as corrupt.
            out->push_back(std::nan(""));
            p += 4;
        } else {
            char *end = nullptr;
            const double v = std::strtod(p, &end);
            if (end == p)
                return false;
            out->push_back(v);
            p = end;
        }
        if (*p == ',') {
            ++p;
        } else {
            return *p == ']';
        }
    }
}

} // namespace

ResultCache::ResultCache(const std::string &dir) : dir_(dir)
{
    if (persistent())
        load();
}

std::string
ResultCache::filePath() const
{
    return dir_.empty() ? std::string() : dir_ + "/results.jsonl";
}

void
ResultCache::load()
{
    std::ifstream is(filePath());
    if (!is)
        return;  // first run: nothing cached yet
    std::string line;
    size_t lineno = 0, skipped = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.find("\"bench\":\"explore_cache\"") !=
            std::string::npos) {
            // Schema-stamped header (first line of files created by
            // this writer; absent from pre-header caches). A header
            // must be well-formed and must lead the file; a stamp from
            // another generation makes every following entry another
            // generation too — the per-line check below skips them.
            std::uint64_t schema = 0;
            rtu_assert(parseU64Field(line, "\"schema\":", &schema),
                       "result cache %s:%zu: malformed schema header",
                       filePath().c_str(), lineno);
            rtu_assert(lineno == 1,
                       "result cache %s:%zu: schema header not at the "
                       "top of the file",
                       filePath().c_str(), lineno);
            if (schema != kSchemaVersion)
                ++skipped;
            continue;
        }
        std::uint64_t v = 0;
        if (!parseU64Field(line, "\"v\":", &v) || v != kSchemaVersion) {
            ++skipped;  // other schema generation: not ours to read
            continue;
        }
        std::string key;
        CachedRun run;
        std::uint64_t exitCode = 0, cycles = 0;
        bool ok =
            parseStringField(line, "\"key\":\"", &key) &&
            parseBoolField(line, "\"ok\":", &run.ok) &&
            parseU64Field(line, "\"exit_code\":", &exitCode) &&
            parseU64Field(line, "\"cycles\":", &cycles) &&
            parseSamplesField(line, "\"lat\":[", &run.switchSamples);
        for (const auto &row : kActivityCountersTable) {
            ok = ok && parseU64Field(line,
                                     csprintf("\"%s\":", row.name).c_str(),
                                     &(run.activity.*row.member));
        }
        if (!ok) {
            ++skipped;
            warn("result cache %s:%zu: corrupt entry skipped",
                 filePath().c_str(), lineno);
            continue;
        }
        run.exitCode = static_cast<Word>(exitCode);
        run.cycles = cycles;
        entries_[key] = std::move(run);
    }
    if (skipped > 0)
        warn("result cache %s: %zu of %zu lines unusable",
             filePath().c_str(), skipped, lineno);
}

bool
ResultCache::lookup(const SweepPoint &point, CachedRun *out) const
{
    const auto it = entries_.find(point.key());
    if (it == entries_.end())
        return false;
    *out = it->second;
    return true;
}

void
ResultCache::insert(const SweepPoint &point, const CachedRun &run)
{
    const std::string key = point.key();
    if (persistent() && entries_.find(key) == entries_.end())
        append(key, run);
    entries_[key] = run;
}

void
ResultCache::append(const std::string &key, const CachedRun &run)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create cache directory '%s': %s", dir_.c_str(),
              ec.message().c_str());
    const bool fresh = !std::filesystem::exists(filePath());
    std::ofstream os(filePath(), std::ios::app);
    if (!os)
        fatal("cannot append to result cache '%s'", filePath().c_str());
    if (fresh) {
        // Same header convention as the sweep benches' --out streams;
        // load() asserts its shape before trusting the entries.
        os << "{\"schema\":" << kSchemaVersion
           << ",\"bench\":\"explore_cache\"}\n";
    }

    std::ostringstream line;
    line << "{\"v\":" << kSchemaVersion
         << ",\"key\":\"" << jsonEscape(key)
         << "\",\"ok\":" << (run.ok ? "true" : "false")
         << ",\"exit_code\":" << run.exitCode
         << ",\"cycles\":" << run.cycles;
    writeCounterFields(line, run.activity);
    line << ",\"lat\":[";
    for (size_t i = 0; i < run.switchSamples.size(); ++i) {
        if (i > 0)
            line << ',';
        line << formatSample(run.switchSamples[i]);
    }
    line << "]}\n";
    os << line.str();
}

CachedRun
ResultCache::fromRunResult(const RunResult &run)
{
    CachedRun out;
    out.ok = run.ok;
    out.exitCode = run.exitCode;
    out.cycles = run.cycles;
    out.switchSamples = run.switchLatency.samples();
    out.activity = run.activity;
    return out;
}

} // namespace rtu
