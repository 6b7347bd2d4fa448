#include "util/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace nasd::util {

namespace {

const char *
kindName(int kind)
{
    switch (kind) {
      case 0:
        return "counter";
      case 1:
        return "gauge";
      case 2:
        return "latency";
    }
    return "?";
}

/** Escape a metric path for embedding in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
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

/** Format a double the way JSON expects (no inf/nan, no trailing cruft). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/**
 * Minimal JSON scanner for importJson(): just enough to walk the
 * object structure toJson() emits. Panics on anything malformed.
 */
class JsonScanner
{
  public:
    explicit JsonScanner(std::string_view text) : text_(text) {}

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        NASD_ASSERT(pos_ < text_.size(), "importJson: truncated input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        NASD_ASSERT(peek() == c, "importJson: expected '", c, "' got '",
                    text_[pos_], "' at offset ", pos_);
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            NASD_ASSERT(pos_ < text_.size(), "importJson: unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                NASD_ASSERT(pos_ < text_.size(),
                            "importJson: truncated escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    out += e;
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    NASD_ASSERT(pos_ + 4 <= text_.size(),
                                "importJson: truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            NASD_PANIC("importJson: bad \\u digit '", h, "'");
                    }
                    NASD_ASSERT(code < 0x80,
                                "importJson: non-ASCII \\u escape");
                    out += static_cast<char>(code);
                    break;
                  }
                  default:
                    NASD_PANIC("importJson: unsupported escape '\\", e, "'");
                }
            } else {
                out += c;
            }
        }
    }

    double
    parseNumber()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        NASD_ASSERT(pos_ > start, "importJson: expected number at offset ",
                    pos_);
        return std::stod(std::string(text_.substr(start, pos_ - start)));
    }

    /** Skip one complete JSON value (used for unknown keys and sections). */
    void
    skipValue()
    {
        char c = peek();
        if (c == '{') {
            expect('{');
            if (consume('}'))
                return;
            do {
                (void)parseString();
                expect(':');
                skipValue();
            } while (consume(','));
            expect('}');
        } else if (c == '[') {
            expect('[');
            if (consume(']'))
                return;
            do {
                skipValue();
            } while (consume(','));
            expect(']');
        } else if (c == '"') {
            (void)parseString();
        } else {
            (void)parseNumber();
        }
    }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;
};

MetricsRegistry g_default_registry;
MetricsRegistry *g_current_registry = &g_default_registry;

} // namespace

MetricsRegistry::Entry &
MetricsRegistry::lookup(const std::string &path, Kind kind)
{
    NASD_ASSERT(!path.empty(), "metric path must not be empty");
    auto [it, inserted] = entries_.try_emplace(path);
    Entry &e = it->second;
    if (inserted) {
        e.kind = kind;
        switch (kind) {
          case Kind::kCounter:
            e.counter = std::make_unique<Counter>();
            break;
          case Kind::kGauge:
            e.gauge = std::make_unique<Gauge>();
            break;
          case Kind::kLatency:
            e.latency = std::make_unique<LogHistogram>();
            break;
        }
    } else if (e.kind != kind) {
        NASD_PANIC("metric '", path, "' registered as ",
                   kindName(static_cast<int>(e.kind)), ", requested as ",
                   kindName(static_cast<int>(kind)));
    }
    return e;
}

Counter &
MetricsRegistry::counter(const std::string &path)
{
    return *lookup(path, Kind::kCounter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    return *lookup(path, Kind::kGauge).gauge;
}

LogHistogram &
MetricsRegistry::latency(const std::string &path)
{
    return *lookup(path, Kind::kLatency).latency;
}

std::string
MetricsRegistry::uniquePrefix(const std::string &stem)
{
    NASD_ASSERT(!stem.empty(), "metric prefix stem must not be empty");
    std::uint64_t n = ++prefix_counts_[stem];
    if (n == 1)
        return stem;
    return stem + "#" + std::to_string(n);
}

bool
MetricsRegistry::contains(const std::string &path) const
{
    return entries_.find(path) != entries_.end();
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[path, e] : entries_) {
        if (e.kind != Kind::kCounter)
            continue;
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": " << e.counter->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[path, e] : entries_) {
        if (e.kind != Kind::kGauge)
            continue;
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": " << jsonNumber(e.gauge->value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"latencies\": {";
    first = true;
    for (const auto &[path, e] : entries_) {
        if (e.kind != Kind::kLatency)
            continue;
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(path)
           << "\": " << e.latency->toJson();
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
    return os.str();
}

void
MetricsRegistry::importJson(std::string_view json)
{
    // Kind collisions on (re-)import get an import-specific error
    // instead of falling through to the generic lookup panic: a dump
    // whose "counters" section names a path this registry holds as a
    // gauge is a corrupt or mismatched snapshot, and the message
    // should say which side is which.
    const auto requireKind = [this](const std::string &path, Kind want) {
        const auto it = entries_.find(path);
        if (it != entries_.end() && it->second.kind != want) {
            NASD_PANIC("importJson: '", path, "' already registered as ",
                       kindName(static_cast<int>(it->second.kind)),
                       ", import provides a ",
                       kindName(static_cast<int>(want)));
        }
    };
    JsonScanner scan(json);
    scan.expect('{');
    if (scan.consume('}'))
        return;
    do {
        std::string section = scan.parseString();
        scan.expect(':');
        if (section == "counters") {
            scan.expect('{');
            if (!scan.consume('}')) {
                do {
                    std::string path = scan.parseString();
                    scan.expect(':');
                    double v = scan.parseNumber();
                    requireKind(path, Kind::kCounter);
                    Counter &c = counter(path);
                    c.reset();
                    c.add(static_cast<std::uint64_t>(v));
                } while (scan.consume(','));
                scan.expect('}');
            }
        } else if (section == "gauges") {
            scan.expect('{');
            if (!scan.consume('}')) {
                do {
                    std::string path = scan.parseString();
                    scan.expect(':');
                    requireKind(path, Kind::kGauge);
                    gauge(path).set(scan.parseNumber());
                } while (scan.consume(','));
                scan.expect('}');
            }
        } else if (section == "latencies") {
            scan.expect('{');
            if (!scan.consume('}')) {
                do {
                    std::string path = scan.parseString();
                    scan.expect(':');
                    std::uint64_t count = 0, sum = 0, lo = 0, hi = 0;
                    std::vector<std::pair<std::uint64_t, std::uint64_t>>
                        buckets;
                    scan.expect('{');
                    if (!scan.consume('}')) {
                        do {
                            std::string key = scan.parseString();
                            scan.expect(':');
                            if (key == "count") {
                                count = static_cast<std::uint64_t>(
                                    scan.parseNumber());
                            } else if (key == "sum") {
                                sum = static_cast<std::uint64_t>(
                                    scan.parseNumber());
                            } else if (key == "min") {
                                lo = static_cast<std::uint64_t>(
                                    scan.parseNumber());
                            } else if (key == "max") {
                                hi = static_cast<std::uint64_t>(
                                    scan.parseNumber());
                            } else if (key == "buckets") {
                                scan.expect('[');
                                if (!scan.consume(']')) {
                                    do {
                                        scan.expect('[');
                                        auto lower =
                                            static_cast<std::uint64_t>(
                                                scan.parseNumber());
                                        scan.expect(',');
                                        auto n = static_cast<std::uint64_t>(
                                            scan.parseNumber());
                                        scan.expect(']');
                                        buckets.emplace_back(lower, n);
                                    } while (scan.consume(','));
                                    scan.expect(']');
                                }
                            } else {
                                // mean/p50/p95/p99 are derived state.
                                scan.skipValue();
                            }
                        } while (scan.consume(','));
                        scan.expect('}');
                    }
                    requireKind(path, Kind::kLatency);
                    latency(path).restore(count, sum, lo, hi, buckets);
                } while (scan.consume(','));
                scan.expect('}');
            }
        } else {
            scan.skipValue();
        }
    } while (scan.consume(','));
    scan.expect('}');
}

void
MetricsRegistry::forEachCounter(
    const std::function<void(const std::string &, const Counter &)> &fn)
    const
{
    for (const auto &[path, e] : entries_)
        if (e.kind == Kind::kCounter)
            fn(path, *e.counter);
}

void
MetricsRegistry::forEachGauge(
    const std::function<void(const std::string &, const Gauge &)> &fn) const
{
    for (const auto &[path, e] : entries_)
        if (e.kind == Kind::kGauge)
            fn(path, *e.gauge);
}

void
MetricsRegistry::forEachLatency(
    const std::function<void(const std::string &, const LogHistogram &)> &fn)
    const
{
    for (const auto &[path, e] : entries_)
        if (e.kind == Kind::kLatency)
            fn(path, *e.latency);
}

MetricsRegistry &
metrics()
{
    return *g_current_registry;
}

MetricsScope::MetricsScope() : previous_(g_current_registry)
{
    g_current_registry = &registry_;
}

MetricsScope::~MetricsScope()
{
    g_current_registry = previous_;
}

} // namespace nasd::util
