#include "core/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/runreport.hpp"

namespace amsyn::core {

std::uint64_t BackoffPolicy::delayMs(std::size_t retry) const {
  if (retry == 0 || initialMs == 0) return 0;
  const double delay = static_cast<double>(initialMs) *
                       std::pow(std::max(multiplier, 1.0), static_cast<double>(retry - 1));
  return static_cast<std::uint64_t>(std::min(delay, static_cast<double>(maxMs)));
}

bool RetryPolicy::shouldRetry(EvalStatus st, std::size_t attemptsSoFar) const {
  return attemptsSoFar < maxAttempts && isRetryable(st);
}

// ---------------------------------------------------------------------------
// Journal lines

namespace {

/// FNV-1a 64 over a byte range — the journal's torn/corrupt-line detector.
std::uint64_t fnv1a64(const char* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Reverse of core::jsonEscape for the escapes it produces.  Returns
/// nullopt on a malformed escape (treated as a corrupt line).
std::optional<std::string> jsonUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i >= s.size()) return std::nullopt;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        if (i + 4 >= s.size()) return std::nullopt;
        unsigned code = 0;
        for (std::size_t k = 1; k <= 4; ++k) {
          const char c = s[i + k];
          code <<= 4;
          if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
          else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
          else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
          else return std::nullopt;
        }
        if (code > 0x7f) return std::nullopt;  // the writer only emits < 0x20
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: return std::nullopt;
    }
  }
  return out;
}

/// Locate `"key":` at top level.  Keys and the quote characters around
/// them are never escaped by the writer, while any raw `"` inside a string
/// value is written as `\"` — so searching for the raw pattern cannot
/// false-positive inside a value.
std::optional<std::size_t> findKey(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return std::nullopt;
  return pos + pat.size();
}

std::optional<std::uint64_t> parseUintAt(const std::string& line, std::size_t pos) {
  if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return std::nullopt;
  std::uint64_t v = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    // Overflow guard of envknobs::parseUnsigned: a number past uint64 is
    // malformed, not silently wrapped onto some other job.
    const auto digit = static_cast<std::uint64_t>(line[pos] - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
    ++pos;
  }
  return v;
}

std::optional<std::uint64_t> extractUint(const std::string& line, const std::string& key) {
  const auto pos = findKey(line, key);
  if (!pos) return std::nullopt;
  return parseUintAt(line, *pos);
}

std::optional<std::string> extractString(const std::string& line, const std::string& key) {
  auto pos = findKey(line, key);
  if (!pos || *pos >= line.size() || line[*pos] != '"') return std::nullopt;
  std::size_t i = *pos + 1;
  std::string raw;
  while (i < line.size() && line[i] != '"') {
    if (line[i] == '\\') {
      if (i + 1 >= line.size()) return std::nullopt;
      raw += line[i];
      raw += line[i + 1];
      i += 2;
    } else {
      raw += line[i];
      ++i;
    }
  }
  if (i >= line.size()) return std::nullopt;  // unterminated: torn line
  return jsonUnescape(raw);
}

std::optional<EvalStatus> statusFromName(const std::string& name) {
  for (std::size_t i = 0; i < kEvalStatusCount; ++i) {
    const auto s = static_cast<EvalStatus>(i);
    if (name == evalStatusName(s)) return s;
  }
  return std::nullopt;
}

}  // namespace

std::string JobJournalEntry::toLine() const {
  std::ostringstream os;
  os << "{\"v\":1"
     << ",\"job\":" << job
     << ",\"attempts\":" << attempts
     << ",\"success\":" << (success ? 1 : 0)
     << ",\"topology\":\"" << jsonEscape(topology) << "\""
     << ",\"status\":\"" << evalStatusName(status) << "\""
     << ",\"failure_reason\":\"" << jsonEscape(failureReason) << "\""
     << ",\"redesigns\":" << redesigns;
  const std::string prefix = os.str();
  os << ",\"crc\":" << fnv1a64(prefix.data(), prefix.size()) << "}";
  return os.str();
}

std::optional<JobJournalEntry> JobJournalEntry::parseLine(const std::string& line) {
  // Structural integrity first: the crc field covers every byte before it,
  // so a torn tail, a bit flip, or a half-written number all fail here.
  const std::string crcPat = ",\"crc\":";
  const auto crcPos = line.rfind(crcPat);
  if (crcPos == std::string::npos || line.empty() || line.front() != '{' ||
      line.back() != '}')
    return std::nullopt;
  const auto crc = parseUintAt(line, crcPos + crcPat.size());
  if (!crc || *crc != fnv1a64(line.data(), crcPos)) return std::nullopt;

  const auto version = extractUint(line, "v");
  if (!version || *version != 1) return std::nullopt;

  JobJournalEntry e;
  const auto job = extractUint(line, "job");
  const auto attempts = extractUint(line, "attempts");
  const auto success = extractUint(line, "success");
  const auto topology = extractString(line, "topology");
  const auto statusName = extractString(line, "status");
  const auto reason = extractString(line, "failure_reason");
  const auto redesigns = extractUint(line, "redesigns");
  if (!job || !attempts || !success || !topology || !statusName || !reason ||
      !redesigns)
    return std::nullopt;
  const auto status = statusFromName(*statusName);
  if (!status) return std::nullopt;
  e.job = *job;
  e.attempts = *attempts;
  e.success = *success != 0;
  e.topology = *topology;
  e.status = *status;
  e.failureReason = *reason;
  e.redesigns = *redesigns;
  return e;
}

std::map<std::size_t, JobJournalEntry> BatchJournal::load(const std::string& path) {
  std::map<std::size_t, JobJournalEntry> entries;
  std::ifstream in(path, std::ios::binary);
  if (!in) return entries;  // no journal yet: empty, not an error
  std::string line;
  while (std::getline(in, line)) {
    // A crash tears at most the final line; the first invalid line ends
    // the trustworthy prefix (later lines were appended after the tear and
    // cannot be ordered against it).
    const auto entry = JobJournalEntry::parseLine(line);
    if (!entry) break;
    entries[entry->job] = *entry;
  }
  return entries;
}

void BatchJournal::rewrite(const std::map<std::size_t, JobJournalEntry>& entries) const {
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  for (const auto& [job, entry] : entries) {
    (void)job;
    out << entry.toLine() << '\n';
  }
  out.flush();
}

void BatchJournal::append(const JobJournalEntry& entry) const {
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out << entry.toLine() << '\n';
  out.flush();
}

}  // namespace amsyn::core
