#include "core/runreport.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/metrics.hpp"
#include "core/trace.hpp"

namespace amsyn::core {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no nan/inf
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

RunReport& RunReport::addInfo(std::string key, std::string value) {
  info.emplace_back(std::move(key), std::move(value));
  return *this;
}

RunReport& RunReport::addValue(std::string key, double value) {
  values.emplace_back(std::move(key), value);
  return *this;
}

namespace {

/// Comma-separated key/value emission with shared indentation.
class ObjectWriter {
 public:
  ObjectWriter(std::ostringstream& os, const char* indent) : os_(os), indent_(indent) {}
  void field(const std::string& key, const std::string& rawValue) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << indent_ << '"' << jsonEscape(key) << "\": " << rawValue;
  }
  bool empty() const { return first_; }

 private:
  std::ostringstream& os_;
  const char* indent_;
  bool first_ = true;
};

}  // namespace

std::string RunReport::toJson() const {
  std::ostringstream os;
  os << "{\n  \"report\": \"" << jsonEscape(name) << "\"";

  os << ",\n  \"info\": {\n";
  {
    ObjectWriter w(os, "    ");
    for (const auto& [k, v] : info) w.field(k, '"' + jsonEscape(v) + '"');
  }
  os << "\n  }";

  os << ",\n  \"values\": {\n";
  {
    ObjectWriter w(os, "    ");
    for (const auto& [k, v] : values) w.field(k, jsonNumber(v));
  }
  os << "\n  }";

  const auto snap = metrics::registry().snapshot();
  os << ",\n  \"counters\": {\n";
  {
    ObjectWriter w(os, "    ");
    for (const auto& [k, v] : snap.counters) w.field(k, std::to_string(v));
  }
  os << "\n  }";

  const auto spans = trace::collect();
  auto& reg = metrics::registry();
  os << ",\n  \"spans\": {\n";
  {
    ObjectWriter w(os, "    ");
    for (const auto& [path, s] : spans) {
      std::ostringstream ss;
      ss << "{\"count\": " << s.count << ", \"total_s\": "
         << jsonNumber(static_cast<double>(s.totalNs) * 1e-9) << ", \"min_s\": "
         << jsonNumber(s.count ? static_cast<double>(s.minNs) * 1e-9 : 0.0)
         << ", \"max_s\": " << jsonNumber(static_cast<double>(s.maxNs) * 1e-9)
         << ", \"deltas\": {";
      bool firstDelta = true;
      for (std::size_t i = 0; i < s.counterDeltas.size(); ++i) {
        if (s.counterDeltas[i] == 0) continue;
        if (!firstDelta) ss << ", ";
        firstDelta = false;
        ss << '"' << jsonEscape(reg.counterName(static_cast<std::uint32_t>(i)))
           << "\": " << s.counterDeltas[i];
      }
      ss << "}}";
      w.field(path, ss.str());
    }
  }
  os << "\n  }";

  os << "\n}";
  return os.str();
}

void RunReport::write(const std::string& path) const {
  std::ofstream out(path);
  out << toJson() << "\n";
}

}  // namespace amsyn::core
