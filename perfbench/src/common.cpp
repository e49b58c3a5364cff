#include "common.hpp"

#include <fstream>

namespace perfbench {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", static_cast<unsigned>(c));
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

bool SpanRecorder::write_perfetto(const std::string& path) const {
  std::ofstream file{path, std::ios::trunc};
  if (!file) return false;
  const std::lock_guard<std::mutex> lock{mutex_};
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    file << "{\"name\":" << json_string(span.name) << ",\"cat\":" << json_string(span.category)
         << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
         << ",\"ts\":" << json_number(micros(span.start))
         << ",\"dur\":" << json_number(micros(span.end) - micros(span.start));
    if (span.round >= 0) file << ",\"args\":{\"round\":" << span.round << "}";
    file << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  file << "]}\n";
  file.flush();
  return static_cast<bool>(file);
}

}  // namespace perfbench
