#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/json_reader.h"

namespace sarbp::obs {
namespace {

// ---------------------------------------------------------------- writing

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[40];
  // %.17g round-trips IEEE doubles exactly.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

template <class Map, class Writer>
void append_section(std::string& out, const char* key, const Map& map,
                    Writer&& write_value) {
  out += "  ";
  out += '"';
  out += key;
  out += "\": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": ";
    write_value(out, value);
  }
  out += first ? "}" : "\n  }";
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(256 + 160 * (snapshot.counters.size() + snapshot.gauges.size() +
                           snapshot.histograms.size()));
  out += "{\n  \"schema\": \"";
  out += MetricsSnapshot::kSchemaName;
  out += "\",\n";
  append_section(out, "counters", snapshot.counters,
                 [](std::string& o, std::uint64_t v) {
                   char buf[24];
                   std::snprintf(buf, sizeof buf, "%" PRIu64, v);
                   o += buf;
                 });
  out += ",\n";
  append_section(out, "gauges", snapshot.gauges,
                 [](std::string& o, const MetricsSnapshot::GaugeStats& g) {
                   char buf[64];
                   std::snprintf(buf, sizeof buf,
                                 "{\"value\": %" PRId64 ", \"max\": %" PRId64 "}",
                                 g.value, g.max);
                   o += buf;
                 });
  out += ",\n";
  append_section(out, "histograms", snapshot.histograms,
                 [](std::string& o, const HistogramStats& h) {
                   char buf[24];
                   std::snprintf(buf, sizeof buf, "%" PRIu64, h.count);
                   o += "{\"count\": ";
                   o += buf;
                   for (const auto& [key, v] :
                        {std::pair<const char*, double>{"sum", h.sum},
                         {"min", h.min},
                         {"max", h.max},
                         {"p50", h.p50},
                         {"p90", h.p90},
                         {"p99", h.p99}}) {
                     o += ", \"";
                     o += key;
                     o += "\": ";
                     append_double(o, v);
                   }
                   o += '}';
                 });
  out += "\n}\n";
  return out;
}

std::string export_json(const Registry& reg) { return to_json(reg.snapshot()); }

MetricsSnapshot parse_snapshot_json(const std::string& json) {
  MetricsSnapshot snap;
  JsonCursor cur(json, "metrics JSON");
  bool saw_schema = false;
  cur.object([&](const std::string& section) {
    if (section == "schema") {
      const std::string schema = cur.string();
      ensure(schema == MetricsSnapshot::kSchemaName,
             "metrics JSON: unsupported schema '" + schema + "'");
      saw_schema = true;
    } else if (section == "counters") {
      cur.object([&](const std::string& name) {
        snap.counters[name] = cur.integer<std::uint64_t>();
      });
    } else if (section == "gauges") {
      cur.object([&](const std::string& name) {
        MetricsSnapshot::GaugeStats g;
        cur.object([&](const std::string& field) {
          const auto v = cur.integer<std::int64_t>();
          if (field == "value") {
            g.value = v;
          } else if (field == "max") {
            g.max = v;
          } else {
            ensure(false, "metrics JSON: unknown gauge field '" + field + "'");
          }
        });
        snap.gauges[name] = g;
      });
    } else if (section == "histograms") {
      cur.object([&](const std::string& name) {
        HistogramStats h;
        cur.object([&](const std::string& field) {
          if (field == "count") {
            h.count = cur.integer<std::uint64_t>();
            return;
          }
          const double v = cur.number();
          if (field == "sum") {
            h.sum = v;
          } else if (field == "min") {
            h.min = v;
          } else if (field == "max") {
            h.max = v;
          } else if (field == "p50") {
            h.p50 = v;
          } else if (field == "p90") {
            h.p90 = v;
          } else if (field == "p99") {
            h.p99 = v;
          } else {
            ensure(false,
                   "metrics JSON: unknown histogram field '" + field + "'");
          }
        });
        snap.histograms[name] = h;
      });
    } else {
      ensure(false, "metrics JSON: unknown section '" + section + "'");
    }
  });
  cur.expect_end();
  ensure(saw_schema, "metrics JSON: missing \"schema\" field");
  return snap;
}

void write_json_file(const Registry& reg, const std::string& path) {
  const std::string json = export_json(reg);
  std::FILE* f = std::fopen(path.c_str(), "w");
  ensure(f != nullptr, "metrics export: cannot open '" + path + "'");
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  ensure(written == json.size() && close_rc == 0,
         "metrics export: short write to '" + path + "'");
}

}  // namespace sarbp::obs
