#include "obs/export.h"

#include <algorithm>
#include <optional>
#include <ostream>

#include "obs/analyze/json_reader.h"
#include "obs/json.h"
#include "obs/profiler.h"

namespace wsn::obs {

void append_jsonl(const TraceEvent& ev, std::string& out) {
  out += "{\"t\":";
  json_append_double(out, ev.time);
  out += ",\"node\":";
  json_append_int(out, ev.node);
  out += ",\"cat\":";
  json_append_string(out, category_name(ev.category));
  out += ",\"ph\":";
  json_append_string(out, std::string_view(&ev.phase, 1));
  out += ",\"name\":";
  json_append_string(out, ev.name.str());
  out += ",\"flow\":";
  json_append_uint(out, ev.flow);
  out += ",\"args\":{";
  bool first = true;
  for (const Attr& a : ev.attrs) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, a.key.str());
    out += ':';
    json_append_value(out, a.value);
  }
  out += "}}";
}

void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out) {
  std::string line;
  for (const TraceEvent& ev : events) {
    line.clear();
    append_jsonl(ev, line);
    line += '\n';
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

namespace {

using analyze::JsonLexer;
using analyze::JsonNumber;

AttrValue attr_of(const JsonNumber& n) {
  return std::visit([](auto v) { return AttrValue(v); }, n);
}

/// The vocabulary word spelt `text`; `what` names the vocabulary in the
/// error.
template <typename W>
W word(const JsonLexer& lex, const std::string& text, const char* what) {
  if (const std::optional<W> w = W::from(text)) return *w;
  throw VocabularyError(lex.line(), std::string("unknown ") + what + ": " +
                                        text);
}

/// "node" and "flow": an integer of either sign, reinterpreted as the
/// field's type.
std::int64_t int_field(JsonLexer& lex) {
  const JsonNumber n = lex.read_number();
  if (const auto* i = std::get_if<std::int64_t>(&n)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&n)) {
    return static_cast<std::int64_t>(*u);
  }
  lex.fail("expected an integer");
}

/// "t": any number. The writer always marks doubles with '.'/'e', but
/// hand-edited traces may carry "t":5.
double double_field(JsonLexer& lex) {
  return std::visit([](auto v) { return static_cast<double>(v); },
                    lex.read_number());
}

}  // namespace

// The grammar of exactly the objects append_jsonl writes, decoded straight
// off the shared lexer: flat string/number members plus one "args" object
// of string/number attrs, every name, key and string value a word of its
// vocabulary. Kept beside the writer so the two cannot drift.
TraceEvent parse_jsonl_line(std::string_view line, std::size_t lineno) {
  JsonLexer lex(line, lineno);
  TraceEvent ev;
  std::string key;
  std::string value;
  lex.expect('{');
  if (!lex.consume('}')) {
    do {
      lex.read_string(key);
      lex.expect(':');
      if (key == "t") {
        ev.time = double_field(lex);
      } else if (key == "node") {
        ev.node = int_field(lex);
      } else if (key == "cat") {
        lex.read_string(value);
        if (!category_from_name(value, ev.category)) {
          lex.fail("unknown category: " + value);
        }
      } else if (key == "ph") {
        lex.read_string(value);
        if (value.size() != 1) lex.fail("phase must be one char");
        ev.phase = value[0];
      } else if (key == "name") {
        lex.read_string(value);
        ev.name = word<EventName>(lex, value, "event name");
      } else if (key == "flow") {
        ev.flow = static_cast<std::uint64_t>(int_field(lex));
      } else if (key == "args") {
        lex.expect('{');
        if (!lex.consume('}')) {
          do {
            if (ev.attrs.size() == AttrList::kCapacity) {
              lex.fail("more than " + std::to_string(AttrList::kCapacity) +
                       " attributes");
            }
            Attr a;
            lex.read_string(value);
            a.key = word<AttrKey>(lex, value, "attribute key");
            lex.expect(':');
            if (lex.peek() == '"') {
              lex.read_string(value);
              a.value = word<AttrCode>(lex, value, "attribute value");
            } else {
              a.value = attr_of(lex.read_number());
            }
            ev.attrs.push_back(a);
          } while (lex.consume(','));
          lex.expect('}');
        }
      } else {
        lex.fail("unknown key: " + key);
      }
    } while (lex.consume(','));
    lex.expect('}');
  }
  lex.expect_end();
  return ev;
}

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out) {
  write_chrome_trace(events, out, nullptr);
}

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& out, const SimProfiler* profiler) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // Thread-name metadata ('M' phase) for every node that appears, so the
  // per-node rows in about://tracing / Perfetto carry readable labels
  // instead of bare tids. Sorted + deduped for byte-stable output.
  std::vector<std::int64_t> nodes;
  nodes.reserve(events.size());
  for (const TraceEvent& ev : events) nodes.push_back(ev.node);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (std::int64_t node : nodes) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << node
        << ",\"args\":{\"name\":\""
        << (node < 0 ? std::string("(unbound)")
                     : "node " + std::to_string(node))
        << "\"}}";
  }
  // One reused line buffer for the whole export: the hot loop below runs
  // once per event and must not allocate per event.
  std::string line;
  for (const TraceEvent& ev : events) {
    line.clear();
    if (!first) line += ",\n";
    first = false;
    line += "{\"name\":";
    json_append_string(line, ev.name.str());
    line += ",\"cat\":";
    json_append_string(line, category_name(ev.category));
    line += ",\"ph\":";
    json_append_string(line, std::string_view(&ev.phase, 1));
    if (ev.phase == 'i') line += ",\"s\":\"t\"";
    // 1 cost-model time unit = 1 ms; ts is in microseconds.
    line += ",\"ts\":";
    json_append_double(line, ev.time * 1000.0);
    line += ",\"pid\":0,\"tid\":";
    json_append_int(line, ev.node);
    line += ",\"args\":{";
    bool first_attr = true;
    if (ev.flow != 0) {
      line += "\"flow\":";
      json_append_uint(line, ev.flow);
      first_attr = false;
    }
    for (const Attr& a : ev.attrs) {
      if (!first_attr) line += ',';
      first_attr = false;
      json_append_string(line, a.key.str());
      line += ':';
      json_append_value(line, a.value);
    }
    line += "}}";
    out << line;
  }
  // Host-time track (pid 1): the profiler's span log as 'X' complete
  // events. Host ns map to trace-event microseconds directly; spans nest by
  // construction (RAII stack), so a single tid renders as a flame graph.
  if (profiler != nullptr && !profiler->span_log().empty()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"host (profiler)\"}}";
    for (const HostSpan& span : profiler->span_log()) {
      line = ",\n{\"name\":";
      json_append_string(line, span.label.empty() ? prof_cat_name(span.cat)
                                                  : span.label);
      line += ",\"cat\":\"prof\",\"ph\":\"X\",\"ts\":";
      json_append_double(line, static_cast<double>(span.start_ns) / 1000.0);
      line += ",\"dur\":";
      json_append_double(line, static_cast<double>(span.dur_ns) / 1000.0);
      line += ",\"pid\":1,\"tid\":0,\"args\":{\"depth\":";
      json_append_int(line, span.depth);
      line += "}}";
      out << line;
    }
  }
  out << "\n]}\n";
}

}  // namespace wsn::obs
