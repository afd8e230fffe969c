#include "trace/jsonl_trace.h"

#include <cstdio>
#include <fstream>

#include "util/json.h"

namespace sbs::trace {

bool WriteJsonlTrace(const Recorder& recorder, const std::string& path,
                     const TraceInfo& info, const JsonlTraceParams& params) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  {
    JsonWriter header;
    header.begin_object()
        .kv("schema", kJsonlTraceSchema)
        .kv("type", "header")
        .kv("engine", info.engine)
        .kv("scheduler", info.scheduler)
        .kv("machine", info.machine)
        .kv("label", info.label)
        .kv("clock", recorder.virtual_time() ? "virtual" : "real")
        .kv("ticks_per_second", recorder.ticks_per_second())
        .kv("workers", recorder.num_workers())
        .kv("dropped_events", recorder.total_dropped())
        .kv("sigma", params.sigma)
        .kv("mu", params.mu)
        .kv("config_text", params.config_text)
        .end_object();
    std::fputs(header.str().c_str(), f);
    std::fputc('\n', f);
  }

  // Event lines stream through fprintf: all fields are numbers or fixed
  // names, and multi-megabyte traces never materialize in memory.
  for (int w = 0; w < recorder.num_workers(); ++w) {
    for (const Event& e : recorder.events(w)) {
      std::fprintf(f,
                   R"({"type":"event","w":%d,"k":"%s","ts":%llu,"dur":%llu,"a":%llu,"b":%llu,"c":%llu})"
                   "\n",
                   w, JsonlKindName(e.kind),
                   static_cast<unsigned long long>(e.ts),
                   static_cast<unsigned long long>(e.dur),
                   static_cast<unsigned long long>(e.a),
                   static_cast<unsigned long long>(e.b),
                   static_cast<unsigned long long>(e.c));
    }
  }
  return std::fclose(f) == 0;
}

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

bool ReadJsonlTrace(const std::string& path, JsonlTrace* out,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open " + path);

  *out = JsonlTrace();
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(line_no);
    JsonValue doc;
    std::string parse_error;
    if (!JsonParse(line, &doc, &parse_error)) {
      return fail(error, where + ": " + parse_error);
    }
    if (!doc.is_object()) return fail(error, where + ": not a JSON object");

    if (!have_header) {
      // The first non-empty line must be the header, in the writer's schema.
      const std::int64_t schema = doc["schema"].as_i64(0);
      if (doc.has("schema") && schema != kJsonlTraceSchema) {
        return fail(error,
                    where + ": unsupported schema " + std::to_string(schema));
      }
      if (!doc.has("schema") || doc["type"].as_string() != "header") {
        return fail(error, where + ": missing trace header");
      }
      out->engine = doc["engine"].as_string();
      out->scheduler = doc["scheduler"].as_string();
      out->machine = doc["machine"].as_string();
      out->label = doc["label"].as_string();
      out->virtual_time = doc["clock"].as_string() == "virtual";
      out->ticks_per_second = doc["ticks_per_second"].as_double(1e9);
      out->workers = static_cast<int>(doc["workers"].as_i64(0));
      out->dropped_events = doc["dropped_events"].as_u64(0);
      out->params.sigma = doc["sigma"].as_double(0.0);
      out->params.mu = doc["mu"].as_double(0.0);
      out->params.config_text = doc["config_text"].as_string();
      have_header = true;
      continue;
    }

    if (doc["type"].as_string() != "event") {
      return fail(error, where + ": unexpected line type '" +
                             doc["type"].as_string() + "'");
    }
    const std::string& kind_name = doc["k"].as_string();
    const EventKind kind = EventKindFromName(kind_name);
    if (kind == EventKind::kNumKinds) {
      return fail(error, where + ": unknown event kind '" + kind_name + "'");
    }
    JsonlTrace::Record record;
    record.worker = static_cast<int>(doc["w"].as_i64(0));
    if (record.worker < 0 ||
        (out->workers > 0 && record.worker >= out->workers)) {
      return fail(error, where + ": worker out of range");
    }
    record.event.kind = kind;
    record.event.ts = doc["ts"].as_u64(0);
    record.event.dur = doc["dur"].as_u64(0);
    record.event.a = doc["a"].as_u64(0);
    record.event.b = doc["b"].as_u64(0);
    record.event.c = doc["c"].as_u64(0);
    out->records.push_back(record);
  }
  if (!have_header) return fail(error, path + ": empty trace file");
  return true;
}

}  // namespace sbs::trace
