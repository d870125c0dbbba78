#include "telemetry/trace_export.h"

#include <ostream>
#include <string>

namespace bpntt::telemetry {

namespace {

// Synthetic processes follow the channel pids.
struct pid_map {
  unsigned channels = 1;
  unsigned banks_per_channel = 1;
  [[nodiscard]] unsigned scheduler() const { return channels; }
  [[nodiscard]] unsigned cache() const { return channels + 1; }
  [[nodiscard]] unsigned backend() const { return channels + 2; }
  [[nodiscard]] unsigned service() const { return channels + 3; }

  [[nodiscard]] unsigned pid_of(u32 track) const {
    switch (track) {
      case kTrackScheduler: return scheduler();
      case kTrackCache: return cache();
      case kTrackBackend: return backend();
      case kTrackService: return service();
      default: return track / banks_per_channel;  // a bank id
    }
  }
};

class json_writer {
 public:
  explicit json_writer(std::ostream& os) : os_(os) {}

  void begin() { os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["; }
  void end() { os_ << "]}\n"; }

  void open_event() {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << '{';
    first_field_ = true;
  }
  void close_event() { os_ << '}'; }

  void field(const char* key, const std::string& str) {
    sep();
    os_ << '"' << key << "\":\"" << str << '"';
  }
  void field(const char* key, u64 v) {
    sep();
    os_ << '"' << key << "\":" << v;
  }
  void raw_field(const char* key, const std::string& raw) {
    sep();
    os_ << '"' << key << "\":" << raw;
  }

 private:
  void sep() {
    if (!first_field_) os_ << ',';
    first_field_ = false;
  }
  std::ostream& os_;
  bool first_ = true;
  bool first_field_ = true;
};

void meta_row(json_writer& w, const char* which, unsigned pid, unsigned tid,
              const std::string& name) {
  w.open_event();
  w.field("name", std::string(which));
  w.field("ph", std::string("M"));
  w.field("pid", static_cast<u64>(pid));
  w.field("tid", static_cast<u64>(tid));
  w.raw_field("args", "{\"name\":\"" + name + "\"}");
  w.close_event();
}

void instant(json_writer& w, const trace_event& e, unsigned pid) {
  w.open_event();
  w.field("name", std::string(to_string(e.op)));
  w.field("ph", std::string("i"));
  w.field("s", std::string("t"));
  w.field("ts", e.ts);
  w.field("pid", static_cast<u64>(pid));
  w.field("tid", static_cast<u64>(0));
  w.raw_field("args", "{\"seq\":" + std::to_string(e.arg) + ",\"value\":" +
                          std::to_string(e.a) + "}");
  w.close_event();
}

void counter_sample(json_writer& w, const char* name, u64 ts, unsigned pid,
                    const std::string& args) {
  w.open_event();
  w.field("name", std::string(name));
  w.field("ph", std::string("C"));
  w.field("ts", ts);
  w.field("pid", static_cast<u64>(pid));
  w.raw_field("args", args);
  w.close_event();
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<trace_event>& events,
                        const trace_export_layout& layout) {
  const unsigned bpc = layout.banks_per_channel == 0 ? 1 : layout.banks_per_channel;
  const unsigned banks = layout.banks == 0 ? 1 : layout.banks;
  const unsigned channels = (banks + bpc - 1) / bpc;
  const pid_map pids{channels, bpc};

  json_writer w(os);
  w.begin();

  // Process/thread naming: channels as processes, banks as their threads.
  for (unsigned c = 0; c < channels; ++c) {
    meta_row(w, "process_name", c, 0, "channel " + std::to_string(c));
  }
  for (unsigned b = 0; b < banks; ++b) {
    meta_row(w, "thread_name", b / bpc, b, "bank " + std::to_string(b));
  }
  meta_row(w, "process_name", pids.scheduler(), 0, "scheduler");
  meta_row(w, "process_name", pids.cache(), 0, "operand cache");
  meta_row(w, "process_name", pids.backend(), 0, "backend");
  meta_row(w, "process_name", pids.service(), 0, "service");

  // Running totals behind the counter tracks.
  u64 cache_hits = 0, cache_misses = 0, deadline_misses = 0;

  for (const trace_event& e : events) {
    switch (e.op) {
      case trace_op::ntt_forward:
      case trace_op::ntt_inverse:
      case trace_op::polymul:
      case trace_op::rescale:
      case trace_op::base_extend: {
        // A dispatch span on its bank row.
        w.open_event();
        w.field("name", std::string(to_string(e.op)));
        w.field("ph", std::string("X"));
        w.field("ts", e.ts);
        w.field("dur", e.dur);
        w.field("pid", static_cast<u64>(e.track / bpc));
        w.field("tid", static_cast<u64>(e.track));
        w.raw_field("args", "{\"seq\":" + std::to_string(e.arg) + ",\"jobs\":" +
                                std::to_string(e.a) + "}");
        w.close_event();
        break;
      }
      case trace_op::queue_depth:
        counter_sample(w, "queue_depth", e.ts, pids.scheduler(),
                       "{\"ready_groups\":" + std::to_string(e.a) + "}");
        break;
      case trace_op::cache_hit:
      case trace_op::cache_miss: {
        if (e.op == trace_op::cache_hit) {
          ++cache_hits;
        } else {
          ++cache_misses;
        }
        counter_sample(w, "operand_cache", e.ts, pids.cache(),
                       "{\"hits\":" + std::to_string(cache_hits) + ",\"misses\":" +
                           std::to_string(cache_misses) + "}");
        break;
      }
      case trace_op::resident_rows:
        // Device-row occupancy counter track: one sample per residency
        // mutation, so the Perfetto row shows the fill/evict sawtooth.
        counter_sample(w, "resident_rows", e.ts, pids.cache(),
                       "{\"rows\":" + std::to_string(e.a) + "}");
        break;
      case trace_op::deadline_miss:
        ++deadline_misses;
        instant(w, e, pids.pid_of(e.track));
        counter_sample(w, "deadline_misses", e.ts, pids.scheduler(),
                       "{\"misses\":" + std::to_string(deadline_misses) + "}");
        break;
      default:
        instant(w, e, pids.pid_of(e.track));
        break;
    }
  }

  w.end();
}

}  // namespace bpntt::telemetry
