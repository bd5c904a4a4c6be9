#include "obs/trace.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace tlbsim::obs {

const char* EventTrace::intern(const std::string& s) {
  const auto it = interned_.find(s);
  if (it != interned_.end()) return it->second;
  internPool_.push_back(s);
  const char* ptr = internPool_.back().c_str();
  interned_.emplace(s, ptr);
  return ptr;
}

int EventTrace::newTrack(const char* name) {
  trackNames_.push_back(name);
  return static_cast<int>(trackNames_.size());  // tid 0 = main track
}

void EventTrace::record(char ph, const char* cat, const char* name, SimTime t,
                        SimTime dur, std::initializer_list<Arg> args,
                        int tid) {
  if (events_.size() >= maxEvents_) {
    ++notStored_;
    return;
  }
  Event e{ph, tid, cat, name, t, dur, {}, 0};
  for (const Arg& a : args) {
    if (e.numArgs == kMaxArgs) break;
    e.args[e.numArgs++] = a;
  }
  events_.push_back(e);
}

void EventTrace::instant(const char* cat, const char* name, SimTime t,
                         std::initializer_list<Arg> args, int tid) {
  record('i', cat, name, t, 0_ns, args, tid);
}

void EventTrace::complete(const char* cat, const char* name, SimTime start,
                          SimTime dur, std::initializer_list<Arg> args,
                          int tid) {
  record('X', cat, name, start, dur, args, tid);
}

void EventTrace::counter(const char* cat, const char* name, SimTime t,
                         std::initializer_list<Arg> args, int tid) {
  record('C', cat, name, t, 0_ns, args, tid);
}

std::string EventTrace::toJson() const {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  // Track-name metadata events let Perfetto label each row.
  for (std::size_t i = 0; i < trackNames_.size(); ++i) {
    out += first ? "" : ",\n";
    first = false;
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(i + 1) + ", \"args\": {\"name\": \"" +
           jsonEscape(trackNames_[i]) + "\"}}";
  }
  char buf[64];
  for (const Event& e : events_) {
    out += first ? "" : ",\n";
    first = false;
    out += "{\"name\": \"";
    out += jsonEscape(e.name);
    out += "\", \"cat\": \"";
    out += jsonEscape(e.cat);
    out += "\", \"ph\": \"";
    out += e.ph;
    std::snprintf(buf, sizeof(buf), "\", \"ts\": %.3f",
                  toMicroseconds(e.t));
    out += buf;
    if (e.ph == 'X') {
      std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                    toMicroseconds(e.dur));
      out += buf;
    }
    if (e.ph == 'i') out += ", \"s\": \"g\"";
    out += ", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
    if (e.numArgs > 0) {
      out += ", \"args\": {";
      for (std::uint8_t i = 0; i < e.numArgs; ++i) {
        if (i > 0) out += ", ";
        out += "\"";
        out += jsonEscape(e.args[i].key);
        out += "\": " + jsonNumber(e.args[i].value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool EventTrace::writeJsonFile(const std::string& path) const {
  return writeTextFile(path, toJson());
}

}  // namespace tlbsim::obs
