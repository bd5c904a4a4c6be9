#include "app/query_probe.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/run_summary.hpp"

namespace tlbsim::app {

QueryRecord* QueryProbe::liveRecord(int id) {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const std::pair<int, std::size_t>& e, int key) {
        return e.first < key;
      });
  if (it == index_.end() || it->first != id) return nullptr;
  return &records_[it->second];
}

const QueryRecord* QueryProbe::find(int id) const {
  // const_cast is confined to reusing the one binary search.
  return const_cast<QueryProbe*>(this)->liveRecord(id);
}

void QueryProbe::declareQuery(int id, std::int32_t aggregator, int fanOut,
                              SimTime start, SimTime slo) {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const std::pair<int, std::size_t>& e, int key) {
        return e.first < key;
      });
  if (it != index_.end() && it->first == id) return;  // already declared
  if (records_.size() >= cfg_.maxQueries) {
    ++queriesNotTracked_;
    return;
  }
  QueryRecord rec;
  rec.id = id;
  rec.aggregator = aggregator;
  rec.fanOut = fanOut;
  rec.start = start;
  rec.slo = slo;
  index_.emplace(it, id, records_.size());
  records_.push_back(std::move(rec));
}

void QueryProbe::onResponseDrawn(int id, ByteCount bytes) {
  QueryRecord* rec = liveRecord(id);
  if (rec == nullptr) return;
  rec->responseBytes += bytes;
}

void QueryProbe::onRetry(int id, SimTime now, int outstanding) {
  QueryRecord* rec = liveRecord(id);
  if (rec == nullptr) return;
  if (rec->retryEvents.size() >= cfg_.maxRetriesPerQuery) {
    ++rec->retriesNotStored;
    return;
  }
  RetryEvent ev;
  ev.t = now;
  ev.outstanding = outstanding;
  rec->retryEvents.push_back(ev);
}

void QueryProbe::onDuplicate(int id) {
  QueryRecord* rec = liveRecord(id);
  if (rec == nullptr) return;
  ++rec->duplicates;
}

void QueryProbe::onWorkerDone(int id, std::int32_t worker, SimTime wait) {
  QueryRecord* rec = liveRecord(id);
  if (rec == nullptr) return;
  // Responses land in time order within a query, so the latest onWorkerDone
  // call is the slowest worker; keep >= so ties resolve to the last caller.
  if (rec->slowestWorker < 0 || wait >= rec->slowestWorkerWait) {
    rec->slowestWorker = worker;
    rec->slowestWorkerWait = wait;
  }
}

void QueryProbe::finishQuery(int id, bool completed, SimTime qct, bool sloMiss,
                             int retries, int duplicates, int flowsLaunched) {
  QueryRecord* rec = liveRecord(id);
  if (rec == nullptr) return;
  rec->completed = completed;
  rec->qct = qct;
  rec->sloMiss = sloMiss;
  rec->retries = retries;
  rec->duplicates = duplicates;
  rec->flowsLaunched = flowsLaunched;
}

std::vector<const QueryRecord*> QueryProbe::sortedRecords() const {
  std::vector<const QueryRecord*> out;
  out.reserve(index_.size());
  for (const auto& [id, idx] : index_) out.push_back(&records_[idx]);
  return out;
}

void QueryProbe::fold(obs::RunSummary& summary) const {
  std::uint64_t retried = 0;
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  double slowestWaitSum = 0.0;
  for (const QueryRecord& rec : records_) {
    if (rec.retries > 0) ++retried;
    flows += static_cast<std::uint64_t>(rec.flowsLaunched);
    if (rec.completed) {
      ++completed;
      slowestWaitSum += toSeconds(rec.slowestWorkerWait);
    }
  }
  const double queries = static_cast<double>(records_.size());
  summary.set("app.probe_queries", queries);
  summary.set("app.probe_not_tracked",
              static_cast<double>(queriesNotTracked_));
  summary.set("app.probe_retried_queries", static_cast<double>(retried));
  summary.set("app.probe_flows_per_query",
              queries > 0.0 ? static_cast<double>(flows) / queries : 0.0);
  summary.set("app.probe_slowest_wait_ms",
              completed > 0
                  ? slowestWaitSum / static_cast<double>(completed) * 1e3
                  : 0.0);
}

std::string QueryProbe::toNdjson(
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  using obs::jsonEscape;
  using obs::jsonNumber;
  std::string out = "{\"type\": \"meta\"";
  for (const auto& [key, value] : meta) {
    out += ", \"" + jsonEscape(key) + "\": \"" + jsonEscape(value) + "\"";
  }
  out += ", \"queries_not_tracked\": " +
         jsonNumber(static_cast<double>(queriesNotTracked_));
  out += "}\n";

  for (const QueryRecord* rec : sortedRecords()) {
    out += "{\"type\": \"query\", \"id\": " +
           jsonNumber(static_cast<double>(rec->id));
    out += ", \"aggregator\": " + jsonNumber(rec->aggregator);
    out += ", \"fan_out\": " + jsonNumber(static_cast<double>(rec->fanOut));
    out += ", \"start_s\": " + jsonNumber(toSeconds(rec->start));
    out += ", \"slo_s\": " + jsonNumber(toSeconds(rec->slo));
    out += ", \"completed\": ";
    out += rec->completed ? "true" : "false";
    out += ", \"qct_s\": " + jsonNumber(toSeconds(rec->qct));
    out += ", \"slo_miss\": ";
    out += rec->sloMiss ? "true" : "false";
    out += ", \"retries\": " + jsonNumber(static_cast<double>(rec->retries));
    out += ", \"duplicates\": " +
           jsonNumber(static_cast<double>(rec->duplicates));
    out += ", \"flows\": " +
           jsonNumber(static_cast<double>(rec->flowsLaunched));
    out += ", \"response_bytes\": " +
           jsonNumber(static_cast<double>(rec->responseBytes.bytes()));
    out += ", \"slowest_worker\": " + jsonNumber(rec->slowestWorker);
    out += ", \"slowest_wait_s\": " + jsonNumber(toSeconds(rec->slowestWorkerWait));
    out += ", \"retry_events\": [";
    for (std::size_t i = 0; i < rec->retryEvents.size(); ++i) {
      if (i != 0) out += ", ";
      out += "[" + jsonNumber(toSeconds(rec->retryEvents[i].t)) + ", " +
             jsonNumber(static_cast<double>(rec->retryEvents[i].outstanding)) +
             "]";
    }
    out += "]";
    if (rec->retriesNotStored > 0) {
      out += ", \"retries_not_stored\": " +
             jsonNumber(static_cast<double>(rec->retriesNotStored));
    }
    out += "}\n";
  }
  return out;
}

bool QueryProbe::writeNdjsonFile(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  return obs::writeTextFile(path, toNdjson(meta));
}

}  // namespace tlbsim::app
