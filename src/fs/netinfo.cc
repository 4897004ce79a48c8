#include "src/fs/netinfo.h"

#include <algorithm>
#include <cstdio>

#include "src/base/strings.h"
#include "src/fs/server.h"

namespace help {

// --- FlightRecorder ----------------------------------------------------------

void FlightRecorder::Record(const RequestRecord& r) {
  seen_.fetch_add(1, std::memory_order_relaxed);
  if (r.total_ns < threshold_ns_.load(std::memory_order_relaxed)) {
    return;
  }
  if (r.total_ns <= floor_ns_.load(std::memory_order_relaxed)) {
    return;  // ring is full and everything kept is at least this slow
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (slots_.size() < kSlots) {
    slots_.push_back(r);
  } else {
    auto min_it = std::min_element(
        slots_.begin(), slots_.end(),
        [](const RequestRecord& a, const RequestRecord& b) {
          return a.total_ns < b.total_ns;
        });
    if (r.total_ns <= min_it->total_ns) {
      return;  // raced another writer that raised the floor
    }
    *min_it = r;
  }
  if (slots_.size() == kSlots) {
    uint64_t floor = ~0ull;
    for (const RequestRecord& s : slots_) {
      floor = std::min(floor, s.total_ns);
    }
    floor_ns_.store(floor, std::memory_order_relaxed);
  }
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  slots_.clear();
  floor_ns_.store(0, std::memory_order_relaxed);
}

size_t FlightRecorder::kept() const {
  std::lock_guard<std::mutex> lk(mu_);
  return slots_.size();
}

std::vector<RequestRecord> FlightRecorder::Snapshot() const {
  std::vector<RequestRecord> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = slots_;
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.total_ns > b.total_ns;
            });
  return out;
}

std::string FlightRecorder::RenderText() const {
  std::string out =
      "rid cid tag op total_us queue_us lock_us handler_us encode_us outbox_us\n";
  char line[224];
  for (const RequestRecord& r : Snapshot()) {
    std::snprintf(line, sizeof(line),
                  "0x%llx %llu %u %s %llu %llu %llu %llu %llu %llu\n",
                  static_cast<unsigned long long>(r.rid),
                  static_cast<unsigned long long>(r.cid), r.tag,
                  NinepOpName(r.op),
                  static_cast<unsigned long long>(r.total_ns / 1000),
                  static_cast<unsigned long long>(r.queue_ns / 1000),
                  static_cast<unsigned long long>(r.lock_ns / 1000),
                  static_cast<unsigned long long>(r.handler_ns / 1000),
                  static_cast<unsigned long long>(r.encode_ns / 1000),
                  static_cast<unsigned long long>(r.outbox_ns / 1000));
    out += line;
  }
  return out;
}

std::string FlightRecorder::RenderCtl() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "threshold_us %llu\nkept %zu\nseen %llu\ncapacity %zu\n",
                static_cast<unsigned long long>(threshold_us()), kept(),
                static_cast<unsigned long long>(seen()), kSlots);
  return buf;
}

// --- ConnInfo ----------------------------------------------------------------

const char* ConnStateName(ConnState s) {
  switch (s) {
    case ConnState::kActive:
      return "active";
    case ConnState::kStalled:
      return "stalled";
    case ConnState::kClosing:
      return "closing";
  }
  return "?";
}

ConnInfo::ConnInfo(NinepServer* srv, uint64_t cid, std::string peer)
    : srv_(srv), cid_(cid), peer_(std::move(peer)) {}

void ConnInfo::RecordOp(NinepOp op, uint64_t latency_us, bool error) {
  PerOp& p = ops_[static_cast<size_t>(op)];
  p.count.fetch_add(1, std::memory_order_relaxed);
  if (error) {
    p.errors.fetch_add(1, std::memory_order_relaxed);
  }
  p.latency_us.Record(latency_us);
}

uint64_t ConnInfo::total_ops() const {
  uint64_t total = 0;
  for (const PerOp& p : ops_) {
    total += p.count.load(std::memory_order_relaxed);
  }
  return total;
}

OpTallies ConnInfo::Tally() const {
  OpTallies t;
  for (size_t i = 0; i < kNinepOpCount; i++) {
    t[i] = {ops_[i].count.load(std::memory_order_relaxed),
            ops_[i].errors.load(std::memory_order_relaxed),
            ops_[i].latency_us.Snapshot()};
  }
  return t;
}

std::string ConnInfo::RenderStatus() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "peer %s\nstate %s\nmsize %u\nfids %zu\nframes_in %llu\n"
                "replies_out %llu\nbytes_in %llu\nbytes_out %llu\n",
                peer_.c_str(), ConnStateName(state()),
                srv_->session_msize(cid_), srv_->open_fids(cid_),
                static_cast<unsigned long long>(frames_in()),
                static_cast<unsigned long long>(replies_out()),
                static_cast<unsigned long long>(bytes_in()),
                static_cast<unsigned long long>(bytes_out()));
  return buf;
}

std::string ConnInfo::RenderStats() const {
  OpTallies ops = Tally();
  LatencyBuckets latency = MergedLatency(ops);
  uint64_t total = total_ops();  // also the number of latency samples
  std::string out = RenderOpTable(ops);
  char line[160];
  std::snprintf(line, sizeof(line),
                "total_ops %llu\nlatency_us %llu %llu %llu\n"
                "queue_wait_us %llu %llu %llu\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(obs::Histogram::PercentileOf(latency, 50)),
                static_cast<unsigned long long>(obs::Histogram::PercentileOf(latency, 99)),
                static_cast<unsigned long long>(queue_wait_us_.count()),
                static_cast<unsigned long long>(queue_wait_us_.Percentile(50)),
                static_cast<unsigned long long>(queue_wait_us_.Percentile(99)));
  out += line;
  // Outbox drains, appended so older consumers keep parsing.
  std::snprintf(line, sizeof(line), "writev_calls %llu\n",
                static_cast<unsigned long long>(writev_calls()));
  out += line;
  return out;
}

std::string ConnInfo::RenderClientLine() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "%llu %s %s %u %zu %llu %llu %llu\n",
                static_cast<unsigned long long>(cid_), peer_.c_str(),
                ConnStateName(state()), srv_->session_msize(cid_),
                srv_->open_fids(cid_),
                static_cast<unsigned long long>(frames_in()),
                static_cast<unsigned long long>(bytes_in()),
                static_cast<unsigned long long>(bytes_out()));
  return buf;
}

// --- NetState ----------------------------------------------------------------

std::shared_ptr<ConnInfo> NetState::Register(uint64_t cid, std::string peer) {
  auto info = std::make_shared<ConnInfo>(srv_, cid, std::move(peer));
  std::lock_guard<std::mutex> lk(mu_);
  conns_[cid] = info;
  return info;
}

void NetState::Deregister(uint64_t cid) {
  std::lock_guard<std::mutex> lk(mu_);
  conns_.erase(cid);
}

std::shared_ptr<ConnInfo> NetState::Find(uint64_t cid) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = conns_.find(cid);
  return it == conns_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<ConnInfo>> NetState::List() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::shared_ptr<ConnInfo>> out;
  out.reserve(conns_.size());
  for (const auto& [cid, info] : conns_) {
    out.push_back(info);
  }
  return out;
}

size_t NetState::conn_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return conns_.size();
}

std::string NetState::RenderClients() const {
  std::string out = "id peer state msize fids frames_in bytes_in bytes_out\n";
  for (const auto& info : List()) {
    out += info->RenderClientLine();
  }
  return out;
}

}  // namespace help
