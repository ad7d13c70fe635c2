#include "src/store/cold_tier.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/fault/fs_fault.h"

namespace ts {
namespace {

constexpr char kSegmentPrefix[] = "cold-";
constexpr char kSegmentSuffix[] = ".seg";

std::string SegmentFileName(uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%010" PRIu64 "%s", kSegmentPrefix, seq,
                kSegmentSuffix);
  return buf;
}

// Returns true and the numeric part if `name` looks like a segment file.
bool ParseSegmentName(const std::string& name, uint64_t* seq) {
  const size_t prefix = sizeof(kSegmentPrefix) - 1;
  const size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix ||
      name.compare(0, prefix, kSegmentPrefix) != 0 ||
      name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(prefix, name.size() - prefix - suffix);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *seq = static_cast<uint64_t>(v);
  return true;
}

// A segment target the pending queue can never reach (target > the pending
// bound) would leave WantSpillLocked false forever while WaitForSpace blocks
// on a backlog only the spill thread can drain — clamp it.
ColdTierOptions ClampOptions(ColdTierOptions options) {
  options.segment_target_bytes =
      std::max<size_t>(1, std::min(options.segment_target_bytes,
                                   options.max_pending_bytes));
  return options;
}

}  // namespace

ColdTier::ColdTier(const ColdTierOptions& options)
    : options_(ClampOptions(options)) {}

ColdTier::~ColdTier() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_spill_.notify_all();
  cv_state_.notify_all();
  if (spill_thread_.joinable()) {
    spill_thread_.join();
  }
}

bool ColdTier::Start() {
  if (::mkdir(options_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return false;
  }
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) {
    return false;
  }
  std::vector<std::string> names;
  std::vector<std::string> stale_tmp;
  while (const dirent* entry = ::readdir(dir)) {
    uint64_t seq = 0;
    const std::string name = entry->d_name;
    if (ParseSegmentName(name, &seq)) {
      names.push_back(name);
    } else if (name.starts_with(kSegmentPrefix) && name.ends_with(".tmp")) {
      stale_tmp.push_back(name);
    }
  }
  ::closedir(dir);
  // A crashed spill's partial write: ParseSegmentName already keeps it out
  // of the segment list, but left alone it would leak disk forever. Unlink
  // failures are left for the next Start to retry.
  uint64_t cleaned = 0;
  for (const auto& name : stale_tmp) {
    const std::string path = options_.dir + "/" + name;
    if (FsFaultOnUnlink(path.c_str()).kind != FsFaultAction::Kind::kFail &&
        ::unlink(path.c_str()) == 0) {
      ++cleaned;
    }
  }
  // Name order == numeric order (zero-padded) == original spill order.
  std::sort(names.begin(), names.end());

  std::lock_guard<std::mutex> lock(mu_);
  tmp_cleaned_ += cleaned;
  for (const auto& name : names) {
    uint64_t seq = 0;
    ParseSegmentName(name, &seq);
    // Never reuse a taken name, even if the file turns out damaged.
    next_segment_seq_ = std::max(next_segment_seq_, seq + 1);
    Segment segment;
    segment.path = options_.dir + "/" + name;
    size_t file_bytes = 0;
    if (!LoadColdSegmentIndex(segment.path, &segment.index, &file_bytes)) {
      ++corrupt_;  // Damaged segment: skipped, never fatal.
      continue;
    }
    segment.base_order = next_order_;
    for (const auto& [service, count] : segment.index.service_counts) {
      service_counts_[service] += count;
    }
    for (size_t i = 0; i < segment.index.entries.size(); ++i) {
      const auto& e = segment.index.entries[i];
      // emplace keeps the first (earliest-order) copy on a duplicate key;
      // this later copy is shadowed: counted and scanned nowhere.
      if (!by_id_.Emplace(e.id, e.fragment, next_order_ + i).second) {
        segment.shadowed.resize(segment.index.entries.size());
        segment.shadowed[i] = true;
        UncountServicesLocked(e.services);
      }
    }
    next_order_ += segment.index.count;
    disk_bytes_ += file_bytes;
    segments_.push_back(std::move(segment));
  }
  pending_front_order_ = next_order_;
  started_ = true;
  spill_thread_ = std::thread([this] { SpillLoop(); });
  return true;
}

void ColdTier::Append(Session&& session) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    return;  // Abandoned/destroyed: the victim is lost, crash-equivalent.
  }
  if (!by_id_.Emplace(session.id, session.fragment_index, next_order_)
           .second) {
    ++dedup_dropped_;  // Already cold (replay after restore re-evicts).
    return;
  }
  ++next_order_;
  // Braced initializers run in order: measured before the move.
  PendingEntry entry{MeasureSession(session), std::move(session)};
  for (uint32_t s : entry.services) {
    ++service_counts_[s];
  }
  pending_bytes_ += entry.bytes;
  pending_.push_back(std::move(entry));
  ++spilled_;
  if (pending_bytes_ >= options_.segment_target_bytes) {
    cv_spill_.notify_one();
  }
}

void ColdTier::WaitForSpace() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_state_.wait(lock, [this] {
    return stop_ || pending_bytes_ < options_.max_pending_bytes;
  });
}

bool ColdTier::WantSpillLocked() const {
  return !pending_.empty() &&
         (pending_bytes_ >= options_.segment_target_bytes ||
          flush_until_ > pending_front_order_);
}

void ColdTier::SpillLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  int consecutive_failures = 0;
  for (;;) {
    cv_spill_.wait(lock, [this] { return stop_ || WantSpillLocked(); });
    if (stop_) {
      return;  // Pending discarded: crash-equivalent by design.
    }
    // Batch: front entries up to the segment target — everything when
    // flushing (one segment regardless of size keeps FlushPending O(1) waits).
    const bool flushing = flush_until_ > pending_front_order_;
    size_t k = 0;
    size_t batch_bytes = 0;
    for (const auto& e : pending_) {
      ++k;
      batch_bytes += e.bytes;
      if (!flushing && batch_bytes >= options_.segment_target_bytes) {
        break;
      }
    }
    // Copy the batch out under the lock (bounded by the segment target), so
    // serialization + fsync run with queries and appends unblocked.
    std::vector<Session> batch;
    batch.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      batch.push_back(pending_[i].session);
    }
    const uint64_t base_order = pending_front_order_;
    const std::string path =
        options_.dir + "/" + SegmentFileName(next_segment_seq_);
    lock.unlock();
    ColdSegmentIndex index;
    size_t file_bytes = 0;
    const bool ok =
        WriteColdSegment(path, batch, base_order, &index, &file_bytes);
    lock.lock();
    if (stop_) {
      // Abandon() (or the destructor) raced with the write: pending_ was
      // cleared and the orders retracted, so the batch must not be popped and
      // the segment must not be published — the simulated kill instant
      // precedes the rename. Unlink so a restart re-discovers exactly what
      // the tier promised was durable.
      lock.unlock();
      ::unlink(path.c_str());
      return;
    }
    if (!ok) {
      ++write_failures_;
      ++consecutive_failures;
      if (options_.spill_retry_limit > 0 &&
          consecutive_failures >= options_.spill_retry_limit) {
        // The disk is persistently refusing this batch: shed it. Un-index
        // every entry (a shed session is a plain cold miss from here on,
        // never a wrong answer) and advance the durable frontier so the
        // queue keeps draining — bounded, exactly-accounted loss instead of
        // an ever-growing backlog wedging eviction.
        for (size_t i = 0; i < k; ++i) {
          PendingEntry& e = pending_.front();
          EraseId(e.session);
          UncountServicesLocked(e.services);
          pending_bytes_ -= e.bytes;
          shed_bytes_ += e.bytes;
          pending_.pop_front();
        }
        pending_front_order_ += k;
        ++shed_batches_;
        shed_sessions_ += k;
        shedding_ = true;
        consecutive_failures = 0;
        cv_state_.notify_all();
        continue;
      }
      cv_state_.notify_all();  // Unblock FlushPending with the bad news.
      // Back off so a broken disk retries at a human pace, not a spin:
      // exponential from spill_backoff_ms, capped at ~2s.
      const int64_t wait_ms = std::min<int64_t>(
          options_.spill_backoff_ms
              << std::min(consecutive_failures - 1, 5),
          2000);
      cv_spill_.wait_for(lock, std::chrono::milliseconds(std::max<int64_t>(
                                   wait_ms, 1)),
                         [this] { return stop_; });
      continue;
    }
    consecutive_failures = 0;
    shedding_ = false;  // Disk healed; back to normal spilling.
    Segment segment;
    segment.path = path;
    segment.base_order = base_order;
    segment.index = std::move(index);
    segments_.push_back(std::move(segment));
    ++next_segment_seq_;
    disk_bytes_ += file_bytes;
    for (size_t i = 0; i < k; ++i) {
      pending_bytes_ -= pending_.front().bytes;
      pending_.pop_front();
    }
    pending_front_order_ += k;
    cv_state_.notify_all();
  }
}

bool ColdTier::FlushPending() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = next_order_;
  if (pending_front_order_ >= target) {
    return true;  // Nothing outstanding.
  }
  flush_until_ = std::max(flush_until_, target);
  const uint64_t failures_before = write_failures_;
  cv_spill_.notify_one();
  cv_state_.wait(lock, [&] {
    return stop_ || pending_front_order_ >= target ||
           write_failures_ > failures_before;
  });
  return pending_front_order_ >= target;
}

void ColdTier::Abandon() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Un-index the discarded pending entries so the tier stays consistent:
    // only what actually reached disk remains visible, as after a real kill.
    for (const auto& e : pending_) {
      EraseId(e.session);
      UncountServicesLocked(e.services);
    }
    pending_.clear();
    pending_bytes_ = 0;
    next_order_ = pending_front_order_;
  }
  cv_spill_.notify_all();
  cv_state_.notify_all();
  if (spill_thread_.joinable()) {
    spill_thread_.join();
  }
}

int ColdTier::LocateLocked(uint64_t order, uint32_t* entry_index) const {
  if (order >= pending_front_order_) {
    *entry_index = static_cast<uint32_t>(order - pending_front_order_);
    return -1;
  }
  // Last segment whose base_order <= order.
  size_t lo = 0, hi = segments_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (segments_[mid].base_order <= order) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t seg = lo - 1;  // by_id_ orders always resolve; lo >= 1 here.
  *entry_index = static_cast<uint32_t>(order - segments_[seg].base_order);
  return static_cast<int>(seg);
}

bool ColdTier::Contains(std::string_view id, uint32_t fragment) const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_id_.Find(id, fragment) != nullptr;
}

void ColdTier::EraseId(const Session& session) {
  by_id_.Erase(session.id, session.fragment_index);
}

void ColdTier::UncountServicesLocked(const std::vector<uint32_t>& services) {
  for (uint32_t s : services) {
    const auto it = service_counts_.find(s);
    if (it != service_counts_.end() && --it->second == 0) {
      service_counts_.erase(it);
    }
  }
}

bool ColdTier::Read(const Candidate& candidate, Session* out) {
  std::string path;
  uint64_t offset = 0;
  uint32_t length = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t* order = by_id_.Find(candidate.id, candidate.fragment);
    if (order == nullptr) {
      ++misses_;
      return false;
    }
    uint32_t entry_index = 0;
    const int seg = LocateLocked(*order, &entry_index);
    if (seg < 0) {
      // Still pending: serve the in-memory copy. (A candidate collected
      // while pending may resolve from a segment by now, and vice versa —
      // the fresh lookup makes either window race harmless.)
      *out = pending_[entry_index].session;
      ++hits_;
      return true;
    }
    const Segment& segment = segments_[static_cast<size_t>(seg)];
    const ColdSegmentEntry& entry = segment.index.entries[entry_index];
    path = segment.path;
    offset = entry.offset;
    length = entry.length;
  }
  Session session;
  bool read_ok = ReadColdSession(path, offset, length, &session);
  if (!read_ok) {
    // One retry absorbs a transient EIO on the serving path; persistent
    // damage still degrades to a miss below.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++read_retries_;
    }
    read_ok = ReadColdSession(path, offset, length, &session);
  }
  if (!read_ok || session.id != candidate.id ||
      session.fragment_index != candidate.fragment) {
    std::lock_guard<std::mutex> lock(mu_);
    ++corrupt_;  // Damage degrades to a cold miss, never a wrong answer.
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_;
  }
  *out = std::move(session);
  return true;
}

std::optional<Session> ColdTier::Get(const std::string& id, uint32_t fragment) {
  Candidate candidate;
  candidate.id = id;
  candidate.fragment = fragment;
  Session session;
  if (!Read(candidate, &session)) {
    return std::nullopt;
  }
  return session;
}

ColdTier::Candidate ColdTier::CandidateLocked(uint64_t order) const {
  uint32_t i = 0;
  const int seg = LocateLocked(order, &i);
  if (seg < 0) {
    const PendingEntry& e = pending_[i];
    return {e.session.id, e.session.fragment_index, e.min_time, order};
  }
  const ColdSegmentEntry& e =
      segments_[static_cast<size_t>(seg)].index.entries[i];
  return {e.id, e.fragment, e.min_time, order};
}

// Index-only scan: (min_time, order) pairs first, ids only for the `limit`
// survivors — a RANGE over 100k cold sessions allocates 16 bytes per match,
// not a session copy.
template <typename SegmentFilter, typename EntryFilter>
std::vector<ColdTier::Candidate> ColdTier::CollectLocked(
    SegmentFilter segment_may_match, EntryFilter entry_matches, size_t limit,
    bool newest_first) const {
  std::vector<Candidate> out;
  if (limit == 0) {
    return out;
  }
  std::vector<std::pair<EventTime, uint64_t>> matches;
  for (const auto& segment : segments_) {
    if (!segment_may_match(segment.index)) {
      continue;  // The footer summary excludes the whole segment.
    }
    for (size_t i = 0; i < segment.index.entries.size(); ++i) {
      const auto& e = segment.index.entries[i];
      if (segment.IsShadowed(i)) {
        continue;
      }
      if (entry_matches(e)) {
        matches.emplace_back(e.min_time, segment.base_order + i);
      }
    }
  }
  for (size_t i = 0; i < pending_.size(); ++i) {
    const auto& e = pending_[i];
    if (entry_matches(e)) {
      matches.emplace_back(e.min_time, pending_front_order_ + i);
    }
  }
  const size_t keep = std::min(limit, matches.size());
  if (newest_first) {
    std::partial_sort(matches.begin(), matches.begin() + keep, matches.end(),
                      [](const auto& a, const auto& b) {
                        return a.second > b.second;
                      });
  } else {
    std::partial_sort(matches.begin(), matches.begin() + keep, matches.end());
  }
  matches.resize(keep);
  out.reserve(keep);
  for (const auto& [min_time, order] : matches) {
    out.push_back(CandidateLocked(order));
  }
  return out;
}

std::vector<ColdTier::Candidate> ColdTier::CollectFragments(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Candidate> out;
  for (const auto& [fragment, order] : by_id_.Fragments(id)) {
    out.push_back(CandidateLocked(order));
  }
  return out;
}

std::vector<ColdTier::Candidate> ColdTier::CollectRange(EventTime lo,
                                                        EventTime hi,
                                                        size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  return CollectLocked(
      [&](const ColdSegmentIndex& index) {
        return index.min_time < hi && index.max_time >= lo;
      },
      [&](const auto& e) { return e.min_time < hi && e.max_time >= lo; },
      limit, /*newest_first=*/false);
}

std::vector<ColdTier::Candidate> ColdTier::CollectByService(
    uint32_t service, size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (service_counts_.count(service) == 0) {
    return {};
  }
  return CollectLocked(
      [&](const ColdSegmentIndex& index) {
        return std::binary_search(
            index.service_counts.begin(), index.service_counts.end(),
            std::make_pair(service, uint64_t{0}),
            [](const auto& a, const auto& b) { return a.first < b.first; });
      },
      [&](const auto& e) {
        return std::binary_search(e.services.begin(), e.services.end(),
                                  service);
      },
      limit, /*newest_first=*/true);
}

std::vector<std::pair<uint32_t, uint64_t>> ColdTier::ServiceCounts(
    std::span<const SessionKeyView> keys, std::vector<bool>* held) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (held != nullptr) {
    held->clear();
    held->reserve(keys.size());
    for (const SessionKeyView& key : keys) {
      held->push_back(by_id_.Find(key.first, key.second) != nullptr);
    }
  }
  return {service_counts_.begin(), service_counts_.end()};
}

void ColdTier::ForEachId(
    const std::function<void(const std::string&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const std::string*> ids;
  ids.reserve(by_id_.size());
  by_id_.ForEachId([&ids](const std::string& id) { ids.push_back(&id); });
  std::sort(ids.begin(), ids.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* id : ids) {
    fn(*id);
  }
}

ColdTier::Stats ColdTier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.segments = segments_.size();
  stats.sessions = by_id_.size();
  stats.bytes = disk_bytes_;
  stats.pending = pending_.size();
  stats.spilled = spilled_;
  stats.dedup_dropped = dedup_dropped_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.corrupt = corrupt_;
  stats.write_failures = write_failures_;
  stats.read_retries = read_retries_;
  stats.tmp_cleaned = tmp_cleaned_;
  stats.shed_batches = shed_batches_;
  stats.shed_sessions = shed_sessions_;
  stats.shed_bytes = shed_bytes_;
  stats.shedding = shedding_;
  return stats;
}

}  // namespace ts
