#include "src/query/query_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <span>

#include "src/store/tiered_reads.h"

namespace ts {

// The distinct filters of the current subscribers, as the store's insert
// observer. Immutable once registered: the loop publishes a new one whenever
// a subscription starts or ends. Prepare runs on the inserting thread before
// the store lock; Commit under it.
class QueryServer::ActiveFilters : public SessionStore::InsertObserver {
 public:
  ActiveFilters(QueryServer* server, std::vector<Filter> filters)
      : server_(server), filters_(std::move(filters)) {}

  const std::vector<Filter>& filters() const { return filters_; }

  // Judges the session against each distinct filter once; serializes it
  // only if some filter takes it.
  std::unique_ptr<Pending> Prepare(
      const Session& session, std::span<const uint32_t> services) override {
    std::vector<uint64_t> taken;
    uint64_t evals = 0;
    for (const Filter& filter : filters_) {
      bool takes = true;
      switch (filter.kind) {
        case Filter::Kind::kAll:
          break;
        case Filter::Kind::kService:
          ++evals;
          takes = std::binary_search(services.begin(), services.end(),
                                     filter.service);
          break;
        case Filter::Kind::kPrefix:
          ++evals;
          takes = session.id.starts_with(filter.prefix);
          break;
      }
      if (takes) {
        taken.push_back(filter.id);
      }
    }
    if (taken.empty()) {
      // Nothing to deliver: count the evaluations now. A taken session's
      // are counted when its push is fanned out, so sub_filter_evals
      // reaching the close count means every taken close has been offered.
      server_->filter_evals_.fetch_add(evals, std::memory_order_relaxed);
      return nullptr;
    }
    auto push = std::make_unique<PendingPush>();
    AppendSessionBlock(session, &push->block);
    push->taken = std::move(taken);
    push->filter_evals = evals;
    server_->sessions_encoded_.fetch_add(1, std::memory_order_relaxed);
    return push;
  }

  // Under the store lock, so pushes queue in store insertion order.
  bool Commit(std::unique_ptr<Pending> pending) override {
    std::lock_guard<std::mutex> lock(server_->pending_mu_);
    server_->pending_.emplace_back(static_cast<PendingPush*>(pending.release()));
    return server_->pending_.size() == 1;  // Was empty: the loop may sleep.
  }

  void Published() override { server_->loop_.Wake(); }

 private:
  QueryServer* server_;
  std::vector<Filter> filters_;
};

QueryServer::QueryServer(const QueryServerOptions& options,
                         std::shared_ptr<SessionStore> store,
                         std::shared_ptr<MetricsRegistry> metrics)
    : options_(options), store_(std::move(store)), metrics_(std::move(metrics)) {}

QueryServer::~QueryServer() {
  if (active_filters_ != nullptr) {
    store_->RemoveInsertObserver(active_filters_.get());
  }
  if (cold_ != nullptr) {
    TrackColdTwins(*store_, nullptr);  // The store may outlive the tier.
  }
}

void QueryServer::SetColdTier(std::shared_ptr<ColdTier> cold) {
  cold_ = std::move(cold);
  TrackColdTwins(*store_, cold_.get());
}

bool QueryServer::Start() {
  listen_fd_ = FdGuard(ListenTcp(options_.host, options_.port, &port_));
  if (!listen_fd_.valid()) {
    return false;
  }
  return loop_.Init() && loop_.Add(listen_fd_.get(), EPOLLIN);
}

void QueryServer::Stop() { loop_.RequestStop(); }

void QueryServer::Run() {
  while (PollOnce(/*timeout_ms=*/200)) {
  }
  connections_.clear();
  subscriber_count_.store(0);
  PublishFilters();  // Nobody is left to deliver to: stop queueing pushes.
}

bool QueryServer::PollOnce(int timeout_ms) {
  if (loop_.stop_requested()) {
    return false;
  }
  std::vector<epoll_event> events;
  if (loop_.Poll(timeout_ms, &events) < 0) {
    return false;
  }
  for (const auto& event : events) {
    const int fd = event.data.fd;
    if (fd == listen_fd_.get()) {
      Accept();
      continue;
    }
    Connection* conn = nullptr;
    for (auto& c : connections_) {
      if (c->fd.get() == fd) {
        conn = c.get();
        break;
      }
    }
    if (conn == nullptr) {
      continue;  // Closed earlier in this batch.
    }
    if ((event.events & (EPOLLHUP | EPOLLERR)) != 0) {
      CloseConnection(fd);
      continue;
    }
    if ((event.events & EPOLLIN) != 0 && !HandleReadable(conn)) {
      continue;
    }
    if ((event.events & EPOLLOUT) != 0 && !FlushConnection(conn)) {
      continue;
    }
    UpdateInterest(conn);
  }
  DeliverPending();
  return !loop_.stop_requested();
}

void QueryServer::Accept() {
  while (true) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN or a transient error; epoll will re-arm.
    }
    SetNonBlocking(fd);
    SetNoDelay(fd);
    SetSendBufferSize(fd, options_.conn_sock_buf_bytes);
    SetRecvBufferSize(fd, options_.conn_sock_buf_bytes);
    stats_.IncAccepts();
    auto conn = std::make_unique<Connection>(options_.max_conn_buffer_bytes);
    conn->fd = FdGuard(fd);
    if (!loop_.Add(fd, EPOLLIN)) {
      continue;  // conn destructor closes the fd.
    }
    connections_.push_back(std::move(conn));
  }
}

bool QueryServer::HandleReadable(Connection* conn) {
  char buf[64 << 10];
  std::vector<std::string> lines;
  while (true) {
    const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.AddBytesIn(static_cast<uint64_t>(n));
      conn->framer.Feed(std::string_view(buf, static_cast<size_t>(n)), &lines);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    CloseConnection(conn->fd.get());  // Peer closed or reset.
    return false;
  }
  for (const auto& line : lines) {
    HandleRequest(conn, line);
  }
  if (!lines.empty()) {
    return FlushConnection(conn);
  }
  return true;
}

void QueryServer::HandleRequest(Connection* conn, const std::string& line) {
  auto reply_err = [&](const std::string& message) {
    conn->send.Append(FormatErr(message));
    conn->send.Append('\n');
    queries_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
  };
  if (conn->subscribed) {
    reply_err("connection is in subscribe mode");
    return;
  }
  QueryRequest request;
  std::string error;
  if (!ParseQueryRequest(line, &request, &error)) {
    reply_err(error);
    return;
  }

  auto reply_ok = [&](uint64_t count) {
    conn->send.Append(FormatOk(count));
    conn->send.Append('\n');
    queries_.fetch_add(1, std::memory_order_relaxed);
  };
  // Appends session blocks within the connection's output budget. The first
  // block always goes out (a response must make progress even if one session
  // outweighs the whole budget); once the budget is exceeded `emit` returns
  // false and reply_sessions flags the cut-short response with #TRUNCATED.
  uint64_t appended = 0;
  bool truncated = false;
  std::string block;
  auto emit = [&](const Session& session) {
    block.clear();
    AppendSessionBlock(session, &block);
    if (appended > 0 && !conn->send.Fits(block.size())) {
      truncated = true;
      return false;
    }
    conn->send.Append(block);
    ++appended;
    return true;
  };
  auto reply_sessions = [&] {
    if (truncated) {
      conn->send.Append(kTruncatedLine);
      conn->send.Append('\n');
    }
    reply_ok(appended);
  };
  const size_t limit = std::min(request.limit, options_.max_query_limit);

  switch (request.verb) {
    case QueryRequest::Verb::kGet:
      if (auto session = TieredGet(*store_, cold_.get(), request.id,
                                   request.fragment)) {
        emit(*session);
      }
      reply_sessions();
      break;
    case QueryRequest::Verb::kFragments:
      for (const auto& session :
           TieredFragments(*store_, cold_.get(), request.id)) {
        if (!emit(session)) {
          break;
        }
      }
      reply_sessions();
      break;
    case QueryRequest::Verb::kService:
      TieredByService(*store_, cold_.get(), request.service, limit, emit);
      reply_sessions();
      break;
    case QueryRequest::Verb::kRange:
      TieredByRange(*store_, cold_.get(), request.lo, request.hi, limit, emit);
      reply_sessions();
      break;
    case QueryRequest::Verb::kStats: {
      uint64_t lines_out = 0;
      AppendStats(conn, &lines_out);
      reply_ok(lines_out);
      break;
    }
    case QueryRequest::Verb::kTopK: {
      const auto top = TieredTopServices(*store_, cold_.get(), request.k);
      for (const auto& [service, count] : top) {
        conn->send.Append("TOP " + std::to_string(service) + " " +
                          std::to_string(count));
        conn->send.Append('\n');
      }
      reply_ok(top.size());
      break;
    }
    case QueryRequest::Verb::kTemplates: {
      if (!template_source_) {
        reply_err("template mining disabled");
        break;
      }
      std::vector<TemplateCount> templates = template_source_();
      // Hottest first (ties to the lower id — deterministic output), top k.
      std::sort(templates.begin(), templates.end(),
                [](const TemplateCount& a, const TemplateCount& b) {
                  return a.hits != b.hits ? a.hits > b.hits : a.id < b.id;
                });
      if (templates.size() > request.k) {
        templates.resize(request.k);
      }
      for (const auto& entry : templates) {
        conn->send.Append(FormatTemplateLine(entry));
        conn->send.Append('\n');
      }
      reply_ok(templates.size());
      break;
    }
    case QueryRequest::Verb::kSubscribe: {
      Filter& filter = conn->filter;
      if (request.filter_by_service) {
        filter.kind = Filter::Kind::kService;
        filter.service = request.filter_service;
      } else if (request.filter_by_prefix) {
        filter.kind = Filter::Kind::kPrefix;
        filter.prefix = request.filter_prefix;
      }
      if (active_filters_ != nullptr) {
        for (const Filter& active : active_filters_->filters()) {
          if (active.SameAs(filter)) {
            filter.id = active.id;  // Judged once for all who share it.
            break;
          }
        }
      }
      if (filter.id == 0) {
        filter.id = next_filter_id_++;
      }
      conn->subscribed = true;
      // Published before #SUBSCRIBED goes out: every insert that starts
      // after the subscriber reads it is judged against its filter.
      PublishFilters();
      subscriber_count_.fetch_add(1);
      subscribers_attached_.fetch_add(1, std::memory_order_relaxed);
      queries_.fetch_add(1, std::memory_order_relaxed);
      conn->send.Append(kSubscribedLine);
      conn->send.Append('\n');
      break;
    }
  }
}

void QueryServer::AppendStats(Connection* conn, uint64_t* lines) {
  auto stat = [&](const std::string& name, uint64_t value) {
    conn->send.Append("STAT " + name + " " + std::to_string(value));
    conn->send.Append('\n');
    ++*lines;
  };
  const auto store_stats = store_->stats();
  stat("store_sessions", store_stats.sessions);
  stat("store_bytes", store_stats.bytes);
  stat("store_inserted", store_stats.inserted);
  stat("store_evicted", store_stats.evicted);
  const auto transport = stats_.Snapshot();
  stat("server_accepts", transport.accepts);
  stat("server_bytes_in", transport.bytes_in);
  stat("server_bytes_out", transport.bytes_out);
  stat("server_queries", queries_.load(std::memory_order_relaxed));
  stat("server_errors", errors_.load(std::memory_order_relaxed));
  stat("server_subscribers", subscriber_count_.load());
  stat("server_subscribers_attached",
       subscribers_attached_.load(std::memory_order_relaxed));
  stat("server_sessions_streamed",
       sessions_streamed_.load(std::memory_order_relaxed));
  stat("server_sessions_dropped",
       sessions_dropped_.load(std::memory_order_relaxed));
  stat("sub_filter_evals", filter_evals_.load(std::memory_order_relaxed));
  stat("sub_sessions_encoded",
       sessions_encoded_.load(std::memory_order_relaxed));
  if (cold_ != nullptr) {
    const auto cold = cold_->stats();
    stat("store_cold_segments", cold.segments);
    stat("store_cold_sessions", cold.sessions);
    stat("store_cold_bytes", cold.bytes);
    stat("store_cold_pending", cold.pending);
    stat("store_cold_spilled", cold.spilled);
    stat("store_cold_hits", cold.hits);
    stat("store_cold_misses", cold.misses);
    stat("store_cold_corrupt", cold.corrupt);
    stat("store_cold_write_failures", cold.write_failures);
    stat("store_cold_read_retries", cold.read_retries);
    stat("store_cold_tmp_cleaned", cold.tmp_cleaned);
    stat("store_cold_shed_batches", cold.shed_batches);
    stat("store_cold_shed_sessions", cold.shed_sessions);
    stat("store_cold_shed_bytes", cold.shed_bytes);
    stat("store_cold_shedding", cold.shedding ? 1 : 0);
    stat("store_cold_twins", store_stats.cold_twins);
  }
  if (metrics_ != nullptr) {
    for (const auto& [name, value] : metrics_->Snapshot()) {
      conn->send.Append("STAT " + name + " " + std::to_string(value));
      conn->send.Append('\n');
      ++*lines;
    }
  }
}

void QueryServer::PublishFilters() {
  std::vector<Filter> filters;
  for (const auto& conn : connections_) {
    if (!conn->subscribed) {
      continue;
    }
    const bool known =
        std::any_of(filters.begin(), filters.end(), [&](const Filter& f) {
          return f.id == conn->filter.id;
        });
    if (!known) {
      filters.push_back(conn->filter);
    }
  }
  std::sort(filters.begin(), filters.end(),
            [](const Filter& a, const Filter& b) { return a.id < b.id; });
  const auto same_ids = [](const Filter& a, const Filter& b) {
    return a.id == b.id;
  };
  if (active_filters_ == nullptr
          ? filters.empty()
          : std::equal(filters.begin(), filters.end(),
                       active_filters_->filters().begin(),
                       active_filters_->filters().end(), same_ids)) {
    return;  // Same distinct filters: nothing to publish.
  }
  std::unique_ptr<ActiveFilters> next;
  if (!filters.empty()) {
    next = std::make_unique<ActiveFilters>(this, std::move(filters));
  }
  // Returns once no insert still judges against the old set.
  store_->ReplaceInsertObserver(active_filters_.get(), next.get());
  active_filters_ = std::move(next);
}

void QueryServer::DeliverPending() {
  std::vector<std::unique_ptr<PendingPush>> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    batch.swap(pending_);
  }
  if (pending_swap_hook_) {
    pending_swap_hook_();
  }
  if (batch.empty() && subscriber_count_.load() == 0) {
    return;
  }
  for (const auto& push : batch) {
    filter_evals_.fetch_add(push->filter_evals, std::memory_order_relaxed);
  }
  // Iterate over fds, not connection pointers: a flush may close and remove
  // a connection, invalidating raw pointers into connections_.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& c : connections_) {
    if (c->subscribed) {
      fds.push_back(c->fd.get());
    }
  }
  for (int fd : fds) {
    Connection* conn = nullptr;
    for (auto& c : connections_) {
      if (c->fd.get() == fd) {
        conn = c.get();
        break;
      }
    }
    if (conn == nullptr) {
      continue;
    }
    for (const auto& push : batch) {
      if (!push->TakenBy(conn->filter.id)) {
        continue;
      }
      MaybeEmitDropNotice(conn);
      if (conn->dropped_pending == 0 && conn->send.Fits(push->block.size())) {
        conn->send.Append(push->block);
        sessions_streamed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Slow consumer: drop, count, and tell them once space frees. The
        // subscriber's cost to the server stays capped at its send buffer.
        ++conn->dropped_pending;
        sessions_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (FlushConnection(conn)) {
      UpdateInterest(conn);
    }
  }
}

void QueryServer::MaybeEmitDropNotice(Connection* conn) {
  if (conn->dropped_pending == 0) {
    return;
  }
  const std::string notice = FormatDropped(conn->dropped_pending);
  if (conn->send.Fits(notice.size() + 1)) {
    conn->send.Append(notice);
    conn->send.Append('\n');
    conn->dropped_pending = 0;
  }
}

bool QueryServer::FlushConnection(Connection* conn) {
  switch (conn->send.Flush(conn->fd.get(), &stats_)) {
    case SendBuffer::FlushResult::kError:
      CloseConnection(conn->fd.get());
      return false;
    case SendBuffer::FlushResult::kDrained:
      // Space freed: a trailing drop notice can go out even if no further
      // session ever arrives.
      MaybeEmitDropNotice(conn);
      if (!conn->send.empty()) {
        return conn->send.Flush(conn->fd.get(), &stats_) !=
                       SendBuffer::FlushResult::kError
                   ? true
                   : (CloseConnection(conn->fd.get()), false);
      }
      return true;
    case SendBuffer::FlushResult::kBlocked:
      return true;
  }
  return true;
}

void QueryServer::UpdateInterest(Connection* conn) {
  const uint32_t events =
      EPOLLIN | (conn->send.empty() ? 0u : static_cast<uint32_t>(EPOLLOUT));
  loop_.Mod(conn->fd.get(), events);
}

void QueryServer::CloseConnection(int fd) {
  loop_.Del(fd);
  for (size_t i = 0; i < connections_.size(); ++i) {
    if (connections_[i]->fd.get() == fd) {
      const bool subscribed = connections_[i]->subscribed;
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
      if (subscribed) {
        subscriber_count_.fetch_sub(1);
        PublishFilters();
      }
      return;
    }
  }
}

QueryServerCounters QueryServer::counters() const {
  QueryServerCounters c;
  c.queries = queries_.load(std::memory_order_relaxed);
  c.errors = errors_.load(std::memory_order_relaxed);
  c.subscribers_attached = subscribers_attached_.load(std::memory_order_relaxed);
  c.sessions_streamed = sessions_streamed_.load(std::memory_order_relaxed);
  c.sessions_dropped = sessions_dropped_.load(std::memory_order_relaxed);
  c.filter_evals = filter_evals_.load(std::memory_order_relaxed);
  c.sessions_encoded = sessions_encoded_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace ts
