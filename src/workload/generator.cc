#include "src/workload/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "src/common/status.h"

namespace ts {
namespace {

// Sampling helpers local to the generator.

uint64_t SamplePoisson(Rng& rng, double mean) {
  if (mean <= 0) {
    return 0;
  }
  if (mean < 30) {
    // Knuth's method.
    const double limit = std::exp(-mean);
    double product = rng.NextDouble();
    uint64_t n = 0;
    while (product > limit) {
      ++n;
      product *= rng.NextDouble();
    }
    return n;
  }
  // Normal approximation for large means.
  const double v = mean + std::sqrt(mean) * rng.NextNormal();
  return v < 0 ? 0 : static_cast<uint64_t>(v + 0.5);
}

// Geometric over {0, 1, 2, ...} with the given mean.
uint64_t SampleGeometric(Rng& rng, double mean) {
  if (mean <= 0) {
    return 0;
  }
  const double p = 1.0 / (1.0 + mean);
  double u = rng.NextDouble();
  if (u <= 0) {
    u = 0x1.0p-53;
  }
  return static_cast<uint64_t>(std::log(u) / std::log(1.0 - p));
}

std::string MakeSessionId(Rng& rng, uint64_t counter) {
  static const char kAlphabet[] = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::string id;
  id.reserve(24);
  uint64_t a = rng.Next();
  uint64_t b = rng.Next() ^ (counter * 0x9E3779B97F4A7C15ULL);
  for (int i = 0; i < 12; ++i) {
    id.push_back(kAlphabet[a % 36]);
    a /= 36;
  }
  for (int i = 0; i < 11; ++i) {
    id.push_back(kAlphabet[b % 36]);
    b /= 36;
  }
  return id;
}

uint32_t HostForReplica(uint32_t service, uint32_t replica, uint32_t num_hosts) {
  return static_cast<uint32_t>(
      ((service * 2654435761u) ^ (replica * 0x9E3779B9u)) % num_hosts);
}

constexpr EventTime kMediumDormancyLoNs = 12'300'000;          // 12.3 ms.
constexpr EventTime kMediumDormancyHiNs = 60 * kNanosPerSecond;
constexpr EventTime kLongDormancyHiNs = 900 * kNanosPerSecond;  // 15 min.

// Vocabulary for free-text payload templates. Longer, log-like words so the
// synthetic lines resemble real datacenter messages and carry enough constant
// text for template-id compression to matter.
constexpr const char* kFreeTextWords[] = {
    "request",     "connection",  "replica",     "coordinator", "timeout",
    "completed",   "authenticate", "partition",  "rebalance",   "heartbeat",
    "follower",    "leader",      "snapshot",    "compaction",  "rollback",
    "committed",   "scheduler",   "allocation",  "throttled",   "retrying",
    "datanode",    "container",   "registered",  "deadline",    "exceeded",
    "transaction", "replication", "checkpoint",  "watermark",   "received",
    "forwarded",   "rejected",    "acquired",    "released",    "expired",
    "verifying",   "upstream",    "downstream",  "quorum",      "election",
};
constexpr size_t kFreeTextVocab =
    sizeof(kFreeTextWords) / sizeof(kFreeTextWords[0]);

}  // namespace

// A structural tree template: the shape and service assignment are fully
// determined by the template id, so popular templates yield repeated
// signatures and service pairs (what §5.2's clustering and pattern mining
// surface). Timings and annotation counts vary per instance.
struct TraceGenerator::Template {
  std::vector<int> parent;                 // parent[0] == -1.
  std::vector<uint32_t> sibling_index;     // 1-based among siblings.
  std::vector<uint32_t> service;
  std::vector<std::vector<int>> children;
  size_t distinct_services = 0;
};

// A free-text message template: constant words with per-instance variable
// slots. Shape derives only from (seed, id) — deterministic across runs.
struct TraceGenerator::FreeTextTemplate {
  std::vector<std::string> words;  // Empty at slot positions.
  std::vector<int> slot_kind;      // -1 constant; 0 hex id, 1 counter,
                                   // 2 latency, 3 address.
};

TraceGenerator::~TraceGenerator() = default;

TraceGenerator::TraceGenerator(const GeneratorConfig& config)
    : config_(config),
      rng_(config.seed),
      template_sampler_(config.num_templates, config.template_zipf_skew),
      root_service_sampler_(std::min<uint32_t>(50, config.num_services), 1.0),
      free_text_sampler_(std::max<uint32_t>(1, config.free_text_templates),
                         config.free_text_zipf_skew),
      templates_(config.num_templates),
      template_built_(config.num_templates, false),
      free_text_templates_(std::max<uint32_t>(1, config.free_text_templates)),
      free_text_built_(std::max<uint32_t>(1, config.free_text_templates),
                       false),
      duration_epochs_(static_cast<Epoch>(config.duration_ns / kNanosPerSecond)) {
  TS_CHECK(config.num_services > 0 && config.num_hosts > 0 &&
           config.num_templates > 0);
  TS_CHECK(duration_epochs_ > 0);

  const double mean_spans =
      config.single_span_tree_prob * 1.0 +
      (1.0 - config.single_span_tree_prob) * (2.0 + config.mean_extra_spans);
  const double mean_records_per_span = 2.0 + config.mean_extra_annotations;
  const double mean_roots = 1.0 / (1.0 - config.extra_root_span_prob);
  const double mean_records_per_session =
      mean_roots * mean_spans * mean_records_per_span;
  sessions_per_sec_ = config.target_records_per_sec / mean_records_per_session;

  host_skew_.assign(config.num_hosts, 0);
  if (config.clock_skew_sigma_ns > 0) {
    for (auto& skew : host_skew_) {
      skew = static_cast<EventTime>(
          rng_.NextNormal() * static_cast<double>(config.clock_skew_sigma_ns));
    }
  }

  // Calibrate template sizes. Tree sizes are a per-template property (so
  // structural signatures repeat), but the Zipf weighting concentrates mass on
  // a handful of templates, making the realized spans-per-tree mean depend on
  // the seed's luck. Draw the raw sizes, then rescale them so the
  // Zipf-weighted mean lands on the configured target for every seed.
  template_size_.resize(config.num_templates);
  std::vector<double> weights(config.num_templates);
  double weight_sum = 0;
  double raw_mean = 0;
  for (uint32_t id = 0; id < config.num_templates; ++id) {
    Rng trng(config.seed ^ (0xABCDULL + id * 0x9E3779B97F4A7C15ULL));
    size_t n = 1;
    if (!trng.NextBool(config.single_span_tree_prob)) {
      n = 2 + SampleGeometric(trng, config.mean_extra_spans);
      n = std::min<size_t>(n, config.max_spans_per_tree);
    }
    template_size_[id] = n;
    weights[id] = 1.0 / std::pow(static_cast<double>(id + 1),
                                 config.template_zipf_skew);
    weight_sum += weights[id];
    raw_mean += weights[id] * static_cast<double>(n);
  }
  raw_mean /= weight_sum;
  if (raw_mean > 1.0) {
    const double scale = (mean_spans - 1.0) / (raw_mean - 1.0);
    for (auto& n : template_size_) {
      const double adjusted = 1.0 + (static_cast<double>(n) - 1.0) * scale;
      n = std::max<size_t>(
          1, std::min<size_t>(config.max_spans_per_tree,
                              static_cast<size_t>(adjusted + 0.5)));
    }
  }
}

const TraceGenerator::Template& TraceGenerator::TemplateFor(size_t id) {
  if (template_built_[id]) {
    return templates_[id];
  }
  // Shape derives only from (seed, template id): deterministic across runs.
  Rng trng(config_.seed ^ (0xABCDULL + id * 0x9E3779B97F4A7C15ULL));
  Template& t = templates_[id];

  // Consume the same draws the constructor's raw-size pass used, then apply
  // the calibrated size.
  if (!trng.NextBool(config_.single_span_tree_prob)) {
    SampleGeometric(trng, config_.mean_extra_spans);
  }
  const size_t n = template_size_[id];
  t.parent.resize(n);
  t.sibling_index.resize(n);
  t.service.resize(n);
  t.children.resize(n);
  t.parent[0] = -1;
  t.sibling_index[0] = 0;
  t.service[0] = static_cast<uint32_t>(root_service_sampler_.Sample(trng));
  // Per-template service pool: enterprise SOA requests bounce within a small
  // set of services even when the call tree is large (Figure 4: most trees
  // include only a single or a few services).
  std::vector<uint32_t> pool = {t.service[0]};
  const size_t pool_size = 1 + std::min<size_t>(SampleGeometric(trng, 1.6), 7);
  while (pool.size() < pool_size) {
    pool.push_back(static_cast<uint32_t>(trng.NextBelow(config_.num_services)));
  }
  for (size_t i = 1; i < n; ++i) {
    // Random recursive tree: attach to a uniform existing node (shallow trees
    // with a mix of fan-out, typical of SOA call graphs).
    const int parent = static_cast<int>(trng.NextBelow(i));
    t.parent[i] = parent;
    t.children[parent].push_back(static_cast<int>(i));
    t.sibling_index[i] = static_cast<uint32_t>(t.children[parent].size());
    t.service[i] = pool[trng.NextBelow(pool.size())];
  }
  std::vector<uint32_t> services(t.service);
  std::sort(services.begin(), services.end());
  services.erase(std::unique(services.begin(), services.end()), services.end());
  t.distinct_services = services.size();
  template_built_[id] = true;
  return t;
}

const TraceGenerator::FreeTextTemplate& TraceGenerator::FreeTextTemplateFor(
    size_t id) {
  if (free_text_built_[id]) {
    return free_text_templates_[id];
  }
  // Shape derives only from (seed, template id): deterministic across runs.
  Rng trng(config_.seed ^ (0xF00DULL + id * 0x9E3779B97F4A7C15ULL));
  FreeTextTemplate& t = free_text_templates_[id];
  // Long, mostly-constant lines (~55 tokens, under the miner's 64-token cap):
  // verbose datacenter messages with enough constant text that template-id
  // encoding pays off in the store.
  const size_t n = 45 + trng.NextBelow(20);
  t.words.resize(n);
  t.slot_kind.assign(n, -1);
  for (size_t i = 0; i < n; ++i) {
    // The first two tokens stay constant so the miner's leading-token descent
    // routes every instance of a template to the same tree node.
    if (i >= 2 && trng.NextBool(0.08)) {
      t.slot_kind[i] = static_cast<int>(trng.NextBelow(4));
      continue;
    }
    t.words[i] = kFreeTextWords[trng.NextBelow(kFreeTextVocab)];
  }
  free_text_built_[id] = true;
  return t;
}

void TraceGenerator::AppendFreeTextPayload(std::string* payload) {
  const FreeTextTemplate& t =
      FreeTextTemplateFor(free_text_sampler_.Sample(rng_));
  char buf[32];
  for (size_t i = 0; i < t.words.size(); ++i) {
    if (i > 0) {
      payload->push_back(' ');
    }
    switch (t.slot_kind[i]) {
      case 0:  // Hex request/object id.
        std::snprintf(buf, sizeof(buf), "%08x",
                      static_cast<uint32_t>(rng_.Next()));
        payload->append(buf);
        break;
      case 1:  // Decimal counter.
        payload->append(std::to_string(rng_.NextBelow(1'000'000)));
        break;
      case 2:  // Latency.
        payload->append(std::to_string(rng_.NextBelow(5'000)));
        payload->append("ms");
        break;
      case 3:  // Address.
        std::snprintf(buf, sizeof(buf), "10.0.%u.%u",
                      static_cast<uint32_t>(rng_.NextBelow(256)),
                      static_cast<uint32_t>(rng_.NextBelow(256)));
        payload->append(buf);
        break;
      default:
        payload->append(t.words[i]);
        break;
    }
  }
}

void TraceGenerator::EmitRecord(LogRecord record) {
  ++stats_.annotations;
  if (config_.record_loss_rate > 0 && rng_.NextBool(config_.record_loss_rate)) {
    ++stats_.records_lost;
    return;
  }
  record.time += host_skew_[record.host];
  if (record.time < 0) {
    record.time = 0;
  }
  if (record.time >= config_.duration_ns) {
    return;  // Sessions may extend beyond the trace boundary; the trace is cut.
  }
  ++stats_.records_emitted;
  // Wire size: fixed fields + separators approximated by formatting lengths.
  stats_.wire_bytes += 40 + record.session_id.size() +
                       record.txn_id.path().size() * 3 + record.payload.size();
  Epoch epoch = static_cast<Epoch>(record.time / kNanosPerSecond);
  if (epoch < next_emit_epoch_) {
    // A negative clock-skew offset can push a record just below an epoch
    // boundary that has already been emitted; keep the skewed timestamp (the
    // anomaly downstream consumers should see) but bucket it into the next
    // emittable epoch so the stream stays epoch-ordered.
    epoch = next_emit_epoch_;
  }
  buckets_[epoch].push_back(std::move(record));
}

EventTime TraceGenerator::GenerateRootSpan(const std::string& session_id,
                                           uint32_t root_index, EventTime start) {
  const size_t template_id = template_sampler_.Sample(rng_);
  const Template& t = TemplateFor(template_id);
  const size_t n = t.parent.size();
  ++stats_.root_spans;
  stats_.spans += n;

  // Per-instance annotation counts.
  std::vector<uint32_t> extra_annotations(n);
  size_t total_records = 0;
  for (size_t i = 0; i < n; ++i) {
    extra_annotations[i] =
        static_cast<uint32_t>(SamplePoisson(rng_, config_.mean_extra_annotations));
    total_records += 2 + extra_annotations[i];
  }

  // Emission order: proper nesting. For span s: START, half of its own
  // annotations, children blocks, remaining annotations, END.
  struct Event {
    int node;
    EventKind kind;
  };
  std::vector<Event> order;
  order.reserve(total_records);
  // Iterative DFS with explicit phases to avoid recursion depth limits.
  struct Frame {
    int node;
    size_t next_child = 0;
    bool opened = false;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0, false});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (!f.opened) {
      f.opened = true;
      order.push_back({f.node, EventKind::kSpanStart});
      const uint32_t before = extra_annotations[f.node] / 2;
      for (uint32_t a = 0; a < before; ++a) {
        order.push_back({f.node, EventKind::kAnnotation});
      }
    }
    if (f.next_child < t.children[f.node].size()) {
      const int child = t.children[f.node][f.next_child++];
      stack.push_back({child, 0, false});
      continue;
    }
    const uint32_t before = extra_annotations[f.node] / 2;
    for (uint32_t a = before; a < extra_annotations[f.node]; ++a) {
      order.push_back({f.node, EventKind::kAnnotation});
    }
    order.push_back({f.node, EventKind::kSpanEnd});
    stack.pop_back();
  }
  TS_CHECK(order.size() == total_records);

  // Gap sequence: log-normal base gaps with rare injected dormancies (§5
  // inter-arrival characterization).
  const double mu = std::log(static_cast<double>(config_.base_gap_median_ns));
  std::vector<EventTime> gaps(total_records > 0 ? total_records - 1 : 0);
  EventTime max_gap = 0;
  for (auto& g : gaps) {
    g = static_cast<EventTime>(rng_.NextLogNormal(mu, config_.base_gap_sigma));
    g = std::min<EventTime>(g, kMediumDormancyLoNs - 1);
    max_gap = std::max(max_gap, g);
  }
  if (!gaps.empty()) {
    const double dorm = rng_.NextDouble();
    if (dorm < config_.long_dormancy_prob) {
      const EventTime g = static_cast<EventTime>(rng_.NextBoundedPareto(
          static_cast<double>(kMediumDormancyHiNs),
          static_cast<double>(kLongDormancyHiNs), 1.2));
      gaps[rng_.NextBelow(gaps.size())] = g;
      max_gap = std::max(max_gap, g);
    } else if (dorm < config_.long_dormancy_prob + config_.medium_dormancy_prob) {
      const EventTime g = static_cast<EventTime>(rng_.NextBoundedPareto(
          static_cast<double>(kMediumDormancyLoNs),
          static_cast<double>(kMediumDormancyHiNs), 1.1));
      gaps[rng_.NextBelow(gaps.size())] = g;
      max_gap = std::max(max_gap, g);
    }
  }

  // Per-instance replica placement: each span runs on one replica of its
  // service, so a service's spans spread across hosts.
  std::vector<uint32_t> node_host(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t replica = static_cast<uint32_t>(
        rng_.NextBelow(std::max<uint32_t>(1, config_.replicas_per_service)));
    node_host[i] = HostForReplica(t.service[i], replica, config_.num_hosts);
  }

  // Transaction paths per node.
  std::vector<TxnId> txn(n);
  {
    const uint32_t root_path[] = {root_index};
    txn[0] = TxnId(root_path);
    std::vector<uint32_t> p;
    for (size_t i = 1; i < n; ++i) {
      const std::span<const uint32_t> parent = txn[t.parent[i]].path();
      p.assign(parent.begin(), parent.end());
      p.push_back(t.sibling_index[i]);
      txn[i] = TxnId(p);
    }
  }

  // Emit records along the gap sequence.
  EventTime now = start;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) {
      now += gaps[i - 1];
    }
    const int node = order[i].node;
    LogRecord r;
    r.time = now;
    r.session_id = session_id;
    r.txn_id = txn[node];
    r.service = t.service[node];
    r.host = node_host[node];
    r.kind = order[i].kind;
    // Payload: deterministic filler sized around the configured mean.
    if (config_.free_text_payloads) {
      AppendFreeTextPayload(&r.payload);
    } else {
      const uint32_t pad =
          config_.payload_mean_bytes / 2 +
          static_cast<uint32_t>(rng_.NextBelow(config_.payload_mean_bytes + 1));
      r.payload.assign("op=TX;st=OK;pad=");
      r.payload.append(pad, 'x');
    }
    EmitRecord(std::move(r));
  }

  if (config_.collect_distributions && rng_.NextBelow(64) == 0) {
    stats_.root_span_durations_ms.Add(static_cast<double>(now - start) / 1e6);
    if (!gaps.empty()) {
      stats_.max_gap_per_root_ms.Add(static_cast<double>(max_gap) / 1e6);
    }
    stats_.spans_per_tree.Add(static_cast<double>(n));
    stats_.services_per_tree.Add(static_cast<double>(t.distinct_services));
  }
  return now;
}

void TraceGenerator::GenerateSession(EventTime start) {
  ++stats_.sessions;
  const std::string session_id = MakeSessionId(rng_, session_counter_++);
  uint32_t root_index = 1;
  EventTime cursor = start;
  for (;;) {
    cursor = GenerateRootSpan(session_id, root_index, cursor);
    if (!rng_.NextBool(config_.extra_root_span_prob)) {
      break;
    }
    // Gap before the next root span: usually sub-second; occasionally long,
    // producing the hour-scale sessions (and online fragmentation) of §2.2.
    EventTime gap;
    if (rng_.NextBool(0.10)) {
      gap = static_cast<EventTime>(rng_.NextBoundedPareto(
          2.0 * kNanosPerSecond, 1800.0 * kNanosPerSecond, 1.2));
    } else {
      gap = static_cast<EventTime>(
          rng_.NextExponential(static_cast<double>(config_.mean_inter_root_gap_ns)));
    }
    cursor += gap;
    if (cursor >= config_.duration_ns) {
      break;  // Nothing past the trace boundary would be recorded anyway.
    }
    ++root_index;
  }
}

bool TraceGenerator::NextEpoch(Epoch* epoch, std::vector<LogRecord>* out) {
  out->clear();
  if (next_emit_epoch_ >= duration_epochs_) {
    return false;
  }
  // Generate all sessions starting up to and including the epoch being
  // emitted; their records never precede the session start.
  while (next_generate_epoch_ <= next_emit_epoch_ &&
         next_generate_epoch_ < duration_epochs_) {
    const uint64_t n = SamplePoisson(rng_, sessions_per_sec_);
    const EventTime base =
        static_cast<EventTime>(next_generate_epoch_) * kNanosPerSecond;
    for (uint64_t i = 0; i < n; ++i) {
      GenerateSession(base + static_cast<EventTime>(rng_.NextBelow(kNanosPerSecond)));
    }
    ++next_generate_epoch_;
  }

  *epoch = next_emit_epoch_;
  auto it = buckets_.find(next_emit_epoch_);
  if (it != buckets_.end()) {
    *out = std::move(it->second);
    buckets_.erase(it);
    std::stable_sort(out->begin(), out->end(),
                     [](const LogRecord& a, const LogRecord& b) {
                       return a.time < b.time;
                     });
  }
  ++next_emit_epoch_;
  return true;
}

}  // namespace ts
