// QoS admission for the aisd daemon: a weighted multi-level queue with
// per-tenant token-bucket quotas and starvation-proof aging, replacing the
// PR 9 FIFO deque under the server's existing admission mutex.
//
// Policy
// ------
//  * Three priority levels — interactive (0), normal (1), bulk (2) — set
//    per request via the COMPILE `priority=` option.  pop() serves the
//    highest non-empty level, FIFO within a level.
//  * Per-tenant token buckets (`tenant=` option) meter admission: a
//    request whose tenant has no token is *deferred* — parked behind all
//    in-quota work, never dropped.  Deferred work re-enters its priority
//    level as tokens refill, runs anyway when the in-quota levels are
//    empty (work conservation — an idle server never holds work back),
//    and is force-admitted once it has waited `defer_max_us` (so a
//    mis-sized quota degrades to extra latency, not starvation).
//  * Aging defeats priority inversion: a request that has waited
//    `age_promote_us` at its level is promoted one level (bulk → normal →
//    interactive), so saturated interactive traffic can delay bulk work
//    but never park it forever.  The promotion clock restarts per level.
//
// The queue is NOT thread-safe — the server guards it with its admission
// mutex (it is declared AIS_GUARDED_BY(mu) there).  Every method takes the
// current time explicitly, which is what makes the policy unit-testable
// with a fake clock (tests/test_server.cpp drives seconds of aging in
// microseconds).  With `qos == false` the whole structure degrades to the
// PR 9 FIFO: one level, no quotas, no aging — the bench_server baseline.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ais::server {

/// Admission priority levels, highest first.  The wire values are the
/// names below or their numeric aliases "0"/"1"/"2".
enum class Priority : int { kInteractive = 0, kNormal = 1, kBulk = 2 };
inline constexpr int kPriorityLevels = 3;

/// Parses a COMPILE `priority=` value.  False on anything unknown (the
/// server answers ERR; an unvalidated value must never reach admission).
bool parse_priority(std::string_view text, Priority* out);
const char* priority_name(Priority p);

/// Tenant names become metric label values and quota keys: 1–64 chars of
/// [A-Za-z0-9_.-].  The empty string (option absent) is valid and maps to
/// the "default" tenant.
bool valid_tenant(std::string_view name);
inline constexpr const char* kDefaultTenant = "default";

struct TenantQuota {
  std::string tenant;
  double rps = 0;  // admission tokens per second; <= 0 = unlimited
};

struct AdmissionOptions {
  /// false = plain FIFO (priority/tenant still parsed and labeled in
  /// metrics, but ignored for ordering) — the PR 9 baseline.
  bool qos = true;
  /// Token-bucket rate for tenants not named in `quotas`; <= 0 = unlimited.
  double default_rps = 0;
  std::vector<TenantQuota> quotas;
  /// Wait at one level before promotion to the next-higher level.
  std::int64_t age_promote_us = 100'000;
  /// Deferred (over-quota) work is force-admitted past this wait.
  std::int64_t defer_max_us = 1'000'000;
};

/// Parses a "tenant=rps,tenant=rps" quota list (the aisd --quotas flag).
bool parse_quota_list(std::string_view text, std::vector<TenantQuota>* out,
                      std::string* error);

/// Counters the server folds into its metric registry after each
/// operation (monotone totals; the queue never touches obs itself).
struct AdmissionStats {
  std::uint64_t deferred = 0;        // pushes parked over-quota
  std::uint64_t redeemed = 0;        // deferred -> level via token refill
  std::uint64_t conserved = 0;       // deferred run via work conservation
  std::uint64_t force_admitted = 0;  // deferred run via defer_max_us
  std::uint64_t promoted = 0;        // level promotions via aging
};

/// The admission queue.  T is the server's Job (moved in and out); tests
/// instantiate with a small payload and drive the clock by hand.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options)
      : opts_(std::move(options)) {}

  /// Admits one item.  Returns true when the item was deferred (tenant
  /// over quota) rather than entering its priority level.
  bool push(T item, Priority priority, std::string_view tenant,
            std::int64_t now_us) {
    Entry entry;
    entry.item = std::move(item);
    entry.priority = opts_.qos ? priority : Priority::kNormal;
    entry.enqueue_us = now_us;
    entry.level_since_us = now_us;
    ++size_;
    if (opts_.qos && !take_token(tenant, now_us)) {
      Deferred& d = deferred_for(tenant);
      d.items.push_back(std::move(entry));
      ++stats_.deferred;
      return true;
    }
    levels_[static_cast<int>(entry.priority)].push_back(std::move(entry));
    return false;
  }

  /// Pops the next item per policy; false when empty.
  bool pop(std::int64_t now_us, T* out) {
    if (size_ == 0) return false;
    if (opts_.qos) {
      redeem_deferred(now_us);
      age_levels(now_us);
    }
    for (int level = 0; level < kPriorityLevels; ++level) {
      if (levels_[level].empty()) continue;
      take(levels_[level], out);
      return true;
    }
    // Work conservation: the in-quota levels are dry, so run the oldest
    // deferred item rather than idling against a token clock.
    Deferred* oldest = nullptr;
    for (Deferred& d : deferred_) {
      if (d.items.empty()) continue;
      if (oldest == nullptr ||
          d.items.front().enqueue_us < oldest->items.front().enqueue_us) {
        oldest = &d;
      }
    }
    if (oldest == nullptr) return false;
    ++stats_.conserved;
    take(oldest->items, out);
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const AdmissionStats& stats() const { return stats_; }
  const AdmissionOptions& options() const { return opts_; }

 private:
  struct Entry {
    T item;
    Priority priority = Priority::kNormal;
    std::int64_t enqueue_us = 0;
    std::int64_t level_since_us = 0;
  };
  struct Bucket {
    double rps = 0;
    double tokens = 0;
    std::int64_t refilled_us = 0;
  };
  struct Deferred {
    std::string tenant;
    std::deque<Entry> items;
  };

  void take(std::deque<Entry>& from, T* out) {
    *out = std::move(from.front().item);
    from.pop_front();
    --size_;
  }

  double quota_rps(std::string_view tenant) const {
    for (const TenantQuota& q : opts_.quotas) {
      if (q.tenant == tenant) return q.rps;
    }
    return opts_.default_rps;
  }

  /// Refills `tenant`'s bucket to `now_us` and consumes one token if
  /// available.  Unlimited tenants always succeed and own no bucket.
  bool take_token(std::string_view tenant, std::int64_t now_us) {
    const double rps = quota_rps(tenant);
    if (rps <= 0) return true;
    Bucket& bucket = bucket_for(tenant, rps, now_us);
    refill(bucket, now_us);
    if (bucket.tokens < 1.0) return false;
    bucket.tokens -= 1.0;
    return true;
  }

  Bucket& bucket_for(std::string_view tenant, double rps,
                     std::int64_t now_us) {
    for (std::size_t i = 0; i < bucket_tenants_.size(); ++i) {
      if (bucket_tenants_[i] == tenant) return buckets_[i];
    }
    bucket_tenants_.emplace_back(tenant);
    Bucket bucket;
    bucket.rps = rps;
    // A fresh bucket starts full: one second of burst (>= 1 token) before
    // the rate binds, matching classic token-bucket semantics.
    bucket.tokens = burst(rps);
    bucket.refilled_us = now_us;
    buckets_.push_back(bucket);
    return buckets_.back();
  }

  static double burst(double rps) { return rps < 1.0 ? 1.0 : rps; }

  static void refill(Bucket& bucket, std::int64_t now_us) {
    if (now_us <= bucket.refilled_us) return;
    const double elapsed_s =
        static_cast<double>(now_us - bucket.refilled_us) / 1e6;
    bucket.tokens += elapsed_s * bucket.rps;
    const double cap = burst(bucket.rps);
    if (bucket.tokens > cap) bucket.tokens = cap;
    bucket.refilled_us = now_us;
  }

  Deferred& deferred_for(std::string_view tenant) {
    for (Deferred& d : deferred_) {
      if (d.tenant == tenant) return d;
    }
    deferred_.emplace_back();
    deferred_.back().tenant = std::string(tenant);
    return deferred_.back();
  }

  /// Moves deferred items whose tenant has tokens again (or that have
  /// waited past defer_max_us) into their priority level.  FIFO per
  /// tenant; tenants are independent, so one starved bucket never blocks
  /// another tenant's redemption.
  void redeem_deferred(std::int64_t now_us) {
    for (Deferred& d : deferred_) {
      while (!d.items.empty()) {
        Entry& front = d.items.front();
        const bool overdue =
            now_us - front.enqueue_us >= opts_.defer_max_us;
        if (!overdue && !take_token(d.tenant, now_us)) break;
        if (overdue) {
          ++stats_.force_admitted;
        } else {
          ++stats_.redeemed;
        }
        front.level_since_us = now_us;
        levels_[static_cast<int>(front.priority)]
            .push_back(std::move(front));
        d.items.pop_front();
      }
    }
  }

  /// Promotes any item that has waited age_promote_us at its level.  Only
  /// fronts need checking: within a level, items behind the front are
  /// strictly younger at that level.
  void age_levels(std::int64_t now_us) {
    if (opts_.age_promote_us <= 0) return;
    for (int level = 1; level < kPriorityLevels; ++level) {
      while (!levels_[level].empty() &&
             now_us - levels_[level].front().level_since_us >=
                 opts_.age_promote_us) {
        Entry entry = std::move(levels_[level].front());
        levels_[level].pop_front();
        entry.priority = static_cast<Priority>(level - 1);
        entry.level_since_us = now_us;
        levels_[level - 1].push_back(std::move(entry));
        ++stats_.promoted;
      }
    }
  }

  AdmissionOptions opts_;
  std::deque<Entry> levels_[kPriorityLevels];
  std::vector<Deferred> deferred_;
  std::vector<std::string> bucket_tenants_;
  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  AdmissionStats stats_;
};

}  // namespace ais::server
