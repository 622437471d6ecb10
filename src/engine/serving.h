// Serving-mode engine: the open-loop, multi-tenant layer over ExecutorPool's
// workers — the "millions of users" metric the ROADMAP's north star asks for.
//
// Batch execution (src/engine/executor.h) measures MAKESPAN: a closed loop
// where the next run starts when a worker frees up, so queueing delay is
// invisible by construction. Serving measures TAIL LATENCY: requests arrive
// on their own clock (an open-loop arrival process does not slow down when
// the system falls behind), wait in per-tenant FIFO queues, and either meet
// their SLO or are shed. Cold compiles, tier-up warm-ups, and disk-tier
// loads all become tail events attributed to the requests they stalled.
//
//   GenerateArrivals — deterministic (seeded) Poisson or bursty on/off
//                      arrival times; pure function, unit-testable.
//   DrrQueue         — per-tenant FIFO queues drained under deficit-round-
//                      robin: each visit credits a tenant's deficit by its
//                      quantum and serves while the deficit covers the head
//                      request's estimated cost, so service share tracks
//                      quanta (weights), not arrival rates — a flooding
//                      tenant cannot starve a polite one.
//   ServingLoop      — a generator thread enqueues arrivals in real time
//                      (shedding at admission when a tenant's queue depth or
//                      observed e2e p99 exceeds its SLO) while a worker pool
//                      (one Session per worker, same isolation contract as
//                      ExecutorPool) drains the DRR queue. Every request
//                      records enqueue -> dispatch -> complete timestamps
//                      into per-tenant queue/service/e2e histograms.
//
// Every completed run also feeds the engine's run-history table (the DRR
// cost estimates sharpen as the loop serves), and the loop periodically
// calls Engine::FlushRunHistory so a crashed process keeps what it learned.
#ifndef SRC_ENGINE_SERVING_H_
#define SRC_ENGINE_SERVING_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/engine/executor.h"
#include "src/telemetry/metrics.h"

namespace nsf {
namespace engine {

// --- Arrival processes ---

enum class ArrivalKind : uint8_t {
  kPoisson,  // memoryless: exponential inter-arrivals at rate_rps
  kBursty,   // on/off-modulated Poisson: rate_rps*burst_factor during the
             // on-phase (burst_fraction of each period), a compensating low
             // rate during the off-phase, so the long-run mean stays rate_rps
};

const char* ArrivalKindName(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_rps = 100.0;       // long-run mean arrival rate
  double burst_factor = 4.0;     // bursty only: on-phase rate multiplier
  double burst_fraction = 0.25;  // bursty only: on-phase share of each period
  double period_seconds = 0.25;  // bursty only: on/off cycle length
  uint64_t seed = 1;
};

// Arrival times in [0, duration_seconds), sorted ascending. Deterministic:
// the same config and duration always produce the identical schedule (the
// exponential draws are hand-rolled from a seeded xorshift-style generator,
// not std:: distributions, so the sequence is stable across standard
// libraries). Pure function — generation is decoupled from the real-time
// loop precisely so tests can assert on schedules without running one.
std::vector<double> GenerateArrivals(const ArrivalConfig& config, double duration_seconds);

// --- Deficit-round-robin queue ---

// One item waiting in a tenant's FIFO queue. `payload` is caller-defined
// (the serving loop stores the tenant's workload-mix index); `cost` is the
// estimated service cost in (approximate) seconds the DRR deficit is charged
// against; `enqueue_seconds` is the caller's enqueue timestamp.
struct DrrItem {
  size_t tenant = 0;
  size_t payload = 0;
  double cost = 0;
  double enqueue_seconds = 0;
  uint64_t seq = 0;  // caller-assigned sequence number (FIFO tiebreak/debug)
  // Dispatch deadline for SLO-aware scheduling (same clock/unit as
  // enqueue_seconds; 0 = none). Once `now` passes it, PopUrgent may serve
  // this item out of DRR order — the serving loop sets it to
  // enqueue + kSloUrgencyFraction * the tenant's p99 SLO budget.
  double deadline_seconds = 0;
};

// Per-tenant FIFO queues drained under deficit round robin (Shreedhar &
// Varghese): visiting a non-empty tenant credits its deficit by its quantum;
// a tenant at the cursor is served while its deficit covers the head item's
// cost. A tenant whose queue empties forfeits a positive deficit (no banking
// idle credit) but keeps a negative one, the debt PopUrgent charges. Service
// share therefore tracks quanta, not arrival rates or queue depths. NOT
// thread-safe — the serving loop guards it with its own mutex; tests drive it
// directly and deterministically.
class DrrQueue {
 public:
  // One quantum per tenant, in the same unit as DrrItem::cost. Quanta are
  // clamped to a small positive floor so every full rotation makes progress.
  explicit DrrQueue(std::vector<double> quanta);

  void Push(DrrItem item);  // item.tenant selects the FIFO queue
  // DRR-picks the next item to serve. False when every queue is empty.
  bool Pop(DrrItem* out);

  // SLO-aware escape hatch, tried BEFORE Pop: serves the head item whose
  // dispatch deadline has passed (earliest deadline first among queue
  // heads), regardless of whose DRR turn it is. The served tenant's deficit
  // is still charged — it may go negative, so the tenant repays the jump on
  // later rotations and long-run shares remain proportional to quanta.
  // False when no head is past its deadline (the common, fast case: one
  // comparison per tenant).
  bool PopUrgent(double now_seconds, DrrItem* out);

  size_t depth(size_t tenant) const { return queues_[tenant].items.size(); }
  size_t total_depth() const { return total_; }
  bool empty() const { return total_ == 0; }
  size_t tenants() const { return queues_.size(); }
  double deficit(size_t tenant) const { return queues_[tenant].deficit; }

  // Drains every queue in tenant order (shutdown accounting).
  std::vector<DrrItem> DrainAll();

 private:
  struct Queue {
    std::deque<DrrItem> items;
    double deficit = 0;
  };
  std::vector<Queue> queues_;
  std::vector<double> quanta_;
  size_t cursor_ = 0;
  size_t total_ = 0;
};

// --- Tenants ---

// One tenant: a named workload mix with a target arrival rate and an SLO.
// Arrivals round-robin over `mix` (each RunRequest's `reps` is ignored —
// one arrival is one execution).
struct TenantConfig {
  std::string name;
  std::vector<RunRequest> mix;
  ArrivalConfig arrivals;
  // DRR weight: quantum = weight * kDrrQuantumSeconds.
  double weight = 1.0;
  // Admission control (fast-reject at enqueue, before any queueing):
  //   - shed when the tenant's queue already holds max_queue_depth requests;
  //   - shed while the tenant's observed e2e p99 exceeds p99_slo_seconds
  //     (0 disables the latency SLO; the check arms only after
  //     ServingConfig::slo_min_samples completions so a handful of warm-up
  //     outliers cannot blackhole a tenant).
  size_t max_queue_depth = 256;
  double p99_slo_seconds = 0;
  // Tier the mix's options through the engine's TieringPolicy before each
  // compile. The FIRST such request pays (or joins) the interpreter warm-up
  // — a tail event the report attributes to it.
  bool tier_up = false;
};

// --- Reports ---

// Why a request left the system the way it did.
enum class ServeOutcome : uint8_t {
  kOk,         // completed, results valid
  kFailed,     // compile error / instantiate failure / trap
  kShedQueue,  // fast-rejected at admission: queue depth at bound
  kShedSlo,    // fast-rejected at admission: observed p99 over SLO
  kAbandoned,  // still queued when the drain timeout expired
};

const char* ServeOutcomeName(ServeOutcome outcome);

// One served request's timeline and attribution (kept for the per-tenant
// `slowest` list; full per-request retention is optional).
struct ServedRequest {
  std::string workload;
  int worker = -1;
  ServeOutcome outcome = ServeOutcome::kOk;
  double enqueue_seconds = 0;   // relative to serving start
  double queue_seconds = 0;     // enqueue -> dispatch
  double service_seconds = 0;   // dispatch -> complete
  double e2e_seconds = 0;       // enqueue -> complete
  // Tail-event attribution: what this request stalled on (CompileInfo).
  bool cold_compile = false;  // paid a backend compile
  bool compile_join = false;  // blocked on another worker's compile
  bool disk_load = false;     // paid a disk-tier artifact deserialization
  bool tier_warmup = false;   // paid (or joined) an interpreter warm-up
  bool deadline_dispatch = false;  // served out of DRR order by PopUrgent
};

struct TenantReport {
  std::string name;
  uint64_t offered = 0;     // arrivals generated
  uint64_t admitted = 0;    // enqueued (offered - shed)
  uint64_t shed_queue = 0;  // fast-rejected: queue depth
  uint64_t shed_slo = 0;    // fast-rejected: p99 SLO
  uint64_t completed = 0;   // admitted requests that ran ok
  uint64_t failed = 0;      // admitted requests that errored/trapped
  uint64_t abandoned = 0;   // admitted requests dropped at drain timeout
  double offered_rps = 0;   // offered / generation duration
  double goodput_rps = 0;   // completed / wall_seconds
  // enqueue->dispatch, dispatch->complete, enqueue->complete (nanoseconds).
  telemetry::Histogram::Snapshot queue_ns;
  telemetry::Histogram::Snapshot service_ns;
  telemetry::Histogram::Snapshot e2e_ns;
  // Tail events this tenant's requests stalled on.
  uint64_t cold_compiles = 0;
  uint64_t compile_joins = 0;
  uint64_t disk_loads = 0;
  uint64_t tier_warmups = 0;
  uint64_t deadline_dispatches = 0;  // requests served out of DRR order
  // The tenant's slowest completed/failed requests by e2e, worst first —
  // the tail, with each request's stall attribution attached.
  std::vector<ServedRequest> slowest;

  uint64_t shed() const { return shed_queue + shed_slo; }
};

struct ServingReport {
  int workers = 0;
  double duration_seconds = 0;  // configured generation horizon
  double wall_seconds = 0;      // generation + drain, as executed
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t abandoned = 0;
  double offered_rps = 0;
  double goodput_rps = 0;
  uint64_t history_flushes = 0;  // periodic Engine::FlushRunHistory writes
  std::vector<TenantReport> tenants;
  EngineStats stats_before;
  EngineStats stats_after;

  // Conservation: every offered request is accounted exactly once.
  bool accounted() const {
    return offered == completed + failed + shed + abandoned;
  }
};

// DRR quantum per unit tenant weight, in the cost unit (estimated seconds).
// Small vs typical request cost => fine-grained interleaving.
inline constexpr double kDrrQuantumSeconds = 0.002;
// Cost floor for unestimated requests (cold keys): keeps every DRR rotation
// progressing when the run-history estimate is 0.
inline constexpr double kMinCostSeconds = 1e-4;
// SLO-aware dispatch: once a queued request's age reaches this fraction of
// its tenant's p99 SLO budget, workers serve it deadline-first instead of
// waiting for its DRR turn (DrrQueue::PopUrgent). Only tenants with
// p99_slo_seconds set get deadlines; the others are pure DRR.
inline constexpr double kSloUrgencyFraction = 0.75;

struct ServingConfig {
  int workers = 4;
  double duration_seconds = 1.0;    // arrival-generation horizon
  double drain_timeout_seconds = 60;  // max wait for queues to empty after it
  // Arm latency-SLO shedding only after this many completions per tenant.
  uint64_t slo_min_samples = 32;
  // Period for Engine::FlushRunHistory from the generator thread (0 = only
  // the final flush when the loop ends).
  double flush_period_seconds = 0.5;
  size_t slowest_per_tenant = 8;    // tail depth kept in TenantReport::slowest
};

// The serving loop itself. Construction is cheap; Run() spawns the workers
// and the generator, blocks until the horizon elapses and the queues drain
// (or the drain timeout fires), and aggregates the report. Run() may be
// called repeatedly; calls are serialized.
class ServingLoop {
 public:
  ServingLoop(Engine* engine, ServingConfig config);

  ServingReport Run(const std::vector<TenantConfig>& tenants);

  Engine* engine() { return engine_; }
  const ServingConfig& config() const { return config_; }

 private:
  struct TenantState;
  struct LoopState;

  void GeneratorMain(LoopState* loop);
  void WorkerMain(LoopState* loop, int worker_index);

  Engine* engine_;
  ServingConfig config_;
};

}  // namespace engine
}  // namespace nsf

#endif  // SRC_ENGINE_SERVING_H_
