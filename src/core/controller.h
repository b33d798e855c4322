// The Willow controller — Section IV (supply & demand side adaptation).
//
// One Controller instance drives one Cluster.  Once per demand period ΔD the
// simulator calls tick() with the currently available supply; the controller
// then executes the paper's phases at their respective granularities:
//
//   every ΔD            demand reports up the tree (Fig. 2), demand-side
//                        adaptation (deficit-driven migrations, Sec. IV-E),
//                        revival of dropped workload under surplus
//   every ΔS = η1·ΔD    supply-side adaptation: thermal/circuit hard limits
//                        recomputed, budgets divided top-down proportional to
//                        smoothed demands (Sec. IV-D)
//   every ΔA = η2·ΔD    consolidation: drain low-utilization servers and put
//                        them to sleep (Sec. IV-C, IV-E)
//
// Migration planning follows the paper's rules: local migrations (within the
// parent group) are preferred to non-local; unsatisfied demands escalate up
// the hierarchy level by level; matching demands to surpluses is the FFDLR
// bin packing of Sec. IV-F; a migration happens only if both source and
// target retain a surplus of at least P_min afterwards; migration cost is
// charged as a temporary power demand on both endpoints; demands that fit
// nowhere are dropped (degraded mode).
//
// Unidirectional rule (Sec. IV-E): migrations are triggered only by budget
// tightening, and no migration may be *destined into* a subtree whose budget
// was reduced by the triggering event.  The paper's datacenter-level case
// ("no migrations are allowed at all [into the datacenter]") concerns
// admitting additional workload from outside, which maps here to the revival
// path: dropped workload is not revived under a node whose budget shrank.
#pragma once

#include <array>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "binpack/pack.h"
#include "core/allocation.h"
#include "core/balance.h"
#include "core/cluster.h"
#include "fault/link_faults.h"
#include "obs/bus.h"
#include "util/units.h"

namespace willow::util {
class ThreadPool;
}

namespace willow::core {

/// How a node's budget is divided among its children (Sec. IV-D).
enum class AllocationPolicy {
  /// "proportional to their demands" — the design-section rule.  Under a
  /// global deficit every child shrinks proportionally (no surpluses), so
  /// relief comes from hard-limit capping, demand fluctuation and drops.
  kProportionalToDemand,
  /// Proportional to each child's hard capacity — the reading that matches
  /// the testbed narrative ("the available power supply is divided
  /// proportionally between the servers", three identical machines): equal
  /// shares leave low-utilization servers with surplus, which is what lets
  /// highly utilized servers migrate work away on a supply plunge (Fig. 16).
  kProportionalToCapacity,
};

/// What "utilization" is measured against when judging consolidation
/// candidates (Sec. IV-E: "When the utilization in a node is really small").
enum class UtilizationReference {
  /// Fraction of the power model's dynamic range — right when the electrical
  /// rating is the binding resource (the paper's testbed).
  kDynamicRange,
  /// Fraction of the thermally sustainable dynamic power
  /// (steady-state power limit minus the idle floor) — right when the
  /// thermal envelope binds long before the nameplate (the paper's
  /// simulation constants, where c2/c1*(T_limit - Ta) ~ 28 W per 450 W
  /// server).
  kThermalSustainable,
};

/// How unplaceable excess demand is shed (Sec. I names both mechanisms:
/// shutting down low-priority tasks, and altering the computation — "reducing
/// the resolution of video, use of coarser audio codecs, or computation of
/// answers to a lower precision").
enum class SheddingPolicy {
  /// Shut whole applications down (the behaviour Sec. IV-E describes).
  kDropWhole,
  /// First degrade applications to a reduced service level; drop whole
  /// applications only if degradation cannot cover the deficit.
  kDegradeThenDrop,
};

struct ControllerConfig {
  /// ΔD in simulation time units (thermal stepping uses this too).
  Seconds demand_period{1.0};
  /// ΔS = eta1 * ΔD (paper simulation: 4).
  int eta1 = 4;
  /// ΔA = eta2 * ΔD, eta2 > eta1 (paper simulation: 7).
  int eta2 = 7;
  /// P_min: surplus that must remain at source and target post-migration.
  Watts margin{10.0};
  /// Utilization below which a server becomes a consolidation candidate
  /// (the testbed experiment uses 20%, Sec. V-C5).
  double consolidation_threshold = 0.2;
  /// Matching algorithm (Sec. IV-F; kFfdlr is the paper's choice).
  binpack::Algorithm packing = binpack::Algorithm::kFfdlr;
  /// Budget division rule (see AllocationPolicy).
  AllocationPolicy allocation = AllocationPolicy::kProportionalToDemand;
  /// Denominator for consolidation utilization (see UtilizationReference).
  UtilizationReference utilization_reference = UtilizationReference::kDynamicRange;
  /// Prefer local (same parent) migrations before escalating.  Ablation knob;
  /// the paper argues locality reduces network overhead and reconfiguration.
  bool prefer_local = true;
  /// Temporary power demand charged to source and target per migration.
  Watts migration_cost{5.0};
  /// Demand periods the migration cost persists.
  int migration_cost_periods = 1;
  /// VM transfer time: demand periods per GiB of image.  0 (default) keeps
  /// the paper's instantaneous-placement model; > 0 makes a migration take
  /// ceil(GiB * this) periods, during which the application keeps running on
  /// (and drawing at) the source while the target holds a reservation.
  double migration_periods_per_gib = 0.0;
  /// Enforce the unidirectional no-migrations-into-reduced-subtrees rule.
  bool enforce_unidirectional = true;
  /// Allow waking sleeping servers when deficits cannot be placed.
  bool allow_wake = true;
  /// Allow dropping demand that fits nowhere (degraded mode).
  bool allow_drop = true;
  /// Fraction of a migration target's sustainable *dynamic* envelope that
  /// may be filled — Sec. I's latency-power tradeoff made explicit.  1.0
  /// packs servers completely (the Sec. IV-F intent, "we try to run every
  /// server at full utilization": best power, worst queueing); 0.8 keeps
  /// M/M/1 response-time inflation within 5x on consolidated hosts.
  double target_fill_fraction = 1.0;
  /// What shedding does when it must act (see SheddingPolicy).
  SheddingPolicy shedding = SheddingPolicy::kDropWhole;
  /// Service level degraded applications run at under kDegradeThenDrop.
  double degraded_service_level = 0.5;
  /// Incremental (change-driven) control plane: re-aggregate, re-divide and
  /// re-pack only where inputs changed bitwise since the previous decision —
  /// dirty report paths, memoized subtree divisions and cached fleet-scope
  /// consolidation failures.  Semantically identical to the full recompute
  /// (same budgets, same migrations, same event trace); `shadow_diff`
  /// asserts that.  Disable to benchmark the full walk or to rule the
  /// machinery out while debugging.
  bool incremental = true;
  /// Dead-band (W) on demand reports: a node re-reports to its parent only
  /// when its smoothed demand moved more than this since its last report.
  /// 0 = exact (a report on every bitwise change).  Must stay below `margin`:
  /// the controller acts on reported values, so movement inside the dead-band
  /// must also be too small to trigger migrations (Property 4).
  Watts report_deadband{0.0};
  /// Debug shadow mode: every skip the incremental path takes is re-derived
  /// from scratch; any bitwise divergence throws std::logic_error.
  bool shadow_diff = false;
  /// Degraded mode (docs/fault_model.md): ticks of demand-report silence
  /// after which a server is treated as dark — its last-known-good demand is
  /// decayed toward the idle floor and its budget is clamped to the safe
  /// steady-state envelope.  0 (default) disables the machinery entirely.
  int stale_timeout_ticks = 0;
  /// Per-tick geometric decay applied to the last-known-good demand once the
  /// stale timeout has tripped (in (0, 1]; 1 = hold the value forever).
  double stale_decay = 0.9;
  /// Bounded-backoff retries for budget directives lost on a faulty link
  /// (delay doubles per attempt); after this many losses the directive is
  /// abandoned and the next supply pass re-derives it.
  int directive_retry_limit = 3;

  void validate() const;
};

enum class MigrationCause { kDemand, kConsolidation };

struct MigrationRecord {
  workload::AppId app = 0;
  NodeId from = hier::kNoNode;
  NodeId to = hier::kNoNode;
  Watts size{0.0};  ///< demand moved
  MigrationCause cause = MigrationCause::kDemand;
  long tick = 0;
  bool local = false;  ///< source and target share a parent
};

struct ControllerStats {
  std::uint64_t demand_migrations = 0;
  std::uint64_t consolidation_migrations = 0;
  std::uint64_t local_migrations = 0;
  std::uint64_t nonlocal_migrations = 0;
  std::uint64_t drops = 0;
  std::uint64_t revivals = 0;
  std::uint64_t degrades = 0;
  std::uint64_t restores = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
  Watts dropped_demand{0.0};
  Watts degraded_demand{0.0};

  [[nodiscard]] std::uint64_t total_migrations() const {
    return demand_migrations + consolidation_migrations;
  }
};

class Controller {
 public:
  Controller(Cluster& cluster, ControllerConfig config);

  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] long tick_count() const { return tick_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }

  /// Migrations applied during the most recent tick().
  [[nodiscard]] const std::vector<MigrationRecord>& migrations_this_tick()
      const {
    return migrations_this_tick_;
  }

  /// Observer invoked for every applied migration (e.g. fabric accounting).
  void set_migration_sink(std::function<void(const MigrationRecord&)> sink) {
    sink_ = std::move(sink);
  }

  /// Attach an observability bus (not owned; may be null).  Every decision
  /// the controller takes — migrations with reason codes (supply deficit /
  /// thermal / consolidation), thermal throttles, budget directives, drops,
  /// degrades, sleeps, wakes — is emitted as a typed event, and packing
  /// attempts feed the bus's metrics registry.  The controller is serial, so
  /// all emission goes through EventBus::emit.
  void set_event_bus(obs::EventBus* bus) {
    bus_ = bus;
    resolve_instruments();
  }

  /// One demand period: reports, (possibly) supply adaptation with the given
  /// available supply, demand adaptation, (possibly) consolidation, revival.
  void tick(Watts available_supply);

  /// Whether `node`'s budget was reduced by the most recent supply event.
  [[nodiscard]] bool budget_reduced(NodeId node) const;

  /// Migrations currently in transit (only under migration latency).
  [[nodiscard]] std::size_t migrations_in_flight() const {
    return in_flight_.size();
  }

  /// Whether the given application is currently mid-transfer (callers that
  /// churn workload must not remove such apps out from under the transfer).
  [[nodiscard]] bool app_in_flight(workload::AppId app) const {
    return apps_in_flight_.contains(app);
  }

  /// Force a supply adaptation now (tests; scenario warm-up).
  void force_supply_adaptation(Watts available_supply) {
    supply_adaptation(available_supply);
  }

  /// Tell the controller that state outside its own mutations changed under
  /// `node` (workload churn placed/removed an application, an ambient event
  /// re-zoned a server, a fault was injected).  The incremental path treats
  /// everything it has not been told about as unchanged, so the simulator
  /// must call this for every externally touched server: it records the
  /// server in the cluster's InputRecord, marks its report path dirty and
  /// counts a change (see touch()).
  void note_external_change(NodeId node);

  /// Tell the controller a server's availability flipped (crash or restore).
  /// Re-dirties the incremental plane exactly like the sleep/wake paths
  /// (see note_active_flip).  Safe in both walk modes.
  void note_availability_change(NodeId node);

  /// No-op (the controller is serial), kept for tickbench/driver.cc's call.
  void set_thread_pool(util::ThreadPool* /*pool*/) {}

  /// Attach a link-fault model (not owned; may be null).  Installed on the
  /// tree (up-link report faults) and consulted by the budget distributor:
  /// lost directives enter a bounded-backoff retry queue instead of being
  /// applied.  Null keeps every budget path byte-identical to a fault-free
  /// build.
  void set_link_faults(const fault::LinkFaultModel* faults);

 private:
  struct PlanItem {
    workload::AppId app;
    NodeId source;
    Watts size;  ///< demand + migration cost (what a bin must absorb)
    Watts demand;
    MigrationCause cause;
    /// Fine-grained trigger for the event stream: a demand migration off a
    /// thermally clamped server is kThermal, off a supply-starved one
    /// kSupplyDeficit; consolidation drains are kConsolidation.
    obs::Reason reason = obs::Reason::kNone;
  };

  void supply_adaptation(Watts available_supply);
  /// Divide `id`'s budget among its children (Sec. IV-D) from their current
  /// demands and capacities, into alloc_result_.
  const AllocationResult& divide(NodeId id);
  /// Leaf sweep over the servers whose limit inputs moved since the last
  /// sweep, then the internal roll-up over dirty nodes.
  void update_hard_limits();
  /// Degrade/drop unplaceable leftovers per SheddingPolicy, lowest priority
  /// first, releasing just enough to cover each source's deficit.
  void shed_leftovers(std::vector<PlanItem>& pending);
  /// Per-ΔD local thermal throttling: clamp each active server's budget to
  /// its freshly derived thermal/circuit limit.  A clamp is a tightening
  /// event (marks the node budget-reduced), which is what drives workload
  /// out of hot zones between supply periods.
  void enforce_thermal_limits();
  /// Clamp a server's budget down to `cap` (a tightening: the node is marked
  /// budget-reduced and its parent's division dirty), emitting `type`.
  /// Returns false, doing nothing, when the budget is already within cap.
  bool clamp_budget(NodeId server, Watts cap, obs::EventType type,
                    obs::Reason reason);
  void consolidate();

  // ---- demand adaptation stages (demand_adaptation() runs them in order) ----

  /// One level-1 group (internal node with >= 1 server child) and the
  /// victims chosen to cover its servers' deficits.
  struct DemandGroup {
    NodeId parent;
    std::vector<PlanItem> items;
  };
  void demand_adaptation();
  /// Groups whose servers report a deficit, in group_parents_ order.  Visits
  /// only the groups in plan_marked_ (every group when not incremental).
  std::vector<DemandGroup> plan_demand_groups();
  /// A group must be planned again: one of its servers reported, had its
  /// budget, active flag or outbound in-flight watts change, or is short.
  void mark_plan(NodeId server);
  /// Local pass per group, then escalation up the tree (or, without the
  /// locality preference, one matching at the root).  Returns the leftovers.
  std::vector<PlanItem> place_demand(std::vector<DemandGroup>& groups);
  /// Wake sleeping servers in geometric batches for the leftovers.
  void wake_for(std::vector<PlanItem>& pending);

  // ---- revival (revive_dropped() runs the phases per eligible server) ------

  void revive_dropped();
  /// The fleet-wide skip holds: no application is dropped or degraded.
  [[nodiscard]] bool revival_idle();
  /// Phase 1: bring dropped applications on `server` back within `headroom`.
  void revive_apps(NodeId server, Watts& headroom);
  /// Phase 2: restore degraded service levels on `server` within `headroom`.
  void restore_apps(NodeId server, Watts& headroom);

  // ---- consolidation stages (consolidate() runs them in this order) --------

  /// Judge every server against the threshold and fill consol_order_ with
  /// the candidates in drain order.
  void judge_consol_candidates();
  /// Drain the server at `ci` if all its apps find a berth (locally first,
  /// then fleet-wide), and sleep it.
  void drain_candidate(std::uint32_t ci);

  /// The candidate must be left alone this pass: it received a migration
  /// this tick, or transfers into or out of it are still in flight.
  [[nodiscard]] bool drain_blocked(std::uint32_t server_index) const;
  /// Fill `items` with the server's drain plan — every hosted app, dropped
  /// ones at zero demand — and return the plan's signature.
  std::uint64_t consol_items(std::uint32_t server_index,
                             std::vector<PlanItem>& items) const;
  /// The root failure cache proves this plan cannot drain at fleet scope:
  /// it failed there with the same signature and nothing in the tree has
  /// changed since.
  [[nodiscard]] bool root_fail_cached(std::uint32_t server_index,
                                      std::uint64_t sig) const;
  /// A migration plan: (item index, target) pairs in the packer's emission
  /// order.
  using Assignment = std::vector<std::pair<std::size_t, NodeId>>;
  /// Dry-run `items` at `scope` without applying anything; the plan lands in
  /// fast_assign_scratch_.  Returns whether every item was placed.
  bool run_scope(NodeId candidate, const std::vector<PlanItem>& items,
                 NodeId scope);
  /// Full collect-and-pack dry run at `scope`, skipping `candidate` as a
  /// target; the plan lands in `plan`.  Returns whether every item placed.
  bool dry_run(NodeId candidate, const std::vector<PlanItem>& items,
               NodeId scope, Assignment& plan);
  /// Fleet-scope verdict: binpack's FFDLR over the capacity index, bitwise
  /// equal to dry_run(candidate, items, root) (see consol_cap_index_).
  bool fast_root_pack(NodeId candidate, const std::vector<PlanItem>& items);
  /// Shadow mode: the point-updated index must pack like a fresh collect of
  /// targets, i.e. dry_run at the root.
  void shadow_check_fast_root_pack(NodeId candidate,
                                   const std::vector<PlanItem>& items,
                                   bool verdict);
  void build_consol_index();
  /// Point updates after a target's capacity moved or it went to sleep
  /// (no-ops until the index is built in this pass).
  void consol_index_erase(NodeId target);
  void consol_index_update(NodeId target);
  void put_to_sleep(NodeId server);

  // ---- the tick's first and last stages -----------------------------------

  /// Reset last tick's transient booking, land due transfers, observe the
  /// leaves, sweep the reports, retry directives.
  void observe_and_report();
  /// Observe the leaves of the servers whose inputs moved or that are not
  /// yet quiet.
  void observe_leaves();
  /// Zero absorbed_w_/migrated_from_w_ at the slots last tick wrote.
  void reset_transients();
  /// Expire temporary demand on the servers that hold some.
  void age_temporary_demands();

  // ---- degraded mode (fault handling; docs/fault_model.md) ----------------

  /// Feed decayed last-known-good demand for servers whose reports have been
  /// silent past the stale timeout (runs between leaf observation and the
  /// report sweep; the synthetic value flows through the normal EWMA path so
  /// incremental == full holds under faults).
  void apply_stale_observations();
  /// Clamp dark servers' budgets to the always-safe steady-state envelope
  /// (fail-safe toward thermal limits, never above) — the budget-side twin
  /// of enforce_thermal_limits, with identical dirtying mechanics.
  void apply_fallback_budgets();
  /// Apply one directive to `id` with full bookkeeping (event, tree
  /// accounting, dirty marks, budget_reduced on decrease); a `duplicate`
  /// message is accounted and traced twice.  Shared by the normal supply
  /// pass and the retry queue.
  void deliver_directive(NodeId id, Watts budget, bool duplicate = false);
  /// Count and trace a directive to `id` lost on its down-link.
  void record_directive_loss(NodeId id, Watts budget);
  /// A directive to `id` was lost; remember it for bounded-backoff retry and
  /// keep the dividing parent dirty so supply passes re-derive it.
  void queue_directive_retry(NodeId id, Watts budget);
  /// Re-send queued directives whose backoff expired (runs every tick).
  void retry_pending_directives();

  /// Select apps on `server` whose combined demand covers `needed`;
  /// largest-demand-first, skipping dropped apps.
  std::vector<PlanItem> select_victims(NodeId server, Watts needed,
                                       MigrationCause cause,
                                       obs::Reason reason);

  /// Set `node`'s budget-reduced flag, remembering it for the next supply
  /// pass's clear.
  void mark_budget_reduced(NodeId node);

  /// A server's active flag flipped (sleep, wake, crash, restart): the
  /// parent's hard-limit roll-up and division must re-run, and the server's
  /// report path is marked pending.
  void note_active_flip(NodeId node);

  /// Target eligibility under the unidirectional rule within `scope`.
  [[nodiscard]] bool eligible_target(NodeId target_server, NodeId scope) const;

  /// Pack `items` into the surpluses of `targets` and apply the resulting
  /// migrations; `items` keeps only what could not be placed, in the
  /// packer's order.  Returns how many items were placed.
  std::size_t pack_and_apply(std::vector<PlanItem>& items,
                             const std::vector<NodeId>& targets);

  /// Packer items for `items`, keyed by position.
  static void to_pack_items(const std::vector<PlanItem>& items,
                            std::vector<binpack::Item>& out);
  /// Packer bins for the `targets` with spare capacity above eps, plus the
  /// bin -> node map, in target order.
  void make_bins(const std::vector<NodeId>& targets,
                 std::vector<binpack::Bin>& bins,
                 std::vector<NodeId>& bin_nodes) const;
  /// Active servers under `scope` (ascending NodeId) other than `exclude`
  /// that the unidirectional rule admits as targets within `scope`.
  void collect_targets(NodeId scope, NodeId exclude,
                       std::vector<NodeId>& out) const;

  void apply_migration(const PlanItem& item, NodeId target);

  /// Land in-flight migrations whose transfer completed (latency mode).
  void complete_due_migrations();

  /// Remaining spare capacity a target can still absorb this tick:
  /// surplus - margin - demand already migrated in this tick.
  [[nodiscard]] Watts target_capacity(NodeId server) const;

  /// Build the membership-derived topology (walk lists, groups, subtree
  /// server lists) and size the per-node state.  Node membership is fixed
  /// once the controller exists (only active flags and budgets change per
  /// tick), so the constructor runs this once and tick() rejects a grown
  /// tree.
  void build_topology();

  /// Emit one decision event when tracing is on; the controller's only test
  /// for an enabled bus.
  void emit(obs::EventType type, NodeId node, NodeId node2 = hier::kNoNode,
            workload::AppId app = 0, obs::Reason reason = obs::Reason::kNone,
            double value = 0.0, double aux = 0.0,
            obs::LinkDirection direction = obs::LinkDirection::kUp);

  // ---- incremental (change-driven) machinery -------------------------------
  // Shared invariant of every cache below: it is keyed on state that, when it
  // changes bitwise, provably marks the cache dirty (a report, a budget
  // directive, an active-flag flip, a touch()).  A cache hit therefore
  // reproduces the full recomputation bit for bit; shadow_diff re-derives each
  // hit and throws on divergence.

  /// Count one change.  Every controller-visible mutation anywhere in the
  /// tree funnels through this, so an unchanged change_epoch_ proves that
  /// nothing a consolidation dry run reads has moved since it was noted.
  void touch() { ++change_epoch_; }

  /// min(circuit rating, thermal power limit over one demand period) for the
  /// server at `server_index`, as the controller senses it.  Shared by
  /// update_hard_limits and enforce_thermal_limits so both clamp to
  /// identical bits.
  [[nodiscard]] Watts leaf_limit(std::size_t server_index) const;
  /// An internal node's hard limit: its active children's limits summed,
  /// capped by the group's circuit rating.  Shared by the roll-up and its
  /// shadow check.
  [[nodiscard]] Watts rolled_up_limit(NodeId id) const;

  /// Shadow-diff helpers: re-derive a skipped decision from scratch and throw
  /// std::logic_error on any bitwise mismatch.
  void shadow_check_division(NodeId id);
  void shadow_check_hard_limit(NodeId id);
  /// Throw if would_act(slot) holds for a server the pass skips, i.e. one
  /// not marked for `pass` (pass 0: every server).
  template <typename WouldAct>
  void shadow_check_skipped(std::uint8_t pass, const char* what,
                            const WouldAct& would_act);
  /// Count one shadow check; on a mismatch count it too and throw
  /// std::logic_error naming `what` (and `node`, if given).
  void shadow_verdict(bool mismatch, const char* what,
                      NodeId node = hier::kNoNode);

  /// Controller passes that drain the cluster's InputRecord, one bit each.
  /// The clamp also gets servers whose budget rose; the sweep runs every
  /// eta1 ticks, so its bit keeps its own "since" point.
  static constexpr std::uint8_t kObservePass = 1;
  static constexpr std::uint8_t kClampPass = 2;
  static constexpr std::uint8_t kSweepPass = 4;
  /// Run visit(slot) for every server marked for `pass`, ascending, or for
  /// every server when not incremental.  Under shadow_diff the servers it
  /// skips are checked with would_act first.
  template <typename Visit, typename WouldAct>
  void visit_moved(std::uint8_t pass, const char* what, const Visit& visit,
                   const WouldAct& would_act);

  /// tick()'s sub-phases, each timed by a control.phase.* registry timer
  /// (null without a bus: ScopedTimer then records nothing).
  enum Phase {
    kPhaseObserve,
    kPhaseSupply,
    kPhaseThermal,
    kPhasePlan,
    kPhasePlace,
    kPhaseWake,
    kPhaseShed,
    kPhaseJudge,
    kPhaseDrain,
    kPhaseRevive,
    kPhaseCount
  };
  std::array<obs::Timer*, kPhaseCount> phase_timers_{};
  template <typename F>
  decltype(auto) timed(Phase phase, const F& f) {
    const obs::ScopedTimer timer(phase_timers_[phase]);
    return f();
  }

  void resolve_instruments();

  /// Changes counted so far (see touch()).
  std::uint64_t change_epoch_ = 0;
  /// Internal nodes whose top-down division must re-run at the next supply
  /// pass (child demand vector, child capacities or own budget moved).
  std::vector<char> division_dirty_;  ///< by NodeId
  /// Internal nodes whose hard-limit roll-up must re-run (a descendant's
  /// leaf limit or active flag moved).
  std::vector<char> limit_dirty_;  ///< by NodeId
  /// Group parents whose demand planning must run this tick (mark_plan).
  std::vector<char> plan_marked_;  ///< by NodeId

  /// This ΔA pass's consolidation candidates in drain order, rebuilt by
  /// judge_consol_candidates() on every pass.
  struct ConsolCandidate {
    std::uint32_t server = 0;  ///< server index
    double utilization = 0.0;
    double envelope = 0.0;  ///< server's own sustainable dynamic power
  };
  std::vector<ConsolCandidate> consol_order_;
  /// Cached fleet-scope dry-run failures: "this candidate could not be fully
  /// drained anywhere while change_epoch_ was at this value (with these
  /// items)".  Valid on every pass, including while migrations are in
  /// flight: the transient absorbed/reserved watts a dry run reads are
  /// touched at every mutation (migration start, landing, release) *and* at
  /// their per-tick reset (tick() touches before zeroing absorbed_w_), so an
  /// unchanged epoch proves the verdict's inputs are bitwise unchanged.
  struct ConsolFail {
    std::uint64_t epoch = 0;
    std::uint64_t item_sig = 0;
    bool valid = false;
  };
  std::vector<ConsolFail> consol_fail_root_;  ///< by server index

  /// This ΔA pass's tallies for the consolidation counters below.
  struct ConsolTally {
    std::uint64_t candidates = 0;
    std::uint64_t drained = 0;
    std::uint64_t cache_served = 0;
    std::uint64_t batched = 0;
    std::uint64_t index_updates = 0;
  } consol_tally_;

  /// Division scratch (child demand/capacity vectors, allocator working
  /// storage and output, reused per node).
  std::vector<Watts> alloc_demands_scratch_;
  std::vector<Watts> alloc_caps_scratch_;
  AllocationScratch alloc_scratch_;
  AllocationResult alloc_result_;

  /// Instruments resolved once when the bus is attached (name lookups are a
  /// hash probe each; the skip paths fire per node per tick).
  obs::Counter* c_budget_directives_ = nullptr;
  obs::Counter* c_divisions_memoized_ = nullptr;
  /// Candidates served whole by the root failure cache (equal to
  /// control.consol_cache_served; tickbench's binpack.reuse_ratio reads it).
  obs::Counter* c_packings_reused_ = nullptr;
  obs::Counter* c_shadow_checks_ = nullptr;
  obs::Counter* c_shadow_mismatches_ = nullptr;
  /// Batched-consolidation effectiveness: per-ΔA candidates that passed the
  /// skip checks, candidates fully drained (plan applied or empty server
  /// slept), verdicts served whole by the fleet-scope failure cache, fleet
  /// verdicts produced by the capacity-index fast path, and point mutations
  /// (erase/insert) applied to that index.
  obs::Counter* c_consol_candidates_ = nullptr;
  obs::Counter* c_consol_drained_ = nullptr;
  obs::Counter* c_consol_cache_served_ = nullptr;
  obs::Counter* c_consol_batched_ = nullptr;
  obs::Counter* c_index_point_updates_ = nullptr;
  /// Packing instruments, registered on the first pack_and_apply call so a
  /// run that never packs carries neither name.
  obs::Counter* c_pack_calls_ = nullptr;
  obs::Histogram* h_pack_items_ = nullptr;

  /// Fault instruments, resolved only when a link-fault model or the stale
  /// machinery is active so fault-free runs register no extra counters.
  void resolve_fault_instruments();
  obs::Counter* c_directive_losses_ = nullptr;
  obs::Counter* c_directive_retries_ = nullptr;
  obs::Counter* c_directives_abandoned_ = nullptr;
  obs::Counter* c_stale_timeouts_ = nullptr;
  obs::Counter* c_fallback_budgets_ = nullptr;

  /// Link-fault model (not owned; null in fault-free runs).
  const fault::LinkFaultModel* link_faults_ = nullptr;
  /// Directives lost in transit, awaiting retry with exponential backoff.
  struct PendingDirective {
    NodeId node = hier::kNoNode;
    Watts budget{0.0};
    int attempts = 0;      ///< failed sends so far
    long next_retry = 0;   ///< earliest controller tick to try again
  };
  std::vector<PendingDirective> pending_directives_;

  Cluster& cluster_;
  ControllerConfig config_;
  ControllerStats stats_;
  long tick_ = 0;
  Watts last_supply_{0.0};
  std::vector<bool> budget_reduced_;
  /// Nodes whose budget_reduced_ flag is set, in the order they were set.
  std::vector<NodeId> budget_reduced_ids_;
  /// The tick in which the thermal/circuit clamp last reduced each server's
  /// budget; a clamp this tick drives the kThermal reason code on the
  /// migrations it forces.  A stamp needs no per-tick reset.
  std::vector<long> clamped_at_;  ///< by NodeId
  /// Root-level budget that no child could absorb at the last supply event.
  Watts root_unallocated_{0.0};
  std::vector<MigrationRecord> migrations_this_tick_;
  /// Demand already accepted by each server during the current tick (so
  /// successive packing passes see shrunken surpluses).
  std::vector<double> absorbed_w_;
  /// Demand migrated *off* each server during the current tick (credited
  /// against its observed deficit before shedding).
  std::vector<double> migrated_from_w_;

  /// Latency-mode state: transfers in progress.
  struct InFlight {
    workload::AppId app;
    NodeId source;
    NodeId target;
    long completes_at;
    Watts demand;
  };
  std::vector<InFlight> in_flight_;
  std::unordered_set<workload::AppId> apps_in_flight_;
  /// Demand reserved at targets by inbound transfers (persists across ticks).
  std::vector<double> reserved_in_w_;
  /// Demand leaving each source via in-flight transfers (credited against
  /// its deficit so the same load is not shed or re-planned while moving).
  std::vector<double> outbound_in_flight_w_;
  /// The tick in which each server last received a migration; a server
  /// targeted this tick is no consolidation source (avoids intra-tick
  /// ping-pong).
  std::vector<long> targeted_at_;  ///< by NodeId
  std::function<void(const MigrationRecord&)> sink_;
  obs::EventBus* bus_ = nullptr;

  /// Topology (see build_topology).  Internal (non-leaf) nodes only, in
  /// bottom-up (children first) and top-down (parents first) order: the
  /// walks that roll up, divide and escalate never act on a leaf, so they
  /// skip the fleet.
  std::vector<NodeId> internal_bottom_up_;
  std::vector<NodeId> internal_top_down_;
  /// Internal nodes with >= 1 server child, in bottom-up order (the "level-1
  /// groups" demand adaptation plans over).
  std::vector<NodeId> group_parents_;
  std::vector<char> is_group_parent_;  ///< by NodeId
  /// Direct server children per node, in child order.
  std::vector<std::vector<NodeId>> server_children_;
  /// Server descendants per node (a server lists itself), ascending NodeId
  /// = creation order, as compressed rows: node n's list is
  /// subtree_servers_[subtree_offsets_[n], subtree_offsets_[n + 1]).
  std::vector<std::uint32_t> subtree_offsets_;  ///< by NodeId, plus one
  std::vector<NodeId> subtree_servers_;

  /// Packing scratch (pack_and_apply, dry runs, the fast path's items),
  /// cleared per use.
  struct {
    std::vector<NodeId> targets;
    std::vector<binpack::Item> items;
    std::vector<binpack::Bin> bins;
    std::vector<NodeId> bin_nodes;  ///< bin index -> target node
  } pack_buf_;
  std::vector<const workload::Application*> victim_scratch_;
  std::vector<workload::Application*> shed_scratch_;
  /// Wake-loop sleep pool as a max-heap of (hard limit, NodeId) snapshots.
  std::vector<std::pair<double, NodeId>> sleeper_heap_;

  /// Consolidation fleet-scope fast path (valid only within one
  /// consolidate() call; see build_consol_index()).  The capacity index
  /// holds every (active, root-eligible, capacity > eps) server, ordered by
  /// (capacity, NodeId): FFDLR's real-bin order, so binpack::ffdlr packs
  /// over it directly, skipping the candidate.  A set, not a sorted vector:
  /// the drain point-updates it after every migration and sleep, thousands
  /// of times per pass under churn.  `consol_cap_of_` remembers each slot's
  /// indexed key so a point update can erase it.
  binpack::CapacityIndex consol_cap_index_;
  std::vector<std::pair<double, NodeId>> consol_index_build_scratch_;
  std::vector<double> consol_cap_of_;  ///< by slot; <0 = not indexed
  bool consol_index_built_ = false;
  binpack::FfdlrPlan fast_plan_;
  Assignment fast_assign_scratch_;
  /// The drain candidate's items (consol_items), reused so a candidate
  /// allocates nothing.
  std::vector<PlanItem> consol_items_;
};

}  // namespace willow::core
