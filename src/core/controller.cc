#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/allocation.h"

namespace willow::core {

namespace {
constexpr double kEps = 1e-9;

// FNV-1a over 64-bit words; used to fingerprint a consolidation candidate's
// hosted apps.  Collisions would silently reuse a stale verdict, but at 64
// bits the collision rate is negligible against the ~1e7 fingerprints of even
// a long 100k-server run, and the shadow-diff mode exists to catch exactly
// this class of error.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffull;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}
}

void ControllerConfig::validate() const {
  if (!(demand_period.value() > 0.0)) {
    throw std::invalid_argument("ControllerConfig: demand_period must be > 0");
  }
  if (eta1 < 1 || eta2 <= eta1) {
    throw std::invalid_argument("ControllerConfig: need 1 <= eta1 < eta2");
  }
  // Checks are written negated (!(x >= 0)) so that NaN fails them too.
  if (!(margin.value() >= 0.0)) {
    throw std::invalid_argument("ControllerConfig: margin must be >= 0");
  }
  if (!(migration_cost.value() >= 0.0)) {
    throw std::invalid_argument(
        "ControllerConfig: migration_cost must be >= 0");
  }
  if (!(consolidation_threshold >= 0.0 && consolidation_threshold <= 1.0)) {
    throw std::invalid_argument(
        "ControllerConfig: consolidation_threshold must be in [0,1]");
  }
  if (!(migration_periods_per_gib >= 0.0)) {
    throw std::invalid_argument(
        "ControllerConfig: migration_periods_per_gib must be >= 0");
  }
  if (migration_cost_periods < 1) {
    throw std::invalid_argument(
        "ControllerConfig: migration_cost_periods must be >= 1");
  }
  if (!(degraded_service_level > 0.0) || degraded_service_level >= 1.0) {
    throw std::invalid_argument(
        "ControllerConfig: degraded_service_level must be in (0,1)");
  }
  if (!(target_fill_fraction > 0.0) || target_fill_fraction > 1.0) {
    throw std::invalid_argument(
        "ControllerConfig: target_fill_fraction must be in (0,1]");
  }
  if (!(report_deadband.value() >= 0.0)) {
    throw std::invalid_argument(
        "ControllerConfig: report_deadband must be >= 0");
  }
  if (report_deadband.value() > 0.0 &&
      report_deadband.value() >= margin.value()) {
    // Property 4 only holds if demand movement too small to be reported is
    // also too small to warrant a migration; see stability.cc.
    throw std::invalid_argument(
        "ControllerConfig: report_deadband must stay below margin");
  }
  if (stale_timeout_ticks < 0) {
    throw std::invalid_argument(
        "ControllerConfig: stale_timeout_ticks must be >= 0");
  }
  if (!(stale_decay > 0.0) || stale_decay > 1.0) {
    throw std::invalid_argument(
        "ControllerConfig: stale_decay must be in (0, 1]");
  }
  if (directive_retry_limit < 0) {
    throw std::invalid_argument(
        "ControllerConfig: directive_retry_limit must be >= 0");
  }
}

Controller::Controller(Cluster& cluster, ControllerConfig config)
    : cluster_(cluster), config_(config) {
  config_.validate();
  // The report sweep's walk policy lives in the tree; push ours down so the
  // whole control plane runs one mode.
  auto& tree = cluster_.tree();
  tree.set_incremental(config_.incremental);
  tree.set_report_deadband(config_.report_deadband);
  tree.set_shadow_diff(config_.shadow_diff);
  build_topology();
}

bool Controller::budget_reduced(NodeId node) const {
  return node < budget_reduced_.size() && budget_reduced_[node];
}

void Controller::build_topology() {
  const auto& tree = cluster_.tree();
  const std::size_t n = tree.size();
  budget_reduced_.assign(n, false);
  clamped_at_.assign(n, 0);
  targeted_at_.assign(n, 0);
  absorbed_w_.assign(n, 0.0);
  migrated_from_w_.assign(n, 0.0);
  reserved_in_w_.assign(n, 0.0);
  outbound_in_flight_w_.assign(n, 0.0);
  internal_bottom_up_.clear();
  for (NodeId id : tree.bottom_up()) {
    if (!tree.node(id).is_leaf()) internal_bottom_up_.push_back(id);
  }
  internal_top_down_.clear();
  for (NodeId id : tree.top_down()) {
    if (!tree.node(id).is_leaf()) internal_top_down_.push_back(id);
  }
  server_children_.assign(n, {});
  is_group_parent_.assign(n, 0);
  group_parents_.clear();
  for (NodeId s : cluster_.server_ids()) {
    const NodeId parent = tree.node(s).parent();
    if (parent != hier::kNoNode) {
      server_children_[parent].push_back(s);
      is_group_parent_[parent] = 1;
    }
  }
  // Subtree server lists: count each server on its node and every ancestor,
  // then fill in server order, so each list comes out ascending.
  subtree_offsets_.assign(n + 1, 0);
  for (NodeId s : cluster_.server_ids()) {
    for (NodeId a = s; a != hier::kNoNode; a = tree.node(a).parent()) {
      ++subtree_offsets_[a + 1];
    }
  }
  for (std::size_t id = 0; id < n; ++id) {
    subtree_offsets_[id + 1] += subtree_offsets_[id];
  }
  subtree_servers_.resize(subtree_offsets_[n]);
  std::vector<std::uint32_t> fill(subtree_offsets_.begin(),
                                  subtree_offsets_.end() - 1);
  for (NodeId s : cluster_.server_ids()) {
    for (NodeId a = s; a != hier::kNoNode; a = tree.node(a).parent()) {
      subtree_servers_[fill[a]++] = s;
    }
  }
  for (NodeId id : internal_bottom_up_) {
    if (is_group_parent_[id]) group_parents_.push_back(id);
  }

  // The tree starts all-dirty so the first pass of every phase is a full
  // recompute that seeds the caches.
  division_dirty_.assign(n, 1);
  limit_dirty_.assign(n, 1);
  plan_marked_.assign(n, 1);
  cluster_.input_record().mark_all(InputRecord::kAll);
  consol_fail_root_.assign(cluster_.server_count(), {});
}

void Controller::emit(obs::EventType type, NodeId node, NodeId node2,
                      workload::AppId app, obs::Reason reason, double value,
                      double aux, obs::LinkDirection direction) {
  if (bus_ == nullptr || !bus_->enabled()) return;
  obs::Event e;
  e.type = type;
  e.node = node;
  e.node2 = node2;
  e.app = app;
  e.reason = reason;
  e.direction = direction;
  e.value = value;
  e.aux = aux;
  bus_->emit(std::move(e));
}

void Controller::note_external_change(NodeId node) {
  cluster_.note_input_moved(node);
  if (!config_.incremental) return;
  touch();
  cluster_.tree().mark_report_dirty(node);
}

void Controller::note_availability_change(NodeId node) {
  // The flip changes the parent's roll-up and division, and the node must
  // re-report.  Unconditional (not gated on config_.incremental): the dirty
  // flags are only consulted by the incremental walk, and the full walk
  // ignores them.
  auto& tree = cluster_.tree();
  const NodeId p = tree.node(node).parent();
  if (p != hier::kNoNode) limit_dirty_[p] = division_dirty_[p] = 1;
  mark_plan(node);
  tree.mark_report_dirty(node);
  touch();
}

void Controller::mark_plan(NodeId server) {
  const NodeId p = cluster_.tree().node(server).parent();
  if (p != hier::kNoNode) plan_marked_[p] = 1;
}

void Controller::set_link_faults(const fault::LinkFaultModel* faults) {
  link_faults_ = faults;
  cluster_.tree().set_link_faults(faults);
  resolve_fault_instruments();
}

Watts Controller::leaf_limit(std::size_t server_index) const {
  // "So that the temperature does not exceed T_limit during the next
  // adjustment window" (Sec. III-A): the window is one demand period.
  return cluster_.server_at(server_index).sensed_power_limit(
      config_.demand_period);
}

void Controller::resolve_instruments() {
  // Registered lazily by pack_and_apply against whichever bus is attached.
  c_pack_calls_ = nullptr;
  h_pack_items_ = nullptr;
  auto counter = [this](const char* name) {
    return bus_ != nullptr ? &bus_->metrics().counter(name) : nullptr;
  };
  c_budget_directives_ = counter("control.budget_directives");
  c_divisions_memoized_ = counter("control.supply_subtrees_memoized");
  c_packings_reused_ = counter("control.packings_reused");
  c_shadow_checks_ = counter("control.shadow_checks");
  c_shadow_mismatches_ = counter("control.shadow_mismatches");
  c_consol_candidates_ = counter("control.consol_candidates");
  c_consol_drained_ = counter("control.consol_drained");
  c_consol_cache_served_ = counter("control.consol_cache_served");
  c_consol_batched_ = counter("control.consol_batched");
  c_index_point_updates_ = counter("control.index_point_updates");
  static constexpr const char* kPhaseNames[kPhaseCount] = {
      "control.phase.observe",         "control.phase.supply",
      "control.phase.thermal",         "control.phase.demand.plan",
      "control.phase.demand.place",    "control.phase.demand.wake",
      "control.phase.demand.shed",     "control.phase.consolidate.judge",
      "control.phase.consolidate.drain", "control.phase.revive"};
  for (int p = 0; p < kPhaseCount; ++p) {
    phase_timers_[p] =
        bus_ != nullptr ? &bus_->metrics().timer(kPhaseNames[p]) : nullptr;
  }
  resolve_fault_instruments();
}

void Controller::resolve_fault_instruments() {
  // Registered only when the degraded-mode machinery is actually armed, so a
  // fault-free run's metrics snapshot carries no fault.* names at all.
  const bool active =
      link_faults_ != nullptr || config_.stale_timeout_ticks > 0;
  if (bus_ == nullptr || !active) {
    c_directive_losses_ = nullptr;
    c_directive_retries_ = nullptr;
    c_directives_abandoned_ = nullptr;
    c_stale_timeouts_ = nullptr;
    c_fallback_budgets_ = nullptr;
    return;
  }
  auto& m = bus_->metrics();
  c_directive_losses_ = &m.counter("fault.directive_losses");
  c_directive_retries_ = &m.counter("fault.directive_retries");
  c_directives_abandoned_ = &m.counter("fault.directives_abandoned");
  c_stale_timeouts_ = &m.counter("fault.stale_timeouts");
  c_fallback_budgets_ = &m.counter("fault.fallback_budgets");
}

void Controller::shadow_verdict(bool mismatch, const char* what,
                                NodeId node) {
  if (c_shadow_checks_ != nullptr) {
    c_shadow_checks_->increment();
    if (mismatch) c_shadow_mismatches_->increment();
  }
  if (mismatch) {
    throw std::logic_error(std::string("Controller shadow diff: ") + what +
                           (node == hier::kNoNode
                                ? std::string()
                                : " (node " + std::to_string(node) + ")"));
  }
}

template <typename WouldAct>
void Controller::shadow_check_skipped(std::uint8_t pass, const char* what,
                                      const WouldAct& would_act) {
  const auto& record = cluster_.input_record();
  std::size_t i = 0;
  while (i < record.size() && (record.marked(i, pass) || !would_act(i))) ++i;
  shadow_verdict(i < record.size(), what,
                 i < record.size() ? cluster_.server_ids()[i] : hier::kNoNode);
}

template <typename Visit, typename WouldAct>
void Controller::visit_moved(std::uint8_t pass, const char* what,
                             const Visit& visit, const WouldAct& would_act) {
  auto& record = cluster_.input_record();
  if (!config_.incremental) {
    record.mark_all(pass);
  } else if (config_.shadow_diff) {
    shadow_check_skipped(pass, what, would_act);
  }
  record.drain(pass, visit);
}

void Controller::apply_stale_observations() {
  if (config_.stale_timeout_ticks <= 0) return;
  auto& tree = cluster_.tree();
  for (std::size_t i = 0; i < cluster_.server_count(); ++i) {
    const auto& srv = cluster_.server_at(i);
    // A crashed server's leaf is inactive (the sweep already feeds its
    // subtree zero); synthesis only covers servers that are up but silent.
    if (srv.asleep() || srv.crashed()) continue;
    const int stale = srv.stale_ticks();
    if (stale < config_.stale_timeout_ticks || !srv.has_last_good_demand()) {
      continue;
    }
    // Decayed last-known-good: the dynamic part above the idle floor shrinks
    // geometrically the longer the silence lasts, so a dark server's claim on
    // the budget fades instead of freezing at its final report.
    const double steps =
        static_cast<double>(stale - config_.stale_timeout_ticks);
    const Watts synthetic =
        srv.idle_floor() +
        util::positive_part(srv.last_good_demand() - srv.idle_floor()) *
            std::pow(config_.stale_decay, steps);
    if (stale == config_.stale_timeout_ticks) {
      if (c_stale_timeouts_ != nullptr) c_stale_timeouts_->increment();
      emit(obs::EventType::kStaleTimeout, srv.node(), hier::kNoNode, 0,
           obs::Reason::kNone, synthetic.value(), static_cast<double>(stale));
    }
    // Through the normal EWMA/report path, so the incremental and full walks
    // see identical inputs and shadow_diff keeps holding under faults.
    tree.observe_leaf(srv.node(), synthetic);
  }
}

void Controller::apply_fallback_budgets() {
  if (config_.stale_timeout_ticks <= 0) return;
  const auto& tree = cluster_.tree();
  const auto& sids = cluster_.server_ids();
  for (std::size_t i = 0; i < cluster_.server_count(); ++i) {
    const auto& srv = cluster_.server_at(i);
    if (srv.asleep() || srv.crashed()) continue;
    if (srv.stale_ticks() < config_.stale_timeout_ticks) continue;
    const NodeId s = sids[i];
    if (!tree.node(s).active()) continue;
    // Safe envelope for a dark server: holdable at steady state from any
    // starting temperature, and never above the regular per-window limit —
    // the clamp only ever tightens (fail-safe toward the thermal limit).
    const auto& th = srv.thermal();
    const Watts steady = util::min(
        util::positive_part(th.steady_state_power_limit()),
        th.params().nameplate);
    const Watts safe = util::min(leaf_limit(i), steady);
    if (clamp_budget(s, safe, obs::EventType::kFallbackBudget,
                     obs::Reason::kNone) &&
        c_fallback_budgets_ != nullptr) {
      c_fallback_budgets_->increment();
    }
  }
}

void Controller::deliver_directive(NodeId id, Watts budget, bool duplicate) {
  auto& tree = cluster_.tree();
  auto& n = tree.node(id);
  if (budget < n.budget() - Watts{kEps}) mark_budget_reduced(id);
  // A raised budget may now exceed the server's thermal limit.
  if (budget > n.budget()) cluster_.note_input_moved(id, kClampPass);
  mark_plan(id);
  const double previous = n.budget().value();
  auto announce = [&] {
    emit(obs::EventType::kBudgetDirective, id, hier::kNoNode, 0,
         obs::Reason::kNone, budget.value(), previous);
  };
  announce();
  n.set_budget(budget);
  tree.record_budget_directive(id);
  division_dirty_[id] = 1;  // its own children now share a different pie
  touch();
  if (duplicate) {
    // Same message applied twice: state is unchanged, but the message
    // counters and the trace must carry both copies.
    tree.record_budget_directive(id);
    announce();
  }
}

void Controller::record_directive_loss(NodeId id, Watts budget) {
  if (c_directive_losses_ != nullptr) c_directive_losses_->increment();
  emit(obs::EventType::kLinkDrop, id, hier::kNoNode, 0, obs::Reason::kNone,
       budget.value(), cluster_.tree().node(id).budget().value(),
       obs::LinkDirection::kDown);
}

void Controller::queue_directive_retry(NodeId id, Watts budget) {
  // The division above believes the child now holds `budget`; it does not.
  // Keep the dividing parent dirty so the next supply pass re-derives (and
  // re-announces) rather than memoizing outputs that never landed.
  const NodeId p = cluster_.tree().node(id).parent();
  if (p != hier::kNoNode) division_dirty_[p] = 1;
  for (auto& pd : pending_directives_) {
    if (pd.node == id) {
      pd.budget = budget;
      pd.attempts = 1;
      pd.next_retry = tick_ + 2;
      return;
    }
  }
  pending_directives_.push_back({id, budget, 1, tick_ + 2});
}

void Controller::retry_pending_directives() {
  if (pending_directives_.empty()) return;
  auto& tree = cluster_.tree();
  std::uint64_t directives = 0;
  auto keep = pending_directives_.begin();
  for (auto& p : pending_directives_) {
    if (p.next_retry > tick_) {
      *keep++ = p;
      continue;
    }
    auto& n = tree.node(p.node);
    if (p.budget.value() == n.budget().value()) {
      // Something else (a fresh division, a clamp) already put the node at
      // this value; resending would fabricate a spurious directive.
      continue;
    }
    fault::DownVerdict fate{};
    if (link_faults_ != nullptr) fate = link_faults_->down(p.node);
    if (fate.lose) {
      ++p.attempts;
      record_directive_loss(p.node, p.budget);
      if (p.attempts > config_.directive_retry_limit) {
        // Abandoned: the parent stayed division-dirty the whole time, so the
        // next supply pass re-derives a fresh directive from live state.
        if (c_directives_abandoned_ != nullptr) {
          c_directives_abandoned_->increment();
        }
        continue;
      }
      p.next_retry = tick_ + (1L << std::min(p.attempts, 6));
      *keep++ = p;
      continue;
    }
    deliver_directive(p.node, p.budget, fate.duplicate);
    directives += fate.duplicate ? 2 : 1;
    if (c_directive_retries_ != nullptr) c_directive_retries_->increment();
  }
  pending_directives_.erase(keep, pending_directives_.end());
  if (c_budget_directives_ != nullptr && directives > 0) {
    c_budget_directives_->increment(directives);
  }
}

void Controller::tick(Watts available_supply) {
  ++tick_;
  if (division_dirty_.size() != cluster_.tree().size()) {
    throw std::logic_error(
        "Controller: the tree changed size after the controller was built");
  }
  timed(kPhaseObserve, [&] { observe_and_report(); });
  last_supply_ = available_supply;
  if (tick_ == 1 || tick_ % config_.eta1 == 0) {
    timed(kPhaseSupply, [&] { supply_adaptation(available_supply); });
  }
  timed(kPhaseThermal, [&] {
    enforce_thermal_limits();
    apply_fallback_budgets();
  });
  demand_adaptation();
  if (tick_ % config_.eta2 == 0) consolidate();
  timed(kPhaseRevive, [&] {
    revive_dropped();
    age_temporary_demands();
  });
}

void Controller::observe_and_report() {
  reset_transients();
  complete_due_migrations();
  observe_leaves();
  apply_stale_observations();
  auto& tree = cluster_.tree();
  tree.report_demands();
  // Every report that fired is a change the decision phases must see: the
  // tree moved (consolidation failure cache), and the reporter's parent's
  // child demand vector moved (budget division, demand planning).
  for (NodeId r : tree.reported_last_sweep()) {
    touch();
    const NodeId p = tree.node(r).parent();
    if (p != hier::kNoNode) division_dirty_[p] = plan_marked_[p] = 1;
  }
  retry_pending_directives();
}

void Controller::reset_transients() {
  // Last tick's booking in absorbed_w_/migrated_from_w_ is about to reset,
  // which moves target_capacity() for every endpoint of last tick's
  // migrations.  Count that as a change so the root failure cache sees the
  // reset — this is what lets the cache and the fleet fast path stay valid
  // while migrations are in flight instead of being quiescence-gated.  Only
  // those endpoints were written, so only they reset.
  for (const auto& rec : migrations_this_tick_) {
    touch();
    absorbed_w_[rec.to] = 0.0;
    migrated_from_w_[rec.from] = 0.0;
  }
  migrations_this_tick_.clear();
  if (!config_.incremental) {
    absorbed_w_.assign(absorbed_w_.size(), 0.0);
    migrated_from_w_.assign(migrated_from_w_.size(), 0.0);
  } else if (config_.shadow_diff) {
    const auto booked = [](double w) { return w != 0.0; };
    shadow_verdict(
        std::any_of(absorbed_w_.begin(), absorbed_w_.end(), booked) ||
            std::any_of(migrated_from_w_.begin(), migrated_from_w_.end(),
                        booked),
        "a transient booking outlived its tick");
  }
}

void Controller::observe_leaves() {
  // A server's observation can change something only if its inputs moved
  // or it is not yet quiet (DESIGN.md §10, "settled tick").
  auto& record = cluster_.input_record();
  visit_moved(
      kObservePass, "observation skipped a server whose inputs moved",
      [&](std::size_t i) {
        if (cluster_.observe_leaf(i)) record.mark(i, kObservePass);
      },
      [&](std::size_t i) { return cluster_.observation_would_act(i); });
}

void Controller::age_temporary_demands() {
  if (config_.incremental && config_.shadow_diff) {
    shadow_verdict(!cluster_.temporary_demand_holders_complete(),
                   "aging skipped a server holding temporary demand");
  }
  cluster_.age_temporary_demands(!config_.incremental);
}

Watts Controller::rolled_up_limit(NodeId id) const {
  const auto& tree = cluster_.tree();
  Watts sum{0.0};
  for (NodeId c : tree.node(id).children()) {
    if (tree.node(c).active()) sum += tree.node(c).hard_limit();
  }
  // An under-designed rack/zone feed caps the subtree regardless of what its
  // members could individually draw (Sec. I lean-design scenario).
  if (const auto rating = cluster_.group_circuit_limit(id)) {
    sum = util::min(sum, *rating);
  }
  return sum;
}

void Controller::shadow_check_hard_limit(NodeId id) {
  shadow_verdict(rolled_up_limit(id).value() !=
                     cluster_.tree().node(id).hard_limit().value(),
                 "hard-limit roll-up skipped a node whose children's limits "
                 "changed",
                 id);
}

void Controller::update_hard_limits() {
  auto& tree = cluster_.tree();
  // A moved limit re-runs the parent's roll-up and division.
  auto set_limit = [&](NodeId id, Watts limit) {
    auto& n = tree.node(id);
    if (limit.value() == n.hard_limit().value()) return;
    n.set_hard_limit(limit);
    const NodeId p = n.parent();
    if (p != hier::kNoNode) {
      limit_dirty_[p] = 1;
      division_dirty_[p] = 1;
    }
  };
  // Leaves first, by server index: only those whose limit inputs (thermal
  // state, sensor overrides, ambient) moved since the last sweep.  Inside a
  // tick none moves, so a wake batch's pass visits just the woken servers.
  const auto& sids = cluster_.server_ids();
  visit_moved(
      kSweepPass, "leaf-limit sweep skipped a server whose limit moved",
      [&](std::size_t i) { set_limit(sids[i], leaf_limit(i)); },
      [&](std::size_t i) {
        return leaf_limit(i).value() != tree.node(sids[i]).hard_limit().value();
      });
  // Internal roll-up, children before parents; clean subtrees keep their
  // cached sums.  (Non-server leaves keep their infinite default, as in the
  // full walk, which never touched them either.)
  for (NodeId id : internal_bottom_up_) {
    if (config_.incremental && !limit_dirty_[id]) {
      if (config_.shadow_diff) shadow_check_hard_limit(id);
      continue;
    }
    limit_dirty_[id] = 0;
    set_limit(id, rolled_up_limit(id));
  }
}

const AllocationResult& Controller::divide(NodeId id) {
  const auto& tree = cluster_.tree();
  const auto& n = tree.node(id);
  const auto& kids = n.children();
  auto& demands = alloc_demands_scratch_;
  auto& caps = alloc_caps_scratch_;
  demands.resize(kids.size());
  caps.resize(kids.size());
  for (std::size_t i = 0; i < kids.size(); ++i) {
    const auto& child = tree.node(kids[i]);
    caps[i] = child.active() ? child.hard_limit() : Watts{0.0};
    demands[i] = config_.allocation == AllocationPolicy::kProportionalToDemand
                     ? (child.active() ? child.reported_demand() : Watts{0.0})
                     : caps[i];
  }
  allocate_proportional(n.budget(), demands, caps, alloc_scratch_,
                        alloc_result_);
  return alloc_result_;
}

void Controller::shadow_check_division(NodeId id) {
  const auto& tree = cluster_.tree();
  const auto& kids = tree.node(id).children();
  const AllocationResult& alloc = divide(id);
  bool mismatch = false;
  for (std::size_t i = 0; i < kids.size(); ++i) {
    if (alloc.budgets[i].value() != tree.node(kids[i]).budget().value()) {
      mismatch = true;
    }
  }
  shadow_verdict(mismatch,
                 "memoized division no longer matches a fresh allocation", id);
}

void Controller::supply_adaptation(Watts available_supply) {
  auto& tree = cluster_.tree();
  update_hard_limits();
  for (NodeId id : budget_reduced_ids_) {
    budget_reduced_[id] = false;
    // Clearing the flag changes this node's eligibility under the
    // unidirectional rule even though no budget moved; count it so cached
    // consolidation verdicts that saw the old flag die.
    touch();
  }
  budget_reduced_ids_.clear();

  const bool inc = config_.incremental;
  std::uint64_t directives = 0;
  std::uint64_t memoized = 0;
  // Queued retries carry point-in-time values; once a fresh division speaks
  // for a node (same value or a delivered replacement), the queued copy is
  // stale and resending it would fabricate a directive.
  auto drop_pending = [&](NodeId id) {
    if (pending_directives_.empty()) return;
    std::erase_if(pending_directives_,
                  [id](const PendingDirective& p) { return p.node == id; });
  };
  // Event-driven directive: a budget message flows down only when the value
  // actually changed (bitwise).  Identical decisions in both walk modes: the
  // full walk re-derives every budget but announces only the changed ones.
  auto mark_and_set = [&](NodeId id, Watts budget) {
    auto& n = tree.node(id);
    if (budget.value() == n.budget().value()) {
      drop_pending(id);
      return;
    }
    // The root's budget assignment crosses no link — it is the division's
    // input, not a directive to anyone — so it can neither be lost nor
    // counted (the directive counter reconciles against downward
    // link-message trace lines).
    fault::DownVerdict fate{};
    if (link_faults_ != nullptr && !n.is_root()) fate = link_faults_->down(id);
    if (fate.lose) {
      record_directive_loss(id, budget);
      queue_directive_retry(id, budget);
      return;
    }
    deliver_directive(id, budget, fate.duplicate);
    drop_pending(id);
    if (!n.is_root()) ++directives;
    if (fate.duplicate) ++directives;
  };

  const NodeId root = tree.root();
  mark_and_set(root, util::min(available_supply, tree.node(root).hard_limit()));

  for (NodeId id : internal_top_down_) {
    if (inc && !division_dirty_[id]) {
      // Own budget, child demand vector and child capacities all unchanged
      // since this division last ran: the children's budgets stand.
      ++memoized;
      if (config_.shadow_diff) shadow_check_division(id);
      continue;
    }
    division_dirty_[id] = 0;
    const auto& kids = tree.node(id).children();
    const AllocationResult& alloc = divide(id);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      mark_and_set(kids[i], alloc.budgets[i]);
    }
    if (id == root) root_unallocated_ = alloc.unallocated;
  }
  if (c_budget_directives_ != nullptr) {
    c_budget_directives_->increment(directives);
    c_divisions_memoized_->increment(memoized);
  }
}

void Controller::enforce_thermal_limits() {
  // Only a server whose limit inputs moved, whose budget rose or that became
  // active since the last clamp can sit above its limit.
  const auto& tree = cluster_.tree();
  const auto& sids = cluster_.server_ids();
  visit_moved(
      kClampPass, "thermal clamp skipped a server above its limit",
      [&](std::size_t i) {
        const NodeId s = sids[i];
        if (tree.node(s).active() &&
            clamp_budget(s, leaf_limit(i), obs::EventType::kThermalThrottle,
                         obs::Reason::kThermal)) {
          clamped_at_[s] = tick_;
        }
      },
      [&](std::size_t i) {
        const auto& leaf = tree.node(sids[i]);
        return leaf.active() && leaf.budget() > leaf_limit(i) + Watts{kEps};
      });
}

bool Controller::clamp_budget(NodeId server, Watts cap, obs::EventType type,
                              obs::Reason reason) {
  auto& leaf = cluster_.tree().node(server);
  if (!(leaf.budget() > cap + Watts{kEps})) return false;
  emit(type, server, hier::kNoNode, 0, reason, cap.value(),
       leaf.budget().value());
  leaf.set_budget(cap);
  mark_budget_reduced(server);
  // The clamp knocked this leaf off its parent's allocation; the next supply
  // pass must re-divide (and will re-announce) or the two walk modes would
  // diverge on where the budget sits between passes.
  const NodeId p = leaf.parent();
  if (p != hier::kNoNode) division_dirty_[p] = plan_marked_[p] = 1;
  touch();
  return true;
}

void Controller::mark_budget_reduced(NodeId node) {
  if (budget_reduced_[node]) return;
  budget_reduced_[node] = true;
  budget_reduced_ids_.push_back(node);
}

bool Controller::eligible_target(NodeId target_server, NodeId scope) const {
  if (!config_.enforce_unidirectional) return true;
  // The rule bans migrating *into a subtree* whose budget the triggering
  // event reduced ("no migrations are allowed into that rack") — i.e. it
  // gates the internal nodes a migration crosses, not the target server
  // itself.  A reduction only disqualifies a subtree that the cut left
  // unable to cover its own aggregate demand: a rack whose budget shrank but
  // still holds surplus is a legitimate destination (otherwise a
  // datacenter-wide plunge could never migrate anything, contradicting the
  // paper's own Fig. 16 testbed narrative).
  const auto& tree = cluster_.tree();
  for (NodeId cur = tree.node(target_server).parent();
       cur != scope && cur != hier::kNoNode; cur = tree.node(cur).parent()) {
    if (budget_reduced_[cur] &&
        reported_deficit(tree.node(cur)).value() > kEps) {
      return false;
    }
  }
  return true;
}

Watts Controller::target_capacity(NodeId server) const {
  const auto& leaf = cluster_.tree().node(server);
  if (!leaf.active()) return Watts{0.0};
  // Budget surplus (Eq. 6), additionally capped by the *sustainable* thermal
  // headroom: a cold server's window-based budget (Eq. 3) is transiently
  // generous, but demand parked on it must also be holdable at steady state
  // or it would be re-migrated as soon as the host warms up — exactly the
  // ping-pong the margins exist to prevent.
  const auto& srv = cluster_.server(server);
  // Sustainable ceiling, derated by the fill fraction on the dynamic part
  // (the latency-power tradeoff knob; see ControllerConfig).
  const Watts allowed =
      srv.idle_floor() +
      (srv.thermal().steady_state_power_limit() - srv.idle_floor()) *
          config_.target_fill_fraction;
  const Watts sustainable_headroom = allowed - leaf.reported_demand();
  const Watts cap = util::min(reported_surplus(leaf), sustainable_headroom) -
                    config_.margin - Watts{absorbed_w_[server]} -
                    Watts{reserved_in_w_[server]};
  return util::positive_part(cap);
}

std::vector<Controller::PlanItem> Controller::select_victims(
    NodeId server, Watts needed, MigrationCause cause, obs::Reason reason) {
  auto& apps = cluster_.server(server).apps();
  auto& sorted = victim_scratch_;
  sorted.clear();
  sorted.reserve(apps.size());
  for (const auto& a : apps) {
    if (a.dropped() || a.demand().value() <= kEps) continue;
    if (apps_in_flight_.contains(a.id())) continue;  // already committed
    sorted.push_back(&a);
  }
  // Deterministic victim order independent of the container's history: by
  // demand, app id breaking exact ties (ids are unique, so the order is
  // total and an unstable sort yields it).
  std::sort(sorted.begin(), sorted.end(),
            [](const Application* a, const Application* b) {
              if (a->demand().value() != b->demand().value()) {
                return a->demand() > b->demand();
              }
              return a->id() < b->id();
            });
  std::vector<PlanItem> items;
  Watts covered{0.0};
  for (const Application* a : sorted) {
    if (covered >= needed) break;
    items.push_back({a->id(), server, a->demand() + config_.migration_cost,
                     a->demand(), cause, reason});
    covered += a->demand();
  }
  return items;
}

void Controller::complete_due_migrations() {
  if (in_flight_.empty()) return;
  auto keep = in_flight_.begin();
  for (auto& m : in_flight_) {
    if (m.completes_at > tick_) {
      *keep++ = m;
      continue;
    }
    // The application may have been removed (workload churn) mid-transfer:
    // then only the bookkeeping is released.
    const bool lands = cluster_.host_of(m.app) == m.source;
    if (lands) {
      cluster_.move_app(m.app, m.source, m.target);
    }
    reserved_in_w_[m.target] =
        std::max(0.0, reserved_in_w_[m.target] - m.demand.value());
    outbound_in_flight_w_[m.source] =
        std::max(0.0, outbound_in_flight_w_[m.source] - m.demand.value());
    apps_in_flight_.erase(m.app);
    touch();
    cluster_.note_input_moved(m.target);
    cluster_.note_input_moved(m.source);
    mark_plan(m.source);
    if (lands) {
      emit(obs::EventType::kMigrationLanded, m.source, m.target, m.app,
           obs::Reason::kNone, m.demand.value());
    }
  }
  in_flight_.erase(keep, in_flight_.end());
}

void Controller::apply_migration(const PlanItem& item, NodeId target) {
  int transfer_periods = 0;
  if (config_.migration_periods_per_gib > 0.0) {
    if (const Application* app = cluster_.find_app(item.app)) {
      const double gib = app->image_size().value() / 1024.0;
      transfer_periods = std::max(
          1, static_cast<int>(std::ceil(gib * config_.migration_periods_per_gib)));
    }
  }
  const int cost_periods =
      std::max(config_.migration_cost_periods, transfer_periods);
  cluster_.add_temporary_demand(item.source, config_.migration_cost,
                                cost_periods);
  cluster_.add_temporary_demand(target, config_.migration_cost, cost_periods);
  if (transfer_periods == 0) {
    // The paper's model: placement changes within the decision period.
    cluster_.move_app(item.app, item.source, target);
    migrated_from_w_[item.source] += item.demand.value();
  } else {
    // Latency mode: the VM keeps running at the source while the image
    // transfers; the target holds a capacity reservation until it lands.
    in_flight_.push_back(
        {item.app, item.source, target, tick_ + transfer_periods,
         item.demand});
    apps_in_flight_.insert(item.app);
    reserved_in_w_[target] += item.demand.value();
    outbound_in_flight_w_[item.source] += item.demand.value();
    mark_plan(item.source);
  }
  absorbed_w_[target] += item.size.value();
  targeted_at_[target] = tick_;
  touch();

  const auto& tree = cluster_.tree();
  MigrationRecord rec;
  rec.app = item.app;
  rec.from = item.source;
  rec.to = target;
  rec.size = item.demand;
  rec.cause = item.cause;
  rec.tick = tick_;
  rec.local = tree.node(item.source).parent() == tree.node(target).parent();
  migrations_this_tick_.push_back(rec);
  const obs::Reason reason =
      item.reason != obs::Reason::kNone
          ? item.reason
          : (item.cause == MigrationCause::kDemand
                 ? obs::Reason::kSupplyDeficit
                 : obs::Reason::kConsolidation);
  emit(obs::EventType::kMigration, item.source, target, item.app, reason,
       item.demand.value(), rec.local ? 1.0 : 0.0);

  if (item.cause == MigrationCause::kDemand) {
    ++stats_.demand_migrations;
  } else {
    ++stats_.consolidation_migrations;
  }
  if (rec.local) {
    ++stats_.local_migrations;
  } else {
    ++stats_.nonlocal_migrations;
  }
  if (sink_) sink_(rec);
}

void Controller::to_pack_items(const std::vector<PlanItem>& items,
                               std::vector<binpack::Item>& out) {
  out.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    out.push_back({static_cast<std::uint64_t>(i), items[i].size.value(), 0});
  }
}

void Controller::make_bins(const std::vector<NodeId>& targets,
                           std::vector<binpack::Bin>& bins,
                           std::vector<NodeId>& bin_nodes) const {
  bins.clear();
  bin_nodes.clear();
  for (NodeId t : targets) {
    const Watts cap = target_capacity(t);
    if (cap.value() > kEps) {
      bins.push_back({static_cast<std::uint64_t>(t), cap.value(), 0});
      bin_nodes.push_back(t);
    }
  }
}

void Controller::collect_targets(NodeId scope, NodeId exclude,
                                 std::vector<NodeId>& out) const {
  const auto& tree = cluster_.tree();
  out.clear();
  for (std::uint32_t k = subtree_offsets_[scope];
       k < subtree_offsets_[scope + 1]; ++k) {
    const NodeId t = subtree_servers_[k];
    if (t != exclude && tree.node(t).active() && eligible_target(t, scope)) {
      out.push_back(t);
    }
  }
}

std::size_t Controller::pack_and_apply(std::vector<PlanItem>& items,
                                       const std::vector<NodeId>& targets) {
  if (bus_ != nullptr) {
    if (c_pack_calls_ == nullptr) {
      auto& m = bus_->metrics();
      c_pack_calls_ = &m.counter("controller.pack_calls");
      h_pack_items_ =
          &m.histogram("controller.pack_items", {1, 2, 4, 8, 16, 32, 64, 128});
    }
    c_pack_calls_->increment();
    h_pack_items_->observe(static_cast<double>(items.size()));
  }
  to_pack_items(items, pack_buf_.items);
  make_bins(targets, pack_buf_.bins, pack_buf_.bin_nodes);
  const binpack::PackResult result =
      binpack::pack(pack_buf_.items, pack_buf_.bins, config_.packing);
  for (const auto& a : result.assignments) {
    apply_migration(items[a.item], pack_buf_.bin_nodes[a.bin]);
  }
  std::vector<PlanItem> rest;
  rest.reserve(result.unplaced.size());
  for (std::size_t idx : result.unplaced) rest.push_back(items[idx]);
  const std::size_t placed = items.size() - rest.size();
  items = std::move(rest);
  return placed;
}

void Controller::demand_adaptation() {
  std::vector<DemandGroup> groups =
      timed(kPhasePlan, [&] { return plan_demand_groups(); });
  if (groups.empty()) return;
  std::vector<PlanItem> pending =
      timed(kPhasePlace, [&] { return place_demand(groups); });
  // Root-level leftovers: wake sleeping capacity, then drop what remains.
  if (!pending.empty() && config_.allow_wake) {
    timed(kPhaseWake, [&] { wake_for(pending); });
  }
  if (!pending.empty() && config_.allow_drop) {
    timed(kPhaseShed, [&] { shed_leftovers(pending); });
  }
}

std::vector<Controller::DemandGroup> Controller::plan_demand_groups() {
  // Every internal node with >= 1 server child is a "level-1" group
  // (precomputed in group_parents_).  A group none of whose deficit inputs
  // moved since it last found every server covered still plans nothing.
  const auto& tree = cluster_.tree();
  // In-flight outbound demand is already leaving: plan only the rest.
  const auto short_by = [&](NodeId c) {
    return tree.node(c).active()
               ? reported_deficit(tree.node(c)) -
                     Watts{outbound_in_flight_w_[c]}
               : Watts{0.0};
  };
  std::vector<DemandGroup> groups;
  for (NodeId g : group_parents_) {
    const auto& kids = server_children_[g];
    if (config_.incremental && !plan_marked_[g]) {
      if (config_.shadow_diff) {
        shadow_verdict(std::any_of(kids.begin(), kids.end(),
                                   [&](NodeId c) {
                                     return short_by(c).value() > kEps;
                                   }),
                       "demand planning skipped a group with a deficit", g);
      }
      continue;
    }
    plan_marked_[g] = 0;
    std::vector<PlanItem> items;
    for (NodeId c : kids) {
      const Watts deficit = short_by(c);
      if (deficit.value() > kEps) {
        plan_marked_[g] = 1;  // still short: plan it again next tick
        // Attribute the move to what tightened this server's budget: the
        // per-ΔD thermal clamp if it fired here, else the supply division.
        const obs::Reason reason = clamped_at_[c] == tick_
                                       ? obs::Reason::kThermal
                                       : obs::Reason::kSupplyDeficit;
        auto victims = select_victims(c, deficit + config_.margin,
                                      MigrationCause::kDemand, reason);
        items.insert(items.end(), victims.begin(), victims.end());
      }
    }
    if (!items.empty()) groups.push_back({g, std::move(items)});
  }
  return groups;
}

std::vector<Controller::PlanItem> Controller::place_demand(
    std::vector<DemandGroup>& groups) {
  const auto& tree = cluster_.tree();
  const NodeId root = tree.root();
  auto& targets = pack_buf_.targets;
  std::vector<PlanItem> pending;
  if (!config_.prefer_local) {
    // Ablation: no locality preference — one global matching at the root.
    for (auto& grp : groups) {
      pending.insert(pending.end(), grp.items.begin(), grp.items.end());
    }
    collect_targets(root, hier::kNoNode, targets);
    pack_and_apply(pending, targets);
    return pending;
  }
  // Local pass: match each group's deficits against its own surpluses.
  for (auto& grp : groups) {
    targets.clear();
    for (NodeId c : server_children_[grp.parent]) {
      if (tree.node(c).active() && eligible_target(c, grp.parent)) {
        targets.push_back(c);
      }
    }
    pack_and_apply(grp.items, targets);
    pending.insert(pending.end(), grp.items.begin(), grp.items.end());
  }
  // Escalation: climb the hierarchy; at each internal node try the servers
  // of the whole subtree (the local pass already exhausted same-group
  // surpluses, so placements here are effectively non-local).
  for (NodeId p : internal_bottom_up_) {
    if (pending.empty()) break;
    if (is_group_parent_[p] && p != root) continue;  // local pass done
    std::vector<PlanItem> in_scope;
    std::vector<PlanItem> out_of_scope;
    for (auto& item : pending) {
      (tree.is_ancestor(p, item.source) ? in_scope : out_of_scope)
          .push_back(item);
    }
    if (in_scope.empty()) continue;
    collect_targets(p, hier::kNoNode, targets);
    pack_and_apply(in_scope, targets);
    pending = std::move(out_of_scope);
    pending.insert(pending.end(), in_scope.begin(), in_scope.end());
  }
  return pending;
}

void Controller::wake_for(std::vector<PlanItem>& pending) {
  const auto& tree = cluster_.tree();
  // Largest capacity first; explicit id tie-break keeps the order a pure
  // function of the inputs.  The pool is a heap popped only as far as the
  // batches reach (most ticks wake a handful out of thousands), over hard
  // limits snapshotted now: unless a supply pass already ran this tick, the
  // first batch's pass refreshes the sleepers' limits, and the order must
  // not see that.
  auto& sleepers = sleeper_heap_;
  sleepers.clear();
  const auto& sids = cluster_.server_ids();
  for (std::size_t i = 0; i < sids.size(); ++i) {
    if (cluster_.server_at(i).asleep()) {
      sleepers.emplace_back(tree.node(sids[i]).hard_limit().value(), sids[i]);
    }
  }
  // Heap "less": `a` wakes after `b`.  A strict total order (ids are
  // unique), so the pop sequence is the fully sorted order.
  const auto wakes_later = [](const std::pair<double, NodeId>& a,
                              const std::pair<double, NodeId>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::make_heap(sleepers.begin(), sleepers.end(), wakes_later);
  // Wake in geometric batches (1, 2, 4, ...) with ONE supply re-division
  // per batch.  The per-wake re-division this replaces was O(fleet):
  // waking W servers cost W full budget divisions, and under sustained
  // churn the loop could drain a ~50k-server sleep pool chasing leftover
  // demand that fits nowhere, turning one tick into minutes of wasted
  // divisions.  Batching keeps wakes need-driven (a batch doubles only
  // after the previous batch absorbed something) while bounding division
  // work to O(log wakes) per tick, and the absorbed-nothing stop cuts the
  // pathological case to a single wasted wake: capacity that hosts no
  // leftover demand is capacity consolidation just has to re-sleep.
  const auto& root_node = tree.node(tree.root());
  std::size_t batch = 1;
  std::vector<NodeId> batch_nodes;
  while (!pending.empty() && !sleepers.empty()) {
    // Headroom a wake could tap: budget the children could not absorb plus
    // raw supply beyond the active-capacity cap on the root budget.
    const Watts headroom =
        root_unallocated_ +
        util::positive_part(last_supply_ - root_node.budget());
    if (headroom.value() <= config_.margin.value()) break;
    batch_nodes.clear();
    const std::size_t take = std::min(batch, sleepers.size());
    for (std::size_t i = 0; i < take; ++i) {
      std::pop_heap(sleepers.begin(), sleepers.end(), wakes_later);
      const NodeId s = sleepers.back().second;
      sleepers.pop_back();
      cluster_.wake_server(s);
      note_availability_change(s);
      ++stats_.wakes;
      emit(obs::EventType::kWake, s, hier::kNoNode, 0,
           obs::Reason::kSupplyDeficit);
      batch_nodes.push_back(s);
    }
    // Re-divide the same supply with the whole batch participating.
    supply_adaptation(last_supply_);
    if (pack_and_apply(pending, batch_nodes) == 0) {
      break;  // more capacity is not absorbing anything
    }
    batch *= 2;
  }
}

void Controller::shed_leftovers(std::vector<PlanItem>& pending) {
  auto& tree = cluster_.tree();
  // Sources that still have unplaceable demand.
  std::vector<NodeId> sources;
  for (const auto& item : pending) {
    if (std::find(sources.begin(), sources.end(), item.source) ==
        sources.end()) {
      sources.push_back(item.source);
    }
  }
  for (NodeId source : sources) {
    // Remaining need: the observed deficit minus what migrations already
    // moved (or are moving) off this server.
    double need = reported_deficit(tree.node(source)).value() -
                  migrated_from_w_[source] - outbound_in_flight_w_[source];
    if (need <= kEps) continue;

    // Shed candidates: every running application on the source, lowest
    // priority first; within a priority, biggest release first (fewest
    // applications touched), app id breaking exact ties.
    auto& apps = shed_scratch_;
    apps.clear();
    for (auto& a : cluster_.server(source).apps()) {
      if (a.dropped()) continue;
      if (apps_in_flight_.contains(a.id())) continue;  // mid-transfer
      apps.push_back(&a);
    }
    std::stable_sort(apps.begin(), apps.end(),
                     [](const Application* a, const Application* b) {
                       if (a->priority() != b->priority()) {
                         return a->priority() > b->priority();
                       }
                       if (a->demand().value() != b->demand().value()) {
                         return a->demand() > b->demand();
                       }
                       return a->id() < b->id();
                     });

    bool mutated = false;
    double shed = 0.0;
    if (config_.shedding == SheddingPolicy::kDegradeThenDrop) {
      // Pass 1: degrade to the reduced service level.
      for (Application* app : apps) {
        if (shed >= need - kEps) break;
        if (app->service_level() <= config_.degraded_service_level + kEps) {
          continue;
        }
        const double released =
            app->demand().value() *
            (1.0 - config_.degraded_service_level / app->service_level());
        // Degradation takes effect immediately: the live demand shrinks too,
        // so a later drop of the same app only releases the remainder.
        app->set_demand(app->demand() - Watts{released});
        app->set_service_level(config_.degraded_service_level);
        mutated = true;
        ++stats_.degrades;
        stats_.degraded_demand += Watts{released};
        shed += released;
        emit(obs::EventType::kDegrade, source, hier::kNoNode, app->id(),
             obs::Reason::kShedding, released);
      }
    }
    // Pass 2: drop whole applications for what degradation did not cover.
    for (Application* app : apps) {
      if (shed >= need - kEps) break;
      if (app->dropped()) continue;
      const double released = app->demand().value();
      app->set_dropped(true);
      mutated = true;
      ++stats_.drops;
      stats_.dropped_demand += Watts{released};
      shed += released;
      emit(obs::EventType::kDrop, source, hier::kNoNode, app->id(),
           obs::Reason::kShedding, released);
    }
    if (mutated) {
      // Dropping/degrading changed the server's live demand out from under
      // the cached per-server application sum.
      cluster_.invalidate_app_demand(source);
      touch();
    }
  }
}

// ---- consolidation (Sec. IV-C, IV-E) ----------------------------------------
//
// One ΔA pass judges every server, then drains the below-threshold candidates
// in one deterministic sweep: each candidate's apps must all find a berth,
// within its parent group first and fleet-wide otherwise, or the server stays
// up.  Fleet-scope verdicts come from a point-updated capacity index
// (fast_root_pack), and a candidate whose fleet-scope failure still stands
// is skipped outright (root_fail_cached).

void Controller::consolidate() {
  consol_tally_ = {};
  timed(kPhaseJudge, [&] { judge_consol_candidates(); });
  consol_index_built_ = false;
  timed(kPhaseDrain, [&] {
    for (const ConsolCandidate& c : consol_order_) drain_candidate(c.server);
  });
  if (c_consol_candidates_ != nullptr) {
    const ConsolTally& t = consol_tally_;
    c_packings_reused_->increment(t.cache_served);
    c_consol_candidates_->increment(t.candidates);
    c_consol_drained_->increment(t.drained);
    c_consol_cache_served_->increment(t.cache_served);
    c_consol_batched_->increment(t.batched);
    c_index_point_updates_->increment(t.index_updates);
  }
}

void Controller::judge_consol_candidates() {
  const auto& tree = cluster_.tree();
  const bool thermal_ref = config_.utilization_reference ==
                           UtilizationReference::kThermalSustainable;
  const auto& sids = cluster_.server_ids();
  const std::size_t count = sids.size();
  // A server's sustainable dynamic envelope.  Under the thermal reference,
  // utilization is judged against the fleet's best envelope so a hot-zone
  // server with modest load still qualifies, and thermally weakest servers
  // drain first — "Willow tries to move as much work away from these servers
  // as possible due to their high temperatures" (Sec. V-B3, Fig. 7).
  auto envelope = [&](std::size_t i) {
    const auto& srv = cluster_.server_at(i);
    return (srv.thermal().steady_state_power_limit() - srv.idle_floor())
        .value();
  };
  double fleet_envelope = 0.0;
  if (thermal_ref) {
    for (std::size_t i = 0; i < count; ++i) {
      fleet_envelope = std::max(fleet_envelope, envelope(i));
    }
  }
  // Candidates: active servers whose *demand-based* utilization sits below
  // the threshold (budget starvation must not masquerade as idleness).
  consol_order_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const auto& leaf = tree.node(sids[i]);
    if (leaf.active() && reported_deficit(leaf).value() <= kEps) {
      const auto& srv = cluster_.server_at(i);
      const Watts dynamic =
          util::positive_part(leaf.reported_demand() - srv.idle_floor());
      const double range = thermal_ref
                               ? fleet_envelope
                               : srv.power_model().dynamic_range().value();
      const double u = range > 0.0 ? dynamic.value() / range : 0.0;
      if (u < config_.consolidation_threshold) {
        consol_order_.push_back(
            {static_cast<std::uint32_t>(i), u, envelope(i)});
      }
    }
  }
  // The kEps-banded envelope comparison is not a strict weak order, so the
  // result depends on the input order as well as the comparator: the list
  // is always built in ascending server index and sorted stably.
  std::stable_sort(consol_order_.begin(), consol_order_.end(),
                   [&](const ConsolCandidate& a, const ConsolCandidate& b) {
                     if (thermal_ref &&
                         std::abs(a.envelope - b.envelope) > kEps) {
                       return a.envelope < b.envelope;  // hottest first
                     }
                     if (a.utilization != b.utilization) {
                       return a.utilization < b.utilization;
                     }
                     return a.server < b.server;  // explicit tie-break
                   });
}

bool Controller::drain_blocked(std::uint32_t server_index) const {
  const NodeId s = cluster_.server_ids()[server_index];
  if (targeted_at_[s] == tick_) return true;
  // Latency mode: leave servers with transfers in either direction alone
  // until the dust settles.
  if (reserved_in_w_[s] > kEps || outbound_in_flight_w_[s] > kEps) return true;
  for (const auto& a : cluster_.server_at(server_index).apps()) {
    if (apps_in_flight_.contains(a.id())) return true;
  }
  return false;
}

std::uint64_t Controller::consol_items(std::uint32_t server_index,
                                       std::vector<PlanItem>& items) const {
  // All-or-nothing: every hosted app (even dropped ones — a sleeping host
  // cannot retain VMs) must find a berth.  The signature fingerprints what
  // would be drained: the packing outcome depends on each hosted app's
  // identity and live demand, which churn can change without moving the
  // reported aggregate (sums can collide bitwise).
  const NodeId s = cluster_.server_ids()[server_index];
  std::uint64_t sig = kFnvOffset;
  items.clear();
  for (const auto& a : cluster_.server_at(server_index).apps()) {
    const Watts demand = a.dropped() ? Watts{0.0} : a.demand();
    sig = fnv1a(sig, a.id());
    sig = fnv1a(sig, bits_of(demand.value()));
    items.push_back({a.id(), s, demand + config_.migration_cost, demand,
                     MigrationCause::kConsolidation,
                     obs::Reason::kConsolidation});
  }
  return sig;
}

bool Controller::root_fail_cached(std::uint32_t server_index,
                                  std::uint64_t sig) const {
  const ConsolFail& f = consol_fail_root_[server_index];
  return config_.incremental && f.valid &&
         f.epoch == change_epoch_ && f.item_sig == sig;
}

void Controller::drain_candidate(std::uint32_t ci) {
  const auto& tree = cluster_.tree();
  const NodeId root = tree.root();
  const NodeId s = cluster_.server_ids()[ci];
  if (drain_blocked(ci)) return;
  ++consol_tally_.candidates;
  const auto& srv = cluster_.server_at(ci);
  if (srv.apps().empty()) {
    put_to_sleep(s);
    ++consol_tally_.drained;
    return;
  }

  const std::uint64_t sig = consol_items(ci, consol_items_);
  const std::vector<PlanItem>& items = consol_items_;
  const bool cached_root_fail = root_fail_cached(ci, sig);
  if (cached_root_fail && !config_.shadow_diff) {
    // Nothing anywhere in the tree changed since this candidate last failed
    // to drain at fleet scope: it fails again.
    ++consol_tally_.cache_served;
    return;
  }

  const NodeId scope = config_.prefer_local ? tree.node(s).parent() : root;
  bool placed_all = run_scope(s, items, scope);
  if (!placed_all && scope != root) placed_all = run_scope(s, items, root);
  if (!placed_all) {
    consol_fail_root_[ci] = {change_epoch_, sig, true};
    if (cached_root_fail) shadow_verdict(false, "");  // verdict held
    return;
  }
  // Shadow mode re-ran a cached fleet-scope failure: it must fail again.
  if (cached_root_fail) {
    shadow_verdict(true, "cached root consolidation failure now succeeds", s);
  }
  for (const auto& [item_idx, tgt] : fast_assign_scratch_) {
    apply_migration(items[item_idx], tgt);
    consol_index_update(tgt);  // capacity shrank; no-op if index not built
  }
  ++consol_tally_.drained;
  // Latency mode: the VMs may still be transferring; the server then sleeps
  // at a later ΔA once it is empty (the in-flight guard keeps it untouched
  // until then).
  if (srv.apps().empty()) put_to_sleep(s);
}

bool Controller::run_scope(NodeId candidate,
                           const std::vector<PlanItem>& items, NodeId scope) {
  // Only FFDLR runs over the capacity index; other packers take the dry run.
  if (config_.incremental && config_.packing == binpack::Algorithm::kFfdlr &&
      scope == cluster_.tree().root()) {
    const bool verdict = fast_root_pack(candidate, items);
    ++consol_tally_.batched;
    if (config_.shadow_diff) {
      shadow_check_fast_root_pack(candidate, items, verdict);
    }
    return verdict;
  }
  return dry_run(candidate, items, scope, fast_assign_scratch_);
}

bool Controller::dry_run(NodeId candidate, const std::vector<PlanItem>& items,
                         NodeId scope, Assignment& plan) {
  auto& buf = pack_buf_;
  collect_targets(scope, candidate, buf.targets);
  to_pack_items(items, buf.items);
  make_bins(buf.targets, buf.bins, buf.bin_nodes);
  const binpack::PackResult result =
      binpack::pack(buf.items, buf.bins, config_.packing);
  plan.clear();
  for (const auto& a : result.assignments) {
    plan.emplace_back(a.item, buf.bin_nodes[a.bin]);
  }
  return result.all_placed();
}

void Controller::shadow_check_fast_root_pack(
    NodeId candidate, const std::vector<PlanItem>& items, bool verdict) {
  Assignment full;
  const bool placed_all =
      dry_run(candidate, items, cluster_.tree().root(), full);
  shadow_verdict(
      placed_all != verdict || (verdict && full != fast_assign_scratch_),
      "consolidation fast path diverged", candidate);
}

void Controller::build_consol_index() {
  // Without the index every fleet-scope dry run rescans all servers:
  // O(candidates × fleet) per consolidate.  Within one consolidate() call
  // target_capacity() and eligible_target() move only with the watts a
  // migration books on its target and the servers put to sleep, so one
  // (capacity, NodeId)-ordered index, point-updated after each apply, is
  // pack()'s real-bin order for every candidate (DESIGN.md §10).  Built
  // lazily, so a settled fleet (all verdicts cached) pays nothing.
  const auto& tree = cluster_.tree();
  const NodeId root = tree.root();
  const auto& sids = cluster_.server_ids();
  const std::size_t count = sids.size();
  // A sorted flat scratch feeds the set in O(n) (the range constructor is
  // linear on sorted input) instead of n rebalancing insertions.
  auto& flat = consol_index_build_scratch_;
  flat.clear();
  consol_cap_of_.assign(count, -1.0);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId t = sids[i];
    if (!tree.node(t).active() || !eligible_target(t, root)) continue;
    const double cap = target_capacity(t).value();
    if (cap > kEps) {
      flat.emplace_back(cap, t);
      consol_cap_of_[i] = cap;
    }
  }
  std::sort(flat.begin(), flat.end());
  consol_cap_index_ = binpack::CapacityIndex(flat.begin(), flat.end());
  consol_index_built_ = true;
}

void Controller::consol_index_erase(NodeId target) {
  if (!consol_index_built_) return;
  const std::uint32_t slot = cluster_.slot_of(target);
  const double key = consol_cap_of_[slot];
  if (key < 0.0) return;
  consol_cap_index_.erase(std::pair<double, NodeId>{key, target});
  consol_cap_of_[slot] = -1.0;
  ++consol_tally_.index_updates;
}

void Controller::consol_index_update(NodeId target) {
  if (!consol_index_built_) return;
  consol_index_erase(target);
  const auto& tree = cluster_.tree();
  if (!tree.node(target).active() || !eligible_target(target, tree.root())) {
    return;
  }
  const double cap = target_capacity(target).value();
  if (cap <= kEps) return;
  consol_cap_index_.insert(std::pair<double, NodeId>{cap, target});
  consol_cap_of_[cluster_.slot_of(target)] = cap;
  ++consol_tally_.index_updates;
}

void Controller::put_to_sleep(NodeId server) {
  auto& tree = cluster_.tree();
  consol_index_erase(server);
  cluster_.sleep_server(server);
  // Zeroed outside the distributor's bookkeeping.
  tree.node(server).set_budget(Watts{0.0});
  note_availability_change(server);
  ++stats_.sleeps;
  emit(obs::EventType::kSleep, server, hier::kNoNode, 0,
       obs::Reason::kConsolidation);
}

bool Controller::fast_root_pack(NodeId candidate,
                                const std::vector<PlanItem>& items) {
  // pack(kFfdlr) over the shared index instead of all fleet bins rebuilt
  // per candidate; the candidate is the bin to skip.
  if (!consol_index_built_) build_consol_index();
  to_pack_items(items, pack_buf_.items);
  const bool placed_all = binpack::ffdlr(pack_buf_.items, consol_cap_index_,
                                         candidate, fast_plan_);
  fast_assign_scratch_.clear();
  for (const auto& a : fast_plan_.assignments) {
    fast_assign_scratch_.emplace_back(a.item, static_cast<NodeId>(a.bin));
  }
  return placed_all;
}

void Controller::revive_dropped() {
  if (revival_idle()) return;
  const auto& tree = cluster_.tree();
  for (NodeId s : cluster_.server_ids()) {
    const auto& leaf = tree.node(s);
    if (!leaf.active()) continue;
    // The unidirectional rule applied to admission: do not bring workload
    // back under any node whose budget was just reduced.
    bool reduced_path = false;
    if (config_.enforce_unidirectional) {
      for (NodeId cur = s; cur != hier::kNoNode && !reduced_path;
           cur = tree.node(cur).parent()) {
        reduced_path = budget_reduced_[cur];
      }
    }
    if (reduced_path) continue;
    Watts headroom =
        reported_surplus(leaf) - config_.margin - Watts{absorbed_w_[s]};
    if (headroom.value() <= kEps) continue;
    revive_apps(s, headroom);
    restore_apps(s, headroom);
  }
}

bool Controller::revival_idle() {
  // Fleet-wide skip: the stats counters bound the number of currently
  // dropped (drops - revivals) and degraded (degrades - restores) apps from
  // above, so equal pairs mean the whole scan would be a no-op.
  // Conservative: an app churned away while dropped leaves its drop
  // unmatched forever and the scan keeps running — still correct.
  if (!config_.incremental || stats_.drops != stats_.revivals ||
      stats_.degrades != stats_.restores) {
    return false;
  }
  if (config_.shadow_diff) {
    bool mismatch = false;
    for (std::size_t i = 0; i < cluster_.server_count() && !mismatch; ++i) {
      for (const auto& a : cluster_.server_at(i).apps()) {
        if (a.dropped() || a.degraded()) {
          mismatch = true;
          break;
        }
      }
    }
    shadow_verdict(mismatch,
                   "revive scan skipped while dropped or degraded "
                   "applications exist");
  }
  return true;
}

void Controller::revive_apps(NodeId server, Watts& headroom) {
  // Highest priority first, then cheapest, then app id.  A revived app
  // returns at its current service level.
  std::vector<Application*> dropped;
  for (auto& a : cluster_.server(server).apps()) {
    if (a.dropped()) dropped.push_back(&a);
  }
  std::stable_sort(dropped.begin(), dropped.end(),
                   [](const Application* a, const Application* b) {
                     if (a->priority() != b->priority()) {
                       return a->priority() < b->priority();
                     }
                     if (a->effective_mean_power().value() !=
                         b->effective_mean_power().value()) {
                       return a->effective_mean_power() <
                              b->effective_mean_power();
                     }
                     return a->id() < b->id();
                   });
  bool revived_any = false;
  for (Application* a : dropped) {
    if (a->effective_mean_power() <= headroom) {
      a->set_dropped(false);
      revived_any = true;
      headroom -= a->effective_mean_power();
      ++stats_.revivals;
      emit(obs::EventType::kRevive, server, hier::kNoNode, a->id(),
           obs::Reason::kNone, a->effective_mean_power().value());
    }
  }
  if (revived_any) {
    // A revived app re-enters the live-demand sum immediately.
    cluster_.invalidate_app_demand(server);
    touch();
  }
}

void Controller::restore_apps(NodeId server, Watts& headroom) {
  // Highest priority first, then cheapest upgrade, then app id.
  std::vector<Application*> degraded;
  for (auto& a : cluster_.server(server).apps()) {
    if (!a.dropped() && a.degraded()) degraded.push_back(&a);
  }
  std::stable_sort(degraded.begin(), degraded.end(),
                   [](const Application* a, const Application* b) {
                     if (a->priority() != b->priority()) {
                       return a->priority() < b->priority();
                     }
                     const Watts ga =
                         a->mean_power() - a->effective_mean_power();
                     const Watts gb =
                         b->mean_power() - b->effective_mean_power();
                     if (ga.value() != gb.value()) return ga < gb;
                     return a->id() < b->id();
                   });
  bool restored_any = false;
  for (Application* a : degraded) {
    const Watts gain = a->mean_power() - a->effective_mean_power();
    if (gain <= headroom) {
      a->set_service_level(1.0);
      restored_any = true;
      headroom -= gain;
      ++stats_.restores;
      emit(obs::EventType::kRestore, server, hier::kNoNode, a->id(),
           obs::Reason::kNone, gain.value());
    }
  }
  if (restored_any) {
    // The restored level changes the next demand draw's mean; count it so
    // consolidation re-judges it alongside that draw.
    touch();
  }
}

}  // namespace willow::core
