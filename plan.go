package autoscale

import "autoscale/internal/plan"

// Model-driven capacity planning above the routing tier: deterministic
// arrival-rate/service-time estimation fed from the metrics plane, an
// Erlang-C (M/M/c) occupancy model calibrated against measured histograms,
// gold/silver/best-effort SLO classes, and a slow actuation loop that
// resizes worker pools, in-flight budgets and fairness weights through the
// router's narrow setters. See internal/plan for full documentation;
// Fleet.ProvisionPlanner is the one-call path from a trained donor to a
// planned fleet.
type (
	// Planner closes the slow capacity loop over a Router.
	Planner = plan.Planner
	// PlannerConfig tunes estimation, model targets and actuation clamps.
	PlannerConfig = plan.Config
	// SLOClass is one service tier: latency target, fairness weight and
	// admission gate (the gate, not the target, decides shed priority).
	SLOClass = plan.Class
)

// DefaultSLOClasses returns the stock gold/silver/best-effort tiers.
func DefaultSLOClasses() []SLOClass { return plan.DefaultClasses() }

// ParseSLOClasses parses a "name:target[:weight[:maxqueue]];..." spec, the
// same grammar the autoscale-serve -slo-classes flag accepts.
func ParseSLOClasses(spec string) ([]SLOClass, error) { return plan.ParseClasses(spec) }

// SLOTenants maps SLO classes onto router fairness tenants (one per class,
// weighted by the class weight). RouterConfig.Tenants must include these for
// NewPlanner to accept the router.
func SLOTenants(classes []SLOClass) []RouterTenant { return plan.Tenants(classes) }

// NewPlanner wires a capacity planner over a running router. The planner
// applies each class's fairness weight and admission gate immediately, then
// recomputes capacity on every MaybeTick interval boundary.
func NewPlanner(rt *Router, cfg PlannerConfig) (*Planner, error) { return plan.New(rt, cfg) }
