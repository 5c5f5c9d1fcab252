package plan

import (
	"encoding/json"

	"autoscale/internal/obs"
	"autoscale/internal/serve"
)

// AdminView is the planner's admin contribution: the /plan document (latest
// decision plus per-class SLO attainment) and the autoscale_plan_* series.
// Read-side only.
func (p *Planner) AdminView() serve.View {
	return serve.View{Path: "/plan", Prom: p.AppendProm, JSON: func() ([]byte, error) {
		return json.MarshalIndent(p.Status(), "", "  ")
	}}
}

// AppendProm appends the planner's own series.
func (p *Planner) AppendProm(pr *obs.Prom) {
	st := p.Status()
	d := st.Decision
	pr.Counter("autoscale_plan_generation", "Plan recomputes since the planner was built.", float64(d.Generation))
	pr.Gauge("autoscale_plan_active_lanes", "Active worker lanes the plan applied.", float64(d.ActiveLanes))
	pr.Gauge("autoscale_plan_total_lanes", "Worker lanes available across healthy shards.", float64(d.TotalLanes))
	pr.Gauge("autoscale_plan_budget", "Global in-flight budget the plan applied.", float64(d.Budget))
	pr.Gauge("autoscale_plan_total_arrival_rate_hz", "EWMA-estimated offered arrival rate, all classes.", d.TotalRateHz)
	pr.Gauge("autoscale_plan_service_seconds", "EWMA-estimated mean service time per request.", d.ServiceS)
	pr.Gauge("autoscale_plan_surge_factor", "Peak scheduled load multiplier in the lookahead window.", d.SurgeFactor)
	pr.Gauge("autoscale_plan_predicted_wait_seconds", "M/M/c predicted mean queueing delay (-1 when unstable).", d.PredictedWaitS)
	pr.Gauge("autoscale_plan_predicted_occupancy", "M/M/c predicted per-lane occupancy (capped at 1).", d.PredictedOccupancy)
	pr.Gauge("autoscale_plan_measured_occupancy", "Measured busy-seconds per active-lane-second last window.", d.MeasuredOccupancy)
	pr.Gauge("autoscale_plan_calibration_error", "Relative gap between predicted and measured occupancy.", d.CalibrationError)
	for _, c := range st.Classes {
		pr.Gauge("autoscale_plan_arrival_rate_hz", "EWMA-estimated offered arrival rate per class.", d.RateHz[c.Name], "class", c.Name)
		pr.Gauge("autoscale_plan_class_target_p95_seconds", "Configured p95 virtual response-time target.", c.TargetP95S, "class", c.Name)
		pr.Gauge("autoscale_plan_class_achieved_p95_seconds", "Measured p95 virtual response time.", c.AchievedP95S, "class", c.Name)
		pr.Gauge("autoscale_plan_class_attained", "1 when achieved p95 meets the target.", boolGauge(c.Attained), "class", c.Name)
		pr.Gauge("autoscale_plan_class_max_queue_seconds", "Admission-gate backlog bound per class.", c.MaxQueueS, "class", c.Name)
		pr.Gauge("autoscale_plan_class_queue_depth", "Router queue bound the plan applied per class.", float64(c.Depth), "class", c.Name)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
