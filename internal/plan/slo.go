package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"autoscale/internal/router"
)

// Class is one SLO tier: a router tenant with a latency target and a shed
// priority. The paper's scenarios treat all traffic alike; SLO classes are
// the scenario family a capacity plan exists for — gold pays for headroom,
// best-effort absorbs overload first.
type Class struct {
	// Name is the router tenant the class bills to.
	Name string
	// TargetP95S is the class's p95 virtual response-time target (vwait plus
	// execution latency, seconds) — what attainment is judged on.
	TargetP95S float64
	// Weight is the class's DRR fairness weight.
	Weight int
	// MaxQueueS is the class's admission gate: arrival-stamped requests are
	// shed while the estimated backlog exceeds it. Strictly larger bounds
	// for more-protected classes make overload shed in class order —
	// best-effort first, gold last — regardless of latency targets.
	MaxQueueS float64
}

func (c Class) validate() error {
	if c.Name == "" {
		return fmt.Errorf("plan: class with empty name")
	}
	if !positiveFinite(c.TargetP95S) {
		return fmt.Errorf("plan: class %q needs a positive, finite latency target", c.Name)
	}
	if c.Weight < 1 {
		return fmt.Errorf("plan: class %q needs weight >= 1", c.Name)
	}
	if !positiveFinite(c.MaxQueueS) {
		return fmt.Errorf("plan: class %q needs a positive, finite max-queue bound", c.Name)
	}
	return nil
}

// positiveFinite reports whether x is a usable bound: > 0, not +Inf, not NaN.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// DefaultClasses returns the canonical gold/silver/best-effort tiering:
// targets tighten and shed protection grows with the tier.
func DefaultClasses() []Class {
	return []Class{
		{Name: "gold", TargetP95S: 0.25, Weight: 4, MaxQueueS: 2.0},
		{Name: "silver", TargetP95S: 0.5, Weight: 2, MaxQueueS: 0.5},
		{Name: "best", TargetP95S: 1.0, Weight: 1, MaxQueueS: 0.1},
	}
}

// ParseClasses parses a CLI class spec: comma-separated
// "name:target[:weight[:maxqueue]]" entries, targets and queue bounds as Go
// durations (e.g. "gold:250ms:4:2s,silver:500ms:2,best:1s:1"). A missing
// weight defaults to 1. Missing queue bounds are derived from the listing
// order — each class's bound is 4x the next one's, 100ms for the last — so
// classes listed most-protected first shed strictly in reverse order. A spec
// long enough for that bound to overflow (514 or more classes without one)
// is rejected.
func ParseClasses(spec string) ([]Class, error) {
	parts := strings.Split(spec, ",")
	classes := make([]Class, 0, len(parts))
	missing := []int{}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("plan: class %q: want name:target[:weight[:maxqueue]]", part)
		}
		target, err := time.ParseDuration(fields[1])
		if err != nil || target <= 0 {
			return nil, fmt.Errorf("plan: class %q: bad target %q", fields[0], fields[1])
		}
		c := Class{Name: fields[0], TargetP95S: target.Seconds(), Weight: 1}
		if len(fields) >= 3 {
			w, err := strconv.Atoi(fields[2])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("plan: class %q: bad weight %q", fields[0], fields[2])
			}
			c.Weight = w
		}
		if len(fields) == 4 {
			mq, err := time.ParseDuration(fields[3])
			if err != nil || mq <= 0 {
				return nil, fmt.Errorf("plan: class %q: bad maxqueue %q", fields[0], fields[3])
			}
			c.MaxQueueS = mq.Seconds()
		} else {
			missing = append(missing, len(classes))
		}
		classes = append(classes, c)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("plan: empty class spec %q", spec)
	}
	for _, idx := range missing {
		classes[idx].MaxQueueS = 0.1 * math4pow(len(classes)-1-idx)
	}
	seen := map[string]bool{}
	for _, c := range classes {
		if seen[c.Name] {
			return nil, fmt.Errorf("plan: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	return classes, nil
}

// math4pow returns 4^n for small non-negative n.
func math4pow(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 4
	}
	return out
}

// Tenants maps the classes to router fairness tenants, so a planned router
// can be provisioned in one call.
func Tenants(classes []Class) []router.Tenant {
	out := make([]router.Tenant, 0, len(classes))
	for _, c := range classes {
		out = append(out, router.Tenant{Name: c.Name, Weight: c.Weight})
	}
	return out
}
