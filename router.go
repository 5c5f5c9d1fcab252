package autoscale

import (
	"autoscale/internal/router"
	"autoscale/internal/serve"
)

// Cluster-scale routing tier: a sharded multi-gateway fleet behind one front
// door, with consistent-hash device placement, cross-shard admission and
// backpressure, per-tenant weighted fairness, and shard lifecycle (crash
// drills, draining, checkpoint-warm re-homing). See internal/router for full
// documentation; Fleet.ProvisionRouter is the one-call path from a trained
// donor to a sharded fleet accepting traffic.
type (
	// Router fronts a fleet of gateway shards.
	Router = router.Router
	// RouterConfig tunes tenants, the global in-flight budget, placement,
	// failover and the cross-shard learning plane.
	RouterConfig = router.Config
	// RouterShard names one gateway shard for the router.
	RouterShard = router.ShardGateway
	// RouterTenant is one weighted fairness class.
	RouterTenant = router.Tenant
	// RouterMetrics is a point-in-time copy of the routing tier's counters.
	RouterMetrics = router.RouterSnapshot
	// ShardStatus is one shard's row in the admin /shards document.
	ShardStatus = router.ShardStatus
	// TenantQueueStatus is one tenant's fairness-queue row in /shards.
	TenantQueueStatus = router.TenantQueueStatus
)

// Routing-tier sentinel errors.
var (
	// ErrShardDown marks a request bounced by a crashed shard (the router
	// fails it over to a survivor up to twice).
	ErrShardDown = serve.ErrShardDown
	// ErrUnknownTenant marks a request naming an unconfigured fairness class.
	ErrUnknownTenant = router.ErrUnknownTenant
	// ErrNoHealthyShard marks a request with no live shard left to serve it.
	ErrNoHealthyShard = router.ErrNoHealthyShard
)

// DefaultTenant is the catch-all fairness class for unclassified requests.
const DefaultTenant = router.DefaultTenant

// NewRouter starts the routing tier over already-built gateway shards.
// Fleet.ProvisionRouter builds the shards too.
func NewRouter(shards []RouterShard, cfg RouterConfig) (*Router, error) {
	return router.New(shards, cfg)
}
