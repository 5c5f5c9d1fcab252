package router

import (
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over shard names: each shard contributes
// vnodes virtual points, and a device maps to the shard owning the first
// point at or clockwise after the device's hash. Lookups are allocation-free
// (an inlined FNV-1a plus a binary search), and the ring is immutable once
// built — shard lifecycle rebuilds it over the surviving set, which is what
// gives re-homing its minimal-movement property: devices on live shards keep
// their owners, only the dead shard's arc redistributes.
type ring struct {
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node.
type ringPoint struct {
	hash  uint32
	shard string
}

// fnv1a is the 32-bit FNV-1a hash, inlined so ring lookups never allocate.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// vnodes is the ring's virtual-node count per shard.
const vnodes = 64

// newRing builds the ring over the given shard names with vnodes virtual
// points each. An empty shard list yields an empty ring (lookup returns "").
func newRing(shards []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(shards)*vnodes)}
	for _, s := range shards {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(s + "#" + strconv.Itoa(i)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between vnodes are broken by name so the ring is
		// identical regardless of input order.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// lookup returns the shard owning key, or "" on an empty ring.
func (r *ring) lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv1a(key)
	// First point with hash >= h, wrapping to the ring's start.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return r.points[lo].shard
}

// loadBound is the bounded-load ceiling: no shard may own more than
// ceil(factor * devices / shards) devices. factor <= 1 degenerates to a
// perfectly even split ceiling.
func loadBound(factor float64, devices, shards int) int {
	if shards <= 0 {
		return 0
	}
	if factor < 1 {
		factor = 1
	}
	bound := int(factor * float64(devices) / float64(shards))
	if float64(bound) < factor*float64(devices)/float64(shards) {
		bound++
	}
	if bound < 1 {
		bound = 1
	}
	return bound
}

// placeDevices assigns each device a shard: consistent-hash placement first,
// overflowing to the least-loaded shard (fewest devices, name tiebreak) when
// the hash owner is already at the bounded-load ceiling. Devices are placed
// in sorted order so the assignment is a pure function of the inputs. counts
// carries pre-existing per-shard device loads (may be nil) and is updated in
// place.
func placeDevices(devices, shards []string, counts map[string]int, factor float64) map[string]string {
	if counts == nil {
		counts = make(map[string]int, len(shards))
	}
	sortedDevs := append([]string(nil), devices...)
	sort.Strings(sortedDevs)
	sortedShards := append([]string(nil), shards...)
	sort.Strings(sortedShards)
	r := newRing(sortedShards)

	total := len(sortedDevs)
	for _, s := range sortedShards {
		total += counts[s]
	}
	bound := loadBound(factor, total, len(sortedShards))

	homes := make(map[string]string, len(sortedDevs))
	for _, dev := range sortedDevs {
		target := r.lookup(dev)
		if target == "" {
			continue
		}
		if counts[target]+1 > bound {
			// Bounded-load overflow: spill to the least-loaded shard.
			least := ""
			for _, s := range sortedShards {
				if least == "" || counts[s] < counts[least] {
					least = s
				}
			}
			target = least
		}
		homes[dev] = target
		counts[target]++
	}
	return homes
}
