// Package cop defines the Configurable Object Program abstraction of
// Figure 1: an application encapsulated with its mapper (which decides how
// to map the application onto a set of resources) and its executable
// performance model (which estimates performance on a set of resources).
// The application manager, scheduler and rescheduler all drive applications
// exclusively through these interfaces.
package cop

import (
	"slices"
	"sort"
	"strings"

	"grads/internal/binder"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// Mapper determines how to map an application's tasks to a set of
// resources: given the available pool it selects and orders the nodes the
// application should run on.
//
// Two contracts let the metascheduler broker many jobs over one free pool
// cheaply. Map returns a subset of pool (no node twice), so a pool smaller
// than a job's required width can be skipped without mapping. And
// implementations must be comparable values whose Map result depends only
// on the value, the pool and avail: the broker keys a per-round placement
// memo by the mapper, so jobs of the same shape are mapped once per pool.
type Mapper interface {
	Map(pool []*topology.Node, avail func(*topology.Node) float64) []*topology.Node
}

// PerformanceModel estimates the application's execution behavior on a
// resource set. It doubles as the rescheduler's Estimator.
type PerformanceModel interface {
	// RemainingTime predicts the remaining execution time on nodes given
	// per-node availability forecasts.
	RemainingTime(nodes []*topology.Node, avail func(*topology.Node) float64) float64
	// CheckpointBytes is the migration data footprint.
	CheckpointBytes() float64
	// RestartOverhead is the fixed restart cost on new resources.
	RestartOverhead() float64
}

// RunReport summarizes one execution segment of an application.
type RunReport struct {
	// Stopped is true when the segment ended in an SRS checkpoint-and-stop
	// rather than completion.
	Stopped bool
	// Duration is the application execution time of the segment, excluding
	// checkpoint I/O.
	Duration float64
	// CkptWrite and CkptRead are checkpoint I/O times within the segment.
	CkptWrite float64
	CkptRead  float64
}

// Recoverable is implemented by COPs that can roll back to their last
// committed checkpoint after a node failure (the fault-tolerance capability
// the paper's conclusion previews for VGrADS).
type Recoverable interface {
	// Rollback resets in-memory progress to the last committed checkpoint
	// and reports whether checkpoint data exists to restore from.
	Rollback() bool
}

// COP is a configurable object program: application code plus mapper plus
// performance model (Figure 1).
type COP interface {
	Name() string
	// Pkg is the compilation package the binder tailors per node.
	Pkg() binder.Package
	Mapper() Mapper
	Model() PerformanceModel
	// Run executes the application (one segment) on the bound nodes from
	// the calling simulated process. restart marks a post-migration
	// segment, which begins by reading checkpoints.
	Run(p *simcore.Proc, nodes []*topology.Node, restart bool) (RunReport, error)
}

// GreedyMapper selects the width fastest nodes by forecast effective speed,
// breaking ties by name; with SameSite it restricts the choice to the
// single best site (tightly coupled MPI applications).
type GreedyMapper struct {
	Width    int
	SameSite bool
}

// Map implements Mapper.
func (m GreedyMapper) Map(pool []*topology.Node, avail func(*topology.Node) float64) []*topology.Node {
	if len(pool) == 0 || m.Width <= 0 {
		return nil
	}
	// Each node's forecast effective speed is computed once; failed nodes
	// are never schedulable.
	alive := make([]rated, 0, len(pool))
	for _, n := range pool {
		if n.Down() {
			continue
		}
		a := 1.0
		if avail != nil {
			a = avail(n)
		}
		alive = append(alive, rated{node: n, speed: n.Spec.Flops() * a})
	}
	if !m.SameSite {
		return topFastest(alive, m.Width)
	}
	// Per site: aggregate lock-step rate of its best min(width, |site|)
	// nodes = count * slowest-selected speed.
	bySite := map[string][]rated{}
	for _, r := range alive {
		bySite[r.node.Site().Name] = append(bySite[r.node.Site().Name], r)
	}
	var bestSet []*topology.Node
	bestRate := -1.0
	// Deterministic site order.
	names := make([]string, 0, len(bySite))
	for s := range bySite {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		site := bySite[s]
		sortRated(site)
		if len(site) > m.Width {
			site = site[:m.Width]
		}
		rate := float64(len(site)) * site[len(site)-1].speed
		if rate > bestRate {
			bestRate, bestSet = rate, nodesOf(site)
		}
	}
	return bestSet
}

// rated is a node with its forecast effective speed.
type rated struct {
	node  *topology.Node
	speed float64
}

// topFastest returns up to k nodes sorted by descending speed (name-stable).
// It reorders rs.
func topFastest(rs []rated, k int) []*topology.Node {
	sortRated(rs)
	if len(rs) > k {
		rs = rs[:k]
	}
	return nodesOf(rs)
}

// sortRated orders nodes by descending speed, ties broken by name.
func sortRated(rs []rated) {
	slices.SortStableFunc(rs, func(a, b rated) int {
		if a.speed != b.speed {
			if a.speed > b.speed {
				return -1
			}
			return 1
		}
		return strings.Compare(a.node.Name(), b.node.Name())
	})
}

// nodesOf returns the nodes of rs in order (nil when rs is empty).
func nodesOf(rs []rated) []*topology.Node {
	if len(rs) == 0 {
		return nil
	}
	out := make([]*topology.Node, len(rs))
	for i, r := range rs {
		out[i] = r.node
	}
	return out
}
