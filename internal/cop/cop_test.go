package cop

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"grads/internal/simcore"
	"grads/internal/topology"
)

func grid() *topology.Grid {
	sim := simcore.New(1)
	g := topology.NewGrid(sim)
	g.AddSite("F", 1e8, 1e-4)
	g.AddSite("S", 1e8, 1e-4)
	g.Connect("F", "S", 1e6, 0.01)
	g.AddNode(topology.NodeSpec{Name: "f1", Site: "F", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "f2", Site: "F", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "s1", Site: "S", MHz: 400, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "s2", Site: "S", MHz: 400, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "s3", Site: "S", MHz: 400, FlopsPerCycle: 1})
	return g
}

func TestGreedyMapperTopFastest(t *testing.T) {
	g := grid()
	m := GreedyMapper{Width: 2}
	sel := m.Map(g.Nodes(), nil)
	if len(sel) != 2 || sel[0].Name() != "f1" || sel[1].Name() != "f2" {
		t.Fatalf("selected %v", names(sel))
	}
	if got := (GreedyMapper{Width: 0}).Map(g.Nodes(), nil); got != nil {
		t.Fatal("width 0 should select nothing")
	}
	if got := m.Map(nil, nil); got != nil {
		t.Fatal("empty pool should select nothing")
	}
}

func TestGreedyMapperSameSiteAggregateRate(t *testing.T) {
	g := grid()
	// Width 3: F offers 2x1e9 = 2e9; S offers 3x4e8 = 1.2e9 -> F wins.
	m := GreedyMapper{Width: 3, SameSite: true}
	sel := m.Map(g.Nodes(), nil)
	if len(sel) != 2 || sel[0].Site().Name != "F" {
		t.Fatalf("width 3 chose %v", names(sel))
	}
	// Width 5 still compares per-site: F 2e9 vs S 1.2e9 -> F.
	m.Width = 5
	sel = m.Map(g.Nodes(), nil)
	if sel[0].Site().Name != "F" {
		t.Fatalf("width 5 chose %v", names(sel))
	}
	// Load F: availability 0.2 -> F rate 2*2e8=4e8 < S 1.2e9 -> S wins.
	avail := func(n *topology.Node) float64 {
		if n.Site().Name == "F" {
			return 0.2
		}
		return 1
	}
	sel = m.Map(g.Nodes(), avail)
	if len(sel) != 3 || sel[0].Site().Name != "S" {
		t.Fatalf("loaded-F selection %v", names(sel))
	}
}

func names(ns []*topology.Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Name())
	}
	return out
}

// legacyMap is the reference GreedyMapper.Map: it calls avail inside every
// sort comparison instead of rating each node once.
func legacyMap(m GreedyMapper, pool []*topology.Node, avail func(*topology.Node) float64) []*topology.Node {
	if len(pool) == 0 || m.Width <= 0 {
		return nil
	}
	speed := func(n *topology.Node) float64 {
		a := 1.0
		if avail != nil {
			a = avail(n)
		}
		return n.Spec.Flops() * a
	}
	top := func(pool []*topology.Node) []*topology.Node {
		sel := append([]*topology.Node(nil), pool...)
		sort.SliceStable(sel, func(i, j int) bool {
			si, sj := speed(sel[i]), speed(sel[j])
			if si != sj {
				return si > sj
			}
			return sel[i].Name() < sel[j].Name()
		})
		if len(sel) > m.Width {
			sel = sel[:m.Width]
		}
		return sel
	}
	var alive []*topology.Node
	for _, n := range pool {
		if !n.Down() {
			alive = append(alive, n)
		}
	}
	if !m.SameSite {
		return top(alive)
	}
	bySite := map[string][]*topology.Node{}
	for _, n := range alive {
		bySite[n.Site().Name] = append(bySite[n.Site().Name], n)
	}
	names := make([]string, 0, len(bySite))
	for s := range bySite {
		names = append(names, s)
	}
	sort.Strings(names)
	var bestSet []*topology.Node
	bestRate := -1.0
	for _, s := range names {
		sel := top(bySite[s])
		if len(sel) == 0 {
			continue
		}
		if rate := float64(len(sel)) * speed(sel[len(sel)-1]); rate > bestRate {
			bestRate, bestSet = rate, sel
		}
	}
	return bestSet
}

// TestGreedyMapperMatchesLegacy: over random grids with tied speeds, down
// nodes, shuffled pools and both site modes, Map picks exactly the nodes,
// in exactly the order, that the per-comparison sort picked.
func TestGreedyMapperMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		sim := simcore.New(1)
		g := topology.NewGrid(sim)
		sites := 1 + rng.Intn(4)
		for s := 0; s < sites; s++ {
			g.AddSite(fmt.Sprintf("S%d", s), 1e8, 1e-4)
		}
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddNode(topology.NodeSpec{
				Name: fmt.Sprintf("n%02d", i), Site: fmt.Sprintf("S%d", rng.Intn(sites)),
				MHz: float64(400 * (1 + rng.Intn(3))), FlopsPerCycle: 1,
			})
		}
		pool := g.Nodes()
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		load := map[*topology.Node]float64{}
		for _, nd := range pool {
			nd.SetDown(rng.Intn(8) == 0)
			load[nd] = []float64{1, 0.5, 0.25}[rng.Intn(3)]
		}
		avail := func(nd *topology.Node) float64 { return load[nd] }
		if trial%4 == 0 {
			avail = nil
		}
		m := GreedyMapper{Width: rng.Intn(n + 2), SameSite: trial%2 == 1}
		got, want := m.Map(pool, avail), legacyMap(m, pool, avail)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("trial %d %+v: Map chose %v, legacy chose %v", trial, m, names(got), names(want))
		}
	}
}
