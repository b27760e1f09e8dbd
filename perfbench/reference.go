package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
)

// The benchmark host is shared, and what a CPU second buys on it depends
// on what other tenants do to the caches and the memory bus. On a 2-vCPU
// Xeon VM the same sched batch took between 1.24 and 2.73 CPU seconds
// within one minute, in phases seconds to minutes long. Timed between the
// batches, a register-only loop stayed flat while the memory-bound
// reference kernel below slowed by up to 2.1x in step with the batches.
// So every measured interval (a batch or a set-up) is normalised by the
// reference kernel timed right before and right after it:
//
//	cpu_s = interval CPU seconds × (refSeconds / mean reference CPU seconds)^e
//
// where e is the workload's memory sensitivity (refSensitivity): how much
// its batches slow, on a log scale, for a given slowdown of the reference
// kernel. cpu_s is then the interval's CPU time on a host where the
// reference kernel takes refSeconds, about what it takes on the quiet VM.
// The kernel uses the standard library only, so it is the same code in
// every revision of the program being measured.
const refSeconds = 0.065

// refSensitivity is each workload's memory sensitivity e, from the
// median batch CPU time and reference time of whole runs in quiet and in
// busy periods of that VM (when the reference took 0.065 s and about
// 0.125 s). The planners of sched and the network solver of scale slow
// as much as the reference kernel.
var refSensitivity = map[string]float64{
	"soak":  0.6,
	"sched": 1,
	"scale": 1,
	"serve": 0.75,
}

// refNodes sizes the reference kernel (a heap of about 20 MB at its peak).
const refNodes = 200_000

var refSink int

type refNode struct {
	next *refNode
	key  int
	name string
}

// reference runs the reference kernel on a collected heap and returns its
// CPU seconds: small allocations, map inserts, a sort and a pointer chase,
// the mix of the simulator's own hot paths.
func reference() float64 {
	runtime.GC()
	c0 := cpuSeconds()
	m := make(map[int]*refNode)
	var head *refNode
	for i := 0; i < refNodes; i++ {
		n := &refNode{next: head, key: (i * 7919) % 100_003, name: strconv.Itoa(i)}
		head = n
		m[n.key] = n
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	sum := len(keys)
	for n := head; n != nil; n = n.next {
		sum += len(n.name)
	}
	refSink += sum
	return cpuSeconds() - c0
}

// refTimer times the reference kernel between measured intervals.
type refTimer struct {
	e     float64 // the workload's memory sensitivity
	last  float64
	times []float64
}

func newRefTimer(workload string) *refTimer {
	t := &refTimer{e: refSensitivity[workload], last: reference()}
	t.times = append(t.times, t.last)
	return t
}

// scale times the reference kernel once more and returns the factor that
// normalises the interval since the previous timing.
func (t *refTimer) scale() float64 {
	next := reference()
	t.times = append(t.times, next)
	f := math.Pow(refSeconds/((t.last+next)/2), t.e)
	t.last = next
	return f
}
