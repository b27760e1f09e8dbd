package metasched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Policy names a queue-ordering discipline for the admission queue.
type Policy string

const (
	// PolicyFIFO admits strictly in submission order; the head of the line
	// blocks everything behind it.
	PolicyFIFO Policy = "fifo"
	// PolicyPriority orders the queue by effective priority (bid against
	// the posted spot price); the highest-priority job blocks the rest.
	PolicyPriority Policy = "priority"
	// PolicyBackfill is PolicyPriority with EASY backfill: while the head
	// waits for its nodes, smaller jobs may jump ahead if they fit now and
	// do not delay the head's reservation.
	PolicyBackfill Policy = "priority-backfill"
)

// Policies lists every known policy in a stable order.
func Policies() []Policy { return []Policy{PolicyFIFO, PolicyPriority, PolicyBackfill} }

// ParsePolicy validates a policy name.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("metasched: unknown queue policy %q (want fifo, priority or priority-backfill)", s)
}

// queueKey is one queued job's admission-order key. The round computes it
// once per job: the effective priority under the round's posted price (0
// under FIFO), the queue-entry time and the ID.
type queueKey struct {
	prio float64
	enq  float64
	id   int
	job  *Job
}

// compareKeys orders keys by descending priority, then entry time, then
// ID. Bids are finite and IDs unique, so this is a total order and any sort
// yields the same admission order.
func compareKeys(a, b queueKey) int {
	if a.prio != b.prio {
		if a.prio > b.prio {
			return -1
		}
		return 1
	}
	if a.enq != b.enq {
		if a.enq < b.enq {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// orderQueue returns the jobs in admission order under the policy, as keys
// written into keys (whose capacity is reused). FIFO orders by queue-entry
// time (ties by job ID); the priority policies order by descending
// effective priority, with entry time then ID breaking ties so equal bids
// degrade to FIFO. prio is called once per job.
func orderQueue(policy Policy, jobs []*Job, prio func(*Job) float64, keys []queueKey) []queueKey {
	keys = keys[:0]
	for _, j := range jobs {
		k := queueKey{enq: j.enqueuedAt, id: j.ID, job: j}
		if policy != PolicyFIFO {
			k.prio = prio(j)
		}
		keys = append(keys, k)
	}
	slices.SortStableFunc(keys, compareKeys)
	return keys
}

// compareQueued is the price-free order the admission queue is kept in:
// under the priority policies bid descending (non-positive bids count as
// 0), then queue-entry time, then ID; under FIFO only the last two. One
// positive price divides every bid, so the round's priced order differs
// from this one only where rounding makes quotients tie, and its sort
// starts from nearly sorted input.
func compareQueued(policy Policy, a, b *Job) int {
	if policy != PolicyFIFO {
		if c := cmp.Compare(max(b.Spec.Bid, 0), max(a.Spec.Bid, 0)); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(a.enqueuedAt, b.enqueuedAt); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// backfillWindow computes the EASY reservation for the blocked head job:
// the shadow time at which, per the running jobs' runtime estimates, enough
// nodes will have come free for the head (headNeed nodes), and the extra
// nodes beyond the head's need available at that time. A backfilled job is
// safe if it either finishes before the shadow time or fits within the
// extra nodes. When the estimates never free enough nodes the window is
// unbounded (the reservation cannot be computed, so backfill is
// unrestricted — matching EASY's behavior of only reserving for a
// satisfiable head).
func backfillWindow(now float64, free int, headNeed int, running []*Job) (shadow float64, extra int) {
	if free >= headNeed {
		return now, free - headNeed
	}
	type release struct {
		at    float64
		width int
	}
	rel := make([]release, 0, len(running))
	for _, j := range running {
		if j.lease == nil || j.lease.Size() == 0 {
			continue
		}
		at := j.startAt + j.Spec.EstRuntime
		if at < now {
			at = now
		}
		rel = append(rel, release{at: at, width: j.lease.Size()})
	}
	slices.SortStableFunc(rel, func(a, b release) int { return cmp.Compare(a.at, b.at) })
	avail := free
	for _, r := range rel {
		avail += r.width
		if avail >= headNeed {
			return r.at, avail - headNeed
		}
	}
	return math.Inf(1), math.MaxInt32
}
