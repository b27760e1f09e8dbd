package metasched

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"grads/internal/economy"
)

// resortQueue is the reference admission order: a fresh sort.SliceStable
// of the eligible jobs that calls prio inside every comparison. The round
// order must equal it after every admission.
func resortQueue(policy Policy, queued []*Job, prio func(*Job) float64) []*Job {
	order := append([]*Job(nil), queued...)
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if policy != PolicyFIFO {
			pa, pb := prio(a), prio(b)
			if pa != pb {
				return pa > pb
			}
		}
		if a.enqueuedAt != b.enqueuedAt {
			return a.enqueuedAt < b.enqueuedAt
		}
		return a.ID < b.ID
	})
	return order
}

// randomBid draws bids that stress the order: repeated values, zero and
// negative bids (which rank as zero), neighbouring floats whose quotients
// by the price can round to the same priority, and subnormal bids whose
// quotients underflow to zero.
func randomBid(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(4)) // 0..3, many repeats
	case 1:
		return -float64(rng.Intn(3))
	case 2:
		x := 1 + rng.Float64()
		return math.Nextafter(x, math.Inf(rng.Intn(2)*2-1))
	case 3:
		return 1 + float64(rng.Intn(4))*0x1p-52
	case 4:
		return 5e-324 * float64(1+rng.Intn(3))
	}
	return 100 * rng.Float64()
}

// TestRoundOrderMatchesResort: the queue kept in compareQueued order,
// ordered once per round and then shrunk in place as jobs are admitted,
// is exactly the order a full re-sort of the remaining eligible jobs gives
// after every admission — under every policy, with requeue backoff, and
// with bids whose priced quotients tie although the bids differ.
func TestRoundOrderMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	quotientTies := 0
	for trial := 0; trial < 600; trial++ {
		policy := Policies()[trial%3]
		s := &Scheduler{cfg: Config{Policy: policy}}
		if trial%2 == 1 {
			s.cfg.RequeueBackoff = 1
		}
		pricer := economy.NewSpotPricer(0.5+rng.Float64()*3, 0.1)
		pricer.Observe(rng.Intn(40), 1+rng.Intn(10))
		prio := func(j *Job) float64 { return pricer.EffectivePriority(j.Spec.Bid) }

		n := 1 + rng.Intn(40)
		ids := rng.Perm(n)
		for i := 0; i < n; i++ {
			j := &Job{
				ID:         ids[i] + 1,
				Spec:       JobSpec{Bid: randomBid(rng)},
				enqueuedAt: float64(5 * rng.Intn(4)),
				notBefore:  float64(rng.Intn(3)),
			}
			s.enqueue(j)
		}
		if !slices.IsSortedFunc(s.queued, func(a, b *Job) int { return compareQueued(policy, a, b) }) {
			t.Fatalf("trial %d: queue not kept in compareQueued order", trial)
		}
		for i, a := range s.queued {
			for _, b := range s.queued[i+1:] {
				if a.Spec.Bid != b.Spec.Bid && prio(a) == prio(b) && prio(a) > 0 {
					quotientTies++
				}
			}
		}

		now := 1.0
		order := orderQueue(policy, s.eligibleQueued(now), prio, nil)
		for {
			want := resortQueue(policy, s.eligibleQueued(now), prio)
			if len(order) != len(want) {
				t.Fatalf("trial %d (%s): %d keys, re-sort has %d jobs", trial, policy, len(order), len(want))
			}
			for i := range want {
				if order[i].job != want[i] {
					t.Fatalf("trial %d (%s): position %d holds job %d, re-sort has job %d",
						trial, policy, i, order[i].id, want[i].ID)
				}
				if policy != PolicyFIFO && order[i].prio != prio(want[i]) {
					t.Fatalf("trial %d: key priority %g, want %g", trial, order[i].prio, prio(want[i]))
				}
			}
			if len(order) == 0 {
				break
			}
			i := rng.Intn(len(order))
			s.dequeue(order[i].job)
			order = slices.Delete(order, i, i+1)
		}
	}
	if quotientTies == 0 {
		t.Fatal("no distinct bids tied after division by the price: the rounding case went untested")
	}
}
