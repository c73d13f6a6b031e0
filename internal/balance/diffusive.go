package balance

import "math"

// defaultDiffuseThreshold is the busy-ratio trigger when no explicit
// threshold is configured: rebalance once the busiest rank computed 15%
// longer than the idlest since the previous check.
const defaultDiffuseThreshold = 1.15

// diffusiveBalancer migrates capacity from measured-busy toward
// measured-idle ranks, in the spirit of diffusive re-balancing driven by
// per-process idle time: the virtual clock's busy/wait decomposition —
// gathered at each check interval — replaces Algorithm 2's connectivity
// proxy I(p) as the imbalance signal. Each firing check moves exactly one
// processor: the grid hosting the busiest rank gains one, the grid hosting
// the idlest rank (or, when that is the same grid or a single-processor
// grid, the largest other eligible donor) gives one up, and the static
// subdivision re-cuts both. One-processor-at-a-time is the diffusion: load
// flows down the measured gradient a step per check instead of jumping to
// a globally recomputed optimum.
type diffusiveBalancer struct {
	staticBalancer
	// thr is the busy-ratio trigger: rebalance when busiest/idlest > thr.
	thr float64
}

func (b *diffusiveBalancer) Name() string { return "diffusive" }

func (b *diffusiveBalancer) Active() bool { return true }

func (b *diffusiveBalancer) Needs() Needs { return Needs{Waits: true} }

func (b *diffusiveBalancer) Rebalance(cur *Plan, in Input, fb Feedback) (*Plan, StepResult, error) {
	np := cur.NP()
	res := StepResult{}
	if len(fb.Busy) != np {
		return cur, res, errLenMismatch(np, len(fb.Busy))
	}

	// Busiest and idlest ranks; ties break toward the lower rank so every
	// rank reaches the same decision from the gathered (identical) vector.
	hi, lo := 0, 0
	var sum float64
	for p, busy := range fb.Busy {
		sum += busy
		if busy > fb.Busy[hi] {
			hi = p
		}
		if busy < fb.Busy[lo] {
			lo = p
		}
	}
	if sum > 0 {
		res.MaxF = fb.Busy[hi] * float64(np) / sum
	}
	if fb.Busy[lo] <= 0 || fb.Busy[hi] <= b.thr*fb.Busy[lo] {
		return cur, res, nil
	}

	dst := cur.Parts[hi].Grid
	if cur.Np[dst] >= in.Sizes[dst] {
		return cur, res, nil // every point of the busy grid has a rank already
	}
	src := cur.Parts[lo].Grid
	if src == dst || cur.Np[src] <= 1 {
		// The idle rank's grid cannot donate; fall back to the largest
		// other donor (lowest grid index on ties).
		src = -1
		for n, c := range cur.Np {
			if n == dst || c <= 1 {
				continue
			}
			if src < 0 || c > cur.Np[src] {
				src = n
			}
		}
		if src < 0 {
			return cur, res, nil
		}
	}

	counts := append([]int(nil), cur.Np...)
	counts[src]--
	counts[dst]++
	newPlan := buildPlan(in.Sizes, counts, cur.Tau)
	fillBoxes(newPlan, in)
	res.Rebalanced = true
	return newPlan, res, nil
}

func init() {
	Register("diffusive", func(p Params) Balancer {
		thr := defaultDiffuseThreshold
		if p.Fo > 1 && !math.IsInf(p.Fo, 1) {
			thr = p.Fo
		}
		return &diffusiveBalancer{thr: thr}
	})
}
