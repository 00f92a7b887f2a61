package dataplane

import (
	"fmt"
	"math"
	"slices"
)

// This file is the only way to the general solve path for a component
// the driver solves in closed form: stepBothWays runs both on the same
// state so a test can hold them to the same bits.

// solveOutcome is what one component solve leaves in its single
// tenant's caches, plus the moved value it returned.
type solveOutcome struct {
	limits, rates  []float64
	dirty, settled bool
	stats          TenantStats
	moved          float64
}

func captureSolve(d *Driver, t *tenant, moved float64) solveOutcome {
	return solveOutcome{
		limits:  slices.Clone(t.limits),
		rates:   slices.Clone(t.rates),
		dirty:   t.dirty,
		settled: t.settled,
		stats:   d.stats[t.pos],
		moved:   moved,
	}
}

// restoreSolve puts a captured state back into the tenant's caches.
func restoreSolve(d *Driver, t *tenant, o solveOutcome) {
	t.limits = append(t.limits[:0], o.limits...)
	t.rates = append(t.rates[:0], o.rates...)
	t.dirty, t.settled = o.dirty, o.settled
	d.stats[t.pos] = o.stats
}

// diffBits describes the first difference between two outcomes, by
// Float64bits; nil when there is none.
func (o solveOutcome) diffBits(p solveOutcome) error {
	floats := func(name string, a, b []float64) error {
		if len(a) != len(b) {
			return fmt.Errorf("%s: %d entries, closed form %d", name, len(a), len(b))
		}
		for j := range a {
			if !feq(a[j], b[j]) {
				return fmt.Errorf("%s[%d]: general %v (%#x), closed form %v (%#x)",
					name, j, a[j], math.Float64bits(a[j]), b[j], math.Float64bits(b[j]))
			}
		}
		return nil
	}
	if err := floats("limits", o.limits, p.limits); err != nil {
		return err
	}
	if err := floats("rates", o.rates, p.rates); err != nil {
		return err
	}
	a, b := o.stats, p.stats
	if err := floats("aggregates", []float64{a.GuaranteedMbps, a.BaseMbps, a.AchievedMbps, a.SpareMbps, a.MinRatio},
		[]float64{b.GuaranteedMbps, b.BaseMbps, b.AchievedMbps, b.SpareMbps, b.MinRatio}); err != nil {
		return err
	}
	if a.Key != b.Key || a.ID != b.ID || a.Pairs != b.Pairs || a.Colocated != b.Colocated {
		return fmt.Errorf("identity/counts: general %+v, closed form %+v", a, b)
	}
	if o.dirty != p.dirty || o.settled != p.settled {
		return fmt.Errorf("dirty/settled: general %v/%v, closed form %v/%v", o.dirty, o.settled, p.dirty, p.settled)
	}
	return floats("moved", []float64{o.moved}, []float64{p.moved})
}

// stepBothWays runs one control period the way Step does, except that
// every slack component it solves is solved twice from the same state,
// by solveGeneral and by solveSlack, and the outcomes are compared bit
// for bit. It returns the period's report, the number of solves
// compared, and the first difference as an error. The driver is left in
// the closed form's state, which is where Step would have left it.
func (d *Driver) stepBothWays() (*StepStats, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, 0, d.err
	}
	d.prepare()
	d.pickSolveSet()
	var ctx solveCtx
	compared := 0
	for _, ci := range d.solveSet {
		c := &d.comps[ci]
		if c.contended || !c.members[0].certified {
			if _, err := d.solveComponent(c); err != nil {
				return nil, compared, err
			}
			continue
		}
		t := c.members[0]
		before := captureSolve(d, t, 0)
		moved, err := d.solveGeneral(&ctx, c)
		if err != nil {
			return nil, compared, fmt.Errorf("tenant %d: general path: %w", t.key, err)
		}
		general := captureSolve(d, t, moved)
		restoreSolve(d, t, before)
		closed := captureSolve(d, t, d.solveSlack(t))
		if err := general.diffBits(closed); err != nil {
			return nil, compared, fmt.Errorf("tenant %d: %w", t.key, err)
		}
		compared++
	}
	return d.report(), compared, nil
}
