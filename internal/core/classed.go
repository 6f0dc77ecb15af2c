package core

import (
	"fmt"

	"prete/internal/routing"
	"prete/internal/te"
	"prete/internal/topology"
)

// TierResult is one SLO tier's slice of a classed solve.
type TierResult struct {
	// Name, Policy, Weight echo the tier's spec entry.
	Name   string
	Policy te.TierPolicy
	Weight float64
	// Demands is the tier's share of every flow's demand (the split the
	// solve planned against).
	Demands te.Demands
	// Offered is the tier's total demand in Gbps (the sum of Demands).
	Offered float64
	// Res is the tier's Benders result against the residual network left
	// by all higher-priority tiers.
	Res *Result
	// ExpectedLoss is the tier plan's expected fractional demand loss over
	// the calibrated scenario set (un-enumerated tail charged as full
	// loss), in [0, 1] — the achievable-allocation signal the admission
	// ladder sheds against. Res.Phi is the beta-quantile worst case and
	// saturates at 1 whenever any covered scenario disconnects a flow;
	// ExpectedLoss stays proportional to the traffic actually at risk.
	ExpectedLoss float64
}

// ClassedResult is the outcome of a strict-priority classed solve: one
// Benders result per tier, solved highest priority first, each against the
// capacity left over by the tiers above it.
type ClassedResult struct {
	Tiers []TierResult
	// Alloc is the merged allocation: for every tunnel, the sum of the
	// per-tier allocations — what the controller actually installs.
	Alloc te.Allocation
	// WeightedLoss is the weight-averaged loss bound across tiers
	// (sum w_k * Phi_k / sum w_k), the class-weighted objective value.
	WeightedLoss float64
}

// residualNetwork returns the network with the given per-link loads already
// subtracted from capacity (clamped at zero) — the capacity a lower
// priority tier may plan against. A nil/empty load map returns the input
// unchanged. Only the Links slice is copied; the topology indices are
// shared (they never depend on capacity).
func residualNetwork(net *topology.Network, loads map[topology.LinkID]float64) *topology.Network {
	if len(loads) == 0 {
		return net
	}
	n2 := *net
	n2.Links = append([]topology.Link(nil), net.Links...)
	for lid, load := range loads {
		c := n2.Links[int(lid)].Capacity - load
		if c < 0 {
			c = 0
		}
		n2.Links[int(lid)].Capacity = c
	}
	return &n2
}

// SolveClassed runs the strict-priority classed solve: the input's demands
// are split across the spec's tiers, and each tier runs the full Benders
// solve (Eqns. 2-8) against the residual network left by every tier above
// it. Strict priority is exact — the top tier's result is bit-identical to
// a uniform solve of its demands alone, and no lower tier can degrade it.
// Each tier solve inherits the optimizer's determinism contract, so the
// whole classed result is bit-identical at any Parallelism setting.
func (o *Optimizer) SolveClassed(in *te.Input, spec *te.ClassSpec) (*ClassedResult, error) {
	return o.solveClassed(in, spec, nil)
}

// SolveClassedCached is SolveClassed with one cross-epoch SolveCache per
// tier (caches[k] warms tier k; a nil slice or nil entry solves that tier
// cold). Per-tier caches are required because each tier's input fingerprint
// differs (its demand split), so sharing one cache would evict on every
// tier.
func (o *Optimizer) SolveClassedCached(in *te.Input, spec *te.ClassSpec, caches []*SolveCache) (*ClassedResult, error) {
	return o.solveClassed(in, spec, caches)
}

func (o *Optimizer) solveClassed(in *te.Input, spec *te.ClassSpec, caches []*SolveCache) (*ClassedResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if caches != nil && len(caches) != len(spec.Tiers) {
		return nil, fmt.Errorf("core: %d solve caches for %d tiers", len(caches), len(spec.Tiers))
	}
	reg := o.Metrics
	split := spec.SplitDemands(in.Demands)
	out := &ClassedResult{
		Tiers: make([]TierResult, 0, len(spec.Tiers)),
		Alloc: make(te.Allocation),
	}
	loads := make(map[topology.LinkID]float64)
	var wSum, wLoss float64
	for k, tier := range spec.Tiers {
		tierIn := &te.Input{
			Net:       residualNetwork(in.Net, loads),
			Tunnels:   in.Tunnels,
			Demands:   split[k],
			Scenarios: in.Scenarios,
			Beta:      in.Beta,
		}
		var res *Result
		var err error
		if caches != nil && caches[k] != nil {
			res, err = o.SolveCached(tierIn, caches[k])
		} else {
			res, err = o.Solve(tierIn)
		}
		if err != nil {
			return nil, fmt.Errorf("core: tier %s: %w", tier.Name, err)
		}
		var offered float64
		for _, d := range split[k] {
			offered += d
		}
		el := expectedLoss(tierIn, res.Alloc, split[k], offered)
		out.Tiers = append(out.Tiers, TierResult{
			Name: tier.Name, Policy: tier.Policy, Weight: tier.Weight,
			Demands: split[k], Offered: offered, Res: res, ExpectedLoss: el,
		})
		wSum += tier.Weight
		wLoss += tier.Weight * res.Phi
		// Charge this tier's allocation against the network before the next
		// tier plans. The next tier's input fingerprint hashes the residual
		// capacities, so every sum here must be bit-reproducible: LinkLoads
		// adds each link's tunnel rates in tunnel-ID order, and tiers are
		// charged in spec order.
		plan := &te.Plan{Alloc: res.Alloc, Tunnels: in.Tunnels}
		for lid, load := range te.LinkLoads(plan) {
			loads[lid] += load
		}
		for tid, amt := range res.Alloc {
			if amt > 0 {
				out.Alloc[tid] += amt
			}
		}
		reg.Counter("core.class.solves").Inc()
		reg.Gauge("core.class.phi." + tier.Name).Set(res.Phi)
		reg.Gauge("core.class.expected_loss." + tier.Name).Set(el)
	}
	if wSum > 0 {
		out.WeightedLoss = wLoss / wSum
	}
	reg.Gauge("core.class.weighted_loss").Set(out.WeightedLoss)
	return out, nil
}

// expectedLoss integrates the tier plan over the calibrated scenario set:
// 1 - E[delivered Gbps] / offered, with the un-enumerated probability tail
// counted as total loss (only covered scenarios contribute delivered
// mass). Serial accumulation in scenario-then-flow order keeps the sum
// bit-identical at any Parallelism.
func expectedLoss(in *te.Input, alloc te.Allocation, demands te.Demands, offered float64) float64 {
	if offered <= 0 || in.Scenarios == nil {
		return 0
	}
	plan := &te.Plan{Alloc: alloc, Tunnels: in.Tunnels}
	var carried float64
	for _, q := range in.Scenarios.Scenarios {
		cut := q.CutSet()
		var del float64
		for f, d := range demands {
			if d > 0 {
				del += te.Delivered(plan, routing.FlowID(f), d, cut)
			}
		}
		carried += q.Prob * del
	}
	loss := 1 - carried/offered
	if loss < 0 {
		return 0
	}
	if loss > 1 {
		return 1
	}
	return loss
}

// ClassedEpochPlan is the full classed PreTE output for one TE period.
type ClassedEpochPlan struct {
	// Plans holds one plan per tier (all sharing the updated tunnel
	// table), for per-tier availability evaluation.
	Plans []*te.Plan
	// Classed carries the per-tier optimizer results and merged
	// allocation.
	Classed *ClassedResult
	// Update is non-nil when Algorithm 1 ran (degradation present).
	Update *UpdateResult
	// Calibrated are the Eqn. 1 per-fiber failure probabilities used.
	Calibrated []float64
}

// PlanEpochClassed runs the Fig 8 pipeline with per-class demands: the
// calibrate / tunnel-update / scenario-regen stages are exactly PlanEpoch's
// (shared code), and the optimize stage is the strict-priority classed
// solve.
func (p *PreTE) PlanEpochClassed(in EpochInput, spec *te.ClassSpec) (*ClassedEpochPlan, error) {
	prep, err := p.prepareEpoch(in)
	if err != nil {
		return nil, err
	}
	teIn := &te.Input{
		Net: in.Net, Tunnels: prep.tunnels, Demands: in.Demands,
		Scenarios: prep.set, Beta: in.Beta,
	}
	optT := p.Opt.Metrics.Timer("core.epoch.optimize")
	optStart := optT.Start()
	res, err := p.Opt.SolveClassed(teIn, spec)
	optT.Stop(optStart)
	if err != nil {
		return nil, err
	}
	plans := make([]*te.Plan, len(res.Tiers))
	for k, tier := range res.Tiers {
		plans[k] = &te.Plan{Alloc: tier.Res.Alloc, MaxLoss: tier.Res.Phi, Tunnels: prep.tunnels}
	}
	return &ClassedEpochPlan{
		Plans:      plans,
		Classed:    res,
		Update:     prep.update,
		Calibrated: prep.probs,
	}, nil
}
