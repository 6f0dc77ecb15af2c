// Package te defines the traffic-engineering abstractions shared by every
// scheme in the evaluation (§6.1's benchmark list) and implements the
// baselines: ECMP, FFC-1/FFC-2, ARROW, Flexile, and the oracle. PreTE
// itself — and TeaVaR, which is exactly PreTE with alpha = 0 and no tunnel
// updates (§4.1.2) — live in internal/core on top of the Benders machinery.
package te

import (
	"fmt"
	"slices"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/topology"
)

// Demands holds per-flow bandwidth demand in Gbps, indexed by FlowID.
type Demands []float64

// Scale returns the demands multiplied by a factor (the x-axis of Fig 13).
func (d Demands) Scale(f float64) Demands {
	out := make(Demands, len(d))
	for i, v := range d {
		out[i] = v * f
	}
	return out
}

// Allocation is the TE output a_{f,t}: Gbps allocated to each tunnel.
type Allocation map[routing.TunnelID]float64

// Clone deep-copies the allocation.
func (a Allocation) Clone() Allocation {
	out := make(Allocation, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Plan is one epoch's TE decision.
type Plan struct {
	Alloc Allocation
	// MaxLoss is the optimized loss bound Phi for schemes that compute it.
	MaxLoss float64
	// Tunnels is the tunnel table the plan was computed against (it may
	// include reactively established tunnels).
	Tunnels *routing.TunnelSet
}

// Input carries everything a scheme needs to plan one epoch.
type Input struct {
	Net     *topology.Network
	Tunnels *routing.TunnelSet
	Demands Demands
	// Scenarios are the failure scenarios the scheme should plan against,
	// with the probabilities it believes (static for TeaVaR-style schemes,
	// Eqn. 1-calibrated for PreTE).
	Scenarios *scenario.Set
	// Beta is the target availability level.
	Beta float64
}

// Validate checks the input's structural consistency.
func (in *Input) Validate() error {
	if in.Net == nil || in.Tunnels == nil {
		return fmt.Errorf("te: nil network or tunnel set")
	}
	if len(in.Demands) != len(in.Tunnels.Flows) {
		return fmt.Errorf("te: %d demands for %d flows", len(in.Demands), len(in.Tunnels.Flows))
	}
	for f, d := range in.Demands {
		if d < 0 {
			return fmt.Errorf("te: negative demand %v for flow %d", d, f)
		}
	}
	if in.Beta <= 0 || in.Beta >= 1 {
		return fmt.Errorf("te: beta %v out of (0,1)", in.Beta)
	}
	return nil
}

// Scheme is one TE algorithm.
type Scheme interface {
	Name() string
	// Plan computes the epoch's allocation.
	Plan(in *Input) (*Plan, error)
}

// Delivered returns the bandwidth flow f receives under failure scenario
// cut, given a plan: the sum of allocations on its surviving tunnels,
// capped at the demand. Constraint (4)'s left-hand side.
func Delivered(p *Plan, f routing.FlowID, demand float64, cut map[topology.FiberID]bool) float64 {
	var sum float64
	for _, tid := range p.Tunnels.TunnelsOf(f) {
		t := p.Tunnels.Tunnel(tid)
		if t.AvailableUnder(cut) {
			sum += p.Alloc[tid]
		}
	}
	if sum > demand {
		return demand
	}
	return sum
}

// Satisfied reports whether flow f's demand is (within tolerance) fully met
// under the scenario.
func Satisfied(p *Plan, f routing.FlowID, demand float64, cut map[topology.FiberID]bool) bool {
	const tol = 1e-6
	return Delivered(p, f, demand, cut) >= demand*(1-tol)-tol
}

// LinkLoads computes the per-link load of an allocation; used to verify
// constraint (3), by the ECMP feasibility scaling, and to charge one SLO
// tier's allocation against the next tier's residual network. Each link's
// load is summed in ascending tunnel-ID order: floating-point addition is
// not associative, and a map-order sum would differ in the last bits from
// call to call — enough to change a residual network's fingerprint.
func LinkLoads(p *Plan) map[topology.LinkID]float64 {
	tids := make([]routing.TunnelID, 0, len(p.Alloc))
	for tid, amt := range p.Alloc {
		if amt > 0 {
			tids = append(tids, tid)
		}
	}
	slices.Sort(tids)
	loads := make(map[topology.LinkID]float64)
	for _, tid := range tids {
		for _, lid := range p.Tunnels.Tunnel(tid).Links {
			loads[lid] += p.Alloc[tid]
		}
	}
	return loads
}

// CheckCapacity returns an error naming the first overloaded link, if any.
func CheckCapacity(net *topology.Network, p *Plan) error {
	const tol = 1e-6
	for lid, load := range LinkLoads(p) {
		if c := net.Link(lid).Capacity; load > c*(1+tol)+tol {
			return fmt.Errorf("te: link %d overloaded: %.3f > %.3f Gbps", lid, load, c)
		}
	}
	return nil
}

// UniformDemands builds a demand matrix where every flow asks for the given
// fraction of its shortest tunnel's bottleneck capacity — a simple
// gravity-free baseline used by tests; the simulation layer generates the
// 24 diurnal matrices.
func UniformDemands(ts *routing.TunnelSet, gbps float64) Demands {
	d := make(Demands, len(ts.Flows))
	for i := range d {
		d[i] = gbps
	}
	return d
}
