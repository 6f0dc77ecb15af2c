package main

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"prete/internal/core"
	"prete/internal/ingest"
	"prete/internal/ml"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/par"
	"prete/internal/persist"
	"prete/internal/scenario"
	"prete/internal/sim"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/telemetry"
	"prete/internal/topology"
	"prete/internal/trace"
	"prete/internal/wan"
)

// epochSpec is one closed-loop epoch workload.
type epochSpec struct {
	name        string
	topo        string
	demandScale float64
	scenOpts    scenario.Options
	// storm: scheduled degradation episodes on rotating fibers, planned
	// with the default 3-tier ClassSpec and the admission ladder.
	storm bool
	// budgetUnits is each solve's deterministic work budget (the anytime
	// deadline core.Optimizer.BudgetUnits); 0 is unlimited.
	budgetUnits int64
	// tailOps is the block size the tail is taken over, fixed per workload
	// so that the tail's percentile does not depend on how many ops a run
	// fits: p90 over blocks of 100 ops, p75 over blocks of 40.
	tailOps int
}

// steadyB4 is the quiet period: healthy telemetry, a fixed demand matrix,
// and after set-up every solve a SolveCache hit.
func steadyB4() epochSpec {
	return epochSpec{
		name: "steady-b4", topo: "B4", demandScale: 1,
		scenOpts: scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 600},
		tailOps:  100,
	}
}

// stormIBM is a degradation storm on IBM with three SLO tiers. Demand is
// half of sim's base matrix so that a converging cold classed epoch stays
// under a second; MaxFailures 3 covers two concurrent high-p̂ fibers at beta
// 0.99. With a fiber at high p̂, Benders on this input often does not close
// its gap and would run all MaxIters iterations per tier (12–19 s on a
// 2-core Xeon); the work budget, 2.5× what a converging tier solve spends,
// makes such a solve return its best incumbent, as the controller's TE
// deadline would, and the epoch counts as truncated.
func stormIBM() epochSpec {
	return epochSpec{
		name: "storm-ibm", topo: "IBM", demandScale: 0.5, storm: true,
		scenOpts:    scenario.Options{Cutoff: 1e-9, MaxFailures: 3, MaxScenarios: 150},
		budgetUnits: 5000,
		tailOps:     40,
	}
}

// configSeed fixes an epoch workload's configuration: the network's static
// failure probabilities, its demand matrix and the trained predictor. The
// run's seed draws the inputs: the telemetry and the degradation schedule.
const configSeed = 1

const (
	epochS      = 300 // 1 Hz telemetry, one 300 s TE period per epoch
	noisePool   = 4   // distinct healthy noise epochs per fiber, reused
	phaseEpochs = 3   // a storm event opens every third epoch
	alpha       = 0.25
	beta        = 0.99
	lbUBSlack   = 1e-6
)

// segment is one scheduled excess-loss interval on a fiber.
type segment struct {
	from, to int64   // seconds since the run's time origin, [from, to)
	degreeDB float64 // excess loss; >= CutThresholdDB is a cut
	ampDB    float64 // superimposed fluctuation amplitude
	periodS  float64
}

func (s segment) excess(t int64) float64 {
	if s.degreeDB >= optical.CutThresholdDB {
		return s.degreeDB
	}
	return s.degreeDB + s.ampDB*math.Sin(2*math.Pi*float64(t-s.from)/s.periodS)
}

// telemetrySource produces each epoch's arrivals as a fixed function of the
// seed: per-fiber healthy noise drawn once before timing, plus the storm
// schedule's excess loss. Materialising an epoch reuses one buffer and runs
// between epochs, outside the timed span, so input buffers do not inflate
// the program's memory figures.
type telemetrySource struct {
	net      *topology.Network
	origin   int64
	pool     [][][]optical.Sample // [variant][fiber][second]
	segments [][]segment          // per fiber, ascending
	buf      []ingest.Arrival
}

func newTelemetrySource(net *topology.Network, seed uint64, segs [][]segment) *telemetrySource {
	src := &telemetrySource{
		net:      net,
		origin:   1_700_000_000 + int64(seed%24)*3600,
		segments: segs,
		buf:      make([]ingest.Arrival, len(net.Fibers)*epochS),
	}
	for v := 0; v < noisePool; v++ {
		perFiber := make([][]optical.Sample, len(net.Fibers))
		for f, fib := range net.Fibers {
			fs := optical.NewFiberSim(fib.LengthKm, stats.NewRNG(seed*1_000_003+uint64(v*1000+f)))
			perFiber[f] = fs.HealthySeries(0, epochS)
		}
		src.pool = append(src.pool, perFiber)
	}
	return src
}

// epoch returns epoch e's arrivals, interleaved second by second across
// fibers as they would arrive.
func (src *telemetrySource) epoch(e int) []ingest.Arrival {
	t0 := int64(e) * epochS
	k := 0
	for s := 0; s < epochS; s++ {
		t := t0 + int64(s)
		for f := range src.net.Fibers {
			smp := src.pool[(e+f)%noisePool][f][s]
			smp.UnixS = src.origin + t
			if ex := src.excessAt(f, t); ex != 0 {
				smp.LossDB += ex
				smp.RxDBm -= ex
				smp.ExcessDB += ex
				smp.State = optical.Classify(ex)
			}
			src.buf[k] = ingest.Arrival{Fiber: f, Sample: smp}
			k++
		}
	}
	return src.buf
}

// newInputs draws a run's telemetry: healthy noise and, on the storm, the
// degradation schedule, which covers more epochs than any run reaches.
func newInputs(spec epochSpec, net *topology.Network, seed uint64) *telemetrySource {
	const horizon = 20000
	segs := make([][]segment, len(net.Fibers))
	if spec.storm {
		segs = stormSchedule(net, seed, horizon)
	}
	return newTelemetrySource(net, seed, segs)
}

func (src *telemetrySource) excessAt(f int, t int64) float64 {
	segs := src.segments[f]
	i := sort.Search(len(segs), func(i int) bool { return segs[i].to > t })
	if i < len(segs) && segs[i].from <= t {
		return segs[i].excess(t)
	}
	return 0
}

// stormSchedule draws the storm's episodes. The storm's path is part of
// the workload's configuration: a window of two concurrently
// degraded fibers slides along a fixed rotation of all fibers, and every
// phaseEpochs epochs, early in the phase's first epoch, the oldest episode
// clears (60 %), is cut and repaired at the next phase (20 %), or flaps
// (20 %: it ends and restarts within the epoch with a new degree, which
// changes p̂ but not the tunnel set); then the next fiber degrades. Each
// episode's shape (degree, fluctuation) is part of the path too: the cost of
// a cold solve moves by an order of magnitude with p̂, so a seed-drawn shape
// would make each seed a different workload. The seed draws each phase's
// onset second, which with the telemetry noise moves the detector's
// features and so p̂. Each phase's other epochs see no change, so one epoch
// in phaseEpochs re-plans and the rest are cache hits.
func stormSchedule(net *topology.Network, seed uint64, epochs int) [][]segment {
	const window = 2 // concurrently degraded fibers
	path := stats.NewRNG(configSeed ^ 0x5707)
	rng := stats.NewRNG(seed ^ 0x5707)
	segs := make([][]segment, len(net.Fibers))
	rotation := make([]int, len(net.Fibers))
	for i := range rotation {
		rotation[i] = i
	}
	for i := len(rotation) - 1; i > 0; i-- {
		j := path.Intn(i + 1)
		rotation[i], rotation[j] = rotation[j], rotation[i]
	}
	type episode struct {
		fiber int
		seg   segment
	}
	var active []episode // oldest first
	next := 0
	repair := map[int]int64{} // cut fiber -> cut time
	newDegree := func(from int64) segment {
		return segment{from: from, degreeDB: 4 + 3*path.Float64(), ampDB: 1.5 * path.Float64(), periodS: 20 + 60*path.Float64()}
	}
	closeSeg := func(f int, s segment, to int64) { s.to = to; segs[f] = append(segs[f], s) }
	onset := func(at int64) {
		for tries := 0; tries < len(rotation); tries++ {
			f := rotation[next%len(rotation)]
			next++
			busy := false
			if _, cut := repair[f]; cut {
				busy = true
			}
			for _, a := range active {
				busy = busy || a.fiber == f
			}
			if !busy {
				active = append(active, episode{f, newDegree(at)})
				return
			}
		}
	}
	horizon := int64(epochs) * epochS
	for e := phaseEpochs; e < epochs; e += phaseEpochs {
		at := int64(e)*epochS + 20 + int64(rng.Intn(150))
		for _, f := range sortedKeys(repair) {
			segs[f] = append(segs[f], segment{from: repair[f], to: at - 10, degreeDB: 30})
			delete(repair, f)
		}
		if len(active) < window {
			onset(at)
			continue
		}
		old := active[0]
		active = active[1:]
		closeSeg(old.fiber, old.seg, at)
		switch r := path.Float64(); {
		case r < 0.2: // flap
			active = append(active, episode{old.fiber, newDegree(at + 20)})
		case r < 0.4: // cut, then the window slides
			repair[old.fiber] = at
			onset(at + 30)
		default: // clear, then the window slides
			onset(at + 30)
		}
	}
	for _, a := range active {
		closeSeg(a.fiber, a.seg, horizon)
	}
	for _, f := range sortedKeys(repair) {
		segs[f] = append(segs[f], segment{from: repair[f], to: horizon, degreeDB: 30})
	}
	for f := range segs {
		sort.Slice(segs[f], func(i, j int) bool { return segs[f][i].from < segs[f][j].from })
	}
	return segs
}

func sortedKeys(m map[int]int64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// applierPipe ships replication frames straight into the standby's
// Applier: a gap or a corrupt frame asks the leader for a snapshot re-sync.
type applierPipe struct{ a *persist.Applier }

func (p applierPipe) Ship(frame []byte, snapshot bool) (uint64, bool, error) {
	acked, err := p.a.Apply(frame, snapshot)
	if errors.Is(err, persist.ErrGap) || errors.Is(err, persist.ErrBadFrame) {
		return acked, true, nil
	}
	return acked, false, err
}

// controlPlane is one set-up's live system.
type controlPlane struct {
	spec     epochSpec
	net      *topology.Network
	base     *te.Input // base tunnels and demands; Scenarios unused
	pi       []float64
	model    *ml.NN
	agents   []*wan.SwitchAgent
	ctl      *wan.Controller
	standby  *persist.Store
	applier  *persist.Applier
	repl     *persist.Replicator
	pipe     *ingest.Pipeline
	opt      *core.Optimizer
	cache    *core.SolveCache
	tiers    []*core.SolveCache
	classes  *te.ClassSpec
	adm      *wan.Admission
	src      *telemetrySource
	dir      string
	signals  map[topology.FiberID]float64
	programs map[string][]int // "switch/id" -> path installed
}

// setupControlPlane builds everything the timed loop needs and runs epoch
// 0, whose cold solve primes the cache.
func setupControlPlane(o runOpts, spec epochSpec, reg *obs.Registry, rep int) (*controlPlane, *epochOut, error) {
	cfg := sim.DefaultConfig()
	env, err := sim.BuildEnv(spec.topo, configSeed, cfg)
	if err != nil {
		return nil, nil, err
	}
	demands := make(te.Demands, len(env.BaseDemands))
	for i, d := range env.BaseDemands {
		demands[i] = d * spec.demandScale
	}
	cp := &controlPlane{
		spec: spec, net: env.Net, pi: env.PI,
		base:     &te.Input{Net: env.Net, Tunnels: env.Tunnels, Demands: demands, Beta: beta},
		signals:  map[topology.FiberID]float64{},
		programs: map[string][]int{},
	}
	ok := false
	defer func() {
		if !ok {
			cp.close()
		}
	}()

	tcfg := trace.DefaultConfig(configSeed)
	tcfg.Days = 60
	tr, err := trace.Generate(tcfg, env.Net)
	if err != nil {
		return nil, nil, err
	}
	ncfg := ml.DefaultNNConfig(configSeed)
	ncfg.Epochs = 10
	if cp.model, err = ml.TrainNN(tr.Dataset(), ncfg); err != nil {
		return nil, nil, err
	}

	addrs := make(map[string]string, len(env.Net.Nodes))
	for _, n := range env.Net.Nodes {
		a, err := wan.NewSwitchAgent(n.Name, wan.SwitchConfig{MaxTunnels: 20000})
		if err != nil {
			return nil, nil, err
		}
		cp.agents = append(cp.agents, a)
		addrs[n.Name] = a.Addr()
	}
	if cp.ctl, err = wan.NewController(addrs); err != nil {
		return nil, nil, err
	}
	cp.ctl.Metrics = reg

	cp.dir = filepath.Join(o.stateDir, fmt.Sprintf("%s-%d-%d-%d", spec.name, o.seed, os.Getpid(), rep))
	if err := os.RemoveAll(cp.dir); err != nil {
		return nil, nil, err
	}
	leaderDir, standbyDir := filepath.Join(cp.dir, "leader"), filepath.Join(cp.dir, "standby")
	if _, err := cp.ctl.OpenState(leaderDir); err != nil {
		return nil, nil, err
	}
	if cp.standby, err = persist.Open(standbyDir, persist.Options{}); err != nil {
		return nil, nil, err
	}
	cp.applier = persist.NewApplier(cp.standby, persist.ApplierOptions{Metrics: reg})
	if cp.repl, err = persist.NewReplicator(leaderDir, persist.ReplicatorOptions{Metrics: reg}); err != nil {
		return nil, nil, err
	}
	cp.repl.AddTarget("standby", applierPipe{cp.applier})

	icfg := ingest.DefaultConfig()
	icfg.Parallelism = runtime.NumCPU()
	icfg.Metrics = reg
	if cp.pipe, err = ingest.New(env.Net, icfg); err != nil {
		return nil, nil, err
	}

	cp.opt = core.DefaultOptimizer()
	cp.opt.Parallelism = runtime.NumCPU()
	cp.opt.BudgetUnits = spec.budgetUnits
	cp.opt.Metrics = reg
	if spec.storm {
		cp.classes = te.DefaultClassSpec()
		cp.tiers = []*core.SolveCache{{}, {}, {}}
		cp.adm = wan.NewAdmission(cp.classes, reg, nil)
	} else {
		cp.cache = &core.SolveCache{}
	}

	cp.src = newInputs(spec, env.Net, o.seed)

	out, err := cp.epoch(0, cp.src.epoch(0), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("priming epoch: %w", err)
	}
	if out.failed {
		return nil, nil, fmt.Errorf("priming epoch installed a degraded plan")
	}
	ok = true
	return cp, out, nil
}

func (cp *controlPlane) close() {
	if cp.repl != nil {
		cp.repl.Close()
	}
	if cp.standby != nil {
		cp.standby.Close()
	}
	if cp.ctl != nil {
		cp.ctl.Close()
	}
	for _, a := range cp.agents {
		a.Close()
	}
	if cp.dir != "" {
		os.RemoveAll(cp.dir)
	}
}

// epochOut is what one epoch produced, for the output checks.
type epochOut struct {
	// failed: no fresh plan reached the agents (a solve error, the
	// heuristic fallback plan, or a control-plane fallback).
	failed bool
	// truncated: the solve's work budget ran out and its best incumbent
	// was installed.
	truncated  bool
	solved     bool // a plan was computed and pushed
	tunnels    *te.Input
	alloc      te.Allocation
	results    []*core.Result
	decision   *wan.AdmissionDecision
	classed    *core.ClassedResult
	phi        float64
	offered    float64 // classed demand the solve planned, the Φ weight
	admOffered float64 // demand offered to admission, backlog included
	shed       float64 // shed + deferred at admission
	scen       int
	newTuns    int
	preds      int
}

// epoch runs one TE epoch from handing its telemetry to ingest until the
// standby has acknowledged its journal record. A program error in the solve
// keeps the last-good rates and marks the epoch failed; errors from the
// other stages end the run.
func (cp *controlPlane) epoch(e int, arrivals []ingest.Arrival, tr *tracer) (*epochOut, error) {
	out := &epochOut{}
	tr.beginOp(e)
	defer tr.endOp()

	var batches []ingest.FiberEvents
	var err error
	tr.do("ingest", func() { batches, err = cp.pipe.Tick(arrivals) })
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	for _, b := range batches {
		f := topology.FiberID(b.Fiber)
		for _, ev := range b.Events {
			switch ev.Type {
			case telemetry.DegradationStart:
				if ev.HasFeatures {
					tr.do("ml", func() { cp.signals[f] = cp.model.PredictProb(ev.Features) })
					out.preds++
				}
			case telemetry.DegradationEnd, telemetry.CutDetected:
				delete(cp.signals, f)
			}
		}
	}

	var probs []float64
	tr.do("scenario", func() { probs, err = scenario.Calibrated(cp.pi, cp.signals, alpha) })
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}

	in := *cp.base
	sp := tr.begin("tunnels")
	fibers := make([]int, 0, len(cp.signals))
	for f := range cp.signals {
		fibers = append(fibers, int(f))
	}
	sort.Ints(fibers)
	for _, f := range fibers {
		upd, err := core.UpdateTunnels(in.Tunnels, topology.FiberID(f), 1)
		if err != nil {
			return nil, fmt.Errorf("tunnel update: %w", err)
		}
		in.Tunnels = upd.Tunnels
	}
	installs := cp.installsFor(&in)
	if _, err := cp.ctl.InstallTunnels(installs); err != nil {
		// Ladder rung 1, as in wan.Testbed: plan on the base tunnels.
		in.Tunnels = cp.base.Tunnels
		out.failed = true
	} else {
		for _, ins := range installs {
			cp.programs[fmt.Sprintf("%s/%d", ins.Switch, ins.TunnelID)] = ins.Path
		}
		out.newTuns = len(installs)
	}
	tr.end(sp)

	var set *scenario.Set
	tr.do("scenario", func() { set, err = scenario.Enumerate(probs, cp.spec.scenOpts) })
	if err != nil {
		return nil, fmt.Errorf("enumerate: %w", err)
	}
	in.Scenarios = set
	out.scen = len(set.Scenarios)
	out.tunnels = &in

	var res *core.Result
	sp = tr.begin("solve")
	if cp.classes != nil {
		out.classed, err = cp.opt.SolveClassedCached(&in, cp.classes, cp.tiers)
	} else {
		res, err = cp.opt.SolveCached(&in, cp.cache)
	}
	tr.end(sp)
	if err != nil {
		// The plan could not be computed: agents keep the last-good rates
		// and the admission ladder replays its last-good decision.
		out.failed = true
		if cp.adm != nil {
			tr.do("admission", func() { out.decision = cp.adm.DecideLastGood() })
		}
		return out, nil
	}
	if cp.classes != nil {
		out.alloc = out.classed.Alloc
		for _, t := range out.classed.Tiers {
			out.results = append(out.results, t.Res)
			out.phi += t.Offered * t.Res.Phi
			out.offered += t.Offered
		}
		out.phi /= out.offered
		tr.do("admission", func() { out.decision = cp.adm.Decide(out.classed, len(cp.signals) > 0) })
		for _, t := range out.decision.Tiers {
			out.shed += t.Shed + t.Deferred
			out.admOffered += t.Offered
		}
	} else {
		out.alloc = res.Alloc
		out.results = []*core.Result{res}
		out.phi = res.Phi
	}
	for _, r := range out.results {
		out.failed = out.failed || r.Fallback
		out.truncated = out.truncated || r.Truncated
	}

	rates := make(map[string]float64, len(out.alloc))
	for tid, amt := range out.alloc {
		rates[fmt.Sprintf("t%d", tid)] = amt
	}
	var fellBack bool
	tr.do("rpc", func() { _, fellBack, err = cp.ctl.UpdateRatesWithFallback(rates) })
	if fellBack {
		out.failed = true
	} else if err != nil {
		return nil, fmt.Errorf("rate push: %w", err)
	}
	out.solved = true

	tr.do("journal", func() { err = cp.ctl.JournalEpoch(probs, set.Fingerprint()) })
	if err != nil {
		return nil, err
	}
	tr.do("repl", func() { err = cp.repl.Tick() })
	if err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	return out, nil
}

// installsFor lists the reactive tunnels of in that the agents do not hold
// yet (or hold under another path), head-end switch first.
func (cp *controlPlane) installsFor(in *te.Input) []wan.TunnelInstall {
	var out []wan.TunnelInstall
	for _, tn := range in.Tunnels.Tunnels {
		if !tn.New {
			continue
		}
		head := cp.net.Nodes[int(in.Tunnels.Flows[tn.Flow].Src)].Name
		path := make([]int, len(tn.Links))
		for i, l := range tn.Links {
			path[i] = int(l)
		}
		if slices.Equal(cp.programs[fmt.Sprintf("%s/%d", head, tn.ID)], path) {
			continue
		}
		out = append(out, wan.TunnelInstall{Switch: head, TunnelID: int(tn.ID), Path: path})
	}
	return out
}

// check verifies one epoch's outputs.
func (cp *controlPlane) check(r *report, e int, out *epochOut) {
	if out.solved {
		plan := &te.Plan{Alloc: out.alloc, Tunnels: out.tunnels.Tunnels}
		if err := te.CheckCapacity(cp.net, plan); err != nil {
			r.violate("epoch %d: installed plan: %v", e, err)
		}
	}
	for k, res := range out.results {
		if res.LB > res.UB+lbUBSlack {
			r.violate("epoch %d: result %d has LB %v > UB %v", e, k, res.LB, res.UB)
		}
		// A result not flagged as truncated claims Benders converged.
		if !res.Truncated && res.UB-res.LB > cp.opt.Epsilon+lbUBSlack {
			r.violate("epoch %d: result %d is not truncated but its gap UB %v - LB %v exceeds epsilon", e, k, res.UB, res.LB)
		}
	}
	if out.decision != nil {
		if err := out.decision.Check(); err != nil {
			r.violate("epoch %d: admission: %v", e, err)
		}
	}
	st := cp.repl.Stats()
	if st.Shipped != st.Acked+st.Inflight+st.Resent {
		r.violate("epoch %d: replication accounting %d != %d + %d + %d", e, st.Shipped, st.Acked, st.Inflight, st.Resent)
	}
	if got, want := cp.applier.LastSeq(), cp.ctl.Epoch(); got != want {
		r.violate("epoch %d: standby applied seq %d, leader journaled epoch %d", e, got, want)
	}
}

// finalChecks runs the end-of-run checks: ingest accounting after a final
// Flush, and every agent holding the last rate table pushed. Agents merge
// rate tables, so only the last table's keys are compared.
func (cp *controlPlane) finalChecks(r *report) {
	if _, err := cp.pipe.Flush(); err != nil {
		r.violate("ingest flush: %v", err)
	}
	st := cp.pipe.Stats()
	if st.Queued != 0 || st.Ingested != st.Emitted+st.Dropped+st.Merged {
		r.violate("ingest accounting: ingested %d != emitted %d + dropped %d + merged %d (queued %d)",
			st.Ingested, st.Emitted, st.Dropped, st.Merged, st.Queued)
	}
	last := cp.ctl.LastGoodRates()
	for _, a := range cp.agents {
		got := a.Rates()
		for k, v := range last {
			if got[k] != v {
				r.violate("agent %s holds %s=%v, last table pushed %v", a.Name, k, got[k], v)
				break
			}
		}
	}
}

// runEpochs is the closed loop for an epoch workload.
func runEpochs(o runOpts, spec epochSpec) (*report, error) {
	r := &report{stamp: envStamp(o.stateDir), tailOps: spec.tailOps}
	var reg *obs.Registry
	if o.trace {
		reg = obs.NewRegistry()
		par.SetMetrics(reg)
		defer par.SetMetrics(nil)
	}
	var cp *controlPlane
	for rep := 0; rep < setupReps; rep++ {
		if cp != nil {
			cp.close()
		}
		t0 := time.Now()
		var prime *epochOut
		var err error
		cp, prime, err = setupControlPlane(o, spec, reg, rep)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		cp.check(r, 0, prime)
	}
	defer cp.close()
	// live_heap_mb is read while the inputs are still reachable; their
	// footprint, measured on a second copy, is subtracted from it.
	r.inputBytes = heapOf(func() any { return newInputs(spec, cp.net, o.seed) })
	r.liveHeapAt = liveHeapOps

	tr := newTracer(o.trace)
	before := reg.Snapshot()
	var phiSum, offered, shed, scen, newTuns, preds float64
	var solved, degraded int
	var runErr error
	var out *epochOut
	var arrivals []ingest.Arrival
	memStart := timedLoop(r, o.seconds, func(i int) {
		arrivals = cp.src.epoch(i + 1)
	}, func(i int) bool {
		if runErr != nil {
			return true
		}
		var err error
		if out, err = cp.epoch(i+1, arrivals, tr); err != nil {
			runErr = fmt.Errorf("epoch %d: %w", i+1, err)
			return true
		}
		return out.failed
	}, func(i int) {
		if runErr != nil {
			return
		}
		cp.check(r, i+1, out)
		if out.failed || out.truncated {
			degraded++
		}
		if out.solved {
			solved++
			phiSum += out.phi
		}
		offered += out.admOffered
		shed += out.shed
		scen += float64(out.scen)
		newTuns += float64(out.newTuns)
		preds += float64(out.preds)
	})
	if runErr != nil {
		return nil, runErr
	}
	r.finishMemory(memStart)
	cp.finalChecks(r)

	n := float64(len(r.latencies))
	r.quality = map[string]float64{"op_fail_frac": float64(degraded) / n}
	if solved > 0 {
		r.quality["phi_mean"] = phiSum / float64(solved)
	}
	if offered > 0 {
		r.quality["shed_frac"] = shed / offered
	}
	if o.trace {
		own := map[string]float64{
			"scenario.count": scen / n,
			"tunnels.new":    newTuns / n,
			"ml.predictions": preds / n,
		}
		maps.Copy(own, r.quality)
		r.layers = layerMetrics(before, reg.Snapshot(), tr.selfTimes(), own, len(r.latencies))
		if _, err := tr.write(filepath.Dir(o.stateDir), spec.name, o.seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}
