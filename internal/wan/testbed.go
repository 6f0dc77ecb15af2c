package wan

import (
	"errors"
	"fmt"
	"time"

	"prete/internal/core"
	"prete/internal/ingest"
	"prete/internal/optical"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/telemetry"
	"prete/internal/topology"
)

// Predictor is the NN inference hook the testbed calls on a degradation
// event (tests stub it; examples plug the trained internal/ml model).
type Predictor func(f optical.Features) float64

// PipelineTiming is the Fig 11a latency breakdown of one degradation
// reaction: detection, model inference, tunnel update (the dominant term),
// failure-scenario regeneration, and TE computation.
type PipelineTiming struct {
	Detection     time.Duration
	Inference     time.Duration
	TunnelUpdate  time.Duration
	ScenarioRegen time.Duration
	TECompute     time.Duration
	RateInstall   time.Duration
	// Degraded reports that the round completed through the graceful
	// degradation ladder rather than cleanly: a control-plane stage failed
	// even after per-RPC retries, and the pipeline fell back (previous
	// tunnel set, heuristic TE plan, or last-good rates) instead of wedging.
	Degraded bool
	// SolveTruncated reports the TE solve's compute budget expired and the
	// installed plan is a truncated incumbent or heuristic fallback rather
	// than a certified optimum — feasible either way.
	SolveTruncated bool
}

// Total returns the end-to-end reaction latency.
func (p PipelineTiming) Total() time.Duration {
	return p.Detection + p.Inference + p.TunnelUpdate + p.ScenarioRegen + p.TECompute + p.RateInstall
}

// Testbed wires the §5 setup: the three-site triangle topology, one switch
// agent per site, a VOA on the s1-s2 fiber, and the PreTE controller
// pipeline.
type Testbed struct {
	Net     *topology.Network
	Tunnels *routing.TunnelSet
	Agents  []*SwitchAgent
	Ctl     *Controller
	Predict Predictor
	// PI are the static failure probabilities of the three fibers (the
	// §2.2 values by default).
	PI []float64
	// TEPeriod, when positive, makes the TE period a hard deadline: the
	// solve stage receives SolveDeadline(TEPeriod) as its wall-clock
	// ceiling, so the round always has a plan to install before the next
	// period starts. 0 leaves the solve wall-clock-unbounded.
	TEPeriod time.Duration
	// SolveUnits caps the deterministic work of each TE solve
	// (core.Optimizer.BudgetUnits); 0 is unlimited. Unlike TEPeriod, unit
	// budgets keep seeded chaos runs bit-identical.
	SolveUnits int64
	// SolveTimeout, when positive, is an explicit wall-clock ceiling for the
	// TE solve (the -budget UNITS:TIMEOUT CLI form). It overrides the
	// TEPeriod derivation.
	SolveTimeout time.Duration
	// Classes, when non-nil and enabled (multi-tier), switches the reaction
	// round onto the class-aware ladder: a strict-priority classed solve
	// (one Benders solve per tier against residual capacity, each under
	// SolveUnits) followed by the predictive admission/shedding stage. A
	// nil or single-tier spec takes the exact uniform code path — every
	// output is byte-identical to a classless testbed (pinned by
	// TestClassesDisabledByteIdentity).
	Classes *te.ClassSpec
	// StormSignals are extra degraded fibers mixed into every reaction
	// round's Eqn. 1 calibration — the degradation-storm model the F9
	// failover row and the sloclass chaos coupling use. Empty leaves the
	// calibration exactly as before (only the detected fiber degraded).
	StormSignals []core.DegradationSignal

	// opt and solveCache are the persistent TE solver and its cross-epoch
	// warm-start cache (lazily built by solver): successive reaction rounds
	// reuse Benders cuts across epochs, and OpenState primes the cache on a
	// warm restart from the journaled probability vector.
	opt        *core.Optimizer
	solveCache *core.SolveCache
	// tierCaches and adm are the classed-path analogues: one warm-start
	// cache per tier (tier inputs have distinct fingerprints) and the
	// admission ladder's in-memory state. Like the solver cache, both are
	// process state: a restart or failover drops them.
	tierCaches []*core.SolveCache
	adm        *Admission
}

// solveDeadline resolves the round's wall-clock solve ceiling: an explicit
// SolveTimeout wins, otherwise it derives from the TE period.
func (tb *Testbed) solveDeadline() time.Duration {
	if tb.SolveTimeout > 0 {
		return tb.SolveTimeout
	}
	return SolveDeadline(tb.TEPeriod)
}

// solver returns the testbed's persistent optimizer and warm-start cache,
// building them on first use and refreshing the budget knobs (which the
// caller may have changed between rounds). Keeping one optimizer + cache
// alive across reaction rounds is what lets a quiet epoch re-solve reuse
// the previous epoch's Benders cuts instead of starting cold.
func (tb *Testbed) solver() (*core.Optimizer, *core.SolveCache) {
	if tb.opt == nil {
		tb.opt = core.DefaultOptimizer()
		tb.solveCache = &core.SolveCache{}
	}
	tb.opt.BudgetUnits = tb.SolveUnits
	tb.opt.SolveTimeout = tb.solveDeadline()
	tb.opt.Metrics = tb.Ctl.Metrics
	return tb.opt, tb.solveCache
}

// classedCaches returns the per-tier warm-start caches, (re)built when the
// spec's tier count changes.
func (tb *Testbed) classedCaches() []*core.SolveCache {
	if len(tb.tierCaches) != len(tb.Classes.Tiers) {
		tb.tierCaches = make([]*core.SolveCache, len(tb.Classes.Tiers))
		for i := range tb.tierCaches {
			tb.tierCaches[i] = &core.SolveCache{}
		}
	}
	return tb.tierCaches
}

// admissionLadder returns the testbed's admission stage, building it on
// first use against the active controller's metrics and event log.
func (tb *Testbed) admissionLadder() *Admission {
	if tb.adm == nil {
		tb.adm = NewAdmission(tb.Classes, tb.Ctl.Metrics, tb.Ctl.Log)
	}
	return tb.adm
}

// LastAdmission returns the most recent admission decision (nil before the
// first classed reaction round, and always nil with classes disabled).
func (tb *Testbed) LastAdmission() *AdmissionDecision {
	if tb.adm == nil {
		return nil
	}
	return tb.adm.Last()
}

// SolveCacheStats reports the warm-start cache counters of the testbed's
// persistent solver (zero-valued before the first solve).
func (tb *Testbed) SolveCacheStats() core.CacheStats {
	if tb.solveCache == nil {
		return core.CacheStats{}
	}
	return tb.solveCache.Stats()
}

// NewTestbed builds the triangle testbed with the given switch latencies
// over the production TCP transport.
func NewTestbed(cfg SwitchConfig, predict Predictor) (*Testbed, error) {
	return NewTestbedTransport(cfg, predict, TCPTransport{})
}

// NewTestbedTransport builds the testbed with the controller dialing
// through tr — the chaos experiments pass a fault.Transport here to inject
// deterministic control-plane faults between controller and agents.
func NewTestbedTransport(cfg SwitchConfig, predict Predictor, tr Transport) (*Testbed, error) {
	nodes := []topology.Node{{ID: 0, Name: "s1"}, {ID: 1, Name: "s2"}, {ID: 2, Name: "s3"}}
	fibers := []topology.Fiber{
		{ID: 0, A: 0, B: 1, LengthKm: 100},
		{ID: 1, A: 0, B: 2, LengthKm: 100},
		{ID: 2, A: 1, B: 2, LengthKm: 100},
	}
	var links []topology.Link
	add := func(src, dst topology.NodeID, f topology.FiberID) {
		links = append(links, topology.Link{
			ID: topology.LinkID(len(links)), Src: src, Dst: dst,
			Capacity: 100, Fibers: []topology.FiberID{f}, // 100 Gbps per wavelength (§5)
		})
	}
	add(0, 1, 0)
	add(1, 0, 0)
	add(0, 2, 1)
	add(2, 0, 1)
	add(1, 2, 2)
	add(2, 1, 2)
	net, err := topology.New("testbed", nodes, fibers, links)
	if err != nil {
		return nil, err
	}
	flows := []routing.Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}}
	ts, err := routing.BuildTunnels(net, flows, 1)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Net: net, Tunnels: ts, Predict: predict, PI: []float64{0.005, 0.009, 0.001}}
	agents := make(map[string]string, 3)
	for _, n := range nodes {
		a, err := NewSwitchAgent(n.Name, cfg)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Agents = append(tb.Agents, a)
		agents[n.Name] = a.Addr()
	}
	ctl, err := NewControllerTransport(tr, agents)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.Ctl = ctl
	return tb, nil
}

// Close tears the testbed down.
func (tb *Testbed) Close() {
	if tb.Ctl != nil {
		tb.Ctl.Close()
	}
	for _, a := range tb.Agents {
		a.Close()
	}
}

// RunScenario replays the §5 VOA script (healthy 0-65 s, degraded
// 65-110 s, cut at 110 s) against the telemetry detector and, on the
// degradation signal, executes the full PreTE reaction pipeline, returning
// its timing breakdown. The optical timeline is replayed at full speed —
// wall-clock costs are only incurred by the real computations and the real
// TCP round-trips to the switch agents.
func (tb *Testbed) RunScenario(seed uint64) (*PipelineTiming, error) {
	fiberSim := optical.NewFiberSim(100, stats.NewRNG(seed))
	samples := optical.TestbedScript().Replay(fiberSim, 0)
	det := telemetry.NewDetector(2)
	var timing PipelineTiming
	for _, s := range samples {
		detectStart := time.Now()
		events := det.Observe(s)
		for _, ev := range events {
			if ev.Type != telemetry.DegradationStart {
				continue
			}
			timing.Detection = time.Since(detectStart)
			t, err := tb.reactToDegradation(ev)
			if err != nil {
				return nil, err
			}
			t.Detection = timing.Detection
			return t, nil
		}
	}
	return nil, fmt.Errorf("wan: the VOA script produced no degradation event")
}

// RunScenarioStream is RunScenario with the bare detector replaced by the
// streaming ingest pipeline (internal/ingest): the VOA script's samples
// arrive ratePerTick at a time on fiber 0, flow through the sharded rings,
// and the controller reacts to the first flushed DegradationStart exactly
// as the batch path does. shards <= 0 and ratePerTick <= 0 select the
// defaults (4 shards, one sample per tick). The returned ingest.Stats
// carries the pipeline's exact drop/merge accounting for the run; at
// default capacities the script never crosses the watermark, so the timing
// breakdown matches RunScenario's.
func (tb *Testbed) RunScenarioStream(seed uint64, shards, ratePerTick int) (*PipelineTiming, ingest.Stats, error) {
	fiberSim := optical.NewFiberSim(100, stats.NewRNG(seed))
	samples := optical.TestbedScript().Replay(fiberSim, 0)
	cfg := ingest.DefaultConfig()
	if shards > 0 {
		cfg.Shards = shards
	}
	cfg.ConfirmSamples = 2
	cfg.Metrics = tb.Ctl.Metrics
	pipe, err := ingest.New(tb.Net, cfg)
	if err != nil {
		return nil, ingest.Stats{}, err
	}
	if ratePerTick <= 0 {
		ratePerTick = 1
	}
	react := func(batches []ingest.FiberEvents, detectStart time.Time) (*PipelineTiming, error) {
		for _, b := range batches {
			for _, fe := range b.Events {
				if fe.Type != telemetry.DegradationStart {
					continue
				}
				detection := time.Since(detectStart)
				t, err := tb.reactToDegradation(fe.Event)
				if err != nil {
					return nil, err
				}
				t.Detection = detection
				return t, nil
			}
		}
		return nil, nil
	}
	for i := 0; i < len(samples); i += ratePerTick {
		detectStart := time.Now()
		end := min(i+ratePerTick, len(samples))
		arrivals := make([]ingest.Arrival, 0, end-i)
		for _, s := range samples[i:end] {
			arrivals = append(arrivals, ingest.Arrival{Fiber: 0, Sample: s})
		}
		batches, err := pipe.Tick(arrivals)
		if err != nil {
			return nil, pipe.Stats(), err
		}
		if t, err := react(batches, detectStart); err != nil || t != nil {
			return t, pipe.Stats(), err
		}
	}
	detectStart := time.Now()
	batches, err := pipe.Flush()
	if err != nil {
		return nil, pipe.Stats(), err
	}
	if t, err := react(batches, detectStart); err != nil || t != nil {
		return t, pipe.Stats(), err
	}
	return nil, pipe.Stats(), fmt.Errorf("wan: the VOA script produced no degradation event")
}

// reactToDegradation runs inference -> Algorithm 1 -> scenario regeneration
// -> TE computation -> rate installation, timing each stage. Control-plane
// failures that survive the controller's retry loop do not abort the round:
// the degradation ladder plans on the previous tunnel set when the new
// tunnels cannot be programmed, and keeps the last good rates when the
// adaptation push fails (agents are never left rate-less).
func (tb *Testbed) reactToDegradation(ev telemetry.Event) (*PipelineTiming, error) {
	var timing PipelineTiming
	if tb.TEPeriod > 0 {
		// The TE period bounds the whole reaction, retries included: an RPC
		// that would still be backing off when the next epoch is due gives
		// up instead of eating into it (see Controller.BeginRound).
		tb.Ctl.BeginRound(tb.TEPeriod)
		defer tb.Ctl.BeginRound(0)
	}
	// Model inference ("only takes several milliseconds", §5).
	t0 := time.Now()
	tb.Ctl.Log.Addf("stage inference")
	feats, err := optical.ExtractFeatures(ev.Window, 0, "testbed", "voa", 100)
	if err != nil {
		return nil, err
	}
	pNN := tb.Predict(feats)
	timing.Inference = time.Since(t0)

	// Tunnel update: Algorithm 1 + serialized installation on the agents.
	t0 = time.Now()
	tb.Ctl.Log.Addf("stage tunnel-update")
	upd, err := core.UpdateTunnels(tb.Tunnels, 0, 1)
	if err != nil {
		return nil, err
	}
	planTunnels := upd.Tunnels
	installs := tb.installsFor(upd)
	if _, err := tb.Ctl.InstallTunnels(installs); err != nil {
		if errors.Is(err, ErrControllerHalted) {
			// The controller process died mid-epoch: no ladder, no journal
			// entry for this epoch — the round aborts and the next
			// incarnation recovers the last journaled state from disk.
			return nil, err
		}
		// Ladder rung 1: the reactive tunnels could not all be programmed
		// even after retries. Plan on the previous tunnel set instead of
		// wedging; any tunnels that did land are harmless (no rates are
		// allocated to them), and the agents keep their installed state.
		tb.Ctl.Metrics.Counter("wan.fallback.tunnel_rounds").Inc()
		tb.Ctl.Log.Addf("fallback tunnels")
		planTunnels = tb.Tunnels
		timing.Degraded = true
	}
	timing.TunnelUpdate = time.Since(t0)

	// Failure-scenario regeneration (Eqn. 1 + enumeration). StormSignals
	// mix extra degraded fibers into the calibration; with none configured
	// the map is exactly the single detected fiber, as before.
	t0 = time.Now()
	tb.Ctl.Log.Addf("stage scenario-regen")
	degradedFibers := map[topology.FiberID]float64{0: pNN}
	for _, s := range tb.StormSignals {
		degradedFibers[s.Fiber] = s.PNN
	}
	probs, err := scenario.Calibrated(tb.PI, degradedFibers, 0.25)
	if err != nil {
		return nil, err
	}
	set, err := scenario.Enumerate(probs, scenario.DefaultOptions())
	if err != nil {
		return nil, err
	}
	timing.ScenarioRegen = time.Since(t0)

	// TE computation (Benders on the updated tunnels), bounded by the
	// round's compute budget: the TE period is a hard deadline, so a solve
	// that cannot finish degrades to a truncated incumbent or the heuristic
	// plan — rung three of the ladder — rather than blowing the period.
	// The solve goes through the testbed's persistent warm-start cache:
	// quiet epochs (unchanged scenario set and input) return the cached
	// plan, probability-only drift re-solves from the previous cut pool.
	t0 = time.Now()
	tb.Ctl.Log.Addf("stage te-compute")
	opt, cache := tb.solver()
	teIn := &te.Input{
		Net: tb.Net, Tunnels: planTunnels,
		Demands:   te.Demands{50, 50},
		Scenarios: set, Beta: 0.99,
	}
	var alloc te.Allocation
	var classed *core.ClassedResult
	if tb.Classes.Enabled() {
		// Class-aware ladder: strict-priority classed solve. Truncation and
		// fallback of any tier mark the round exactly as the uniform path
		// would.
		classed, err = opt.SolveClassedCached(teIn, tb.Classes, tb.classedCaches())
		if err != nil {
			return nil, err
		}
		var truncated, fellBack bool
		for _, tier := range classed.Tiers {
			truncated = truncated || tier.Res.Truncated
			fellBack = fellBack || tier.Res.Fallback
		}
		if truncated {
			timing.SolveTruncated = true
			tb.Ctl.Metrics.Counter("wan.solve.truncated_rounds").Inc()
			tb.Ctl.Log.Addf("te-solve truncated")
		}
		if fellBack {
			timing.Degraded = true
			tb.Ctl.Metrics.Counter("wan.solve.fallback_rounds").Inc()
			tb.Ctl.Log.Addf("te-solve fallback")
		}
		alloc = classed.Alloc
	} else {
		res, err := opt.SolveCached(teIn, cache)
		if err != nil {
			return nil, err
		}
		if res.Truncated {
			timing.SolveTruncated = true
			tb.Ctl.Metrics.Counter("wan.solve.truncated_rounds").Inc()
			tb.Ctl.Log.Addf("te-solve truncated")
		}
		if res.Fallback {
			// The heuristic plan is valid but unoptimized: record the round
			// as degraded, like the other ladder rungs.
			timing.Degraded = true
			tb.Ctl.Metrics.Counter("wan.solve.fallback_rounds").Inc()
			tb.Ctl.Log.Addf("te-solve fallback")
		}
		alloc = res.Alloc
	}
	timing.TECompute = time.Since(t0)

	// Rate adaptation push. Ladder rung 2: if the push cannot complete, the
	// controller re-asserts the last good table and the round is recorded
	// as degraded rather than failed.
	t0 = time.Now()
	tb.Ctl.Log.Addf("stage rate-install")
	rates := make(map[string]float64, len(alloc))
	for tid, amt := range alloc {
		rates[fmt.Sprintf("t%d", tid)] = amt
	}
	_, fellBack, err := tb.Ctl.UpdateRatesWithFallback(rates)
	if err != nil && errors.Is(err, ErrControllerHalted) {
		return nil, err
	} else if fellBack {
		timing.Degraded = true
	}
	timing.RateInstall = time.Since(t0)

	// Predictive admission: with classes enabled, the epoch's per-tier
	// decision is derived from the classed solve — or, when the rate push
	// fell back to the previous table, replayed from the previous decision
	// (the ladder's last-good rung).
	if classed != nil {
		adm := tb.admissionLadder()
		var dec *AdmissionDecision
		if fellBack {
			dec = adm.DecideLastGood()
		}
		if dec == nil {
			dec = adm.Decide(classed, true)
		}
		if err := dec.Check(); err != nil {
			return nil, err
		}
	}

	// The epoch completed (possibly degraded, but with a consistent plan
	// installed): journal it — including the scenario-set fingerprint, so
	// the next incarnation can warm-start the solver — and a warm restart
	// resumes from here. A nil store (no -state-dir) makes this a no-op,
	// and journaling is a write-only side channel — it never changes the
	// installed plan.
	if err := tb.Ctl.JournalEpoch(probs, set.Fingerprint()); err != nil {
		return nil, fmt.Errorf("wan: epoch completed but not journaled: %w", err)
	}
	return &timing, nil
}

// OpenState attaches a crash-safe state store under dir to the testbed's
// controller and, on a warm start, re-asserts the recovered last-good rate
// table fleet-wide — the agents of a restarted controller may themselves
// have restarted, so recovery pushes the plan instead of assuming it —
// then primes the persistent solver's warm-start cache from the journaled
// probability vector, so the first post-restart reaction round warm-starts
// instead of solving cold. The returned Recovery reports what was found;
// rec.Warm == false is a cold start (the ladder begins empty, exactly as
// without a state directory).
func (tb *Testbed) OpenState(dir string) (*Recovery, error) {
	rec, err := tb.Ctl.OpenState(dir)
	if err != nil {
		return nil, err
	}
	if rec.Warm {
		if last := tb.Ctl.LastGoodRates(); last != nil {
			if _, err := tb.Ctl.UpdateRates(last); err != nil {
				return rec, fmt.Errorf("wan: re-assert recovered rates: %w", err)
			}
		}
		tb.primeSolver()
	}
	return rec, nil
}

// primeSolver rebuilds the last journaled epoch's TE input — the same
// deterministic pipeline the reaction round runs: Algorithm 1 on the base
// tunnel set, then scenario enumeration from the recovered calibrated
// probabilities — checks the rebuilt scenario set against the journaled
// fingerprint, and solves it once into the warm-start cache. Priming is
// best-effort and write-only: any failure (fingerprint mismatch, solver
// error) leaves the cache cold, which only costs the next round a cold
// solve. A fingerprint mismatch means enumeration options or code changed
// across the restart; the stale plan must not be trusted, so the cache is
// left cold and the mismatch is counted.
func (tb *Testbed) primeSolver() {
	probs := tb.Ctl.LastProbs()
	if len(probs) == 0 {
		return
	}
	set, err := scenario.Enumerate(probs, scenario.DefaultOptions())
	if err != nil {
		tb.Ctl.Log.Addf("warmstart enumerate failed")
		return
	}
	if want := tb.Ctl.LastScenarioFP(); want != 0 {
		if got := set.Fingerprint(); got != want {
			tb.Ctl.Metrics.Counter("wan.recovery.scenario_fp_mismatch").Inc()
			tb.Ctl.Log.Addf("warmstart fingerprint mismatch")
			return
		}
		tb.Ctl.Metrics.Counter("wan.recovery.scenario_fp_match").Inc()
	}
	upd, err := core.UpdateTunnels(tb.Tunnels, 0, 1)
	if err != nil {
		return
	}
	opt, cache := tb.solver()
	in := &te.Input{
		Net: tb.Net, Tunnels: upd.Tunnels,
		Demands:   te.Demands{50, 50},
		Scenarios: set, Beta: 0.99,
	}
	if err := opt.Prime(in, cache); err != nil {
		tb.Ctl.Log.Addf("warmstart prime failed")
		return
	}
	tb.Ctl.Metrics.Counter("wan.warmstart.primed").Inc()
	tb.Ctl.Log.Addf("warmstart primed")
}

// RestartController simulates a controller process restart: the old
// incarnation is torn down (dropping its connections and releasing its
// state-directory lock) and a fresh controller dials the same agents
// through tr, inheriting the old tuning (timeout, retry policy, metrics,
// event log) but none of the in-memory state — that comes back, if at all,
// through OpenState.
func (tb *Testbed) RestartController(tr Transport) error {
	agents := make(map[string]string, len(tb.Agents))
	for _, a := range tb.Agents {
		agents[a.Name] = a.Addr()
	}
	old := tb.Ctl
	if old != nil {
		old.Close()
	}
	ctl, err := NewControllerTransport(tr, agents)
	if err != nil {
		return err
	}
	if old != nil {
		ctl.Timeout = old.Timeout
		ctl.Retry = old.Retry
		ctl.Metrics = old.Metrics
		ctl.Log = old.Log
		ctl.StateCompactEvery = old.StateCompactEvery
	}
	tb.Ctl = ctl
	// A real restart loses the in-memory solver state too; the warm-start
	// cache comes back, if at all, through OpenState's journal-driven
	// priming. The classed-path state (per-tier caches, admission backlog
	// and last-good decision) is equally in-memory and equally lost.
	tb.opt = nil
	tb.solveCache = nil
	tb.tierCaches = nil
	tb.adm = nil
	return nil
}

// AdoptPromoted installs a promoted standby site's controller as the
// testbed's active controller — the failover analogue of RestartController.
// The old controller is returned rather than closed: failover tests keep
// the zombie predecessor alive and dialable to prove the agents fence its
// post-promotion RPCs (and a real dead leader cannot be "closed" anyway).
// Like a restart, adoption drops the in-memory solver state; if the
// promoted controller recovered warm, the warm-start cache is re-primed
// from its journaled probability vector.
func (tb *Testbed) AdoptPromoted(ctl *Controller) (zombie *Controller) {
	zombie = tb.Ctl
	tb.Ctl = ctl
	tb.opt = nil
	tb.solveCache = nil
	tb.tierCaches = nil
	tb.adm = nil
	if len(ctl.LastProbs()) > 0 {
		tb.primeSolver()
	}
	return zombie
}

// installsFor maps Algorithm 1's new tunnels to per-switch install
// commands (the head-end switch of each tunnel programs it).
func (tb *Testbed) installsFor(upd *core.UpdateResult) []TunnelInstall {
	var out []TunnelInstall
	for _, tn := range upd.Tunnels.Tunnels {
		if !tn.New {
			continue
		}
		head := tb.Net.Nodes[int(upd.Tunnels.Flows[tn.Flow].Src)]
		path := make([]int, len(tn.Links))
		for i, l := range tn.Links {
			path[i] = int(l)
		}
		out = append(out, TunnelInstall{Switch: head.Name, TunnelID: int(tn.ID), Path: path})
	}
	return out
}

// MeasureInstallScaling measures tunnel installation wall time for
// growing batch sizes (Fig 11b).
func MeasureInstallScaling(cfg SwitchConfig, counts []int) (map[int]time.Duration, error) {
	agent, err := NewSwitchAgent("s1", cfg)
	if err != nil {
		return nil, err
	}
	defer agent.Close()
	ctl, err := NewController(map[string]string{"s1": agent.Addr()})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	out := make(map[int]time.Duration, len(counts))
	next := 0
	for _, n := range counts {
		installs := make([]TunnelInstall, n)
		for i := range installs {
			installs[i] = TunnelInstall{Switch: "s1", TunnelID: next, Path: []int{0, 1}}
			next++
		}
		d, err := ctl.InstallTunnels(installs)
		if err != nil {
			return nil, err
		}
		out[n] = d
	}
	return out, nil
}
