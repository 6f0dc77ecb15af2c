package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"prete/internal/obs"
	"prete/internal/par"
	"prete/internal/sim"
	"prete/internal/stats"
)

const (
	// demandNoise is the per-flow relative noise on B4's base demand
	// matrix, as a measured traffic matrix carries. The solver's cost moves
	// by tens of percent between draws, so the evaluation is a fixed suite
	// of evalDraws matrices; the seed sets the order the loop visits them.
	demandNoise = 0.02
	evalDraws   = 16
)

// evalEnvs builds the suite: B4 with the configuration's static
// probabilities, once per demand draw.
func evalEnvs(cfg sim.Config) ([]*sim.Env, error) {
	envs := make([]*sim.Env, evalDraws)
	for d := range envs {
		env, err := sim.BuildEnv("B4", configSeed, cfg)
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(configSeed*evalDraws + uint64(d))
		for i := range env.BaseDemands {
			env.BaseDemands[i] *= 1 + demandNoise*(2*rng.Float64()-1)
		}
		envs[d] = env
	}
	return envs, nil
}

// evalOrder is the seed's visiting order of the suite.
func evalOrder(seed uint64) []int {
	rng := stats.NewRNG(seed ^ 0xe7a1)
	order := make([]int, evalDraws)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// evalSchemes are evaluated, in this order, by every eval-b4 op.
var evalSchemes = []string{"TeaVar", "PreTE"}

const evalScale = 1.0

// evalTailOps is eval-b4's tail block: a 30 s run holds 25–35 ops, so the
// tail with ten ops beyond it is the median of a block of 20.
const evalTailOps = 20

// evalConfig is eval-b4's reduced-size evaluation: few enough scenarios
// that one op takes about a second, so a run holds enough ops for a median.
func evalConfig(parallelism int, reg *obs.Registry) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.ScenarioOpts.MaxScenarios = 60
	cfg.MaxDegScenarios = 4
	cfg.Parallelism = parallelism
	cfg.Metrics = reg
	return cfg
}

// availRef is the recorded outcome of one scheme's evaluation: a hash over
// the exact bits of the per-flow availability vector, and its mean.
type availRef struct {
	Hash string  `json:"hash"`
	Mean float64 `json:"mean"`
}

//go:embed reference.json
var referenceJSON []byte

// references returns the suite's recorded outcomes, per draw and scheme.
func references() ([]map[string]availRef, error) {
	var refs []map[string]availRef
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if len(refs) != evalDraws {
		return nil, fmt.Errorf("reference.json: %d draws, want %d", len(refs), evalDraws)
	}
	return refs, nil
}

func vectorHash(v []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// evaluate runs one op's evaluations: ev, fresh for the op, measures every
// scheme.
func evaluate(ev *sim.Evaluator, tr *tracer) (map[string]sim.Availability, error) {
	out := make(map[string]sim.Availability, len(evalSchemes))
	for _, scheme := range evalSchemes {
		var a sim.Availability
		var err error
		tr.do("sim."+scheme, func() { a, err = ev.Evaluate(scheme, evalScale) })
		if err != nil {
			return nil, fmt.Errorf("evaluate %s: %w", scheme, err)
		}
		out[scheme] = a
	}
	return out, nil
}

// runEval is the offline-evaluation workload: a closed loop of fixed-size
// availability evaluations of TeaVar and PreTE on B4, one suite draw per op
// in the seed's order.
func runEval(o runOpts) (*report, error) {
	r := &report{stamp: envStamp(o.stateDir), tailOps: evalTailOps}
	var reg *obs.Registry
	if o.trace {
		reg = obs.NewRegistry()
		par.SetMetrics(reg)
		defer par.SetMetrics(nil)
	}
	refs, err := references()
	if err != nil {
		return nil, err
	}
	cfg := evalConfig(runtime.NumCPU(), reg)
	order := evalOrder(o.seed)
	check := func(what string, d int, got map[string]sim.Availability) {
		for _, scheme := range evalSchemes {
			if h := vectorHash(got[scheme].PerFlow); h != refs[d][scheme].Hash {
				r.violate("%s: draw %d %s availability %s differs from the recorded reference %s", what, d, scheme, h, refs[d][scheme].Hash)
			}
		}
	}
	// Set-up builds the suite and runs one warm-up evaluation.
	var envs []*sim.Env
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if envs, err = evalEnvs(cfg); err != nil {
			return nil, err
		}
		warm, err := evaluate(sim.NewEvaluator(envs[order[0]], cfg), nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up evaluation: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		check("warm-up", order[0], warm)
	}

	tr := newTracer(o.trace)
	before := reg.Snapshot()
	var availSum float64
	var runErr error
	var got map[string]sim.Availability
	// ev is the last op's Evaluator: live_heap_mb is read while it and its
	// plan and enumeration caches are still held, as a caller that goes on
	// to query them would hold them.
	var ev *sim.Evaluator
	memStart := timedLoop(r, o.seconds, func(int) {}, func(i int) bool {
		tr.beginOp(i)
		defer tr.endOp()
		ev = sim.NewEvaluator(envs[order[(i+1)%evalDraws]], cfg)
		got, runErr = evaluate(ev, tr)
		return runErr != nil
	}, func(i int) {
		if runErr != nil {
			return
		}
		check(fmt.Sprintf("op %d", i), order[(i+1)%evalDraws], got)
		for _, scheme := range evalSchemes {
			availSum += got[scheme].Mean / float64(len(evalSchemes))
		}
	})
	r.finishMemory(memStart)
	runtime.KeepAlive(ev)
	r.quality = map[string]float64{"avail_mean": availSum / float64(len(r.latencies))}
	if o.trace {
		r.layers = layerMetrics(before, reg.Snapshot(), tr.selfTimes(), r.quality, len(r.latencies))
		if _, err := tr.write(filepath.Dir(o.stateDir), "eval-b4", o.seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// recordReferences evaluates every draw of the suite serially and returns
// the reference file's contents.
func recordReferences() ([]byte, error) {
	cfg := evalConfig(1, nil)
	envs, err := evalEnvs(cfg)
	if err != nil {
		return nil, err
	}
	refs := make([]map[string]availRef, len(envs))
	for d, env := range envs {
		got, err := evaluate(sim.NewEvaluator(env, cfg), nil)
		if err != nil {
			return nil, fmt.Errorf("draw %d: %w", d, err)
		}
		refs[d] = make(map[string]availRef, len(got))
		for scheme, a := range got {
			refs[d][scheme] = availRef{Hash: vectorHash(a.PerFlow), Mean: a.Mean}
		}
	}
	return json.MarshalIndent(refs, "", " ")
}
