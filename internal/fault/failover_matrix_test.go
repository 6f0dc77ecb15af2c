package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/te"
	"prete/internal/wan"
)

// tePeriod is the recovery bound every failover row is held to: an
// aggressive lower bound for a production TE period (§5 runs minutes).
const tePeriod = 10 * time.Second

// leaseTicks is every row's lease duration: a site detects leader death on
// the third silent tick.
const leaseTicks = 3

// failoverCase is one row of the failover matrix: an injected failure
// combination on the leader, the standby sites, the replication stream, the
// lease channel, or the promotion timing, plus its expected rung on the
// degradation ladder. No lock is shared between the leader and any site, so
// the only split-brain defense every row leans on is the agents'
// generation fence.
type failoverCase struct {
	name        string
	sites       int
	crashSites  []int                  // sites dead before the leader dies
	epochs      int                    // healthy epochs before the failure
	retain      int                    // leader-side replication buffer cap (0 = default)
	shipSpec    map[int]Spec           // per-site replication-stream chaos
	hbSpec      map[int]Spec           // per-site heartbeat chaos (partitioned failure detector)
	agentSpec   Spec                   // chaos on the promoted controller's agent transport
	crashBudget int64                  // >= 0: kill the leader mid-epoch after this many RPCs; -1: clean death between epochs
	corrupt     func(dir string) error // applied to the promoting site's directory after leader death
	leaderLives bool                   // the leader never dies: one site's detector alone lapses
	partition   bool                   // the leader lives but is cut off from the lease and every site
	secondClaim bool                   // a second site claims after the first wins
	hookOffset  int64                  // promote site 1 this many leader RPCs into the next epoch
	classes     *te.ClassSpec          // SLO tiers; nil runs classless
	storm       []core.DegradationSignal
	maxTicks    int // detection ticks allowed after the failure

	wantPromoted   int // 0 = the ladder must hold at "no promotion, plan stays installed"
	wantWarm       bool
	wantEpoch      uint64
	wantMirror     bool
	wantReassert   bool
	wantMinResyncs int64 // lower bound on snapshot re-syncs the promoted site needed
	wantFenced     int   // exact count of promotion claims lost at the agents
}

// failoverRun is the full observable outcome of one failover trace. Two
// runs of the same row must be reflect.DeepEqual — events, fault histories,
// final plans, AND the byte content of every state directory (SiteHashes)
// — the bit-identical replay evidence that a failover found in CI
// reproduces locally from its seeds.
type failoverRun struct {
	Events       []string
	Faults       []string
	Rates        []map[string]float64
	Promoted     int
	Warm         bool
	Epoch        uint64
	MirrorMatch  bool
	Reasserted   bool
	Degraded     bool
	Resyncs      int64
	DetectTicks  int
	FencedClaims int
	Fenced       int
	HaltAttempt  int64
	ZombieErr    string
	Shipped      int64
	Acked        int64
	Resent       int64
	SiteHashes   []string
	Status       []wan.SiteStatus
	Admission    *wan.AdmissionDecision
}

// hashDir digests a state directory: sha256 over every file's relative path
// and content in sorted order. Journal bytes, snapshot bytes, generation
// counters — if any durable byte differs between two runs, the digest does.
func hashDir(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s:%d:", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		t.Fatalf("hash %s: %v", dir, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// injectorFn returns a per-site transport factory applying specs[id] to
// site id's connection, recording each injector in injs for the replay
// comparison; sites without a spec get a clean TCP transport.
func injectorFn(t *testing.T, specs map[int]Spec, reg *obs.Registry, injs map[int]*Injector) func(id int) wan.Transport {
	return func(id int) wan.Transport {
		spec, ok := specs[id]
		if !ok {
			return wan.TCPTransport{}
		}
		inj, err := NewInjector(spec, reg)
		if err != nil {
			t.Fatal(err)
		}
		injs[id] = inj
		return NewTransport(wan.TCPTransport{}, inj)
	}
}

// runFailoverScenario drives one row: healthy epochs with the leader's
// journal shipping to every site, the injected failure, lease expiry and
// promotion (or the expected absence of one), the post-failover epoch on
// the adopted lineage, and the zombie fence probe.
func runFailoverScenario(t *testing.T, fc failoverCase) failoverRun {
	t.Helper()
	reg := obs.NewRegistry()
	log := wan.NewEventLog()
	dir := t.TempDir()
	sitesRoot := t.TempDir()
	retry := wan.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Jitter: 0.5}

	ct := NewCtlCrash(wan.TCPTransport{}, 0, reg)
	ct.Disarm()
	hook := NewCtlHook(ct)
	tb, err := wan.NewTestbedTransport(fastSwitch(), func(f optical.Features) float64 { return 0.8 }, hook)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.SolveUnits = 200000
	tb.Ctl.Metrics = reg
	tb.Ctl.Log = log
	tb.Ctl.Retry = retry
	tb.Classes = fc.classes
	tb.StormSignals = fc.storm
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	lease, err := wan.NewLeaseServer(tb.Ctl.Generation)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lease.Close() })

	var agentTr wan.Transport = wan.TCPTransport{}
	var agentInj *Injector
	if fc.agentSpec.Active() {
		agentInj, err = NewInjector(fc.agentSpec, reg)
		if err != nil {
			t.Fatal(err)
		}
		agentTr = NewTransport(wan.TCPTransport{}, agentInj)
	}
	shipInjs := make(map[int]*Injector)
	hbInjs := make(map[int]*Injector)
	agents := make(map[string]string, len(tb.Agents))
	for _, a := range tb.Agents {
		agents[a.Name] = a.Addr()
	}
	ss, err := wan.NewSiteSet(dir, sitesRoot, lease.Addr(), agents, wan.SiteOptions{
		Sites:            fc.sites,
		LeaseTicks:       leaseTicks,
		HeartbeatTimeout: 100 * time.Millisecond,
		RetainRecords:    fc.retain,
		Transport:        agentTr,
		Ship:             injectorFn(t, fc.shipSpec, reg, shipInjs),
		Heartbeat:        injectorFn(t, fc.hbSpec, reg, hbInjs),
		Retry:            retry,
		Metrics:          reg,
		Log:              log,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	for _, id := range fc.crashSites {
		if err := ss.CrashSite(id); err != nil {
			t.Fatal(err)
		}
	}

	var run failoverRun
	tick := func() *wan.SitePromotion {
		p, err := ss.Tick()
		if err != nil {
			if !errors.Is(err, wan.ErrClaimFenced) {
				t.Fatalf("tick: %v", err)
			}
			run.FencedClaims++
		}
		return p
	}
	detect := func() *wan.SitePromotion {
		var p *wan.SitePromotion
		start := time.Now()
		for i := 0; i < fc.maxTicks && p == nil; i++ {
			run.DetectTicks++
			p = tick()
		}
		if p != nil {
			if took := time.Since(start); took >= tePeriod {
				t.Errorf("detection + hand-off took %v, recovery bound is one TE period (%v)", took, tePeriod)
			}
		}
		return p
	}

	// Healthy phase: the leader journals epochs, each Tick ships them to
	// every site and renews every site's lease.
	for e := 0; e < fc.epochs; e++ {
		if _, err := tb.RunScenario(7); err != nil {
			t.Fatalf("healthy epoch %d: %v", e+1, err)
		}
		if p := tick(); p != nil {
			t.Fatalf("promotion while the leader is alive: %+v", p)
		}
	}
	installedRates := make([]map[string]float64, len(tb.Agents))
	for i, a := range tb.Agents {
		installedRates[i] = a.Rates()
	}

	// The injected failure, then detection and hand-off.
	var prom *wan.SitePromotion
	switch {
	case fc.hookOffset > 0:
		// All leases lapse (the clock jumps a full duration with no renewing
		// tick) and the promotion fires at an exact point inside the
		// leader's next epoch — the claim races a live solve.
		ss.Clock().Advance(leaseTicks + 1)
		var hookErr error
		hook.Arm(hook.Attempts()+fc.hookOffset, func() {
			prom, hookErr = ss.Promote(1)
		})
		if _, zerr := tb.RunScenario(7); zerr != nil {
			run.ZombieErr = zerr.Error()
		}
		if hookErr != nil {
			t.Fatalf("mid-epoch promotion: %v", hookErr)
		}
		if prom == nil || !hook.Fired() {
			t.Fatalf("promotion hook never fired (fired=%v)", hook.Fired())
		}
	case fc.partition:
		// The leader is alive but fully partitioned from the lease endpoint
		// and every site. Sites see only silence.
		ss.SetLeaderReachable(false)
		lease.Close()
		prom = detect()
	case fc.leaderLives:
		// Nothing happens to the leader: a site whose detector is
		// partitioned from the live lease runs out its lease on its own.
		prom = detect()
	default:
		if fc.crashBudget >= 0 {
			ct.Arm(fc.crashBudget)
			if _, err := tb.RunScenario(7); !errors.Is(err, wan.ErrControllerHalted) {
				t.Fatalf("mid-epoch crash budget %d: err = %v, want ErrControllerHalted", fc.crashBudget, err)
			}
			run.HaltAttempt = ct.Attempts()
		}
		lease.Close()
		if err := tb.Ctl.ReleaseState(); err != nil {
			t.Fatal(err)
		}
		if fc.corrupt != nil {
			if err := fc.corrupt(filepath.Join(sitesRoot, fmt.Sprintf("site-%d", fc.wantPromoted))); err != nil {
				t.Fatal(err)
			}
		}
		prom = detect()
	}

	if fc.wantPromoted == 0 {
		if prom != nil || ss.Promoted() {
			t.Fatalf("unexpected promotion: %+v", prom)
		}
		// Degradation ladder floor: with no candidate left, the agents keep
		// the last installed plan and traffic keeps routing.
		for i, a := range tb.Agents {
			if got := a.Rates(); !reflect.DeepEqual(got, installedRates[i]) {
				t.Errorf("agent %d lost its installed plan with no promotion: %v", i, got)
			}
		}
	} else {
		if prom == nil {
			t.Fatalf("no promotion within %d ticks", fc.maxTicks)
		}
		runPromoted(t, fc, tb, ss, ct, prom, &run)
	}

	// Shipping accounting identity: every attempt resolved to exactly one of
	// acked or resent, nothing left inflight.
	rs := ss.ReplStats()
	if rs.Shipped != rs.Acked+rs.Resent || rs.Inflight != 0 {
		t.Errorf("accounting identity violated: shipped=%d acked=%d resent=%d inflight=%d",
			rs.Shipped, rs.Acked, rs.Resent, rs.Inflight)
	}
	run.Shipped, run.Acked, run.Resent = rs.Shipped, rs.Acked, rs.Resent

	// Row expectations.
	if run.Promoted != fc.wantPromoted {
		t.Errorf("promoted site = %d, want %d", run.Promoted, fc.wantPromoted)
	}
	if fc.wantPromoted != 0 {
		if run.Warm != fc.wantWarm || run.Epoch != fc.wantEpoch {
			t.Errorf("recovery warm=%v epoch=%d, want warm=%v epoch=%d",
				run.Warm, run.Epoch, fc.wantWarm, fc.wantEpoch)
		}
		if run.MirrorMatch != fc.wantMirror {
			t.Errorf("mirror match = %v, want %v", run.MirrorMatch, fc.wantMirror)
		}
		if run.Reasserted != fc.wantReassert {
			t.Errorf("reasserted = %v, want %v", run.Reasserted, fc.wantReassert)
		}
	}
	if run.Resyncs < fc.wantMinResyncs {
		t.Errorf("promoted site re-syncs = %d, want >= %d", run.Resyncs, fc.wantMinResyncs)
	}
	if run.FencedClaims != fc.wantFenced {
		t.Errorf("fenced claims = %d, want %d", run.FencedClaims, fc.wantFenced)
	}

	run.Events = log.Events()
	if agentInj != nil {
		for _, h := range agentInj.History() {
			run.Faults = append(run.Faults, "agent:"+h)
		}
	}
	for id := 1; id <= fc.sites; id++ {
		for _, ch := range []struct {
			prefix string
			injs   map[int]*Injector
		}{{"ship", shipInjs}, {"hb", hbInjs}} {
			if inj := ch.injs[id]; inj != nil {
				for _, h := range inj.History() {
					run.Faults = append(run.Faults, fmt.Sprintf("%s%d:%s", ch.prefix, id, h))
				}
			}
		}
	}
	for _, a := range tb.Agents {
		run.Rates = append(run.Rates, a.Rates())
	}
	run.Status = ss.Status()
	run.Admission = tb.LastAdmission()

	// State-directory digests: replicated truth must be byte-identical
	// across runs, not just behaviorally similar.
	entries, err := os.ReadDir(sitesRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() {
			run.SiteHashes = append(run.SiteHashes, hashDir(t, filepath.Join(sitesRoot, e.Name())))
		}
	}
	run.SiteHashes = append(run.SiteHashes, hashDir(t, dir))
	return run
}

// runPromoted checks a row's hand-off: the promotion's bounds and outcome,
// a second claimant, the still-running leader's fenced epoch, convergence
// of the adopted lineage, its next epoch, and the zombie fence probe.
func runPromoted(t *testing.T, fc failoverCase, tb *wan.Testbed, ss *wan.SiteSet, ct *CtlCrash, prom *wan.SitePromotion, run *failoverRun) {
	t.Helper()
	if prom.Elapsed >= tePeriod {
		t.Errorf("promotion alone took %v, bound is %v", prom.Elapsed, tePeriod)
	}
	run.Promoted = prom.SiteID
	run.Warm = prom.Recovery.Warm
	run.Epoch = prom.Recovery.Epoch
	run.MirrorMatch = prom.MirrorMatch
	run.Reasserted = prom.Reasserted
	run.Degraded = prom.Degraded
	run.Resyncs = prom.Resyncs

	if fc.secondClaim {
		// The second claimant's lease has lapsed too, so the claim is
		// locally legal — only the agents' equal-generation tie-break can
		// stop it, and must.
		if _, cerr := ss.Promote(2); !errors.Is(cerr, wan.ErrClaimFenced) {
			t.Fatalf("second claimant: err = %v, want ErrClaimFenced", cerr)
		}
		run.FencedClaims++
	}
	if fc.partition || fc.leaderLives {
		// The still-running leader runs a full epoch. Every state-bearing
		// RPC it sends carries a superseded generation: no agent may
		// install its plan, and the agents count the refusals.
		pre := make([]map[string]float64, len(tb.Agents))
		rejects := 0
		for i, a := range tb.Agents {
			pre[i] = a.Rates()
			rejects -= a.FenceRejections()
		}
		if _, zerr := tb.RunScenario(7); zerr != nil {
			run.ZombieErr = zerr.Error()
		}
		for i, a := range tb.Agents {
			rejects += a.FenceRejections()
			if got := a.Rates(); !reflect.DeepEqual(got, pre[i]) {
				t.Errorf("agent %s installed a stale-generation plan from the live leader", a.Name)
			}
		}
		if rejects == 0 {
			t.Error("the live leader's epoch drew no fence rejection")
		}
	}

	// Adopt the promoted lineage, verify convergence, run its next epoch.
	zombie := tb.AdoptPromoted(prom.Ctl)
	t.Cleanup(func() { zombie.Close() })
	if prom.Reasserted {
		want := prom.Ctl.LastGoodRates()
		for _, a := range tb.Agents {
			if got := a.Rates(); !reflect.DeepEqual(got, want) {
				t.Errorf("agent %s not converged to the re-asserted plan: %v want %v", a.Name, got, want)
			}
		}
	}
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatalf("post-failover epoch: %v", err)
	}

	// Zombie fence probe: the predecessor's network returns (Disarm) and
	// every write must bounce off the generation fence without mutating
	// agent state.
	ct.Disarm()
	preProbe := make([]map[string]float64, len(tb.Agents))
	for i, a := range tb.Agents {
		preProbe[i] = a.Rates()
	}
	if _, err := zombie.UpdateRates(map[string]float64{"t0": 12345}); err == nil {
		t.Error("zombie leader's post-promotion write was accepted")
	}
	for i, a := range tb.Agents {
		run.Fenced += a.FenceRejections()
		if got := a.Rates(); !reflect.DeepEqual(got, preProbe[i]) {
			t.Errorf("agent %s state mutated by a fenced zombie write", a.Name)
		}
	}
	if run.Fenced == 0 {
		t.Error("no agent recorded a fence rejection for the zombie probe")
	}
}

// failoverMatrix holds F1–F9 of the failure-injection matrix: leader crash
// × standby crash × detector partition × storage corruption × agent chaos ×
// storm. Each row names its expected rung on the degradation ladder.
var failoverMatrix = []failoverCase{
	{
		// F1: clean leader death between epochs; the lowest site promotes
		// warm with an exact mirror and re-installs the plan.
		name: "F1_clean_leader_crash", sites: 2, epochs: 1, crashBudget: -1, maxTicks: 5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F2: kill -9 partway through epoch 2's RPC fan-out; the un-journaled
		// epoch is lost and the fleet converges back to epoch 1's plan.
		name: "F2_crash_mid_epoch", sites: 2, epochs: 1, crashBudget: 2, maxTicks: 5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F3: site 1 is already dead when the leader dies; the next live
		// site in ID order takes over.
		name: "F3_first_standby_dead", sites: 2, crashSites: []int{1},
		epochs: 1, crashBudget: -1, maxTicks: 5,
		wantPromoted: 2, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F4: every site is dead — the ladder's floor: no promotion, and the
		// agents keep routing on the last installed plan.
		name: "F4_all_standbys_dead", sites: 2, crashSites: []int{1, 2},
		epochs: 1, crashBudget: -1, maxTicks: 4,
		wantPromoted: 0,
	},
	{
		// F5: site 1's failure detector is partitioned from the lease while
		// the leader is alive — its lease lapses and it claims: a double
		// leader. No lock refuses the claim, so the agents must: the
		// claimant's generation fences every agent, and the still-running
		// leader's next full epoch installs no rate.
		name: "F5_partition_double_leader", sites: 2, epochs: 1, crashBudget: -1,
		hbSpec:      map[int]Spec{1: {Seed: 99, Partition: 1, PartitionRPCs: 1 << 20}},
		leaderLives: true, maxTicks: 5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F6: the leader's death tore the promoting site's final journal
		// append; its mirror is ahead of durable truth, so promotion flags
		// the mismatch and converges the fleet onto the last DURABLE epoch.
		name: "F6_torn_journal_tail", sites: 2, epochs: 2, crashBudget: -1,
		corrupt: func(dir string) error { return TornJournalTail(dir, 5) }, maxTicks: 5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: false, wantReassert: true,
	},
	{
		// F7: total storage corruption at the promoting site (every state
		// file's magic wiped). It comes up cold — but still fenced, because
		// its generation is floored above everything its lease observed —
		// and rebuilds by epoch.
		name: "F7_wiped_state_files", sites: 2, epochs: 1, crashBudget: -1,
		corrupt: WipeStateMagic, maxTicks: 5,
		wantPromoted: 1, wantWarm: false, wantEpoch: 0, wantMirror: false, wantReassert: false,
	},
	{
		// F8: drop + delay chaos on the promoted controller's agent links
		// during the re-assert; per-RPC retries ride it out and the hand-off
		// still completes deterministically.
		name: "F8_chaos_during_reassert", sites: 2, epochs: 1, crashBudget: -1,
		agentSpec: Spec{Seed: 4321, Drop: 0.10, DelayProb: 0.3,
			DelayMin: 200 * time.Microsecond, DelayMax: time.Millisecond},
		maxTicks:     5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F9: storm + failover. The leader dies mid-epoch while a
		// degradation storm has a second fiber calibrated high and the
		// class-aware ladder is admitting per tier; the promoted site
		// replays the same storm reaction, and the per-class admission
		// decisions (captured in Admission and the event lines) must be
		// bit-identical on replay.
		name: "F9_storm_failover", sites: 2, epochs: 1, crashBudget: 2, maxTicks: 5,
		classes:      te.DefaultClassSpec(),
		storm:        []core.DegradationSignal{{Fiber: 1, PNN: 0.7}},
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
}

// geoFailoverMatrix holds F10–F14, the rows that stress the replication
// plane: replication lag, leader partition, promotion racing a live epoch,
// stream corruption and re-sync under load. They run through the same
// runner as F1–F9.
var geoFailoverMatrix = []failoverCase{
	{
		// F10: site 1's replication stream drops half its frames while the
		// leader-side buffer retains a single record, so every missed ship
		// puts the site behind the buffer and forces a snapshot re-sync. The
		// lagging site must be re-synced BEFORE it re-asserts: the promoted
		// plan is the replicated truth, not a stale prefix.
		name: "F10_lagging_site_resync", sites: 2, epochs: 4, retain: 1,
		shipSpec:    map[int]Spec{1: {Seed: 7, Drop: 0.5}},
		crashBudget: -1, maxTicks: 8,
		wantPromoted: 1, wantWarm: true, wantEpoch: 4, wantMirror: true, wantReassert: true,
		wantMinResyncs: 1,
	},
	{
		// F11: full partition, two claimants. The leader is alive but cut
		// off from the lease endpoint and every site; both sites' leases
		// lapse. Site 1 wins the claim; site 2's independent claim carries
		// the same floored generation and must lose the agents' named
		// tie-break; the partitioned zombie's full epoch must not install a
		// single stale-generation rate.
		name: "F11_partition_two_claimants", sites: 2, epochs: 2,
		crashBudget: -1, partition: true, secondClaim: true, maxTicks: 8,
		wantPromoted: 1, wantWarm: true, wantEpoch: 2, wantMirror: true, wantReassert: true,
		wantFenced: 1,
	},
	{
		// F12: promotion racing a live solve epoch. The leases lapse while
		// the leader is healthy mid-fan-out; site 1 claims at an exact point
		// inside the leader's RPC sequence. The zombie finishes its epoch on
		// the degradation ladder and every post-claim write it sends is
		// fenced.
		name: "F12_promotion_races_live_epoch", sites: 2, epochs: 1,
		crashBudget: -1, hookOffset: 3,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F13: replication-stream corruption during a degradation storm with
		// SLO classes active — composes the admission ladder with shipping.
		// Corrupted frames are caught by the receiver's CRC, nacked into
		// snapshot re-syncs, and the promoted site still replays the storm's
		// per-class admission decisions bit-identically.
		name: "F13_corrupt_stream_storm", sites: 2, epochs: 3,
		shipSpec:    map[int]Spec{1: {Seed: 4242, Corrupt: 0.6}},
		crashBudget: -1, maxTicks: 8,
		classes:      te.DefaultClassSpec(),
		storm:        []core.DegradationSignal{{Fiber: 1, PNN: 0.7}},
		wantPromoted: 1, wantWarm: true, wantEpoch: 3, wantMirror: true, wantReassert: true,
		wantMinResyncs: 1,
	},
	{
		// F14: snapshot re-sync under load. Rapid epochs against a one-record
		// buffer with both ship streams dropping and delaying, then a
		// mid-epoch leader kill: sites live mostly off snapshot re-syncs, and
		// promotion still lands inside one TE period with exact accounting.
		name: "F14_resync_under_load", sites: 2, epochs: 6, retain: 1,
		shipSpec: map[int]Spec{
			1: {Seed: 11, Drop: 0.4},
			2: {Seed: 12, Drop: 0.4, DelayProb: 0.2, DelayMin: 200 * time.Microsecond, DelayMax: time.Millisecond},
		},
		crashBudget: 2, maxTicks: 8,
		wantPromoted: 1, wantWarm: true, wantEpoch: 6, wantMirror: true, wantReassert: true,
		wantMinResyncs: 1,
	},
}

// TestFailoverMatrix runs every F1–F9 row twice and requires the two
// traces to be bit-identical (see replayFailoverRows).
func TestFailoverMatrix(t *testing.T) {
	replayFailoverRows(t, failoverMatrix)
}

// TestGeoFailoverMatrix does the same for the F10–F14 replication-plane
// rows.
func TestGeoFailoverMatrix(t *testing.T) {
	replayFailoverRows(t, geoFailoverMatrix)
}

// replayFailoverRows runs each row twice as a subtest and requires the two
// traces to be bit-identical: same event order, same fault histories, same
// halt point, same final plans, and byte-identical state directories.
func replayFailoverRows(t *testing.T, rows []failoverCase) {
	for _, fc := range rows {
		t.Run(fc.name, func(t *testing.T) {
			a := runFailoverScenario(t, fc)
			b := runFailoverScenario(t, fc)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("row does not replay bit-identically:\n run A: %+v\n run B: %+v", a, b)
			}
		})
	}
}
