package wan

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"prete/internal/obs"
)

// agentAddrs maps a testbed's agent fleet to the name->address form a
// SiteSet takes.
func agentAddrs(tb *Testbed) map[string]string {
	m := make(map[string]string, len(tb.Agents))
	for _, a := range tb.Agents {
		m[a.Name] = a.Addr()
	}
	return m
}

// newSiteHarness stands up a stateful leader testbed, its lease endpoint,
// and a cross-site set of n standby sites, each with its own replicated
// state directory under a shared root. LeaseTicks is 3 with a fast 100 ms
// heartbeat timeout so failovers resolve in a handful of ticks.
func newSiteHarness(t *testing.T, n int) (tb *Testbed, lease *LeaseServer, ss *SiteSet) {
	t.Helper()
	dir := t.TempDir()
	tb = newStateTestbed(t)
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	lease, err := NewLeaseServer(tb.Ctl.Generation)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lease.Close() })
	ss, err = NewSiteSet(dir, t.TempDir(), lease.Addr(), agentAddrs(tb), SiteOptions{
		Sites:            n,
		LeaseTicks:       3,
		HeartbeatTimeout: 100 * time.Millisecond,
		Metrics:          obs.NewRegistry(),
		Log:              NewEventLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return tb, lease, ss
}

// TestSiteSetShipsAndMirrors: a healthy leader's journal records ship to
// every site on each tick, every site's mirror tracks the live epoch, the
// shipping accounting balances exactly, and no lease ever runs low.
func TestSiteSetShipsAndMirrors(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, _, ss := newSiteHarness(t, 2)

	// Cold tick before any epoch: no promotion, empty mirrors.
	if p, err := ss.Tick(); p != nil || err != nil {
		t.Fatalf("cold tick: promotion=%v err=%v", p, err)
	}
	for _, st := range ss.Status() {
		if st.Epoch != 0 || st.Promoted {
			t.Fatalf("cold site status = %+v", st)
		}
	}

	for epoch := uint64(1); epoch <= 2; epoch++ {
		if _, err := tb.RunScenario(7); err != nil {
			t.Fatal(err)
		}
		if p, err := ss.Tick(); p != nil || err != nil {
			t.Fatalf("tick after epoch %d: promotion=%v err=%v", epoch, p, err)
		}
		for _, st := range ss.Status() {
			if st.Epoch != epoch {
				t.Errorf("site %d mirror epoch = %d after epoch %d", st.ID, st.Epoch, epoch)
			}
			if st.Applied < epoch {
				t.Errorf("site %d applied prefix = %d after epoch %d", st.ID, st.Applied, epoch)
			}
			if st.Resyncs != 0 || st.FencedClaims != 0 || st.Promoted {
				t.Errorf("site %d unexpected state: %+v", st.ID, st)
			}
			if st.LeaseRemaining <= 0 {
				t.Errorf("site %d lease low: %+v", st.ID, st)
			}
			if st.LeaseGen != 1 {
				t.Errorf("site %d lease gen = %d, want live leader gen 1", st.ID, st.LeaseGen)
			}
		}
	}

	// Exact shipping accounting: every shipped frame is acked, nothing is in
	// flight, nothing needed a retry or a snapshot on a clean stream.
	rs := ss.ReplStats()
	if rs.Shipped == 0 || rs.Shipped != rs.Acked || rs.Inflight != 0 || rs.Resent != 0 || rs.Resyncs != 0 {
		t.Errorf("clean-stream accounting off: %+v", rs)
	}
	m := ss.opt.Metrics
	if v := m.Counter("wan.georep.ticks").Value(); v != 3 {
		t.Errorf("wan.georep.ticks = %d, want 3", v)
	}
	if v := m.Counter("wan.georep.heartbeats").Value(); v != 6 {
		t.Errorf("wan.georep.heartbeats = %d, want 6", v)
	}
	if v := m.Counter("wan.georep.misses").Value(); v != 0 {
		t.Errorf("wan.georep.misses = %d, want 0", v)
	}
	if v := m.Counter("wan.georep.elections").Value(); v != 0 {
		t.Errorf("wan.georep.elections = %d, want 0", v)
	}
}

// TestSiteServerProtocol pins the replication wire contract between the
// sitePipe shipper and a SiteServer: ack, re-sync, and refusal responses
// map onto the persist.Pipe result exactly, the snapshot flag survives the
// trip, and a non-replication message is refused without killing the
// connection.
func TestSiteServerProtocol(t *testing.T) {
	checkGoroutineLeaks(t)
	type answer struct {
		ack    uint64
		resync bool
		errstr string
	}
	script := []answer{{ack: 5}, {ack: 5, resync: true}, {errstr: "boom"}, {ack: 6}}
	var mu sync.Mutex
	var snapshots []bool
	srv, err := NewSiteServer(func(frame []byte, snapshot bool) (uint64, bool, string) {
		mu.Lock()
		defer mu.Unlock()
		snapshots = append(snapshots, snapshot)
		a := script[0]
		script = script[1:]
		return a.ack, a.resync, a.errstr
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cn, err := TCPTransport{}.Dial("repl/1", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	pipe := sitePipe{conn: cn, timeout: time.Second}

	if ack, resync, err := pipe.Ship([]byte("r1"), false); ack != 5 || resync || err != nil {
		t.Fatalf("acked record = (%d, %v, %v), want (5, false, nil)", ack, resync, err)
	}
	if ack, resync, err := pipe.Ship([]byte("r2"), false); ack != 5 || !resync || err != nil {
		t.Fatalf("re-sync answer = (%d, %v, %v), want (5, true, nil)", ack, resync, err)
	}
	if _, _, err := pipe.Ship([]byte("r3"), false); err == nil {
		t.Fatal("refused frame shipped without error")
	}
	if _, _, err := pipe.Ship([]byte("snap"), true); err != nil {
		t.Fatalf("snapshot ship: %v", err)
	}
	mu.Lock()
	wantSnaps := []bool{false, false, false, true}
	if !reflect.DeepEqual(snapshots, wantSnaps) {
		t.Errorf("snapshot flags seen = %v, want %v", snapshots, wantSnaps)
	}
	mu.Unlock()

	// A non-replication message is refused, and the connection survives.
	if resp, _ := cn.RoundTrip(&Request{Type: MsgPing}, time.Second); resp == nil || resp.OK || resp.Err == "" {
		t.Fatalf("site ingress accepted a non-replication message: %+v", resp)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSitePromotionLeaseGate: claiming leadership while the leader's lease
// is still live fails typed with ErrLeaseValid before any network traffic,
// and an unknown site id is rejected outright.
func TestSitePromotionLeaseGate(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, _, ss := newSiteHarness(t, 1)
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Promote(1); !errors.Is(err, ErrLeaseValid) {
		t.Fatalf("claim under a live lease: err = %v, want ErrLeaseValid", err)
	}
	if ss.Promoted() {
		t.Fatal("refused claim left the set promoted")
	}
	if _, err := ss.Promote(9); err == nil || errors.Is(err, ErrLeaseValid) {
		t.Fatalf("unknown site claim: err = %v, want a not-found error", err)
	}
}

// TestEqualGenNamedTiebreak pins the agent-side arbitration that replaces
// the shared flock across sites: two claimants fenced to the same
// generation tie-break to whichever named leader reached the agent first,
// while unnamed equal-generation senders keep the legacy always-accepted
// behaviour.
func TestEqualGenNamedTiebreak(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	cn, err := TCPTransport{}.Dial("ctl", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	ping := func(gen uint64, leader string) *Response {
		t.Helper()
		// A refusal surfaces as both a populated Response and an error; the
		// Response carries the verdict the test cares about.
		resp, err := cn.RoundTrip(&Request{Type: MsgPing, Gen: gen, Leader: leader}, time.Second)
		if resp == nil {
			t.Fatalf("ping gen=%d leader=%q: no response (%v)", gen, leader, err)
		}
		return resp
	}

	if resp := ping(5, "site-1"); !resp.OK || resp.Stale {
		t.Fatalf("first named claimant refused: %+v", resp)
	}
	if got := a.MaxGen(); got != 5 {
		t.Fatalf("agent fence = gen %d, want 5", got)
	}
	// An equal-generation sibling claimant loses the tie-break.
	if resp := ping(5, "site-2"); !resp.Stale || resp.Gen != 5 {
		t.Fatalf("sibling claimant at the same gen accepted: %+v", resp)
	}
	// The winner keeps working at the same generation.
	if resp := ping(5, "site-1"); !resp.OK || resp.Stale {
		t.Fatalf("winning claimant refused at its own gen: %+v", resp)
	}
	// Unnamed equal-generation traffic is the legacy protocol: accepted.
	if resp := ping(5, ""); !resp.OK || resp.Stale {
		t.Fatalf("legacy unnamed sender refused at the fence gen: %+v", resp)
	}
	// Older generations stay fenced regardless of the name.
	if resp := ping(4, "site-1"); !resp.Stale {
		t.Fatalf("stale generation accepted from the winner: %+v", resp)
	}
	// A higher generation hands the name over; the old winner is now stale.
	if resp := ping(6, "site-2"); !resp.OK || resp.Stale {
		t.Fatalf("higher-gen claimant refused: %+v", resp)
	}
	if resp := ping(6, "site-1"); !resp.Stale {
		t.Fatalf("dethroned claimant accepted at the new gen: %+v", resp)
	}
	if got := a.FenceRejections(); got != 3 {
		t.Errorf("fence rejections = %d, want 3", got)
	}
}

// TestSiteFailoverPromotesWarm is the cross-site end-to-end check: the
// leader's lease endpoint dies, site 1's lease runs out after a full
// duration of misses, and the site promotes from its own replicated
// directory — warm, mirror-matched, fenced one generation above everything
// its lease observed — then re-asserts the last-good plan while the zombie
// predecessor bounces off the fleet-wide fence.
func TestSiteFailoverPromotesWarm(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, lease, ss := newSiteHarness(t, 2)
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Tick(); err != nil {
		t.Fatal(err)
	}
	wantRates := tb.Ctl.LastGoodRates()
	if wantRates == nil {
		t.Fatal("no last-good rates after epoch 1")
	}

	// Leader death: the lease endpoint dies with the process, but the
	// leader's agent connections survive — the zombie case. There is no
	// shared flock to release across sites.
	lease.Close()

	var p *SitePromotion
	ticks := 0
	for p == nil {
		var err error
		if p, err = ss.Tick(); err != nil {
			t.Fatalf("tick %d after lease death: %v", ticks, err)
		}
		if ticks++; ticks > 6 {
			t.Fatal("no promotion within 6 ticks of lease death")
		}
	}
	if p.SiteID != 1 {
		t.Errorf("promoted site = %d, want lowest site 1", p.SiteID)
	}
	if !p.Recovery.Warm || p.Recovery.Epoch != 1 || p.Recovery.Generation != 2 {
		t.Errorf("promotion recovery = %+v, want warm epoch 1 gen 2", p.Recovery)
	}
	if !p.MirrorMatch {
		t.Error("replicated mirror did not match recovered state")
	}
	if !p.Reasserted || p.Degraded {
		t.Errorf("re-assert: reasserted=%v degraded=%v, want clean re-assert", p.Reasserted, p.Degraded)
	}
	if p.Elapsed >= 10*time.Second {
		t.Errorf("promotion took %v, want well under one TE period", p.Elapsed)
	}
	if !ss.Promoted() {
		t.Error("set not marked promoted")
	}
	for _, st := range ss.Status() {
		if st.ID == 1 && !st.Promoted {
			t.Errorf("site 1 status not promoted: %+v", st)
		}
	}

	zombie := tb.AdoptPromoted(p.Ctl)
	t.Cleanup(func() { zombie.Close() })

	// The fleet converged back onto the last-good plan under generation 2.
	for _, a := range tb.Agents {
		if got := a.Rates(); !reflect.DeepEqual(got, wantRates) {
			t.Errorf("agent %s rates after failover = %v, want %v", a.Name, got, wantRates)
		}
		if got := a.MaxGen(); got != 2 {
			t.Errorf("agent %s fence = gen %d, want 2", a.Name, got)
		}
	}
	// The zombie still stamps generation 1; its writes bounce off the fence.
	if _, err := zombie.UpdateRates(map[string]float64{"t0": 99}); err == nil {
		t.Fatal("zombie leader's post-promotion write accepted")
	}
	fenced := 0
	for _, a := range tb.Agents {
		fenced += a.FenceRejections()
	}
	if fenced == 0 {
		t.Error("no agent recorded a fence rejection")
	}

	// The site set is inert after hand-off; the adopted controller runs the
	// next epoch as the recovered lineage.
	if p2, err := ss.Tick(); p2 != nil || err != nil {
		t.Fatalf("post-promotion tick: promotion=%v err=%v", p2, err)
	}
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if got := tb.Ctl.Epoch(); got != 2 {
		t.Errorf("epoch after failover + one round = %d, want 2", got)
	}
	m := ss.opt.Metrics
	if v := m.Counter("wan.georep.elections").Value(); v != 1 {
		t.Errorf("wan.georep.elections = %d, want 1", v)
	}
	if v := m.Counter("wan.failover.promotions").Value(); v != 1 {
		t.Errorf("wan.failover.promotions = %d, want 1", v)
	}
	if v := m.Counter("wan.failover.mirror_match").Value(); v != 1 {
		t.Errorf("wan.failover.mirror_match = %d, want 1", v)
	}
}

// TestRetryBudgetBoundsRound: with a round budget armed via BeginRound, a
// controller facing a dead agent stops retrying once the next backoff
// would overrun the budget, failing typed with ErrRetryBudget — while the
// same fleet state without a budget runs the full retry ladder to a plain
// giveup.
func TestRetryBudgetBoundsRound(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	ctl := newTestController(t, map[string]string{"s1": a.Addr()})
	ctl.Metrics = obs.NewRegistry()
	ctl.Retry = RetryPolicy{MaxAttempts: 8, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Jitter: 0.5}
	if err := ctl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Budgeted round: the first backoff already overruns 1 ms of remaining
	// budget, so the round gives up typed long before 8 attempts elapse.
	ctl.BeginRound(time.Millisecond)
	start := time.Now()
	err := ctl.Ping()
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("budgeted ping against a dead agent: err = %v, want ErrRetryBudget", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("budgeted round ran %v — budget did not bound retries", took)
	}
	if v := ctl.Metrics.Counter("wan.rpc.budget_giveups").Value(); v < 1 {
		t.Errorf("wan.rpc.budget_giveups = %d, want >= 1", v)
	}

	// Budget cleared: the same failure runs the full ladder to a plain
	// giveup, not a budget error.
	ctl.BeginRound(0)
	if err := ctl.Ping(); err == nil || errors.Is(err, ErrRetryBudget) {
		t.Fatalf("unbudgeted ping: err = %v, want a plain giveup", err)
	}
}

// TestSetLeaderReachablePausesStream: a partitioned leader stops driving
// the replication stream — sites fall behind — and resuming reachability
// ships the backlog on the next tick without a re-sync.
func TestSetLeaderReachablePausesStream(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, _, ss := newSiteHarness(t, 1)

	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	ss.SetLeaderReachable(false)
	if p, err := ss.Tick(); p != nil || err != nil {
		t.Fatalf("partitioned tick: promotion=%v err=%v", p, err)
	}
	if rs := ss.ReplStats(); rs.Shipped != 0 {
		t.Fatalf("partitioned leader still shipped: %+v", rs)
	}
	if st := ss.Status()[0]; st.Epoch != 0 {
		t.Fatalf("site mirror advanced across the partition: %+v", st)
	}
	// Heartbeats are governed by the lease endpoint, not the stream: the
	// lease stayed fresh through the partition.
	if st := ss.Status()[0]; st.LeaseRemaining <= 0 {
		t.Fatalf("lease lapsed during a leader-side partition: %+v", st)
	}

	ss.SetLeaderReachable(true)
	if p, err := ss.Tick(); p != nil || err != nil {
		t.Fatalf("healed tick: promotion=%v err=%v", p, err)
	}
	rs := ss.ReplStats()
	if rs.Shipped == 0 || rs.Shipped != rs.Acked || rs.Resyncs != 0 {
		t.Fatalf("backlog did not ship cleanly after heal: %+v", rs)
	}
	if st := ss.Status()[0]; st.Epoch != 1 {
		t.Fatalf("site mirror behind after heal: %+v", st)
	}
	if got := ss.Clock().Now(); got != 2 {
		t.Fatalf("lease clock at %d after two ticks, want 2", got)
	}
}

// TestFencedClaimStepsDownAndRejoins: a rival claimant (a sibling site this
// set cannot see) has already fenced every agent at a higher generation.
// When this set's site claims after lease expiry, the fence probe is
// refused, the claim steps down — controller torn down, directory re-opened
// for standby duty — and ErrClaimFenced surfaces. The site keeps standing
// by: the next election repeats the claim and loses again.
func TestFencedClaimStepsDownAndRejoins(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, lease, ss := newSiteHarness(t, 1)

	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if p, err := ss.Tick(); p != nil || err != nil {
		t.Fatalf("warm tick: promotion=%v err=%v", p, err)
	}

	// The rival fences the whole fleet far above anything this site's
	// lease observed.
	for _, a := range tb.Agents {
		cn, err := TCPTransport{}.Dial("ctl", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := cn.RoundTrip(&Request{Type: MsgPing, Gen: 7, Leader: "site-9"}, time.Second)
		cn.Close()
		if resp == nil || !resp.OK {
			t.Fatalf("rival fence refused: %+v", resp)
		}
	}

	lease.Close()
	var ferr error
	for i := 0; i < 6 && ferr == nil; i++ {
		_, ferr = ss.Tick()
	}
	if !errors.Is(ferr, ErrClaimFenced) {
		t.Fatalf("claim against a fenced fleet: err = %v, want ErrClaimFenced", ferr)
	}
	if ss.Promoted() {
		t.Fatal("fenced site still marked itself leader")
	}
	st := ss.Status()[0]
	if st.FencedClaims != 1 || st.Promoted {
		t.Fatalf("post-fence status: %+v", st)
	}
	if st.Applied != 1 {
		t.Fatalf("rejoined standby lost its applied prefix: %+v", st)
	}
	m := ss.opt.Metrics
	if v := m.Counter("wan.georep.fenced_claims").Value(); v != 1 {
		t.Errorf("wan.georep.fenced_claims = %d, want 1", v)
	}
	if v := m.Counter("wan.georep.rejoin_errors").Value(); v != 0 {
		t.Errorf("wan.georep.rejoin_errors = %d, want 0", v)
	}
	if v := m.Counter("wan.failover.promotions").Value(); v != 0 {
		t.Errorf("wan.failover.promotions = %d, want 0", v)
	}

	// Standby duty resumed: the directory re-opened, so the next election
	// claims again — and loses to the same fence.
	if _, err := ss.Tick(); !errors.Is(err, ErrClaimFenced) {
		t.Fatalf("second claim: err = %v, want ErrClaimFenced", err)
	}
	if got := ss.Status()[0].FencedClaims; got != 2 {
		t.Fatalf("fenced claims after second loss = %d, want 2", got)
	}
}

// TestDoublePromotionRace: both sites' leases lapse at once and the two
// claim concurrently. With no lock shared between them, each opens its own
// directory at the same floored generation; the agents arbitrate. The
// fence probe pings agents in sorted name order, so the first agent decides:
// exactly one claim wins, the other is refused there and steps down with
// ErrClaimFenced, and the run is clean under -race.
func TestDoublePromotionRace(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, lease, ss := newSiteHarness(t, 2)
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Tick(); err != nil {
		t.Fatal(err)
	}
	lease.Close()
	ss.Clock().Advance(ss.opt.LeaseTicks) // both leases lapse with no tick in between

	type outcome struct {
		p   *SitePromotion
		err error
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for i, id := range []int{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := ss.Promote(id)
			results[i] = outcome{p, err}
		}()
	}
	wg.Wait()

	var won, fenced int
	for _, r := range results {
		switch {
		case r.p != nil && r.err == nil:
			won++
			t.Cleanup(func() { r.p.Ctl.Close() })
			if !r.p.Recovery.Warm || r.p.Recovery.Generation != 2 {
				t.Errorf("winner recovery = %+v, want warm gen 2", r.p.Recovery)
			}
		case errors.Is(r.err, ErrClaimFenced):
			fenced++
		default:
			t.Errorf("unexpected race outcome: promotion=%v err=%v", r.p, r.err)
		}
	}
	if won != 1 || fenced != 1 {
		t.Fatalf("race admitted %d winners, fenced %d — want exactly 1 and 1", won, fenced)
	}
	if !ss.Promoted() {
		t.Error("set not marked promoted after the race")
	}
}

// TestReplicasQuietByteIdentity pins the quiet-standby guarantee: a leader
// watched by standby sites produces exactly the same event sequence, the
// same agent-visible rates, and byte-identical state-directory files as an
// unwatched leader — replication reads the leader's journal and writes only
// the sites' own directories until a failover actually happens.
func TestReplicasQuietByteIdentity(t *testing.T) {
	checkGoroutineLeaks(t)
	run := func(sites int) (events []string, rates []map[string]float64, files map[string][32]byte) {
		dir := t.TempDir()
		tb := newStateTestbed(t)
		if _, err := tb.OpenState(dir); err != nil {
			t.Fatal(err)
		}
		var ss *SiteSet
		if sites > 0 {
			lease, err := NewLeaseServer(tb.Ctl.Generation)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lease.Close() })
			ss, err = NewSiteSet(dir, t.TempDir(), lease.Addr(), agentAddrs(tb), SiteOptions{
				Sites:   sites,
				Metrics: obs.NewRegistry(),
				Log:     NewEventLog(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ss.Close() })
		}
		for i := 0; i < 2; i++ {
			if _, err := tb.RunScenario(7); err != nil {
				t.Fatal(err)
			}
			if ss != nil {
				if p, err := ss.Tick(); p != nil || err != nil {
					t.Fatalf("quiet tick: promotion=%v err=%v", p, err)
				}
			}
		}
		if ss != nil {
			for _, st := range ss.Status() {
				if st.Epoch != 2 {
					t.Fatalf("site %d mirror epoch = %d, want 2 (the sites were not watching)", st.ID, st.Epoch)
				}
			}
		}
		for _, a := range tb.Agents {
			rates = append(rates, a.Rates())
		}
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files = make(map[string][32]byte, len(names))
		for _, de := range names {
			b, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[de.Name()] = sha256.Sum256(b)
		}
		return tb.Ctl.Log.Events(), rates, files
	}

	plainEvents, plainRates, plainFiles := run(0)
	watchEvents, watchRates, watchFiles := run(2)
	if !reflect.DeepEqual(watchEvents, plainEvents) {
		t.Errorf("leader event sequence diverged under watch:\n with: %v\n want: %v",
			watchEvents, plainEvents)
	}
	if !reflect.DeepEqual(watchRates, plainRates) {
		t.Errorf("agent rates diverged under watch: %v vs %v", watchRates, plainRates)
	}
	if !reflect.DeepEqual(watchFiles, plainFiles) {
		t.Errorf("state-directory bytes diverged under watch:\n with: %v\n want: %v",
			watchFiles, plainFiles)
	}
}
