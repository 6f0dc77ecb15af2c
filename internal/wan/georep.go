package wan

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"prete/internal/obs"
	"prete/internal/persist"
)

// This file is controller HA: the one path every failover takes, whether
// the standbys sit in other sites or on the leader's own host. Each standby
// site owns its *own* persist directory, fed by a persist.Replicator
// shipping CRC-framed records over wan.Transport (so the whole stream is
// fault-injectable), and leadership is a time-bounded wan.Lease renewed by
// heartbeats. Same-host standbys are the degenerate case: sites whose
// directories share a disk with the leader's, joined by a loopback pipe.
// No lock is shared between the leader and any site, so the only
// split-brain defense is the agents' generation fence: a promoting site
// floors its generation above the highest leader generation its lease
// observed (persist.Options.MinGeneration), names itself in every fenced
// RPC, and the agents reject both the zombie's older generation and any
// equal-generation sibling claimant. The failover matrix rows F1-F14 prove
// that defense sufficient under crashes, partitions, corruption, lag, and
// load.

// ErrLeaseValid reports a promotion attempt while the leader's lease is
// still live: claiming now could split the brain purely by impatience, so
// the claim is refused locally before any network traffic.
var ErrLeaseValid = errors.New("wan: leader lease still valid")

// ErrClaimFenced reports a promotion claim that lost at the agents: another
// claimant already fenced the fleet at or above our generation. The site
// steps down and rejoins as a standby.
var ErrClaimFenced = errors.New("wan: promotion claim fenced by a sibling")

// SiteServer is a standby site's replication ingress: a loopback listener
// accepting MsgReplRecord/MsgReplSnapshot frames and handing them to the
// site's apply function, which returns the site's contiguous applied prefix
// and whether it wants a snapshot re-sync. Like the other wan endpoints it
// dies with its listener, so closing it models a site partition or crash.
type SiteServer struct{ srv *server }

// NewSiteServer starts a replication ingress on a fresh loopback port.
// apply must be safe for concurrent use.
func NewSiteServer(apply func(frame []byte, snapshot bool) (uint64, bool, string)) (*SiteServer, error) {
	srv, err := listen("site", func(req *Request) *Response {
		if req.Type != MsgReplRecord && req.Type != MsgReplSnapshot {
			return &Response{Err: fmt.Sprintf("site: unsupported message %q", req.Type)}
		}
		ack, resync, errstr := apply(req.Frame, req.Type == MsgReplSnapshot)
		return &Response{OK: errstr == "" && !resync, Err: errstr, Ack: ack, Resync: resync}
	})
	if err != nil {
		return nil, err
	}
	return &SiteServer{srv: srv}, nil
}

// Addr returns the ingress's listen address.
func (s *SiteServer) Addr() string { return s.srv.addr() }

// Close severs the listener and every live connection. Idempotent.
func (s *SiteServer) Close() error { return s.srv.close() }

// sitePipe adapts one wan.Conn to the persist.Pipe shipping contract.
type sitePipe struct {
	conn    Conn
	timeout time.Duration
}

// Ship delivers one replication frame and interprets the site's answer: a
// nil Response is a transport failure (retryable), Resync asks for a
// snapshot, and any other rejection is surfaced as an error.
func (p sitePipe) Ship(frame []byte, snapshot bool) (uint64, bool, error) {
	typ := MsgReplRecord
	if snapshot {
		typ = MsgReplSnapshot
	}
	resp, err := p.conn.RoundTrip(&Request{Type: typ, Frame: frame}, p.timeout)
	if resp == nil {
		return 0, false, err
	}
	if resp.Resync {
		return resp.Ack, true, nil
	}
	if !resp.OK {
		return resp.Ack, false, fmt.Errorf("wan: site refused frame: %s", resp.Err)
	}
	return resp.Ack, false, nil
}

// SiteOptions tunes a SiteSet.
type SiteOptions struct {
	// Sites is the number of standby sites (site IDs 1..Sites).
	Sites int
	// LeaseTicks is the lease duration in logical-clock ticks; <= 0 selects
	// 3. A site may claim leadership only after going a full lease duration
	// without a successful heartbeat.
	LeaseTicks uint64
	// HeartbeatTimeout bounds one heartbeat round trip; <= 0 selects 500 ms.
	HeartbeatTimeout time.Duration
	// RetainRecords caps the leader-side replication buffer (see
	// persist.ReplicatorOptions); <= 0 selects persist's default.
	RetainRecords int
	// CompactEvery is each site store's compaction cadence (0 = persist's
	// default).
	CompactEvery int
	// Transport is what a promoted site dials the switch agents through;
	// nil selects TCPTransport.
	Transport Transport
	// Ship supplies the per-site replication-stream transport, dialed under
	// the peer name "repl/<id>" so each stream gets a decorrelated fault
	// stream; nil selects TCPTransport.
	Ship func(id int) Transport
	// Heartbeat supplies the per-site lease transport, dialed under
	// "lease/<id>"; nil selects TCPTransport.
	Heartbeat func(id int) Transport
	// Timeout and Retry tune the promoted controller's RPCs (zero values
	// keep the wan defaults).
	Timeout time.Duration
	Retry   RetryPolicy
	// Metrics receives the wan.georep.* series plus the persist.repl.*
	// series of the underlying replicator and appliers.
	Metrics *obs.Registry
	// Log records the ordered, wall-clock-free replication/lease/election
	// events the bit-identical-replay tests diff.
	Log *EventLog
}

func (o SiteOptions) withDefaults() SiteOptions {
	if o.LeaseTicks == 0 {
		o.LeaseTicks = 3
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 500 * time.Millisecond
	}
	if o.Transport == nil {
		o.Transport = TCPTransport{}
	}
	return o
}

// site is one standby site: its own persist directory and store, the
// apply path fed by the leader's replicator, a lease renewed by heartbeats,
// and enough bookkeeping to audit a promotion.
type site struct {
	id    int
	dir   string
	srv   *SiteServer
	ship  Conn
	hb    Conn
	lease *Lease

	// Guarded by the owning SiteSet's mu.
	store       *persist.Store
	applier     *persist.Applier
	mirror      *EpochState
	lastApplied uint64
	takenOver   bool // promotion owns the directory; apply path detached
	crashed     bool // CrashSite: no heartbeats, no shipping, no claims
	missing     bool // currently in a heartbeat-miss streak
	promoted    bool
	fenced      int // claims lost at the agents
	resyncs     int64
}

// SiteStatus is a point-in-time snapshot of one site.
type SiteStatus struct {
	// ID is the site id (1-based; the leader is site 0).
	ID int
	// Epoch is the site's mirrored epoch (0 = nothing applied yet).
	Epoch uint64
	// Applied is the site's contiguous applied journal sequence.
	Applied uint64
	// LeaseRemaining is ticks until lease expiry (negative once expired).
	LeaseRemaining int64
	// LeaseGen is the highest leader generation the site's lease observed.
	LeaseGen uint64
	// Resyncs counts snapshot re-syncs applied at this site.
	Resyncs int64
	// FencedClaims counts promotion claims this site lost at the agents.
	FencedClaims int
	// Promoted reports the site now leads.
	Promoted bool
}

// SitePromotion is the outcome of a successful takeover by a standby site.
type SitePromotion struct {
	// SiteID is the site that took over.
	SiteID int
	// Ctl is the promoted controller: fenced above every generation the
	// site's lease observed, state recovered from the site's own replicated
	// directory, agents dialed. Ownership passes to the caller.
	Ctl *Controller
	// Recovery is what the promoted controller recovered locally.
	Recovery *Recovery
	// MirrorMatch reports the apply-path mirror agreed exactly with the
	// durably recovered state.
	MirrorMatch bool
	// Reasserted and Degraded report the fleet-wide re-assert outcome.
	Reasserted, Degraded bool
	// Resyncs is how many snapshot re-syncs this site needed over its
	// standby lifetime (lag it had to recover from).
	Resyncs int64
	// Elapsed is the wall time from claim to hand-off complete.
	Elapsed time.Duration
}

// SiteSet manages the standby sites of one controller: per-tick
// replication shipping, lease-renewing heartbeats, and promotion once a
// lease expires. Everything observable is tick-driven on a logical clock
// and seeded, so which site promotes, at what logical time, after how many
// re-syncs replays bit-identically for a fixed schedule and fault seed.
type SiteSet struct {
	agents map[string]string
	opt    SiteOptions
	clock  *LogicalClock
	repl   *persist.Replicator

	mu          sync.Mutex
	sites       []*site
	promoted    bool
	unreachable bool // leader-side partition: skip shipping
	lastDead    int64
}

// NewSiteSet builds opt.Sites standby sites for the leader whose
// state directory is leaderDir and whose lease listens at leaseAddr. Each
// site i owns sitesRoot/site-<i> as its local state directory; agents is
// the switch fleet a promoted site will dial.
func NewSiteSet(leaderDir, sitesRoot, leaseAddr string, agents map[string]string, opt SiteOptions) (*SiteSet, error) {
	if leaderDir == "" || sitesRoot == "" {
		return nil, fmt.Errorf("wan: site set needs leader and site directories")
	}
	opt = opt.withDefaults()
	repl, err := persist.NewReplicator(leaderDir, persist.ReplicatorOptions{
		RetainRecords: opt.RetainRecords,
		Metrics:       opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	ss := &SiteSet{agents: agents, opt: opt, clock: NewLogicalClock(), repl: repl}
	for id := 1; id <= opt.Sites; id++ {
		if err := ss.addSite(id, sitesRoot, leaseAddr); err != nil {
			ss.Close()
			return nil, err
		}
	}
	return ss, nil
}

func (ss *SiteSet) addSite(id int, sitesRoot, leaseAddr string) error {
	s := &site{id: id, dir: filepath.Join(sitesRoot, fmt.Sprintf("site-%d", id))}
	st, err := persist.Open(s.dir, persist.Options{
		CompactEvery: ss.opt.CompactEvery,
		Metrics:      ss.opt.Metrics,
	})
	if err != nil {
		return fmt.Errorf("wan: site %d: open: %w", id, err)
	}
	s.store = st
	s.applier = persist.NewApplier(st, persist.ApplierOptions{Metrics: ss.opt.Metrics})
	srv, err := NewSiteServer(ss.applyFor(s))
	if err != nil {
		st.Close()
		return fmt.Errorf("wan: site %d: %w", id, err)
	}
	s.srv = srv
	shipTr := Transport(TCPTransport{})
	if ss.opt.Ship != nil {
		shipTr = ss.opt.Ship(id)
	}
	ship, err := shipTr.Dial(fmt.Sprintf("repl/%d", id), srv.Addr())
	if err != nil {
		srv.Close()
		st.Close()
		return fmt.Errorf("wan: site %d: dial repl: %w", id, err)
	}
	s.ship = ship
	hbTr := Transport(TCPTransport{})
	if ss.opt.Heartbeat != nil {
		hbTr = ss.opt.Heartbeat(id)
	}
	hb, err := hbTr.Dial(fmt.Sprintf("lease/%d", id), leaseAddr)
	if err != nil {
		ship.Close()
		srv.Close()
		st.Close()
		return fmt.Errorf("wan: site %d: dial lease: %w", id, err)
	}
	s.hb = hb
	s.lease = NewLease(ss.clock, ss.opt.LeaseTicks)
	ss.mu.Lock()
	ss.sites = append(ss.sites, s)
	ss.mu.Unlock()
	ss.repl.AddTarget(fmt.Sprintf("site-%d", id), sitePipe{conn: ship, timeout: ss.opt.HeartbeatTimeout})
	return nil
}

// applyFor builds site s's frame-apply function: validate and apply via the
// site's Applier, keep the decoded mirror current, and translate gap/corrupt
// errors into re-sync requests.
func (ss *SiteSet) applyFor(s *site) func([]byte, bool) (uint64, bool, string) {
	return func(frame []byte, snapshot bool) (uint64, bool, string) {
		ss.mu.Lock()
		ap := s.applier
		taken := s.takenOver
		ss.mu.Unlock()
		if taken || ap == nil {
			return 0, false, fmt.Sprintf("site %d: promotion in progress", s.id)
		}
		ack, err := ap.Apply(frame, snapshot)
		switch {
		case err == nil:
		case errors.Is(err, persist.ErrGap) || errors.Is(err, persist.ErrBadFrame):
			ss.opt.Metrics.Counter("wan.georep.resync_requests").Inc()
			ss.opt.Log.Addf("site %d resync request ack=%d", s.id, ack)
			return ack, true, ""
		default:
			return ack, false, err.Error()
		}
		ss.mu.Lock()
		defer ss.mu.Unlock()
		if ack > s.lastApplied {
			s.lastApplied = ack
			if state, derr := decodeEpochState(frameBody(frame)); derr == nil {
				s.mirror = state
			} else {
				ss.opt.Metrics.Counter("wan.georep.decode_errors").Inc()
			}
			if snapshot {
				s.resyncs++
				ss.opt.Metrics.Counter("wan.georep.site_resyncs").Inc()
				ss.opt.Log.Addf("site %d resynced epoch=%d", s.id, ack)
			} else {
				ss.opt.Log.Addf("site %d mirror epoch=%d", s.id, ack)
			}
		}
		return ack, false, ""
	}
}

// frameBody extracts the record body of an already-validated frame.
func frameBody(frame []byte) []byte {
	_, body, err := persist.DecodeReplFrame(frame)
	if err != nil {
		return nil
	}
	return body
}

// Clock returns the lease clock (tests advance it to force expiries).
func (ss *SiteSet) Clock() *LogicalClock { return ss.clock }

// ReplStats returns the underlying replicator's shipping accounting.
func (ss *SiteSet) ReplStats() persist.ReplStats { return ss.repl.Stats() }

// SetLeaderReachable models the leader side of a partition: while false,
// Tick stops driving the replication stream (the leader cannot reach any
// site), without touching the sites' heartbeats — those are governed by the
// lease endpoint and the per-site heartbeat transports.
func (ss *SiteSet) SetLeaderReachable(ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.unreachable = !ok
}

// Promoted reports whether a site from this set has taken over.
func (ss *SiteSet) Promoted() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.promoted
}

// Status snapshots every site in id order.
func (ss *SiteSet) Status() []SiteStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]SiteStatus, 0, len(ss.sites))
	for _, s := range ss.sites {
		st := SiteStatus{
			ID:             s.id,
			Applied:        s.lastApplied,
			LeaseRemaining: s.lease.Remaining(),
			LeaseGen:       s.lease.Gen(),
			Resyncs:        s.resyncs,
			FencedClaims:   s.fenced,
			Promoted:       s.promoted,
		}
		if s.mirror != nil {
			st.Epoch = s.mirror.Epoch
		}
		out = append(out, st)
	}
	return out
}

// Tick advances the HA machinery one deterministic step: the logical clock
// moves one tick, the leader ships pending journal records to every site,
// every live (un-promoted, un-crashed) site heartbeats the lease, and if
// any live site's lease has expired the lowest such site claims leadership. Tick
// returns the SitePromotion on success, (nil, nil) while the leader's lease
// holds, and ErrClaimFenced (wrapped) when a claim lost at the agents.
func (ss *SiteSet) Tick() (*SitePromotion, error) {
	now := ss.clock.Advance(1)
	ss.opt.Metrics.Counter("wan.georep.ticks").Inc()
	ss.mu.Lock()
	unreachable := ss.unreachable
	promoted := ss.promoted
	var live []*site
	for _, s := range ss.sites {
		if !s.promoted && !s.crashed {
			live = append(live, s)
		}
	}
	ss.mu.Unlock()
	if !unreachable {
		if err := ss.repl.Tick(); err != nil {
			ss.opt.Metrics.Counter("wan.georep.ship_errors").Inc()
			ss.opt.Log.Addf("repl tick error")
		}
		if dead := ss.repl.Stats().TailDeadFiles; dead > ss.deadFilesSeen() {
			// Satellite of persist.TailStats: the leader's own directory has
			// files the tailer abandoned — alarm instead of shipping a silent
			// stale prefix forever.
			ss.setDeadFilesSeen(dead)
			ss.opt.Metrics.Counter("wan.georep.dead_file_alarms").Inc()
			ss.opt.Log.Addf("repl dead files n=%d", dead)
		}
	}
	for _, s := range live {
		ss.heartbeatSite(s)
	}
	if promoted {
		return nil, nil
	}
	for _, s := range live {
		if s.lease.Expired() {
			ss.opt.Metrics.Counter("wan.georep.elections").Inc()
			ss.opt.Log.Addf("election site=%d t=%d", s.id, now)
			return ss.Promote(s.id)
		}
	}
	return nil, nil
}

func (ss *SiteSet) deadFilesSeen() int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastDead
}

func (ss *SiteSet) setDeadFilesSeen(n int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastDead = n
}

// heartbeatSite runs one lease renewal probe for site s.
func (ss *SiteSet) heartbeatSite(s *site) {
	ss.opt.Metrics.Counter("wan.georep.heartbeats").Inc()
	resp, err := s.hb.RoundTrip(&Request{Type: MsgPing}, ss.opt.HeartbeatTimeout)
	ok := err == nil && resp != nil && resp.OK
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ok {
		ss.opt.Metrics.Counter("wan.georep.misses").Inc()
		ss.opt.Log.Addf("site %d heartbeat miss rem=%d", s.id, s.lease.Remaining())
		s.missing = true
		return
	}
	s.lease.Renew(resp.Gen)
	if s.missing {
		ss.opt.Log.Addf("site %d lease recovered gen=%d", s.id, resp.Gen)
		s.missing = false
	}
}

// CrashSite kills standby site id: its replication ingress and heartbeat
// connection close, the leader stops shipping to it, and it is skipped by
// every later heartbeat round and election — the failover matrix's
// standby-outage axis. The site's directory stays as the crash left it.
func (ss *SiteSet) CrashSite(id int) error {
	s := ss.findSite(id)
	if s == nil {
		return fmt.Errorf("wan: no site %d", id)
	}
	ss.mu.Lock()
	s.crashed = true
	ss.mu.Unlock()
	ss.repl.RemoveTarget(fmt.Sprintf("site-%d", id))
	s.ship.Close()
	s.srv.Close()
	s.hb.Close()
	ss.opt.Log.Addf("site %d crashed", id)
	return nil
}

// findSite returns the site with the given id.
func (ss *SiteSet) findSite(id int) *site {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, s := range ss.sites {
		if s.id == id {
			return s
		}
	}
	return nil
}

// Promote claims leadership for site id. The claim is local-first: the
// lease must have expired (time gate), the site detaches its apply path and
// re-opens its own directory with a generation floored above every leader
// generation its lease observed, and only then does it assert itself at the
// agents — a fence probe (ping) followed by a re-assert of the recovered
// last-good rates. A claim the agents refuse (a sibling already fenced the
// fleet) steps down: the controller is torn back down, the site re-opens as
// a standby, and ErrClaimFenced is returned. There is NO lock shared with
// the leader or a sibling — a partitioned site can always *claim*; the
// agents rejecting stale and tied generations are the sole defense, which
// is exactly what the F5 and F11 matrix rows prove.
func (ss *SiteSet) Promote(id int) (*SitePromotion, error) {
	s := ss.findSite(id)
	if s == nil {
		return nil, fmt.Errorf("wan: no site %d", id)
	}
	ss.mu.Lock()
	promoted, crashed := s.promoted, s.crashed
	ss.mu.Unlock()
	switch {
	case promoted:
		return nil, fmt.Errorf("wan: site %d already leads", id)
	case crashed:
		return nil, fmt.Errorf("wan: site %d is crashed", id)
	}
	if !s.lease.Expired() {
		return nil, fmt.Errorf("wan: site %d: %w", id, ErrLeaseValid)
	}
	start := time.Now()
	minGen := s.lease.Gen() + 1
	resyncs, mirror := ss.detachApply(s)

	ctl, err := NewControllerTransport(ss.opt.Transport, ss.agents)
	if err != nil {
		ss.rejoinStandby(s)
		return nil, fmt.Errorf("wan: promote site %d: %w", id, err)
	}
	ctl.Metrics = ss.opt.Metrics
	ctl.Log = ss.opt.Log
	ctl.StateCompactEvery = ss.opt.CompactEvery
	ctl.LeaderID = fmt.Sprintf("site-%d", id)
	if ss.opt.Timeout > 0 {
		ctl.Timeout = ss.opt.Timeout
	}
	if ss.opt.Retry.MaxAttempts > 0 {
		ctl.Retry = ss.opt.Retry
	}
	rec, err := ctl.OpenStateFenced(s.dir, minGen)
	if err != nil {
		ctl.Close()
		ss.rejoinStandby(s)
		return nil, fmt.Errorf("wan: promote site %d: %w", id, err)
	}
	p := &SitePromotion{SiteID: id, Ctl: ctl, Recovery: rec, Resyncs: resyncs}
	p.MirrorMatch = reflect.DeepEqual(mirror, rec.State)
	if p.MirrorMatch {
		ss.opt.Metrics.Counter("wan.failover.mirror_match").Inc()
	} else {
		ss.opt.Metrics.Counter("wan.failover.mirror_mismatch").Inc()
	}
	ss.opt.Log.Addf("site promotion site=%d gen=%d warm=%v mirror_match=%v",
		id, rec.Generation, rec.Warm, p.MirrorMatch)

	// Fence probe before any state-bearing write: a ping stamped with
	// (gen, leader) either raises the fence fleet-wide or reveals that a
	// sibling already holds it.
	if perr := ctl.Ping(); perr != nil {
		if errors.Is(perr, ErrStale) {
			return nil, ss.stepDown(s, ctl, "claim")
		}
		p.Degraded = true
		ss.opt.Metrics.Counter("wan.georep.claim_degraded").Inc()
		ss.opt.Log.Addf("site %d claim probe degraded", id)
	}
	if last := ctl.LastGoodRates(); last != nil {
		if _, uerr := ctl.UpdateRates(last); uerr != nil {
			if errors.Is(uerr, ErrStale) {
				return nil, ss.stepDown(s, ctl, "reassert")
			}
			p.Degraded = true
			ss.opt.Metrics.Counter("wan.failover.reassert_errors").Inc()
			ss.opt.Log.Addf("failover reassert failed site=%d", id)
		} else {
			p.Reasserted = true
			ss.opt.Metrics.Counter("wan.failover.reasserts").Inc()
			ss.opt.Log.Addf("failover reassert site=%d epoch=%d", id, rec.Epoch)
		}
	}
	ss.mu.Lock()
	s.promoted = true
	ss.promoted = true
	ss.mu.Unlock()
	ss.repl.RemoveTarget(fmt.Sprintf("site-%d", id))
	p.Elapsed = time.Since(start)
	ss.opt.Metrics.Counter("wan.failover.promotions").Inc()
	ss.opt.Metrics.Timer("wan.failover.time").Observe(p.Elapsed)
	return p, nil
}

// detachApply hands the site's directory from the apply path to a
// promotion: the applier's store is closed (releasing the local flock) and
// the replication ingress starts refusing frames. Returns the site's
// standby-lifetime re-sync count and its mirror for the audit.
func (ss *SiteSet) detachApply(s *site) (int64, *EpochState) {
	ss.mu.Lock()
	s.takenOver = true
	st := s.store
	s.store = nil
	s.applier = nil
	resyncs := s.resyncs
	mirror := s.mirror
	ss.mu.Unlock()
	if st != nil {
		st.Close()
	}
	return resyncs, mirror
}

// stepDown unwinds a claim the agents refused: the half-promoted
// controller (and with it the site store it opened) is closed, the site
// re-opens its directory and resumes standby duty, and the loss is
// recorded. Returns the wrapped ErrClaimFenced.
func (ss *SiteSet) stepDown(s *site, ctl *Controller, phase string) error {
	ctl.Close()
	ss.rejoinStandby(s)
	ss.mu.Lock()
	s.fenced++
	ss.mu.Unlock()
	ss.opt.Metrics.Counter("wan.georep.fenced_claims").Inc()
	ss.opt.Log.Addf("site %d %s fenced; stepping down", s.id, phase)
	return fmt.Errorf("wan: site %d: %w", s.id, ErrClaimFenced)
}

// rejoinStandby re-opens a site's directory for standby duty after a failed
// promotion, re-attaching the apply path so replication resumes.
func (ss *SiteSet) rejoinStandby(s *site) {
	st, err := persist.Open(s.dir, persist.Options{
		CompactEvery: ss.opt.CompactEvery,
		Metrics:      ss.opt.Metrics,
	})
	if err != nil {
		ss.opt.Metrics.Counter("wan.georep.rejoin_errors").Inc()
		ss.opt.Log.Addf("site %d rejoin failed", s.id)
		return
	}
	ss.mu.Lock()
	s.store = st
	s.applier = persist.NewApplier(st, persist.ApplierOptions{Metrics: ss.opt.Metrics})
	s.lastApplied = st.LastSeq()
	s.takenOver = false
	ss.mu.Unlock()
	ss.opt.Log.Addf("site %d rejoined as standby epoch=%d", s.id, st.LastSeq())
}

// Close tears down every site (ship and heartbeat connections, replication
// ingress, local store) and the replicator. A promoted controller is NOT
// closed — its ownership passed to the caller. Idempotent.
func (ss *SiteSet) Close() error {
	ss.mu.Lock()
	sites := ss.sites
	ss.sites = nil
	ss.mu.Unlock()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, s := range sites {
		if s.ship != nil {
			keep(s.ship.Close())
		}
		if s.hb != nil {
			keep(s.hb.Close())
		}
		if s.srv != nil {
			keep(s.srv.Close())
		}
		if s.store != nil {
			keep(s.store.Close())
		}
	}
	keep(ss.repl.Close())
	return first
}
